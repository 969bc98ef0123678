"""Exact linear programming over polyhedra.

A two-phase primal simplex on dense Fraction tableaus. Free variables are
split into differences of nonnegative variables, every inequality gets a
slack, and rows whose right-hand side starts out negative get an artificial
variable that phase 1 drives to zero. Entering and leaving variables follow
Bland's smallest-index rule, which rules out cycling and makes every run
deterministic: the same polyhedron and objective always produce the same
outcome, including the same witness point.

Unboundedness is reported as soon as an improving column has no blocking
row; no ray certificate is produced.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .numeric import ColVec, DimensionError, as_scalar, vec_scale, zeros_vec
from .polyhedra import LinearConstraint, Polyhedron

MAX = "max"
MIN = "min"


@dataclass(frozen=True)
class Optimal:
    """The optimum is attained: its value and a point attaining it."""

    value: Fraction
    witness: ColVec


@dataclass(frozen=True)
class Infeasible:
    """The polyhedron is empty."""


@dataclass(frozen=True)
class Unbounded:
    """Feasible, but the objective is unbounded in the requested sense."""


LpOutcome = Union[Optimal, Infeasible, Unbounded]


class _Simplex:
    """Mutable tableau state for a single solve.

    Columns 0..n-1 and n..2n-1 hold the positive and negative parts of the
    free variables, columns 2n..2n+m-1 the slacks, and any artificial
    columns sit at the end until phase 1 removes them.
    """

    def __init__(self, poly: Polyhedron):
        n = poly.dim
        m = len(poly.constraints)
        self.n = n
        self.struct_cols = 2 * n + m
        negate = [as_scalar(lc.b) < 0 for lc in poly.constraints]
        n_art = sum(negate)
        self.ncols = self.struct_cols + n_art
        self.T: list[list[Fraction]] = []
        self.rhs: list[Fraction] = []
        self.basis: list[int] = []
        art_seen = 0
        zero = Fraction(0)
        for i, lc in enumerate(poly.constraints):
            row = [zero] * self.ncols
            sign = -1 if negate[i] else 1
            for k, a in enumerate(lc.c.entries):
                if a:
                    row[k] = sign * a
                    row[n + k] = -sign * a
            row[2 * n + i] = Fraction(sign)
            if negate[i]:
                art_col = self.struct_cols + art_seen
                row[art_col] = Fraction(1)
                self.basis.append(art_col)
                self.rhs.append(-lc.b)
                art_seen += 1
            else:
                self.basis.append(2 * n + i)
                self.rhs.append(Fraction(lc.b))
            self.T.append(row)
        self.n_art = n_art
        self._feasible: bool | None = None

    def _pivot(self, r: int, j: int, obj: list[Fraction]) -> Fraction:
        """Make column j basic in row r; returns the objective-value shift."""
        piv = self.T[r][j]
        if piv != 1:
            inv = Fraction(1) / piv
            self.T[r] = [v * inv for v in self.T[r]]
            self.rhs[r] *= inv
        prow = self.T[r]
        prhs = self.rhs[r]
        for i in range(len(self.T)):
            if i == r:
                continue
            f = self.T[i][j]
            if f:
                self.T[i] = [a - f * b for a, b in zip(self.T[i], prow)]
                self.rhs[i] -= f * prhs
        delta = Fraction(0)
        f = obj[j]
        if f:
            obj[:] = [a - f * b for a, b in zip(obj, prow)]
            delta = f * prhs
        self.basis[r] = j
        return delta

    def _canonicalize(self, obj: list[Fraction]) -> Fraction:
        """Zero the objective coefficients of basic columns; returns the constant."""
        const = Fraction(0)
        for r, j in enumerate(self.basis):
            f = obj[j]
            if f:
                prow = self.T[r]
                obj[:] = [a - f * b for a, b in zip(obj, prow)]
                const += f * self.rhs[r]
        return const

    def _run(self, obj: list[Fraction], const: Fraction) -> tuple[str, Fraction]:
        """Maximize; returns ("optimal" | "unbounded", objective value)."""
        while True:
            enter = None
            for j in range(self.ncols):
                if obj[j] > 0:
                    enter = j
                    break
            if enter is None:
                return "optimal", const
            best_row = None
            best_ratio = None
            for i in range(len(self.T)):
                a = self.T[i][enter]
                if a > 0:
                    ratio = self.rhs[i] / a
                    if (
                        best_ratio is None
                        or ratio < best_ratio
                        or (ratio == best_ratio and self.basis[i] < self.basis[best_row])
                    ):
                        best_ratio = ratio
                        best_row = i
            if best_row is None:
                return "unbounded", const
            const += self._pivot(best_row, enter, obj)

    def phase1(self) -> bool:
        """Find a basic feasible solution. False means the polyhedron is empty."""
        if self._feasible is not None:
            return self._feasible
        if self.n_art == 0:
            self._feasible = True
            return True
        obj = [Fraction(0)] * self.ncols
        for c in range(self.struct_cols, self.ncols):
            obj[c] = Fraction(-1)
        const = self._canonicalize(obj)
        status, const = self._run(obj, const)
        if status != "optimal":
            # -(sum of artificials) is bounded above by zero.
            raise RuntimeError("simplex phase 1 reported an unbounded objective")
        if const != 0:
            self._feasible = False
            return False
        # Drive leftover artificials out of the basis. Their value is zero,
        # so these pivots are degenerate and keep the solution feasible.
        r = 0
        while r < len(self.T):
            if self.basis[r] >= self.struct_cols:
                pivot_col = None
                for jj in range(self.struct_cols):
                    if self.T[r][jj] != 0:
                        pivot_col = jj
                        break
                if pivot_col is None:
                    # All-zero structural row: redundant, drop it.
                    del self.T[r]
                    del self.rhs[r]
                    del self.basis[r]
                    continue
                self._pivot(r, pivot_col, obj)
            r += 1
        for i in range(len(self.T)):
            self.T[i] = self.T[i][: self.struct_cols]
        self.ncols = self.struct_cols
        self.n_art = 0
        self._feasible = True
        return True

    def maximize(self, objective: ColVec) -> tuple[str, Fraction | None, ColVec | None]:
        if not self.phase1():
            return "infeasible", None, None
        obj = [Fraction(0)] * self.ncols
        for k, c in enumerate(objective.entries):
            if c:
                obj[k] = c
                obj[self.n + k] = -c
        const = self._canonicalize(obj)
        status, const = self._run(obj, const)
        if status == "unbounded":
            return "unbounded", None, None
        vals = [Fraction(0)] * self.ncols
        for r, j in enumerate(self.basis):
            vals[j] = self.rhs[r]
        witness = ColVec(vals[k] - vals[self.n + k] for k in range(self.n))
        return "optimal", const, witness


def solve(poly: Polyhedron, objective: ColVec, sense: str = MAX) -> LpOutcome:
    """Optimize objective.x over poly in the given sense ("max" or "min")."""
    if objective.dim != poly.dim:
        raise DimensionError(
            f"objective of dim {objective.dim} over polyhedron of dim {poly.dim}"
        )
    if sense not in (MAX, MIN):
        raise ValueError(f"sense must be {MAX!r} or {MIN!r}, got {sense!r}")
    target = objective if sense == MAX else vec_scale(-1, objective)
    status, value, witness = _Simplex(poly).maximize(target)
    if status == "infeasible":
        return Infeasible()
    if status == "unbounded":
        return Unbounded()
    return Optimal(value if sense == MAX else -value, witness)


def is_empty(poly: Polyhedron) -> bool:
    """Phase 1 only: does the polyhedron contain no point at all?"""
    return not _Simplex(poly).phase1()


def feasible_point(poly: Polyhedron) -> ColVec | None:
    """Some point of the polyhedron, or None when it is empty. Deterministic."""
    outcome = solve(poly, zeros_vec(poly.dim), MAX)
    return outcome.witness if isinstance(outcome, Optimal) else None


def off_target_point(poly: Polyhedron, functional: ColVec, target) -> ColVec | None:
    """A point of poly where functional.x != target; None if there is none.

    None means functional.x == target on all of poly, vacuously so when
    poly is empty. A zero functional needs only some point of poly.
    Otherwise the maximum, then the minimum, is compared with the target;
    on an unbounded side the point is one unit past the target.
    """
    if functional.dim != poly.dim:
        raise DimensionError(
            f"functional of dim {functional.dim} over polyhedron of dim {poly.dim}"
        )
    goal = as_scalar(target)
    if not any(functional.entries):
        return None if goal == 0 else feasible_point(poly)
    for sense, sign in ((MAX, 1), (MIN, -1)):
        outcome = solve(poly, functional, sense)
        if isinstance(outcome, Infeasible):
            return None
        if isinstance(outcome, Unbounded):
            # sign * functional.x >= sign * goal + 1
            cut = LinearConstraint(vec_scale(-sign, functional), -(sign * goal + 1))
            point = feasible_point(Polyhedron(poly.dim, poly.constraints + (cut,)))
            if point is None:
                raise RuntimeError(f"unbounded {sense} but no point past {goal}")
            return point
        if outcome.value != goal:
            return outcome.witness
    return None
