"""Exact linear programming over polyhedra.

A two-phase primal simplex on integer tableaus. Free variables are split
into differences of nonnegative variables, every inequality gets a slack,
and rows whose right-hand side starts out negative get an artificial
variable that phase 1 drives to zero. Entering and leaving variables follow
Bland's smallest-index rule, which rules out cycling and makes every run
deterministic: the same polyhedron and objective always produce the same
outcome, including the same witness point.

Each row is kept fraction-free, in the style of Bareiss: a list of Python
ints that stands for the row divided by its basic entry, which is kept
positive. A pivot on entry p of row r replaces every other row with
nonzero entry f in the pivot column by row * p - f * row_r, divided by the
gcd of its entries. Scaling a row by a positive number changes neither the
signs of its entries nor the ratios between them, so Bland's entering
column (the first positive objective entry) and leaving row (the least
ratio rhs_i / a_i, compared by cross-multiplying, ties to the smaller basic
index) are the ones the rational tableau would pick. Values and witnesses
become Fractions only when read off.

Building a _Simplex runs phase 1 and records whether the polyhedron is
feasible. A build is the empty tableau on R^n extended by the
polyhedron's rows, and extended() appends rows to any feasible tableau
the same way: each new row is reduced against the current basis, only
rows whose reduced right-hand side is negative get an artificial, and
the one phase-1 routine drives those out. A caller that holds the
tableau of a prefix of a polyhedron's rows, as pwa's trie walk does,
pays only for the rows past it; extension copies, so the prefix's
tableau can be extended again. maximize returns an LpOutcome, and
point() reads the basic point phase 1 kept, so a feasible point costs
phase 1 alone.

Below the public API everything is an integer row (den, ints): a
constraint as polyhedra._row gives it, an objective, and a row
(d, t), ints = den * (d, t), that asks whether d.x = t all over a
polyhedron. solve and off_target_points convert their Fraction
arguments once. _off_target decides one such row on a feasible tableau,
starting each objective from a copy of it, which is the tableau a fresh
solve would reach, since phase 1 is deterministic; _first_off returns
the first row of a list that is off target, with its point. pwa's pair
scan calls it on the one fresh tableau of a pair's intersection, for
the witness and for the verdict of a pair its flat does not decide.

An infeasible phase 1 leaves a Farkas certificate: y >= 0, one entry per
constraint c_i.x <= b_i, with sum y_i c_i = 0 and sum y_i b_i < 0, so no
point satisfies that nonnegative combination. It is read off the final
phase-1 objective row. Up to a positive factor, each entry there is the
column's cost minus the duals' combination of the column, and the slack
column of constraint i holds nothing but the factor by which tableau row
i scales that constraint; so y_i is minus the objective row's entry in
that slack column. This holds for an extended tableau too, whose rows
are combinations of the constraints, and the certificate covers every
row appended so far. Infeasible carries the certificate, out of
equality and repr. Unboundedness is reported as soon as an improving
column has no blocking row; no ray certificate is produced, and Optimal
carries no dual.

Every phase 1, of a build or an extension, certifies its verdict
before it returns, against the rows the tableau keeps: an empty
verdict's multipliers pass _checked_support's exact integer sums, and
their support is kept as the core; a non-empty verdict's basic point,
kept as (den, ints), satisfies every row. A failed check raises
RuntimeError, so no caller reads an unchecked verdict.

Emptiness alone, on R^n with n <= _MAX_LOW_DIM, needs no tableau.
_LowDim keeps a witness of its rows, as a feasible tableau does, and has
_Simplex's extension interface. A new row h that the witness violates is decided on
h's hyperplane: the rows with h added have a point exactly when they
have one there, since the witness lies strictly on the other side.
Eliminating one coordinate of the hyperplane, in integers (_Flat),
leaves n - 1 coordinates, which the flat step _on_flat decides: an
interval of bounds on a line for n = 2 (_on_line), the same step one
dimension down for n = 3, and a sign test for n = 1 (Seidel,
"Small-dimensional linear programming and convex hulls made easy",
1991, without the random order). An empty verdict lifts the multipliers of at
most n + 1 rows back through the eliminations; the hyperplane's own
multiplier is positive for the same reason. Its verdicts are certified
as a phase 1's are: the multipliers pass _checked_support (_certified)
and their support is the core, and a new witness satisfies every row.
The recursion is the same in every dimension, but _MAX_LOW_DIM, which
states why, bounds the coordinates it decides: _root gives a larger R^n
the simplex's empty tableau instead. pwa's trie walk and network's
pruned fold start from _root; every LP with an objective keeps the
simplex.

pwa's pair scan skips an overlap whose facet equalities are not
consistent (_Flat.consistent), and decides on the flat of consistent
ones here too, whenever _Flat.decides admits it: _on_flat gives a
lifted point or multipliers, which the scan maps to constraint keys
and files through _certified, and _flat_off checks the point and finds
the first row off target, on a line at the ends of the interval and on
a 2- or 3-flat by two walks one coordinate up.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from operator import itemgetter, mul
from typing import Iterable, Iterator, Optional, Sequence, Union

from .numeric import (
    ColVec,
    DimensionError,
    ScalarLike,
    _Frozen,
    _unscaled,
    as_scalar,
    scaled_ints,
)
from .polyhedra import Polyhedron, _row

MAX = "max"
MIN = "min"


class Optimal(_Frozen):
    """The optimum is attained: its value and a point attaining it."""

    __match_args__ = ("value", "witness")

    def __init__(self, value: Fraction, witness: ColVec):
        self.__dict__.update(value=value, witness=witness)


class Infeasible(_Frozen):
    """The polyhedron is empty.

    certificate holds Farkas multipliers, one nonnegative int per
    constraint c_i.x <= b_i in order, with sum y_i c_i = 0 and
    sum y_i b_i < 0; no point can satisfy that nonnegative combination.
    It is left out of equality, hash and repr, so outcomes compare and
    print as they did without it.
    """

    __match_args__ = ("certificate",)
    _compared = ()

    def __init__(self, certificate: tuple[int, ...] = ()):
        self.__dict__.update(certificate=certificate)


class Unbounded(_Frozen):
    """Feasible, but the objective is unbounded in the requested sense."""


LpOutcome = Union[Optimal, Infeasible, Unbounded]


def _scaled(row: list[int], p: int, f: int, prow: list[int]) -> list[int]:
    """row * p - f * prow, divided by the gcd of its entries.

    A trailing entry past the end of prow, an objective row's denominator
    or the slack entry of a row that _phase_1 is appending, is scaled by
    p alone.
    """
    new = [a * p - f * b for a, b in zip(row, prow)]
    if len(row) > len(prow):
        new.append(row[-1] * p)
    g = gcd(*new)
    return [a // g for a in new] if g > 1 else new


class _Simplex:
    """Integer tableau for a single polyhedron; building it runs phase 1.

    Columns 0..n-1 and n..2n-1 hold the positive and negative parts of the
    free variables, columns 2n..2n+m-1 the slacks, and artificial columns
    sit at the end while phase 1 runs. Each row is a list of ints ending in
    its right-hand side; it stands for the row divided by its basic entry,
    which is kept positive. An objective row has two trailing slots: minus
    the objective value, then a positive denominator for the whole row.

    A build is the empty tableau on R^n, which has no rows and the origin
    as its basic point, extended by the polyhedron's rows; extended()
    appends rows to a feasible tableau the same way, through the one
    phase 1 of _phase_1. `rows` keeps every constraint appended so far,
    as (den, ints) in order.

    `feasible` says whether phase 1 found a basic feasible solution; only
    then are the artificials gone and maximize, point and extended
    meaningful, and `witness` is the checked basic point as (den, ints).
    Otherwise `farkas` holds the multipliers of Infeasible.certificate,
    one per row, and `core` the indices of the rows they use. Rows are
    replaced, never changed in place, so copy() is shallow, and a tableau
    that has been extended is left as it was.
    """

    def __init__(self, poly: Polyhedron):
        self.__dict__.update(self.empty(poly.dim).__dict__)
        self._phase_1([_row(lc) for lc in poly.constraints])

    @classmethod
    def empty(cls, n: int) -> _Simplex:
        """The tableau on R^n with no rows: feasible, and its basic point is
        the origin. No phase 1 runs."""
        tableau = object.__new__(cls)
        tableau.n = n
        tableau.m = 0
        tableau.ncols = 2 * n
        tableau.T = []
        tableau.basis = []
        tableau.rows = ()
        tableau.feasible = True
        tableau.witness = (1, [0] * n)
        return tableau

    def extended(self, rows: Sequence[tuple[int, list[int]]]) -> _Simplex:
        """A new tableau: this feasible one with rows appended, after phase
        1. Each row is (den, ints) as polyhedra._row gives it."""
        other = self.copy()
        other._phase_1(rows)
        return other

    def _phase_1(self, rows: Sequence[tuple[int, list[int]]]) -> None:
        """Append rows, as in extended, to this feasible tableau; run phase 1.

        Each new constraint gets the next slack column and is reduced
        against the current basis, which leaves every basic column a unit
        column. A row whose reduced right-hand side is negative is negated
        and gets an artificial, and phase 1 maximizes minus the sum of the
        artificials. On an empty tableau nothing is reduced, so a build
        negates the rows whose bound is negative.
        """
        n = self.n
        old = self.ncols
        struct_cols = old + len(rows)
        added = []
        for den, ints in rows:
            # The columns so far, the right-hand side, then the new slack's
            # entry, which _scaled carries past the end of a tableau row as
            # it carries an objective row's denominator.
            row = [0] * old + [ints[-1], den]
            for k, a in enumerate(ints[:-1]):
                if a:
                    row[k] = a
                    row[n + k] = -a
            for prow, j in zip(self.T, self.basis):
                f = row[j]
                if f:
                    row = _scaled(row, prow[j], f, prow)
            added.append(row)
        n_art = sum(row[-2] < 0 for row in added)
        self.ncols = struct_cols + n_art
        pad = [0] * (len(rows) + n_art)
        self.T = [row[:-1] + pad + row[-1:] for row in self.T]
        art_col = struct_cols
        for i, row in enumerate(added):
            slack = row.pop()
            row[-1:-1] = pad
            if row[-1] < 0:
                row = [-a for a in row]
                row[old + i] = -slack
                row[art_col] = slack
                self.basis.append(art_col)
                art_col += 1
            else:
                row[old + i] = slack
                self.basis.append(old + i)
            self.T.append(row)
        self.m += len(rows)
        self.rows += tuple(rows)
        obj = [0] * struct_cols + [-1] * n_art + [0, 1]
        self._canonicalize(obj)
        if not self._run(obj):
            # -(sum of artificials) is bounded above by zero.
            raise RuntimeError("simplex phase 1 reported an unbounded objective")
        if obj[-2] != 0:
            self.feasible = False
            # The certificate of the module docstring, scaled by the
            # objective row's positive denominator.
            self.farkas = tuple(-obj[2 * n + i] for i in range(self.m))
            self.core = _checked_support(self.rows, self.farkas)
            return
        # Drive leftover artificials out of the basis. Their value is zero,
        # so these pivots are degenerate and keep the solution feasible.
        r = 0
        while r < len(self.T):
            if self.basis[r] >= struct_cols:
                pivot_col = None
                for jj in range(struct_cols):
                    if self.T[r][jj] != 0:
                        pivot_col = jj
                        break
                if pivot_col is None:
                    # All-zero structural row: redundant, drop it.
                    del self.T[r]
                    del self.basis[r]
                    continue
                self._pivot(r, pivot_col, obj)
            r += 1
        if n_art:
            self.T = [row[:struct_cols] + row[-1:] for row in self.T]
        self.ncols = struct_cols
        self.witness = self._basic_point()
        if not _satisfies(self.witness, self.rows):
            raise RuntimeError("a feasible tableau's basic point leaves its polyhedron")

    def copy(self) -> _Simplex:
        other = object.__new__(_Simplex)
        other.__dict__.update(self.__dict__)
        other.T = list(self.T)
        other.basis = list(self.basis)
        return other

    def _pivot(self, r: int, j: int, obj: list[int]) -> None:
        """Make column j basic in row r, updating the objective row too."""
        prow = self.T[r]
        if prow[j] < 0:
            # Only when phase 1 drives out an artificial at value zero.
            prow = self.T[r] = [-a for a in prow]
        p = prow[j]
        for i, row in enumerate(self.T):
            f = row[j]
            if f and i != r:
                self.T[i] = _scaled(row, p, f, prow)
        f = obj[j]
        if f:
            obj[:] = _scaled(obj, p, f, prow)
        self.basis[r] = j

    def _canonicalize(self, obj: list[int]) -> None:
        """Zero the objective coefficients of basic columns."""
        for r, j in enumerate(self.basis):
            f = obj[j]
            if f:
                prow = self.T[r]
                obj[:] = _scaled(obj, prow[j], f, prow)

    def _run(self, obj: list[int]) -> bool:
        """Maximize; False when the objective is unbounded.

        The rows' positive scale factors cancel in each ratio rhs_i / a_i,
        so ratios are compared by cross-multiplying the integer entries.
        """
        while True:
            enter = None
            for j in range(self.ncols):
                if obj[j] > 0:
                    enter = j
                    break
            if enter is None:
                return True
            best_row = None
            for i, row in enumerate(self.T):
                a = row[enter]
                if a > 0:
                    if best_row is None:
                        best_row, best_a, best_rhs = i, a, row[-1]
                        continue
                    lhs = row[-1] * best_a
                    rhs = best_rhs * a
                    if lhs < rhs or (lhs == rhs and self.basis[i] < self.basis[best_row]):
                        best_row, best_a, best_rhs = i, a, row[-1]
            if best_row is None:
                return False
            self._pivot(best_row, enter, obj)

    def _basic_point(self) -> tuple[int, list[int]]:
        """The current basic solution in the free variables, as (den, ints), den > 0."""
        n = self.n
        free = [(row, j) for row, j in zip(self.T, self.basis) if j < 2 * n]
        den = lcm(*(row[j] for row, j in free))
        parts = [0] * (2 * n)
        for row, j in free:
            parts[j] = row[-1] * (den // row[j])
        ints = [a - b for a, b in zip(parts[:n], parts[n:])]
        g = gcd(den, *ints)
        return den // g, [a // g for a in ints]

    def point(self) -> ColVec:
        """The basic point that phase 1 found and checked."""
        return _unscaled(*self.witness)

    def maximize(self, objective: tuple[int, list[int]]) -> LpOutcome:
        """Maximize c.x for the objective (den, ints), ints = den * c."""
        if not self.feasible:
            return Infeasible(self.farkas)
        den, ints = objective
        obj = [0] * self.ncols + [0, den]
        for k, c in enumerate(ints):
            if c:
                obj[k] = c
                obj[self.n + k] = -c
        self._canonicalize(obj)
        if not self._run(obj):
            return Unbounded()
        return Optimal(Fraction(-obj[-2], obj[-1]), _unscaled(*self._basic_point()))


class _LowDim:
    """Emptiness on R^n decided on the violated row's hyperplane; _root
    gives it R^0 to R^3.

    The interface is _Simplex's for extension: empty(n), extended(rows),
    feasible, witness, farkas, core and rows, each as there. A feasible
    one keeps the checked witness of its rows; extended appends each new
    row that the witness satisfies with no work, and decides a row h it
    violates on h's hyperplane (_on_hyperplane). Every verdict is
    checked as a phase 1's is: a new witness against every row, and
    multipliers by _checked_support.
    """

    @classmethod
    def empty(cls, n: int) -> _LowDim:
        """R^n with no rows: feasible, and its witness is the origin."""
        decider = object.__new__(cls)
        decider.n = n
        decider.rows = ()
        decider.feasible = True
        decider.witness = (1, [0] * n)
        return decider

    def extended(self, rows: Sequence[tuple[int, list[int]]]) -> _LowDim:
        """A new decider: this feasible one with rows appended. Each row is
        (den, ints) as polyhedra._row gives it."""
        other = object.__new__(_LowDim)
        other.n = self.n
        other.rows = self.rows + tuple(rows)
        ints_rows = [ints for _, ints in other.rows]
        other.feasible, found = _advanced(self.n, ints_rows, self.witness, len(self.rows))
        if not other.feasible:
            other.farkas, other.core = _certified(other.rows, found)
        else:
            if found is not self.witness and not _satisfies(found, other.rows):
                raise RuntimeError("a point found on a hyperplane leaves its polyhedron")
            other.witness = found
        return other


_Decider = Union[_LowDim, _Simplex]


# The most coordinates _LowDim's walk (_advanced) decides: _root's R^n
# and the flats that _Flat.decides admits. The walk's worst case grows like m^n
# in m rows (m^3 on R^3; without _interval's single pass over a line it
# would be m^4), where the simplex stays polynomial in practice. This is
# a safety choice, not a measured crossover: on R^3 the walk still beat the
# simplex on 300 rows ordered so that each cuts the last witness, but on
# R^12 36 rows took it seconds against the simplex's milliseconds. Where
# between them the simplex starts to win was not measured.
_MAX_LOW_DIM = 3


def _root(n: int) -> _Decider:
    """The emptiness decider of R^n with no rows, which pwa's trie walk
    and network's pruned fold extend: _LowDim up to _MAX_LOW_DIM, else
    the simplex's empty tableau."""
    return _LowDim.empty(n) if n <= _MAX_LOW_DIM else _Simplex.empty(n)


def _advanced(
    n: int, rows: list[list[int]], point: tuple[int, list[int]], start: int
) -> tuple[bool, object]:
    """(True, a point satisfying every row) or (False, multipliers), from
    point, which satisfies rows[:start]; each row is n + 1 ints, c then b,
    for c.x <= b, and a point is (den, ints). The multipliers are one
    int y_i >= 0 per row, with sum y_i c_i = 0 and sum y_i b_i < 0.

    Rows are taken in order; each that the point violates moves it onto
    that row's hyperplane, or ends the walk empty.
    """
    den, x = point
    for i in range(start, len(rows)):
        h = rows[i]
        if sum(map(mul, h, x)) <= h[-1] * den:
            continue
        feasible, found = _on_hyperplane(n, rows[:i], h)
        if not feasible:
            return False, found + [0] * (len(rows) - i - 1)
        point = found
        den, x = point
    return True, point


def _on_hyperplane(n: int, rows: list[list[int]], h: list[int]) -> tuple[bool, object]:
    """rows and h as in _advanced, where some point satisfies rows and
    violates h: (True, a point of h's hyperplane c.x = b that satisfies
    rows) or (False, multipliers for rows and then h).

    rows with h added have a point exactly when they have one on the
    hyperplane: the segment from a point of theirs to the one past h
    crosses it. There, _Flat([h]) writes each row on the n - 1
    coordinates h leaves, and _on_flat decides them. h's weight is
    positive: the combination is positive at the point past h, where
    each row is at most its bound. A zero h is 0 <= b with b < 0, its
    own certificate.
    """
    flat = _Flat([h])
    if not flat.kept:
        return False, [0] * len(rows) + [1]
    return _on_flat(flat, n - 1, rows, flat.restricted(rows))[:2]


def _on_flat(
    flat: _Flat, k: int, rows: Iterable[list[int]], written: list[list[int]]
) -> tuple[bool, object, Optional[tuple]]:
    """rows as in _advanced, decided on the flat, leaving k <=
    _MAX_LOW_DIM coordinates, where written holds them; the flat must be
    consistent, as its callers make sure: a hyperplane that keeps its
    plane, or facets that pwa's pair scan found consistent. (True, a
    point of the flat that satisfies rows, lifted as (den, ints), and on
    a line the bounds that _interval found, else None) or (False,
    multipliers for rows and then the planes kept, as _Flat.weights
    lifts them, None). rows are read only for the multipliers.

    A line is decided at once (_on_line); a point or a 2- or 3-flat by
    _advanced from the origin. _on_hyperplane decides each hyperplane
    here, and pwa's pair scan the flat of an overlap's facet equalities,
    whose line bounds go on to _flat_off.
    """
    ends = None
    if k == 1:
        feasible, found, ends = _on_line(written)
    else:
        feasible, found = _advanced(k, written, (1, [0] * k), 0)
    if feasible:
        return True, flat.point(found), ends
    return False, flat.weights(list(rows), found), None


class _Flat:
    """The flat where integer planes c.x = b meet, each n + 1 ints, c then
    b, written on the coordinates left once each plane's first nonzero
    coordinate is eliminated.

    Each plane is written on the flat of those kept before it, as h. If
    its c is zero there it is left out, and `consistent` turns False if
    its b is not: the planes then share no point, and pwa's pair scan,
    the one reader of `consistent`, skips an overlap whose facets these
    are. `kept` indexes the planes kept, which are independent.
    Else its first nonzero coordinate k, h_k of sign s and size p, is
    eliminated: a row r becomes (p r - s r_k h) / q less entry k, q the
    previous plane's p (1 for the first), which on the new flat is p / q
    times the row before: a row written on the flat is the last p times
    the row.
    The division is exact (Bareiss, "Sylvester's identity and multistep
    integer-preserving Gaussian elimination", 1968): each entry is, up to
    sign, a minor of the planes and the row, within their Hadamard bound.
    """

    __slots__ = ("planes", "kept", "levels", "consistent")

    def __init__(self, planes: Sequence[list[int]]):
        self.planes, self.kept, self.levels, self.consistent = [], [], [], True
        for i, plane in enumerate(planes):
            h = self.restricted([plane])[0] if self.levels else plane
            for k, a in enumerate(h):
                if a:
                    break
            if k == len(h) - 1:
                # c is zero here: the plane reads 0 = a.
                self.consistent = self.consistent and not a
                continue
            self.planes.append(plane)
            self.kept.append(i)
            q = self.levels[-1][2] if self.levels else 1
            self.levels.append((k, 1 if a > 0 else -1, abs(a), q, h))

    def decides(self, n: int) -> bool:
        """Does _on_flat decide rows on this flat of R^n: do the planes
        leave at most _MAX_LOW_DIM coordinates? Its callers make sure
        that the flat is consistent."""
        return n - len(self.kept) <= _MAX_LOW_DIM

    def restricted(self, rows: list[list[int]], depth: Optional[int] = None) -> list[list[int]]:
        """Each row, n + 1 ints c then b, written on the flat, or on that
        of the first depth planes kept: the ints of the coordinates left,
        then the bound. With no plane to eliminate, rows itself."""
        for k, s, p, q, h in self.levels if depth is None else self.levels[:depth]:
            out = []
            for r in rows:
                f = s * r[k]
                row = [p * c - f * e for c, e in zip(r, h)] if f else [p * c for c in r]
                del row[k]
                out.append(row)
            rows = out if q == 1 else [[a // q for a in row] for row in out]
        return rows

    def point(self, point: tuple[int, list[int]]) -> tuple[int, list[int]]:
        """The point of the flat whose coordinates left are point, (den,
        ints) with den != 0, in R^n as (den, ints), den > 0, in lowest
        terms. Each eliminated coordinate comes from its plane:
        x_k = (b - sum of h_j x_j, j != k) / h_k."""
        den, x = point
        for k, _, _, _, h in reversed(self.levels):
            x_k = h[-1] * den - sum(map(mul, h, x[:k] + [0] + x[k:]))
            x = [h[k] * c for c in x]
            x.insert(k, x_k)
            den *= h[k]
        if den < 0:
            den, x = -den, [-c for c in x]
        g = gcd(den, *x)
        return (den // g, [c // g for c in x]) if g > 1 else (den, x)

    def weights(self, rows: Sequence[list[int]], y: Sequence[int]) -> list[int]:
        """Multipliers for rows and then for the planes kept, from y >= 0,
        one per row written on the flat, that weigh those to 0 <=
        negative: the result does the same to rows, each by y times one
        positive factor, and planes, of either sign; with no plane kept,
        y itself. Back through plane j, the weights w of rows and later
        planes, written on the flat before j, become p w, and plane j's is
        -s sum w r_k, which cancels entry k: the sum is q times the old.
        Only the rows and planes of nonzero weight are written on the flat
        before j."""
        w, at = y, rows
        for j in range(len(self.levels) - 1, -1, -1):
            k, s, p, _, _ = self.levels[j]
            live = [(a, r) for a, r in zip(w, at) if a]
            if j:
                live = zip([a for a, _ in live], self.restricted([r for _, r in live], j))
            mu = -s * sum(a * r[k] for a, r in live)
            w = [p * a for a in w]
            w.insert(len(rows), mu)
            if j:
                at = [*rows, self.planes[j], *at[len(rows) :]]
        return w


def _on_line(rows: list[list[int]]) -> tuple[bool, object, Optional[tuple]]:
    """_advanced on a line, rows c t <= d, from 0 at once: 0 when it lies
    between the bounds that _interval finds, else the nearer bound, as
    (den, [t]) with a den that may be negative, and then those bounds; or
    (False, multipliers, None). Every line that _on_flat decides comes
    here, a hyperplane's of R^2 and a pair's flat of one coordinate; a
    decider on R^1 walks its new rows from its witness with _advanced,
    one hyperplane solve per violated row."""
    feasible, found = _interval(rows)
    if not feasible:
        return False, found, None
    for i in found:
        if i is not None and rows[i][1] < 0:
            # t = d / c; _on_flat's lift makes the den positive.
            c, d = rows[i]
            return True, (c, [d]), found
    return True, (1, [0]), found


def _interval(rows: Sequence[Sequence[int]]) -> tuple[bool, object]:
    """The bounds that rows (c, d), for c t <= d, put on a line.

    (True, (lo, hi)): the indices of the greatest lower and the least
    upper bound, each None where no row bounds that side; a tie goes to
    the first row. (False, multipliers): one int per row that weigh the
    rows to 0 <= negative, positive on a constant row that fails or else
    on the upper and the lower bound that cross.
    """
    lo = hi = None
    for i, (c, d) in enumerate(rows):
        if c > 0:
            if hi is None or d * cu < du * c:
                hi, cu, du = i, c, d
        elif c < 0:
            if lo is None or d * cl > dl * c:
                lo, cl, dl = i, c, d
        elif d < 0:
            return False, [0] * i + [1] + [0] * (len(rows) - i - 1)
    if lo is not None and hi is not None and cu * dl < cl * du:
        return False, [-cl if i == hi else cu if i == lo else 0 for i in range(len(rows))]
    return True, (lo, hi)


def _satisfies(point: tuple[int, list[int]], rows: Iterable[tuple[int, list[int]]]) -> bool:
    """Does point, as (den, ints) with den > 0, satisfy every row (den, ints)?"""
    den, ints = point
    return all(sum(map(mul, row, ints)) <= row[-1] * den for _, row in rows)


def solve(poly: Polyhedron, objective: ColVec, sense: str = MAX) -> LpOutcome:
    """Optimize objective.x over poly in the given sense ("max" or "min")."""
    if objective.dim != poly.dim:
        raise DimensionError(
            f"objective of dim {objective.dim} over polyhedron of dim {poly.dim}"
        )
    if sense not in (MAX, MIN):
        raise ValueError(f"sense must be {MAX!r} or {MIN!r}, got {sense!r}")
    sign = 1 if sense == MAX else -1
    den, ints = scaled_ints(objective.entries)
    outcome = _Simplex(poly).maximize((den, [sign * a for a in ints]))
    if isinstance(outcome, Optimal):
        return Optimal(sign * outcome.value, outcome.witness)
    return outcome


def is_empty(poly: Polyhedron) -> bool:
    """Phase 1 only: does the polyhedron contain no point at all?"""
    return not _Simplex(poly).feasible


def feasible_point(poly: Polyhedron) -> ColVec | None:
    """Some point of the polyhedron, or None when it is empty. Deterministic."""
    simplex = _Simplex(poly)
    return simplex.point() if simplex.feasible else None


def off_target_points(
    poly: Polyhedron, rows: Iterable[tuple[ColVec, ScalarLike]]
) -> Iterator[ColVec | None]:
    """For each (functional, target) of rows, lazily: a point of poly where
    functional.x != target, or None when functional.x == target on all of
    poly.

    A zero functional needs only some point of poly. Otherwise the
    maximum, then the minimum, is compared with the target; on an
    unbounded side the point is one unit past the target. Phase 1 runs
    once, at the call, as do the check that every functional has the
    polyhedron's width and the conversion of each row to integers;
    every objective starts from a copy of the feasible tableau phase 1
    leaves. An empty poly yields nothing: every
    row holds vacuously.
    """
    ints_rows = []
    for functional, target in rows:
        if functional.dim != poly.dim:
            raise DimensionError(
                f"functional of dim {functional.dim} over polyhedron of dim {poly.dim}"
            )
        ints_rows.append(scaled_ints(functional.entries + (as_scalar(target),)))
    simplex = _Simplex(poly)
    if not simplex.feasible:
        return iter(())
    return (_off_target(simplex, row) for row in ints_rows)


def _checked_support(
    rows: Sequence[tuple[int, list[int]]], certificate: tuple[int, ...]
) -> list[int]:
    """The indices of the constraints with a positive multiplier, once the
    certificate is checked exactly against the constraints c_i.x <= b_i,
    each given as (den, ints) with ints = den * (c_i, b_i): one y_i >= 0
    per constraint, sum y_i c_i = 0 and sum y_i b_i < 0. Those
    constraints alone have no common point. The sums are taken in ints,
    weighting row i by y_i * L / den_i, where L is the lcm of the
    support's dens. A certificate that fails raises RuntimeError.
    """
    if len(certificate) != len(rows) or any(y < 0 for y in certificate):
        raise RuntimeError("Farkas multipliers must be one nonnegative int per constraint")
    support = [i for i, y in enumerate(certificate) if y]
    if support:
        scale = lcm(*(rows[i][0] for i in support))
        combined = [0] * len(rows[support[0]][1])
        for i in support:
            den, ints = rows[i]
            y = certificate[i] * (scale // den)
            combined = [a + y * c for a, c in zip(combined, ints)]
        if not any(combined[:-1]) and combined[-1] < 0:
            return support
    raise RuntimeError("Farkas multipliers do not refute the polyhedron")


def _certified(
    rows: Sequence[tuple[int, list[int]]], y: Sequence[int]
) -> tuple[tuple[int, ...], list[int]]:
    """The certificate of multipliers y >= 0 that weigh the integer rows
    (den, ints) to 0 <= negative, and its support once _checked_support
    has checked it: each constraint, its ints over its den, gets y_i
    times den."""
    certificate = tuple(map(mul, y, map(itemgetter(0), rows)))
    return certificate, _checked_support(rows, certificate)


def _off_target(simplex: _Simplex, row: tuple[int, list[int]]) -> ColVec | None:
    """A point of the feasible tableau's polyhedron where d.x != t, for
    the row (den, ints), ints = den * (d, t); None when d.x = t all over
    it.

    A zero d needs only some point. Otherwise the maximum, then the
    minimum, of d.x is compared with t, each from a copy of the tableau.
    On an unbounded side the point is one unit past t: phase 1 over the
    tableau's rows and the cut, written over the lcm of its reduced
    denominators as polyhedra._row writes a constraint.
    """
    den, ints = row
    d, t = ints[:-1], ints[-1]
    if not any(d):
        return None if t == 0 else simplex.point()
    for sense, sign in ((MAX, 1), (MIN, -1)):
        outcome = simplex.copy().maximize((1, [sign * a for a in d]))
        if isinstance(outcome, Unbounded):
            # sign * d.x >= sign * t + 1, after the same rows
            cut = [-sign * a for a in d] + [-sign * t - den]
            g = gcd(den, *cut)
            cut = (den // g, [a // g for a in cut])
            past = _Simplex.empty(simplex.n).extended(simplex.rows + (cut,))
            if not past.feasible:
                raise RuntimeError(f"unbounded {sense} but no point past {Fraction(t, den)}")
            return past.point()
        if sign * outcome.value != t:
            return outcome.witness
    return None


def _first_off(
    simplex: _Simplex, rows: Iterable[tuple[int, tuple[int, list[int]]]]
) -> tuple[int, ColVec] | None:
    """The first (r, row) of rows whose row is off target on the
    tableau's polyhedron (_off_target), as r and a point where it is off;
    None when every row holds there, or the polyhedron is empty."""
    if simplex.feasible:
        for r, row in rows:
            point = _off_target(simplex, row)
            if point is not None:
                return r, point
    return None


def _flat_off(
    rows: Sequence[tuple[int, list[int]]],
    point: tuple[int, list[int]],
    written: list[list[int]],
    diffs: list[tuple[int, list[int]]],
    ends: Optional[tuple],
) -> Optional[int]:
    """The first r of diffs, (r, d then t written on a flat), whose d.y = t
    is off target on a polyhedron that _on_flat found non-empty, or None.
    rows are its constraints as (den, ints), point the point _on_flat
    lifted, which must satisfy every row or RuntimeError is raised,
    written the rows' ints on the flat, whose k <= _MAX_LOW_DIM
    coordinates each row of diffs spans, and ends, on a line, the bounds
    of written that _on_flat found; no row of diffs is zero there.

    The flat writes each row as a positive multiple of itself. On a point
    every row given is off. On a line a row a t = b is on target over a
    segment exactly when it holds at both ends, t = d / c for a bound
    (c, d), that is when a d = b c at each: on a segment of zero width
    each row is decided at its point, and on a longer one or a ray the
    first is off. On a 2- or 3-flat P, some y of P has d.y > t exactly
    when some (y, s) has s >= 0, c.y - b s <= 0 for each row c.y <= b of
    P and t s - d.y <= -1, one coordinate up; _advanced tests that from
    the origin, which satisfies the cone, for each side, and a side on
    target passes _checked_support with its multipliers.
    """
    if not _satisfies(point, rows):
        raise RuntimeError("a point lifted from a flat leaves its pair's overlap")
    k = len(diffs[0][1]) - 1
    if k == 1 and None not in ends:
        (cl, dl), (ch, dh) = written[ends[0]], written[ends[1]]
        return next((r for r, (a, b) in diffs if a * dl != b * cl or a * dh != b * ch), None)
    if k < 2:
        return diffs[0][0]
    cone = [[0] * k + [-1, 0]] + [row[:-1] + [-row[-1], 0] for row in written]
    for r, (*d, t) in diffs:
        for sign in (1, -1):
            system = cone + [[-sign * a for a in d] + [sign * t, -1]]
            feasible, found = _advanced(k + 1, system, (1, [0] * (k + 1)), len(cone))
            if feasible:
                return r
            _checked_support(list(zip(repeat(1), system)), tuple(found))
    return None
