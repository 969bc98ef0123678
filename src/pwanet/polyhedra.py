"""Linear constraints and convex polyhedra in halfspace form.

A polyhedron is a finite ordered list of non-strict constraints c.x <= b.
The empty list denotes all of R^dim, which is why the dimension is stored
explicitly. Constraints are kept verbatim: no normalization, deduplication,
or reordering, so structural identities (such as one constraint list being
a prefix of another) stay visible.

intersect, pwa_algebra's operators and the document reader skip these
checks (_unchecked_constraint, _unchecked_polyhedron): their rows are
Fractions from checked values, in widths the builder has matched.

Below the public API a constraint is one integer row, _row: (den, ints)
with ints = den * (c, b) over the lcm of the reduced denominators, as
scaled_ints gives it, so equal constraints give equal rows. It is made
once per constraint object and cached on it outside its fields; lp's
tableaus, pwa's constraint numbering and the pruned compile all read it.
"""

from __future__ import annotations

from fractions import Fraction

from .numeric import ColVec, DimensionError, _Frozen, as_scalar, dot, scaled_ints


class LinearConstraint(_Frozen):
    """The closed halfspace c.x <= b."""

    __match_args__ = ("c", "b")

    def __init__(self, c: ColVec, b: Fraction):
        if not isinstance(c, ColVec):
            raise TypeError("constraint coefficients must be a ColVec")
        self.__dict__.update(c=c, b=as_scalar(b))

    @property
    def dim(self) -> int:
        return self.c.dim


def _row(lc: LinearConstraint) -> tuple[int, list[int]]:
    """lc as the integer row (den, ints), ints = den * (c, b): scaled once
    and cached on lc, where equality, hash, repr and pickling never look.
    Callers read the row and never change it."""
    row = lc.__dict__.get("_row")
    if row is None:
        row = lc.__dict__["_row"] = scaled_ints(lc.c.entries + (lc.b,))
    return row


def _unchecked_constraint(c: ColVec, b: Fraction) -> LinearConstraint:
    """LinearConstraint(c, b) without its checks: c is a ColVec, b a Fraction."""
    lc = object.__new__(LinearConstraint)
    lc.__dict__.update(c=c, b=b)
    return lc


class Polyhedron(_Frozen):
    """Intersection of finitely many closed halfspaces of a fixed dimension."""

    __match_args__ = ("dim", "constraints")

    def __init__(self, dim: int, constraints: tuple[LinearConstraint, ...] = ()):
        if dim < 0:
            raise DimensionError("polyhedron dimension must be nonnegative")
        constraints = tuple(constraints)
        for lc in constraints:
            if lc.dim != dim:
                raise DimensionError(f"constraint of dim {lc.dim} in polyhedron of dim {dim}")
        self.__dict__.update(dim=dim, constraints=constraints)


def _unchecked_polyhedron(dim: int, constraints: tuple[LinearConstraint, ...]) -> Polyhedron:
    """The Polyhedron(dim, constraints) that passes every check, built
    without running them: the caller guarantees dim >= 0 and a tuple of
    constraints that each have width dim."""
    poly = object.__new__(Polyhedron)
    poly.__dict__.update(dim=dim, constraints=constraints)
    return poly


def full_space(dim: int) -> Polyhedron:
    """All of R^dim: the polyhedron with no constraints."""
    return Polyhedron(dim)


def contains(p: Polyhedron, x: ColVec) -> bool:
    if x.dim != p.dim:
        raise DimensionError(f"point of dim {x.dim} against polyhedron of dim {p.dim}")
    return all(dot(lc.c, x) <= lc.b for lc in p.constraints)


def intersect(p1: Polyhedron, p2: Polyhedron) -> Polyhedron:
    """Concatenate constraint lists; p1's constraints come first."""
    if p1.dim != p2.dim:
        raise DimensionError(f"intersect of dim {p1.dim} against dim {p2.dim}")
    return _unchecked_polyhedron(p1.dim, p1.constraints + p2.constraints)
