"""Halfspace constraints, polyhedra, and their structural operations."""

import random
from fractions import Fraction

import pytest

from pwanet.numeric import ColVec, DimensionError
from pwanet.polyhedra import (
    LinearConstraint,
    Polyhedron,
    contains,
    full_space,
    intersect,
)
from pwanet.formats import parse_pwa, serialize_pwa
from pwanet.network import transform
from pwanet.pwa_algebra import concat

from genutil import box_polyhedron, dense_network, point, random_network, single_piece


def halfline_left():
    return Polyhedron(1, (LinearConstraint(ColVec([1]), 0),))


class TestLinearConstraint:
    def test_offset_is_coerced_to_fraction(self):
        lc = LinearConstraint(ColVec([1, 2]), 3)
        assert lc.b == Fraction(3)
        assert isinstance(lc.b, Fraction)
        assert lc.dim == 2

    def test_string_offset(self):
        assert LinearConstraint(ColVec([1]), "2.5").b == Fraction(5, 2)


class TestPolyhedron:
    def test_no_constraints_is_everything(self):
        p = full_space(2)
        assert contains(p, ColVec([1000, -1000]))
        assert contains(full_space(0), ColVec())

    def test_constraint_dims_must_match(self):
        with pytest.raises(DimensionError):
            Polyhedron(2, (LinearConstraint(ColVec([1]), 0),))

    def test_negative_dim_rejected(self):
        with pytest.raises(DimensionError):
            Polyhedron(-1)

    def test_membership(self):
        p = halfline_left()
        assert contains(p, ColVec([0]))
        assert contains(p, ColVec([-7]))
        assert not contains(p, ColVec([1]))

    def test_empty_by_contradiction(self):
        p = Polyhedron(
            1,
            (LinearConstraint(ColVec([1]), 0), LinearConstraint(ColVec([-1]), -1)),
        )
        assert not contains(p, ColVec([0]))
        assert not contains(p, ColVec([2]))

    def test_contains_dim_mismatch(self):
        with pytest.raises(DimensionError):
            contains(full_space(2), ColVec([1]))

    def test_constraints_kept_verbatim(self):
        duplicated = LinearConstraint(ColVec([2]), 4)
        p = Polyhedron(1, (duplicated, duplicated))
        assert p.constraints == (duplicated, duplicated)


class TestIntersect:
    def test_constraint_order_first_then_second(self):
        a = LinearConstraint(ColVec([1]), 1)
        b = LinearConstraint(ColVec([-1]), 0)
        p = intersect(Polyhedron(1, (a,)), Polyhedron(1, (b,)))
        assert p.constraints == (a, b)

    def test_with_full_space_is_neutral(self):
        p = halfline_left()
        assert intersect(p, full_space(1)).constraints == p.constraints
        assert intersect(full_space(1), p).constraints == p.constraints

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            intersect(full_space(1), full_space(2))

    def test_membership_is_conjunction(self):
        rng = random.Random(2201)
        for _ in range(5):
            dim = rng.randint(1, 3)
            p1 = box_polyhedron(rng, dim)
            p2 = box_polyhedron(rng, dim)
            both = intersect(p1, p2)
            for _ in range(200):
                x = point(rng, dim)
                assert contains(both, x) == (contains(p1, x) and contains(p2, x))


class TestUncheckedConstructor:
    """intersect and parse_pwa skip Polyhedron's checks; what they build
    must equal what the checked constructor builds from the same parts."""

    @staticmethod
    def same(built):
        checked = Polyhedron(built.dim, built.constraints)
        assert built == checked
        assert hash(built) == hash(checked)
        assert type(built.constraints) is tuple
        assert (built.dim, built.constraints) == (checked.dim, checked.constraints)

    def test_intersect(self):
        rng = random.Random(2210)
        for dim in (0, 1, 3):
            for _ in range(10):
                p, q = box_polyhedron(rng, dim), box_polyhedron(rng, dim)
                self.same(intersect(p, q))
        self.same(intersect(full_space(0), full_space(0)))

    def test_parse_pwa(self):
        rng = random.Random(2211)
        fns = [transform(random_network(rng, max_pieces=16, max_dim=3)) for _ in range(10)]
        fns.append(transform(dense_network(random.Random(1), (2, 3, 2))))
        for fn in fns:
            parsed = parse_pwa(serialize_pwa(fn))
            assert [p.polyhedron for p in parsed.pieces] == [p.polyhedron for p in fn.pieces]
            for piece in parsed.pieces:
                self.same(piece.polyhedron)
        on_r0 = (
            '{"in_dim": 0, "out_dim": 1, "univalence": "unchecked", "pieces": ['
            '{"constraints": [], "M": [[]], "b": ["0"]}, '
            '{"constraints": [{"c": [], "b": "-1"}, {"c": [], "b": "2"}], "M": [[]], "b": ["1"]}]}'
        )
        polys = [piece.polyhedron for piece in parse_pwa(on_r0).pieces]
        for poly in polys:
            self.same(poly)
        pair = (LinearConstraint(ColVec(), -1), LinearConstraint(ColVec(), 2))
        assert polys[1] == Polyhedron(0, pair)


class TestLifting:
    """The constraint rows of a concat piece: f's padded with zeros on the
    right, so they keep the leading coordinates, g's on the left."""

    def test_bottom_keeps_leading_coordinates(self):
        f = single_piece(Polyhedron(1, (LinearConstraint(ColVec([1]), 2),)))
        (piece,) = concat(f, single_piece(full_space(2))).pieces
        (lifted,) = piece.polyhedron.constraints
        assert lifted.c == ColVec([1, 0, 0])
        assert lifted.b == Fraction(2)

    def test_top_moves_to_trailing_coordinates(self):
        g = single_piece(Polyhedron(1, (LinearConstraint(ColVec([1]), 2),)))
        (piece,) = concat(single_piece(full_space(2)), g).pieces
        (lifted,) = piece.polyhedron.constraints
        assert lifted.c == ColVec([0, 0, 1])
        assert lifted.b == Fraction(2)

    def test_lifting_to_same_dim_changes_nothing(self):
        cs = (LinearConstraint(ColVec([1, -1]), 0),)
        f = single_piece(Polyhedron(2, cs))
        empty = single_piece(full_space(0))
        for stacked in (concat(f, empty), concat(empty, f)):
            (piece,) = stacked.pieces
            assert piece.polyhedron.constraints == cs

    def test_lifted_membership_ignores_new_coordinates(self):
        rng = random.Random(2202)
        for _ in range(5):
            dim = rng.randint(1, 3)
            extra = rng.randint(0, 3)
            p = box_polyhedron(rng, dim)
            f = single_piece(p)
            free = single_piece(full_space(extra))
            (bottom,) = concat(f, free).pieces
            (top,) = concat(free, f).pieces
            for _ in range(100):
                x = point(rng, dim)
                pad = point(rng, extra)
                inside = contains(p, x)
                assert contains(bottom.polyhedron, ColVec(x.entries + pad.entries)) == inside
                assert contains(top.polyhedron, ColVec(pad.entries + x.entries)) == inside


class TestMonotonicity:
    def test_dropping_a_constraint_only_grows_the_set(self):
        rng = random.Random(2203)
        for _ in range(10):
            dim = rng.randint(1, 3)
            p = box_polyhedron(rng, dim)
            if not p.constraints:
                continue
            drop = rng.randrange(len(p.constraints))
            relaxed = Polyhedron(
                dim, p.constraints[:drop] + p.constraints[drop + 1 :]
            )
            for _ in range(100):
                x = point(rng, dim)
                if contains(p, x):
                    assert contains(relaxed, x)
