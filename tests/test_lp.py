"""Exact simplex: outcomes, witnesses, and agreement with brute force."""

import random
from fractions import Fraction

import pytest

from pwanet import lp
from pwanet.lp import (
    MAX,
    MIN,
    Infeasible,
    Optimal,
    Unbounded,
    feasible_point,
    is_empty,
    off_target_point,
    solve,
)
from pwanet.numeric import ColVec, DimensionError, dot, zeros_vec
from pwanet.polyhedra import LinearConstraint, Polyhedron, contains, full_space, intersect

from genutil import box_polyhedron, point
from oracles import vertex_optimum


def unit_interval():
    return Polyhedron(
        1, (LinearConstraint(ColVec([1]), 1), LinearConstraint(ColVec([-1]), 0))
    )


def contradiction():
    return Polyhedron(
        1, (LinearConstraint(ColVec([1]), -1), LinearConstraint(ColVec([-1]), 0))
    )


class TestSolveBasics:
    def test_bounded_max_and_min(self):
        p = unit_interval()
        assert solve(p, ColVec([1]), MAX) == Optimal(Fraction(1), ColVec([1]))
        assert solve(p, ColVec([1]), MIN) == Optimal(Fraction(0), ColVec([0]))

    def test_unbounded_direction(self):
        p = Polyhedron(1, (LinearConstraint(ColVec([-1]), 0),))
        assert solve(p, ColVec([1]), MAX) == Unbounded()
        assert isinstance(solve(p, ColVec([1]), MIN), Optimal)

    def test_infeasible(self):
        assert solve(contradiction(), ColVec([1]), MAX) == Infeasible()

    def test_full_space_zero_objective(self):
        out = solve(full_space(2), zeros_vec(2), MAX)
        assert out == Optimal(Fraction(0), ColVec([0, 0]))

    def test_full_space_nonzero_objective_unbounded_both_ways(self):
        assert solve(full_space(2), ColVec([1, -1]), MAX) == Unbounded()
        assert solve(full_space(2), ColVec([1, -1]), MIN) == Unbounded()

    def test_dim_zero(self):
        assert solve(full_space(0), ColVec(), MAX) == Optimal(Fraction(0), ColVec())
        infeasible_zero = Polyhedron(0, (LinearConstraint(ColVec(), -1),))
        assert solve(infeasible_zero, ColVec(), MAX) == Infeasible()

    def test_negative_rhs_needs_phase_one(self):
        # x >= 2 written as -x <= -2: the origin is not feasible.
        p = Polyhedron(
            1, (LinearConstraint(ColVec([-1]), -2), LinearConstraint(ColVec([1]), 5))
        )
        assert solve(p, ColVec([1]), MIN) == Optimal(Fraction(2), ColVec([2]))
        assert solve(p, ColVec([1]), MAX) == Optimal(Fraction(5), ColVec([5]))

    def test_fractional_optimum(self):
        # 2x <= 1 and -x <= 0: maximum of x is 1/2.
        p = Polyhedron(
            1, (LinearConstraint(ColVec([2]), 1), LinearConstraint(ColVec([-1]), 0))
        )
        assert solve(p, ColVec([1]), MAX) == Optimal(Fraction(1, 2), ColVec(["1/2"]))

    def test_objective_dim_mismatch(self):
        with pytest.raises(DimensionError):
            solve(full_space(2), ColVec([1]), MAX)

    def test_unknown_sense(self):
        with pytest.raises(ValueError):
            solve(full_space(1), ColVec([1]), "maximize")


class TestIsEmpty:
    def test_contradiction_is_empty(self):
        assert is_empty(contradiction())

    def test_full_space_is_not(self):
        assert not is_empty(full_space(3))
        assert not is_empty(full_space(0))

    def test_relu_piece_overlap_is_a_point_not_empty(self):
        left = Polyhedron(1, (LinearConstraint(ColVec([1]), 0),))
        right = Polyhedron(1, (LinearConstraint(ColVec([-1]), 0),))
        assert not is_empty(intersect(left, right))

    def test_degenerate_equality_region(self):
        # x <= 3 and -x <= -3 pins x at 3.
        p = Polyhedron(
            1, (LinearConstraint(ColVec([1]), 3), LinearConstraint(ColVec([-1]), -3))
        )
        assert not is_empty(p)


class TestFeasiblePoint:
    def test_returns_member_or_none(self):
        p = unit_interval()
        x = feasible_point(p)
        assert x is not None and contains(p, x)
        assert feasible_point(contradiction()) is None

    def test_deterministic(self):
        p = unit_interval()
        assert feasible_point(p) == feasible_point(p)


def off_target(poly, functional, target):
    """off_target_point, checked: None, or a point of poly that is off target."""
    point = off_target_point(poly, functional, target)
    if point is not None:
        assert contains(poly, point)
        assert dot(functional, point) != target
    return point


class TestIsConstantOn:
    """Constancy of functional.x on a polyhedron, decided by off_target_point."""

    def test_singleton_overlap_is_pinned_to_zero(self):
        # Both one-sided constraints together leave only the origin. The
        # oracle is the pair of optimizations itself: max and min of x over
        # the region are both attained at exactly 0.
        region = Polyhedron(
            1, (LinearConstraint(ColVec([1]), 0), LinearConstraint(ColVec([-1]), 0))
        )
        assert solve(region, ColVec([1]), MAX) == Optimal(Fraction(0), ColVec([0]))
        assert solve(region, ColVec([1]), MIN) == Optimal(Fraction(0), ColVec([0]))
        assert off_target(region, ColVec([1]), 0) is None
        assert off_target(region, ColVec([1]), 1) == ColVec([0])

    def test_full_line_is_not_constant(self):
        assert off_target(full_space(1), ColVec([1]), 0) == ColVec([1])
        assert off_target(full_space(1), ColVec([-1]), 0) == ColVec([-1])

    def test_vacuous_on_empty_polyhedron(self):
        assert off_target(contradiction(), ColVec([1]), 42) is None
        assert off_target(contradiction(), zeros_vec(1), 42) is None

    def test_zero_functional(self):
        assert off_target(full_space(2), zeros_vec(2), 0) is None
        assert off_target(full_space(2), zeros_vec(2), 1) == ColVec([0, 0])

    def test_constant_on_a_face(self):
        # On the segment from (0,1) to (1,0), x + y is constantly 1.
        p = Polyhedron(
            2,
            (
                LinearConstraint(ColVec([1, 1]), 1),
                LinearConstraint(ColVec([-1, -1]), -1),
                LinearConstraint(ColVec([-1, 0]), 0),
                LinearConstraint(ColVec([0, -1]), 0),
            ),
        )
        assert off_target(p, ColVec([1, 1]), 1) is None
        assert off_target(p, ColVec([1, 0]), 1) == ColVec([0, 1])

    def test_dimension_mismatch_raises(self):
        with pytest.raises(DimensionError):
            off_target_point(full_space(2), zeros_vec(1), 0)

    def test_unbounded_side_without_a_point_past_the_target_raises(self, monkeypatch):
        # Unreachable with a correct simplex; it must fail loudly, not pass.
        monkeypatch.setattr(lp, "feasible_point", lambda poly: None)
        with pytest.raises(RuntimeError):
            off_target_point(full_space(1), ColVec([1]), 0)


class TestAgainstVertexEnumeration:
    """Simplex outcomes must match brute-force enumeration on bounded sets."""

    def test_value_and_feasibility_agree(self):
        rng = random.Random(3301)
        checked = 0
        for _ in range(60):
            dim = rng.randint(1, 3)
            poly = box_polyhedron(rng, dim)
            objective = ColVec(Fraction(rng.randint(-6, 6)) for _ in range(dim))
            for sense in (MAX, MIN):
                got = solve(poly, objective, sense)
                expected = vertex_optimum(poly, objective, sense)
                if expected is None:
                    assert got == Infeasible()
                else:
                    assert isinstance(got, Optimal)
                    assert got.value == expected[0]
                    assert contains(poly, got.witness)
            assert is_empty(poly) == (vertex_optimum(poly, zeros_vec(dim), MAX) is None)
            checked += 1
        assert checked == 60


class TestOptimalWitness:
    def test_witness_attains_the_reported_value(self):
        rng = random.Random(3302)
        for _ in range(20):
            dim = rng.randint(1, 3)
            poly = box_polyhedron(rng, dim)
            objective = ColVec(Fraction(rng.randint(-5, 5)) for _ in range(dim))
            got = solve(poly, objective, MAX)
            if isinstance(got, Optimal):
                assert contains(poly, got.witness)
                assert dot(objective, got.witness) == got.value

    def test_no_sampled_point_beats_the_optimum(self):
        rng = random.Random(3303)
        poly = box_polyhedron(rng, 2)
        while is_empty(poly):
            poly = box_polyhedron(rng, 2)
        objective = ColVec([3, -2])
        hi = solve(poly, objective, MAX)
        lo = solve(poly, objective, MIN)
        assert isinstance(hi, Optimal) and isinstance(lo, Optimal)
        sampled = 0
        while sampled < 1000:
            x = point(rng, 2)
            if not contains(poly, x):
                continue
            sampled += 1
            value = dot(objective, x)
            assert lo.value <= value <= hi.value


class TestDeterminism:
    def test_identical_runs_identical_outcomes(self):
        rng = random.Random(3304)
        for _ in range(10):
            dim = rng.randint(1, 3)
            poly = box_polyhedron(rng, dim)
            objective = ColVec(Fraction(rng.randint(-5, 5)) for _ in range(dim))
            assert solve(poly, objective, MAX) == solve(poly, objective, MAX)
            assert solve(poly, objective, MIN) == solve(poly, objective, MIN)
