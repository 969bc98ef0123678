"""Exact simplex: outcomes, witnesses, and agreement with brute force."""

import hashlib
import random
from datetime import timedelta
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pwanet import lp
from pwanet.lp import (
    MAX,
    MIN,
    Infeasible,
    Optimal,
    Unbounded,
    feasible_point,
    is_empty,
    off_target_points,
    solve,
)
from pwanet.numeric import (
    ColVec, DimensionError, _unscaled, dot, scaled_ints, vec_scale, zeros_vec
)
from pwanet.network import transform
from pwanet.polyhedra import LinearConstraint, Polyhedron, _row, contains, full_space, intersect
from pwanet.pwa import AffinePiece, PwaFn, check_univalence, prune_empty

from genutil import box_polyhedron, corrupt_phase_1, dense_network, point, random_network
from oracles import farkas_refutes, gauss_solve, vertex_optimum


def unit_interval():
    return Polyhedron(
        1, (LinearConstraint(ColVec([1]), 1), LinearConstraint(ColVec([-1]), 0))
    )


def contradiction():
    return Polyhedron(
        1, (LinearConstraint(ColVec([1]), -1), LinearConstraint(ColVec([-1]), 0))
    )


def _small_rational(rng, num, den=3):
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def _random_polyhedron(rng):
    """Dim 1-4, up to seven constraints: bounded, unbounded or empty."""
    dim = rng.randint(1, 4)
    constraints = tuple(
        LinearConstraint(
            ColVec(_small_rational(rng, 4) for _ in range(dim)), _small_rational(rng, 6)
        )
        for _ in range(rng.randint(0, 7))
    )
    return Polyhedron(dim, constraints)


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
    """off_target_points for one row, checked: None, or a point of poly
    that is off target."""
    point = next(off_target_points(poly, ((functional, target),)), None)
    if point is not None:
        assert contains(poly, point)
        assert dot(functional, point) != target
    return point


class TestIsConstantOn:
    """Constancy of functional.x on a polyhedron, decided by off_target_points."""

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
            off_target_points(full_space(2), ((zeros_vec(1), 0),))

    def test_unbounded_side_without_a_point_past_the_target_raises(self, monkeypatch):
        # Unreachable with a correct simplex; it must fail loudly, not pass.
        # -x is unbounded above on R^1, so the point comes from the phase 1
        # of x <= -1, which the fault moves to 999.
        corrupted = corrupt_phase_1(monkeypatch, "point")
        with pytest.raises(RuntimeError):
            next(off_target_points(full_space(1), ((ColVec([-1]), 0),)))
        assert len(corrupted) == 2  # R^1 itself, whose point needs no row


class TestOffTargetPoints:
    def test_matches_off_target_point_row_by_row(self):
        rng = random.Random(3310)
        for _ in range(40):
            poly = _random_polyhedron(rng)
            rows = [
                (ColVec(_small_rational(rng, 2) for _ in range(poly.dim)), _small_rational(rng, 2))
                for _ in range(3)
            ]
            expected = [next(off_target_points(poly, ((f, t),)), None) for f, t in rows]
            got = list(off_target_points(poly, rows))
            assert got == ([] if is_empty(poly) else expected)

    def test_one_phase_one_for_all_rows(self, monkeypatch):
        built = []

        class Counted(lp._Simplex):
            def __init__(self, poly):
                built.append(poly)
                super().__init__(poly)

        monkeypatch.setattr(lp, "_Simplex", Counted)
        # x >= 1 needs phase 1; every row is bounded on the segment [1, 2].
        segment = Polyhedron(
            1, (LinearConstraint(ColVec([-1]), -1), LinearConstraint(ColVec([1]), 2))
        )
        rows = [(ColVec([1]), 2), (ColVec([0]), 0), (ColVec([0]), 5), (ColVec([2]), 1)]
        assert list(off_target_points(segment, rows)) == [
            ColVec([1]), None, ColVec([1]), ColVec([2])
        ]
        assert built == [segment]


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


def _small_fractions(num, den=3):
    return st.builds(Fraction, st.integers(-num, num), st.integers(1, den))


@st.composite
def _bounded_lp(draw):
    """A box of dim 1-3 (empty when a lower bound passes its upper), plus cuts."""
    dim = draw(st.integers(1, 3))
    constraints = []
    for k in range(dim):
        lower, upper = draw(_small_fractions(8)), draw(_small_fractions(8))
        axis = [0] * dim
        axis[k] = 1
        constraints.append(LinearConstraint(ColVec(axis), upper))
        axis[k] = -1
        constraints.append(LinearConstraint(ColVec(axis), -lower))
    vectors = st.lists(_small_fractions(4), min_size=dim, max_size=dim)
    for c, b in draw(st.lists(st.tuples(vectors, _small_fractions(10)), max_size=3)):
        constraints.append(LinearConstraint(ColVec(c), b))
    objective = ColVec(draw(vectors))
    return Polyhedron(dim, tuple(constraints)), objective


class TestAgainstVertexEnumerationProperty:
    """The same oracle as above, on hypothesis-drawn rational polyhedra."""

    @settings(
        derandomize=True, database=None, max_examples=120, deadline=timedelta(seconds=5)
    )
    @given(_bounded_lp())
    def test_solve_and_is_empty_agree(self, case):
        poly, objective = case
        for sense in (MAX, MIN):
            got = solve(poly, objective, sense)
            expected = vertex_optimum(poly, objective, sense)
            if expected is None:
                assert got == Infeasible()
            else:
                assert isinstance(got, Optimal)
                assert got.value == expected[0] == dot(objective, got.witness)
                assert contains(poly, got.witness)
        assert is_empty(poly) == (vertex_optimum(poly, zeros_vec(poly.dim), MAX) is None)


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


def _outcome_trace():
    """repr of every outcome of a fixed seeded set of LPs, in a fixed order."""
    rng = random.Random(3305)
    lines = []
    for _ in range(250):
        poly = _random_polyhedron(rng)
        objective = ColVec(_small_rational(rng, 3) for _ in range(poly.dim))
        lines.append(repr(is_empty(poly)))
        lines.append(repr(solve(poly, objective, MAX)))
        lines.append(repr(solve(poly, objective, MIN)))
        lines.append(repr(feasible_point(poly)))
        target = _small_rational(rng, 2)
        lines.append(repr(next(off_target_points(poly, ((objective, target),)), None)))
    for seed in (3306, 3307, 3308, 3309):
        net_rng = random.Random(seed)
        fn = transform(random_network(net_rng, max_pieces=16, max_dim=3, max_depth=3))
        pieces = fn.pieces
        for i in range(len(pieces)):
            for j in range(i + 1, len(pieces)):
                region = intersect(pieces[i].polyhedron, pieces[j].polyhedron)
                lines.append(repr(is_empty(region)))
                for r in range(fn.out_dim):
                    row = ColVec(pieces[i].M.entries[r])
                    lines.append(repr(solve(region, row, MAX)))
                    lines.append(repr(solve(region, row, MIN)))
        # The first piece's map moved up by one on every row.
        first = pieces[0]
        moved = AffinePiece(first.polyhedron, first.M, ColVec(e + 1 for e in first.b))
        refuted = PwaFn(fn.in_dim, fn.out_dim, (moved,) + pieces[1:])
        lines.append(repr(check_univalence(fn)))
        lines.append(repr(check_univalence(refuted)))
    return lines


class TestOutcomeTraceHash:
    """Outcomes, values and witnesses of a fixed LP set, pinned by digest.

    The digest was recorded with the Fraction-tableau simplex this engine
    replaced; any change of pivot rule or tie-break that moves a witness
    changes it.
    """

    DIGEST = "771ae226316fa5613b7b0ff35664822a75852fb50a33a08047b2e9e62b66ea88"

    def test_digest(self):
        lines = _outcome_trace()
        assert len(lines) > 1500
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == self.DIGEST


def _mutants(poly, multipliers):
    """Certificates one edit away from multipliers that can never refute,
    for each constraint with a positive multiplier: that multiplier
    negated, and, when the constraint's row is nonzero, the multiplier
    raised by one or the constraint dropped along with it. The last two
    leave sum y_i c_i off zero by a nonzero multiple of that row."""
    y = tuple(multipliers)
    for k, lc in enumerate(poly.constraints):
        if y[k] > 0:
            yield poly, y[:k] + (-y[k],) + y[k + 1:]
            if any(lc.c.entries):
                yield poly, y[:k] + (y[k] + 1,) + y[k + 1:]
                rest = poly.constraints[:k] + poly.constraints[k + 1:]
                yield Polyhedron(poly.dim, rest), y[:k] + y[k + 1:]


def _near_opposite_polyhedron(rng):
    """_random_polyhedron with rows repeated and near-opposite rows added.

    A row may come again as the same object or as an equal copy, and may
    gain a partner s * (-c).x <= s * (-b) + d with s in {1/3, 1, 2} and d
    in [-1, 1]: a slab that is thin, flat or empty. Rows are shuffled.
    """
    poly = _random_polyhedron(rng)
    rows = list(poly.constraints)
    for lc in poly.constraints:
        if rng.random() < 0.3:
            rows.append(lc if rng.random() < 0.5 else LinearConstraint(ColVec(lc.c.entries), lc.b))
        if rng.random() < 0.5:
            s = rng.choice((Fraction(1, 3), Fraction(1), Fraction(2)))
            rows.append(LinearConstraint(vec_scale(-s, lc.c), -s * lc.b + _small_rational(rng, 1)))
    rng.shuffle(rows)
    return Polyhedron(poly.dim, tuple(rows))


class TestFarkasCertificates:
    """Every Infeasible outcome carries multipliers that prove emptiness.

    The checker is oracles.farkas_refutes, raw Fraction sums that share no
    code with the simplex. lp._checked_support, the library's own check,
    must agree on every certificate and on its mutants.
    """

    def check(self, poly, multipliers):
        assert farkas_refutes(poly, multipliers)
        support = lp._checked_support(_int_rows(poly.constraints), multipliers)
        assert support == [i for i, y in enumerate(multipliers) if y > 0]
        mutants = list(_mutants(poly, multipliers))
        assert mutants
        for bad_poly, bad in mutants:
            assert not farkas_refutes(bad_poly, bad)
            with pytest.raises(RuntimeError):
                lp._checked_support(_int_rows(bad_poly.constraints), bad)

    @staticmethod
    def infeasible_builds(monkeypatch, run):
        """(polyhedron, multipliers) of each _Simplex built by run whose
        phase 1 finds it empty."""
        found = []

        class Recorded(lp._Simplex):
            def __init__(self, poly):
                super().__init__(poly)
                if not self.feasible:
                    found.append((poly, self.farkas))

        monkeypatch.setattr(lp, "_Simplex", Recorded)
        run()
        monkeypatch.undo()
        return found

    def test_outcome_trace_polyhedra(self, monkeypatch):
        found = self.infeasible_builds(monkeypatch, _outcome_trace)
        assert len(found) > 300
        for poly, multipliers in found:
            self.check(poly, multipliers)

    def test_random_polyhedra_with_repeated_and_near_opposite_rows(self):
        rng = random.Random(3311)
        infeasible = 0
        for _ in range(300):
            poly = _near_opposite_polyhedron(rng)
            objective = ColVec(_small_rational(rng, 3) for _ in range(poly.dim))
            outcome = solve(poly, objective, MAX)
            if isinstance(outcome, Infeasible):
                infeasible += 1
                self.check(poly, outcome.certificate)
                assert solve(poly, objective, MIN).certificate == outcome.certificate
        assert infeasible > 100

    def test_pair_intersections_of_compiled_networks(self):
        fns = [
            transform(random_network(random.Random(seed), max_pieces=16, max_dim=3, max_depth=3))
            for seed in range(3312, 3320)
        ]
        fns += [
            prune_empty(transform(dense_network(random.Random(1), shape)))
            for shape in ((2, 3, 3, 2), (2, 4, 4))
        ]
        infeasible = 0
        for fn in fns:
            for i in range(len(fn.pieces)):
                for j in range(i + 1, len(fn.pieces)):
                    region = intersect(fn.pieces[i].polyhedron, fn.pieces[j].polyhedron)
                    outcome = solve(region, zeros_vec(fn.in_dim), MAX)
                    if isinstance(outcome, Infeasible):
                        infeasible += 1
                        self.check(region, outcome.certificate)
        assert infeasible > 250

    def test_named_certificates(self):
        # x <= -1 and -x <= 0 add up to 0 <= -1.
        self.check(contradiction(), solve(contradiction(), ColVec([1])).certificate)
        assert solve(contradiction(), ColVec([1])).certificate == (1, 1)
        # 0.x <= -1 alone, in R^0 too.
        for dim in (0, 2):
            poly = Polyhedron(dim, (LinearConstraint(ColVec([0] * dim), -1),))
            (multiplier,) = solve(poly, zeros_vec(dim)).certificate
            assert multiplier > 0
            self.check(poly, (multiplier,))

    def test_certificate_is_outside_equality_and_repr(self):
        assert Infeasible((1, 1)) == Infeasible()
        assert repr(Infeasible((1, 1))) == "Infeasible()"
        assert Infeasible().certificate == ()

    def test_wrong_length_is_refused(self):
        with pytest.raises(RuntimeError):
            lp._checked_support(_int_rows(contradiction().constraints), (1,))
        assert not farkas_refutes(contradiction(), (1,))


def _int_rows(constraints):
    """Each constraint as the (den, ints) row that _Simplex.extended takes."""
    return [scaled_ints(lc.c.entries + (lc.b,)) for lc in constraints]


def _state(simplex):
    return (
        simplex.T,
        simplex.basis,
        simplex.ncols,
        simplex.m,
        simplex.rows,
        simplex.feasible,
        simplex.witness if simplex.feasible else simplex.farkas,
    )


def _warm_chain(poly, cuts):
    """(prefix length, tableau) for each step of a chain that extends the
    empty tableau by poly's constraints, one segment per gap between the
    sorted cuts, and stops at the first empty prefix."""
    rows = _int_rows(poly.constraints)
    tableau = lp._Simplex.empty(poly.dim)
    steps = []
    for start, stop in zip([0] + cuts, cuts + [len(rows)]):
        tableau = tableau.extended(rows[start:stop])
        steps.append((stop, tableau))
        if not tableau.feasible:
            break
    return steps


@st.composite
def _split_chains(draw):
    """A polyhedron in R^0..R^3 with up to eight constraints of small
    rationals, and up to four sorted cut points into its constraints."""
    dim = draw(st.integers(0, 3))
    scalar = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    constraints = draw(st.lists(
        st.builds(
            lambda c, b: LinearConstraint(ColVec(c), b),
            st.lists(scalar, min_size=dim, max_size=dim),
            scalar,
        ),
        max_size=8,
    ))
    cuts = draw(st.sets(st.integers(0, len(constraints)), max_size=4))
    return Polyhedron(dim, tuple(constraints)), sorted(cuts)


class TestWarmExtension:
    """A tableau extended by new rows runs the same phase 1 as a build.

    A build is the empty tableau extended by all of a polyhedron's rows,
    so the two must agree exactly; a chain of extensions must agree with
    feasible_point on emptiness, with points and certificates that check.
    """

    def check_chain(self, poly, cuts):
        steps = _warm_chain(poly, cuts)
        for stop, tableau in steps:
            prefix = Polyhedron(poly.dim, poly.constraints[:stop])
            assert tableau.m == stop
            # The rows a tableau certifies against are its polyhedron's,
            # scaled, in order, whether extended or built cold.
            assert tableau.rows == tuple(_int_rows(prefix.constraints))
            assert lp._Simplex(prefix).rows == tableau.rows
            if tableau.feasible:
                assert contains(prefix, tableau.point())
            else:
                assert farkas_refutes(prefix, tableau.farkas)
                assert tableau.core == [i for i, y in enumerate(tableau.farkas) if y]
        feasible = steps[-1][1].feasible
        assert feasible == (feasible_point(poly) is not None)
        return feasible

    def test_a_build_is_the_empty_tableau_extended(self, monkeypatch):
        polys = []

        class Recorded(lp._Simplex):
            def __init__(self, poly):
                polys.append(poly)
                super().__init__(poly)

        monkeypatch.setattr(lp, "_Simplex", Recorded)
        _outcome_trace()
        monkeypatch.undo()
        rng = random.Random(3321)
        polys += [_near_opposite_polyhedron(rng) for _ in range(300)]
        assert len(polys) > 1500
        for poly in polys:
            cold = lp._Simplex(poly)
            warm = lp._Simplex.empty(poly.dim).extended(_int_rows(poly.constraints))
            assert _state(warm) == _state(cold)
            assert cold.rows == tuple(_int_rows(poly.constraints))

    @settings(derandomize=True, database=None, max_examples=300, deadline=timedelta(seconds=5))
    @given(_split_chains())
    def test_drawn_chains_agree_with_feasible_point(self, chain):
        self.check_chain(*chain)

    def test_seeded_chains_with_near_opposite_rows(self):
        rng = random.Random(3322)
        outcomes = []
        for _ in range(300):
            poly = _near_opposite_polyhedron(rng)
            m = len(poly.constraints)
            cuts = sorted({rng.randint(0, m) for _ in range(rng.randint(0, 4))})
            outcomes.append(self.check_chain(poly, cuts))
        assert outcomes.count(True) > 50 and outcomes.count(False) > 100

    def test_extending_a_parent_twice_leaves_it_as_it_was(self):
        rng = random.Random(3323)
        extended = 0
        for _ in range(200):
            poly = _near_opposite_polyhedron(rng)
            k = rng.randint(0, len(poly.constraints))
            parent = lp._Simplex(Polyhedron(poly.dim, poly.constraints[:k]))
            if not parent.feasible:
                continue
            before = ([list(row) for row in parent.T], list(parent.basis), parent.ncols, parent.m)
            point = parent.point()
            rows = _int_rows(poly.constraints[k:])
            first = parent.extended(rows[:1])
            second = parent.extended(rows)
            assert ([list(row) for row in parent.T], parent.basis, parent.ncols, parent.m) == before
            assert parent.point() == point
            assert _state(parent.extended(rows[:1])) == _state(first)
            assert _state(parent.extended(rows)) == _state(second)
            extended += bool(rows)
        assert extended > 100


class TestCertifiedPhase1:
    """Each phase 1 checks its own verdict before any caller reads it:
    an empty one its Farkas multipliers, a non-empty one its basic point,
    against every row. Cold builds are checked like extensions."""

    @pytest.mark.parametrize("fault", ["multiplier", "point"])
    @pytest.mark.parametrize("entry", ["solve", "is_empty", "feasible_point", "off_target_points"])
    def test_a_corrupted_cold_build_raises(self, monkeypatch, entry, fault):
        # contradiction() is empty, with multipliers (1, 1); phase 1 finds
        # the point 0 of unit_interval(), which the fault moves past x <= 1.
        poly = contradiction() if fault == "multiplier" else unit_interval()
        call = {
            "solve": lambda: solve(poly, ColVec([1])),
            "is_empty": lambda: is_empty(poly),
            "feasible_point": lambda: feasible_point(poly),
            "off_target_points": lambda: off_target_points(poly, ((ColVec([1]), 0),)),
        }[entry]
        call()  # without the fault, the verdict checks
        corrupted = corrupt_phase_1(monkeypatch, fault)
        with pytest.raises(RuntimeError):
            call()
        assert len(corrupted) == 1


@st.composite
def _low_dim_chains(draw):
    """A polyhedron in R^0..R^3 and a cut into its constraints.

    Each constraint is drawn fresh, as a zero row, or from an earlier one:
    repeated, as its exact negation (so the two leave a hyperplane, and
    two such pairs a segment or a point), as a parallel row offset by g
    in -2..2 (a strip for g > 0, nothing for g < 0), or scaled by a
    positive rational. Few rows leave the region unbounded.
    """
    dim = draw(st.integers(0, 3))
    scalar = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    fresh = st.builds(
        lambda c, b: LinearConstraint(ColVec(c), b),
        st.lists(scalar, min_size=dim, max_size=dim),
        scalar,
    )
    constraints = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.integers(0, 5)) if constraints else draw(st.integers(0, 1))
        if kind == 0:
            constraints.append(draw(fresh))
            continue
        if kind == 1:
            constraints.append(LinearConstraint(zeros_vec(dim), draw(scalar)))
            continue
        lc = draw(st.sampled_from(constraints))
        if kind == 2:
            constraints.append(lc)
        elif kind == 3:
            constraints.append(LinearConstraint(vec_scale(-1, lc.c), -lc.b))
        elif kind == 4:
            offset = draw(st.integers(-2, 2))
            constraints.append(LinearConstraint(vec_scale(-1, lc.c), -lc.b + offset))
        else:
            k = draw(st.fractions(min_value=Fraction(1, 3), max_value=3, max_denominator=3))
            constraints.append(LinearConstraint(vec_scale(k, lc.c), k * lc.b))
    cut = draw(st.integers(0, len(constraints)))
    return Polyhedron(dim, tuple(constraints)), cut


class TestLowDim:
    """The hyperplane decider gives the simplex's verdict on R^0..R^3, with
    a point that every row holds, or multipliers of at most n + 1 rows
    that the independent oracle accepts and _checked_support refuses once
    one of them is zeroed or changed."""

    @settings(derandomize=True, database=None, max_examples=400, deadline=timedelta(seconds=5))
    @given(_low_dim_chains())
    def test_drawn_verdicts_match_the_simplex(self, chain):
        poly, cut = chain
        rows = [_row(lc) for lc in poly.constraints]
        decider = lp._LowDim.empty(poly.dim).extended(rows[:cut])
        checked = Polyhedron(poly.dim, poly.constraints[:cut])
        if decider.feasible:
            decider = decider.extended(rows[cut:])
            checked = poly
        assert decider.rows == tuple(rows[: len(checked.constraints)])
        assert decider.feasible == lp._Simplex(checked).feasible
        if decider.feasible:
            assert contains(checked, _unscaled(*decider.witness))
            return
        multipliers = decider.farkas
        assert farkas_refutes(checked, multipliers)
        assert decider.core == [i for i, y in enumerate(multipliers) if y]
        assert len(decider.core) <= poly.dim + 1
        # A lone zero row 0 <= b, b < 0, refutes at any positive weight,
        # so a weight raised by one is a mutant only beside another row.
        changes = [lambda y: 0, lambda y: -y]
        if len(decider.core) > 1:
            changes.append(lambda y: y + 1)
        for i in decider.core:
            for change in changes:
                mutant = list(multipliers)
                mutant[i] = change(mutant[i])
                with pytest.raises(RuntimeError):
                    lp._checked_support(decider.rows, tuple(mutant))

    @pytest.mark.parametrize("n", [2, 3])
    def test_a_line_is_decided_in_one_pass(self, monkeypatch, n):
        # Lower bounds that tighten one by one, on each coordinate in turn,
        # each cut the witness before them: the walk's worst order. A line
        # left by the eliminations is bounded in one lp._interval pass,
        # never walked row by row, which would cost a factor of m more.
        rng = random.Random(7)
        rows = []
        for k in range(1, 25):
            c = [rng.randint(-1, 1) for _ in range(n)]
            c[k % n] = -(k + 1)
            rows.append((1, c + [-k * k]))
        solved = []
        on_hyperplane = lp._on_hyperplane

        def counted(m, rows, h):
            solved.append(m)
            return on_hyperplane(m, rows, h)

        monkeypatch.setattr(lp, "_on_hyperplane", counted)
        decider = lp._LowDim.empty(n).extended(rows)
        assert decider.feasible and lp._Simplex.empty(n).extended(rows).feasible
        assert set(solved) == set(range(2, n + 1))


@st.composite
def _flats(draw):
    """Independent planes c.x = b on R^0 to R^6, from none to n of them,
    rows, and a point (den, ints) on the coordinates the planes leave,
    all with small entries. Two more rows refute each other on the flat:
    r and -r plus a combination of the planes, with the bound lowered by
    delta, so y = (a, a) weighs them to 0 <= -delta times a factor."""
    n = draw(st.integers(0, 6))
    small = st.integers(-3, 3)
    row = st.lists(small, min_size=n + 1, max_size=n + 1)
    k = draw(st.integers(0, n))
    planes = draw(st.lists(row, min_size=k, max_size=k))
    # Independent normals have a nonsingular Gram matrix.
    gram = [[sum(a * b for a, b in zip(p[:-1], q[:-1])) for q in planes] for p in planes]
    assume(gauss_solve(gram, [0] * len(planes)) is not None)
    rows = draw(st.lists(row, min_size=1, max_size=3))
    left = n - len(planes)
    point = (draw(st.integers(1, 4)), draw(st.lists(small, min_size=left, max_size=left)))
    r = draw(row)
    other = [-a for a in r]
    for plane in planes:
        lam = draw(small)
        other = [a + lam * e for a, e in zip(other, plane)]
    other[-1] -= draw(st.integers(1, 3))
    return planes, rows, point, [r, other], draw(st.integers(1, 3))


def _sign(a):
    return (a > 0) - (a < 0)


def _excess(r, point):
    """c.x - b for the row r = (c, b) at the point (den, ints)."""
    den, x = point
    return Fraction(sum(c * xi for c, xi in zip(r, x)), den) - r[-1]


class TestFlat:
    """lp._Flat writes rows on the flat of independent planes and lifts
    points and multipliers back, with every division exact."""

    @settings(derandomize=True, database=None, max_examples=400, deadline=timedelta(seconds=5))
    @given(_flats())
    def test_drawn_flats(self, drawn):
        planes, rows, point, refuting, a = drawn
        flat = lp._Flat(planes)
        assert (flat.kept, flat.consistent) == (list(range(len(planes))), True)
        den, x = flat.point(point)
        assert den > 0
        # The lifted point lies on every plane.
        for plane in planes:
            assert sum(c * xi for c, xi in zip(plane, x)) == plane[-1] * den
        # Each row has, at the lifted point, the sign of its row on the
        # flat at point.
        for r, w in zip(rows, flat.restricted(rows)):
            assert _sign(_excess(r, (den, x))) == _sign(_excess(w, point))
        # On the flat of the first j planes, a row is written as the last
        # pivot's size p times the row, as an affine function of the
        # coordinates left: exact only if every division was. No entry
        # passes the Hadamard bound of the planes and the row.
        n = len(rows[0]) - 1
        for j in range(len(planes) + 1):
            below = lp._Flat(planes[:j])
            p = below.levels[-1][2] if j else 1
            base = below.point((1, [0] * (n - j)))
            units = [below.point((1, [int(m == k) for m in range(n - j)])) for k in range(n - j)]
            for r, w in zip(rows + planes, flat.restricted(rows + planes, j)):
                assert -w[-1] == p * _excess(r, base)
                for k, unit in enumerate(units):
                    assert w[k] == p * (_excess(r, unit) - _excess(r, base))
                bound = 1
                for v in planes[:j] + [r]:
                    bound *= sum(e * e for e in v)
                assert all(e * e <= bound for e in w)
        # Multipliers that refute the two rows on the flat lift to ones
        # that refute the rows and the planes, each plane on its side.
        y = [a, a]
        written = flat.restricted(refuting)
        combined = [a * (e + f) for e, f in zip(*written)]
        assert not any(combined[:-1]) and combined[-1] < 0
        weights = flat.weights(refuting, y)
        assert all(w > 0 for w in weights[:2])
        sides = [plane if w >= 0 else [-e for e in plane] for plane, w in zip(planes, weights[2:])]
        lp._checked_support(
            [(1, r) for r in refuting + sides], tuple(abs(w) for w in weights)
        )

    def test_planes_in_the_span_of_earlier_ones_are_left_out(self):
        # x + y = 1, then 2x + 2y = 2, which holds on it, then y = 0, then
        # x = 2, which contradicts the point (1, 0).
        flat = lp._Flat([[1, 1, 1], [2, 2, 2], [0, 1, 0], [1, 0, 2]])
        assert (flat.kept, flat.consistent) == ([0, 2], False)
        assert flat.point((1, [])) == (1, [1, 0])
        assert lp._Flat([[1, 1, 1], [2, 2, 2]]).consistent


@st.composite
def _flat_problems(draw):
    """Planes c.x = b on R^1 to R^4 whose flat is consistent and leaves
    k = 0 to 3 coordinates, as lp._on_flat takes them
    (lp._Flat.decides); rows c.x <= b; and rows (d, t) that ask whether
    d.x = t: all n + 1 small ints.

    k is drawn first and n - k planes after it, so dependent planes, a
    multiple of an earlier one among them, leave more. Rows are drawn as
    _low_dim_chains draws them: fresh, zero, repeated, as an exact
    negation (so two of them pin a hyperplane, and two such pairs a
    segment or a point), as a parallel row offset by g in -2..2 (a strip
    for g > 0, nothing for g < 0) or scaled by 2 or 3; a row may also be
    a side of a plane, its bound raised by 0 to 2. A row (d, t) is fresh
    or a multiple of a row plus a multiple of a plane, which holds where
    that row is tight, as at one end of a segment. In two problems of
    three every one is a multiple of one row, whose exact negation is
    added to the rows and pins it: then each is on target wherever the
    rows have a point.
    """
    n = draw(st.integers(1, 4))
    k = draw(st.integers(0, min(n, 3)))
    small = st.integers(-2, 2)
    fresh = st.lists(small, min_size=n + 1, max_size=n + 1)
    planes = []
    for _ in range(n - k):
        if planes and draw(st.integers(0, 4)) == 0:
            planes.append([2 * a for a in draw(st.sampled_from(planes))])
        else:
            planes.append(draw(fresh))
    flat = lp._Flat(planes)
    assume(flat.consistent and flat.decides(n))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.integers(0, 6)) if rows else draw(st.sampled_from((0, 1, 6)))
        if kind == 0:
            rows.append(draw(fresh))
        elif kind == 1:
            rows.append([0] * n + [draw(small)])
        elif kind == 6:
            if not planes:
                continue
            side = draw(st.sampled_from((1, -1)))
            rows.append([side * a for a in draw(st.sampled_from(planes))])
            rows[-1][-1] += draw(st.integers(0, 2))
        else:
            r = draw(st.sampled_from(rows))
            if kind == 2:
                rows.append(r)
            elif kind == 3:
                rows.append([-a for a in r])
            elif kind == 4:
                rows.append([-a for a in r[:-1]] + [-r[-1] + draw(st.integers(-2, 2))])
            else:
                scale = draw(st.integers(2, 3))
                rows.append([scale * a for a in r])
    diffs = []
    pinned = rows and draw(st.integers(0, 2)) > 0
    if pinned:
        r = draw(st.sampled_from(rows))
        rows.append([-a for a in r])
    for _ in range(draw(st.integers(1, 3))):
        if pinned or rows and draw(st.booleans()):
            scale = draw(st.integers(1, 2))
            d = [scale * a for a in (r if pinned else draw(st.sampled_from(rows)))]
            if planes:
                lam = draw(small)
                d = [a + lam * e for a, e in zip(d, draw(st.sampled_from(planes)))]
            diffs.append(d)
        else:
            diffs.append(draw(fresh))
    return n, planes, rows, diffs


def _cold_flat(n, planes, rows):
    """The cold lp._Simplex of rows and both sides of each plane, and its
    polyhedron."""
    sides = [side for plane in planes for side in (plane, [-a for a in plane])]
    poly = Polyhedron(n, tuple(LinearConstraint(ColVec(r[:-1]), r[-1]) for r in rows + sides))
    return lp._Simplex(poly), poly


class TestFlatStep:
    """lp._on_flat decides rows on a flat as a cold simplex decides them
    with both sides of each plane added, with a point on the flat or
    multipliers whose lifted certificate refutes the simplex's rows; on
    a non-empty flat lp._flat_off finds the row that lp._first_off finds
    first off target on that simplex."""

    @staticmethod
    def stepped(n, planes, rows):
        flat = lp._Flat(planes)
        return flat, lp._on_flat(flat, n - len(flat.kept), rows, flat.restricted(rows))

    def test_drawn_verdicts_and_certificates_match_a_cold_simplex(self):
        seen = []

        @settings(derandomize=True, database=None, max_examples=500, deadline=timedelta(seconds=5))
        @given(_flat_problems())
        def drawn(problem):
            n, planes, rows, _ = problem
            flat, (feasible, found) = self.stepped(n, planes, rows)
            cold, poly = _cold_flat(n, planes, rows)
            assert feasible == cold.feasible
            seen.append((n - len(flat.kept), feasible))
            if feasible:
                assert found[0] > 0 and lp._satisfies(found, cold.rows)
                return
            # Each plane's weight goes to the side of its sign.
            m = len(rows)
            y = list(found[:m]) + [0] * (2 * len(planes))
            for j, w in zip(flat.kept, found[m:]):
                y[m + 2 * j + (w < 0)] = abs(w)
            assert farkas_refutes(poly, y)
            assert sum(map(bool, y)) <= n + 1
            certificate, support = lp._certified(cold.rows, y)
            assert support == [i for i, a in enumerate(certificate) if a]

        drawn()
        for k in range(4):
            assert seen.count((k, True)) >= 10 and seen.count((k, False)) >= 10

    def test_drawn_first_rows_off_match_first_off(self):
        seen = []

        @settings(derandomize=True, database=None, max_examples=500, deadline=timedelta(seconds=5))
        @given(_flat_problems())
        def drawn(problem):
            n, planes, rows, diffs = problem
            flat, (feasible, found) = self.stepped(n, planes, rows)
            assume(feasible)
            on_flat = [(r, row) for r, row in enumerate(flat.restricted(diffs)) if any(row)]
            assume(on_flat)
            off = lp._flat_off([(1, r) for r in rows], found, flat.restricted(rows), on_flat)
            cold, _ = _cold_flat(n, planes, rows)
            first = lp._first_off(cold, [(r, (1, diffs[r])) for r, _ in on_flat])
            assert off == (None if first is None else first[0])
            seen.append((n - len(flat.kept), off is None))

        drawn()
        for k in range(4):
            assert seen.count((k, False)) >= 10
        for k in range(1, 4):
            assert seen.count((k, True)) >= 10

    def test_on_a_line_a_row_is_on_target_only_if_it_holds_at_both_ends(self):
        # On R^1, -t <= 0 and t <= 1 leave the segment [0, 1]: t = 0 holds
        # at one end only, so it is off target. With t <= 0 too, the
        # segment is the point 0, where t = 0 holds and 2 t = 1 does not.
        rows = [[-1, 0], [1, 1]]
        diffs = [(0, [1, 0]), (1, [2, 1])]
        assert lp._flat_off([(1, r) for r in rows], (1, [0]), rows, diffs) == 0
        rows.append([1, 0])
        assert lp._flat_off([(1, r) for r in rows], (1, [0]), rows, diffs) == 1
        assert lp._flat_off([(1, r) for r in rows], (1, [0]), rows, diffs[:1]) is None

    def test_a_lifted_point_outside_the_rows_raises(self):
        # x <= 1 on the line R^1 holds at 0, not at 2.
        with pytest.raises(RuntimeError, match="leaves"):
            lp._flat_off([(1, [1, 1])], (1, [2]), [[1, 1]], [(0, [1, 0])])

    def test_a_certificate_weighs_each_constraint_by_its_den(self):
        # x <= 1/2 as (2, [2, 1]) and -x <= -1: the integer rows weighed
        # by 1 and 2 read 0 <= -1, so the constraints take 2 and 2.
        rows = [(2, [2, 1]), (1, [-1, -1])]
        assert lp._certified(rows, [1, 2]) == ((2, 2), [0, 1])
        with pytest.raises(RuntimeError, match="do not refute"):
            lp._certified(rows, [1, 1])
