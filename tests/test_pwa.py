"""PWA functions: evaluation, domains, univalence, pruning."""

import json
import random
from hashlib import sha256
from datetime import timedelta
from itertools import combinations
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwanet.lp import MAX, MIN, Optimal, solve
from pwanet.numeric import (
    ColVec,
    DimensionError,
    Mat,
    _unscaled,
    dot,
    mat_vec_mul,
    scaled_ints,
    vec_add,
    vec_scale,
)
from pwanet.polyhedra import LinearConstraint, Polyhedron, _row, contains, full_space, intersect
from pwanet.pwa import (
    REFUTED,
    UNCHECKED,
    VERIFIED,
    AffinePiece,
    PwaFn,
    Univalent,
    UnivalenceViolation,
    check_univalence,
    count_regions,
    evaluate,
    identity_pwaf,
    linear_pwaf,
    prune_empty,
)
from pwanet import lp, pwa
from pwanet.formats import parse_network, parse_pwa, serialize_pwa
from pwanet.network import Network, OutputLayer, nn_linear, nn_relu, transform

from genutil import (
    box_polyhedron,
    colvec_of,
    corrupt_hyperplane_point,
    corrupt_phase_1,
    corrupt_walk_multiplier,
    dense_network,
    mat_of,
    perfbench_corpus,
    point,
    random_network,
    restricted_affine,
    univalent_fn,
)
from oracles import (
    _plain_check_pair,
    cold_witness,
    farkas_refutes,
    plain_check_univalence,
    relu_1d,
)


def two_conflicting_pieces():
    """x and 2x, both on all of R: they disagree everywhere but 0."""
    return PwaFn(
        1,
        1,
        (
            AffinePiece(full_space(1), Mat([[1]]), ColVec([0])),
            AffinePiece(full_space(1), Mat([[2]]), ColVec([0])),
        ),
    )


def shifted_parallel_pieces():
    """x and x + 1 overlapping on x <= 0: same slope, different offsets."""
    region = Polyhedron(1, (LinearConstraint(ColVec([1]), 0),))
    return PwaFn(
        1,
        1,
        (
            AffinePiece(region, Mat([[1]]), ColVec([0])),
            AffinePiece(region, Mat([[1]]), ColVec([1])),
        ),
    )


class TestAffinePiece:
    def test_shape_validation(self):
        with pytest.raises(DimensionError):
            AffinePiece(full_space(2), Mat([[1]]), ColVec([0]))
        with pytest.raises(DimensionError):
            AffinePiece(full_space(1), Mat([[1]]), ColVec([0, 0]))

    def test_piece_dims_must_match_function_dims(self):
        piece = AffinePiece(full_space(1), Mat([[1]]), ColVec([0]))
        with pytest.raises(DimensionError):
            PwaFn(2, 1, (piece,))
        with pytest.raises(DimensionError):
            PwaFn(1, 2, (piece,))


class TestEvaluate:
    def test_relu_values(self):
        relu = relu_1d()
        assert evaluate(relu, ColVec([-5])) == ColVec([0])
        assert evaluate(relu, ColVec([0])) == ColVec([0])
        assert evaluate(relu, ColVec([7])) == ColVec([7])
        assert evaluate(relu, ColVec(["-1/3"])) == ColVec([0])

    def test_outside_domain_is_none(self):
        fn = PwaFn(
            1,
            1,
            (AffinePiece(Polyhedron(1, (LinearConstraint(ColVec([1]), 0),)), Mat([[1]]), ColVec([0])),),
        )
        assert evaluate(fn, ColVec([1])) is None
        assert evaluate(fn, ColVec([-1])) == ColVec([-1])

    def test_zero_pieces_means_empty_domain(self):
        fn = PwaFn(2, 3)
        assert evaluate(fn, ColVec([0, 0])) is None
        assert evaluate(fn, ColVec([1, 1])) is None

    def test_first_matching_piece_wins(self):
        fn = two_conflicting_pieces()
        assert evaluate(fn, ColVec([3])) == ColVec([3])
        reordered = PwaFn(1, 1, (fn.pieces[1], fn.pieces[0]))
        assert evaluate(reordered, ColVec([3])) == ColVec([6])

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            evaluate(relu_1d(), ColVec([1, 2]))
        with pytest.raises(DimensionError):
            evaluate(relu_1d(), ColVec())

    def test_in_domain_agrees_with_evaluate(self):
        # The domain is the union of the piece polyhedra.
        rng = random.Random(4401)
        for _ in range(5):
            fn = restricted_affine(rng, 2, 2)
            for _ in range(100):
                x = point(rng, 2)
                inside = any(contains(piece.polyhedron, x) for piece in fn.pieces)
                assert inside == (evaluate(fn, x) is not None)


class TestConstructors:
    def test_identity_on_dim_zero(self):
        fn = identity_pwaf(0)
        assert evaluate(fn, ColVec()) == ColVec()
        assert fn.univalence == VERIFIED

    def test_identity_returns_input(self):
        rng = random.Random(4402)
        fn = identity_pwaf(3)
        for _ in range(50):
            x = point(rng, 3)
            assert evaluate(fn, x) == x

    def test_linear_example_at_origin(self):
        fn = linear_pwaf(Mat([["2.7", "0"], ["1", "0.01"]]), ColVec(["1", "0.25"]))
        assert evaluate(fn, ColVec([0, 0])) == ColVec([1, "1/4"])
        assert fn.univalence == VERIFIED

    def test_linear_with_identity_matrix_is_identity(self):
        rng = random.Random(4403)
        fn = linear_pwaf(Mat([[1, 0], [0, 1]]), ColVec([0, 0]))
        ident = identity_pwaf(2)
        for _ in range(100):
            x = point(rng, 2)
            assert evaluate(fn, x) == evaluate(ident, x)

    def test_linear_shape_mismatch(self):
        with pytest.raises(DimensionError, match="^matrix has 1 rows but offset has dim 2$"):
            linear_pwaf(Mat([[1, 2]]), ColVec([1, 2]))


class TestCheckUnivalence:
    def test_relu_is_univalent_and_overlap_is_the_origin(self):
        relu = relu_1d()
        verdict = check_univalence(relu)
        assert isinstance(verdict, Univalent)
        assert relu.univalence == VERIFIED
        overlap = intersect(relu.pieces[0].polyhedron, relu.pieces[1].polyhedron)
        assert solve(overlap, ColVec([1]), MAX) == Optimal(Fraction(0), ColVec([0]))
        assert solve(overlap, ColVec([1]), MIN) == Optimal(Fraction(0), ColVec([0]))

    def test_single_piece_and_empty_function_are_univalent(self):
        assert isinstance(check_univalence(linear_pwaf(Mat([[2]]), ColVec([1]))), Univalent)
        assert isinstance(check_univalence(PwaFn(1, 1)), Univalent)

    def test_duplicate_pieces_are_univalent(self):
        piece = AffinePiece(full_space(1), Mat([[5]]), ColVec([-1]))
        fn = PwaFn(1, 1, (piece, piece))
        assert isinstance(check_univalence(fn), Univalent)
        assert fn.univalence == VERIFIED

    def test_conflicting_slopes_are_refuted_with_valid_witness(self):
        fn = two_conflicting_pieces()
        verdict = check_univalence(fn)
        assert isinstance(verdict, UnivalenceViolation)
        assert fn.univalence == REFUTED
        assert (verdict.piece_i, verdict.piece_j, verdict.row) == (0, 1, 0)
        x = verdict.witness
        a, b = fn.pieces[verdict.piece_i], fn.pieces[verdict.piece_j]
        assert contains(a.polyhedron, x) and contains(b.polyhedron, x)
        va = vec_add(mat_vec_mul(a.M, x), a.b)
        vb = vec_add(mat_vec_mul(b.M, x), b.b)
        assert va[verdict.row] != vb[verdict.row]

    def test_parallel_offset_disagreement_is_refuted(self):
        # The row difference is the zero functional with a nonzero target,
        # so any point of the overlap is a witness.
        fn = shifted_parallel_pieces()
        verdict = check_univalence(fn)
        assert isinstance(verdict, UnivalenceViolation)
        assert contains(fn.pieces[0].polyhedron, verdict.witness)

    def test_disjoint_pieces_are_univalent_regardless_of_maps(self):
        left = Polyhedron(1, (LinearConstraint(ColVec([1]), -1),))
        right = Polyhedron(1, (LinearConstraint(ColVec([-1]), -1),))
        fn = PwaFn(
            1,
            1,
            (
                AffinePiece(left, Mat([[3]]), ColVec([7])),
                AffinePiece(right, Mat([[-4]]), ColVec([0])),
            ),
        )
        assert isinstance(check_univalence(fn), Univalent)

    def test_agreement_on_shared_boundary_is_univalent(self):
        fn = relu_1d()
        fn2 = PwaFn(1, 1, fn.pieces)
        assert fn2.univalence == UNCHECKED
        assert isinstance(check_univalence(fn2), Univalent)
        assert fn2.univalence == VERIFIED

    def test_univalent_function_is_order_independent(self):
        rng = random.Random(4404)
        for _ in range(5):
            fn = univalent_fn(rng, rng.randint(1, 3))
            assert isinstance(check_univalence(fn), Univalent)
            shuffled = list(fn.pieces)
            rng.shuffle(shuffled)
            reordered = PwaFn(fn.in_dim, fn.out_dim, shuffled)
            for _ in range(20):
                x = point(rng, fn.in_dim)
                assert evaluate(fn, x) == evaluate(reordered, x)

    def test_violation_found_for_tampered_function(self):
        rng = random.Random(4405)
        fn = univalent_fn(rng, 2, allow_partial=False)
        pieces = list(fn.pieces)
        bad = pieces[0]
        pieces[0] = AffinePiece(
            bad.polyhedron, bad.M, vec_add(bad.b, ColVec([1] + [0] * (fn.out_dim - 1)))
        )
        tampered = PwaFn(fn.in_dim, fn.out_dim, pieces)
        if len(pieces) > 1:
            assert isinstance(check_univalence(tampered), UnivalenceViolation)

    def test_cached_verified_tag_does_not_skip_the_scan(self):
        fn = two_conflicting_pieces()
        fn.univalence = VERIFIED
        assert isinstance(check_univalence(fn), UnivalenceViolation)
        assert fn.univalence == REFUTED


def box(lo, hi):
    """The axis-aligned box lo <= x <= hi, upper then lower bound per axis."""
    constraints = []
    for k in range(len(lo)):
        axis = [0] * len(lo)
        axis[k] = 1
        constraints.append(LinearConstraint(ColVec(axis), hi[k]))
        constraints.append(LinearConstraint(vec_scale(-1, ColVec(axis)), -lo[k]))
    return Polyhedron(len(lo), tuple(constraints))


class TestViolationWitnesses:
    """The exact violation the checker reports, one case per way to find it.

    The pieces overlap on the shared region; the pins are the deterministic
    simplex witnesses, so a change to the LPs issued (or their order) shows.
    """

    def check(self, *pieces):
        fn = PwaFn(pieces[0].polyhedron.dim, pieces[0].M.rows, pieces)
        return check_univalence(fn)

    def test_zero_functional_with_offset_gap(self):
        # Row 0 agrees; row 1 has equal slopes and offsets 0 vs 1/2.
        m = Mat([[1, 1], [0, 1]])
        verdict = self.check(
            AffinePiece(box([1, 2], [3, 5]), m, ColVec([0, 0])),
            AffinePiece(box([0, 0], [4, 4]), m, ColVec([0, "1/2"])),
        )
        assert verdict == UnivalenceViolation(0, 1, 1, ColVec([1, 2]))

    def test_maximum_off_target(self):
        # On [0,2]^2 the row difference x + y must equal 1; its max is 4.
        verdict = self.check(
            AffinePiece(box([-1, 0], [2, 3]), Mat([[1, 2]]), ColVec([0])),
            AffinePiece(box([0, -1], [3, 2]), Mat([[0, 1]]), ColVec([1])),
        )
        assert verdict == UnivalenceViolation(0, 1, 0, ColVec([2, 2]))

    def test_minimum_off_target(self):
        # On [0,2]^2 the row difference x must equal 2: the max is, the min is not.
        verdict = self.check(
            AffinePiece(box([-1, 0], [2, 3]), Mat([[1, 0]]), ColVec([0])),
            AffinePiece(box([0, -1], [3, 2]), Mat([[0, 0]]), ColVec([2])),
        )
        assert verdict == UnivalenceViolation(0, 1, 0, ColVec([0, 0]))

    def test_unbounded_above(self):
        # -x must equal 0 on all of R; the witness is one unit past: x = -1.
        verdict = check_univalence(two_conflicting_pieces())
        assert verdict == UnivalenceViolation(0, 1, 0, ColVec([-1]))

    def test_unbounded_below(self):
        # On x <= -2, x must equal -2: the max is, the min is unbounded, and
        # the witness is one unit past the target: x = -3.
        region = Polyhedron(1, (LinearConstraint(ColVec([1]), -2),))
        verdict = self.check(
            AffinePiece(region, Mat([[2]]), ColVec([3])),
            AffinePiece(region, Mat([[1]]), ColVec([1])),
        )
        assert verdict == UnivalenceViolation(0, 1, 0, ColVec([-3]))


def relu_into_relu():
    """A pruned 2 -> 3 -> 1 ReLU network: 10 pieces, 21 of 45 pairs share a map.

    Wherever the output unit is off, the map is x -> 0, so many pieces
    carry identical maps on overlapping regions.
    """
    net = Network(
        2,
        1,
        (
            nn_linear(Mat([[1, -1], [1, 2], [-2, 1]]), ColVec([0, -1, "1/2"])),
            nn_relu(3),
            nn_linear(Mat([[1, -1, -1]]), ColVec(["-1/2"])),
            nn_relu(1),
            OutputLayer(1),
        ),
    )
    return prune_empty(transform(net))


class TestIdenticalMapPairs:
    """Pairs with identical maps are skipped; the reported violation is not moved.

    The pins were recorded with the scan that still ran LPs on those pairs.
    """

    def test_identical_maps_are_skipped_before_any_lp(self, monkeypatch):
        fn = relu_into_relu()
        calls = []
        cover = pwa._EmptyCores.cover

        def counted(self, keys):
            calls.append(1)
            return cover(self, keys)

        monkeypatch.setattr(pwa._EmptyCores, "cover", counted)
        assert check_univalence(PwaFn(fn.in_dim, fn.out_dim, fn.pieces)) == Univalent()
        assert len(calls) == 45 - 21

    @pytest.mark.parametrize(
        "moved, expected",
        [
            (0, UnivalenceViolation(0, 1, 0, ColVec([0, "-1/2"]))),
            (2, UnivalenceViolation(2, 3, 0, ColVec(["1/2", "1/2"]))),
            (3, UnivalenceViolation(0, 3, 0, ColVec(["2/3", "1/6"]))),
            (5, UnivalenceViolation(5, 6, 0, ColVec([0, 0]))),
            (6, UnivalenceViolation(0, 6, 0, ColVec(["1/4", 0]))),
            (8, UnivalenceViolation(2, 8, 0, ColVec(["1/2", "1/2"]))),
            (9, UnivalenceViolation(0, 9, 0, ColVec(["2/5", "3/10"]))),
        ],
    )
    def test_refuted_fixture_violation_is_pinned(self, moved, expected):
        fn = relu_into_relu()
        pieces = list(fn.pieces)
        piece = pieces[moved]
        pieces[moved] = AffinePiece(piece.polyhedron, piece.M, vec_add(piece.b, ColVec([1])))
        assert check_univalence(PwaFn(fn.in_dim, fn.out_dim, pieces)) == expected


class TestPruneEmpty:
    def contradictory_piece(self, dim=1):
        empty = Polyhedron(
            dim,
            (
                LinearConstraint(ColVec([1] + [0] * (dim - 1)), -1),
                LinearConstraint(ColVec([-1] + [0] * (dim - 1)), 0),
            ),
        )
        return AffinePiece(empty, Mat([[9] * dim]), ColVec([9]))

    def test_drops_only_empty_pieces(self):
        relu = relu_1d()
        fn = PwaFn(1, 1, (relu.pieces[0], self.contradictory_piece(), relu.pieces[1]))
        pruned = prune_empty(fn)
        assert len(pruned.pieces) == 2
        assert pruned.pieces == (relu.pieces[0], relu.pieces[1])

    def test_pointwise_behavior_is_preserved(self):
        rng = random.Random(4406)
        relu = relu_1d()
        fn = PwaFn(1, 1, (self.contradictory_piece(), relu.pieces[0], relu.pieces[1]))
        for _ in range(1000):
            x = point(rng, 1)
            assert evaluate(fn, x) == evaluate(prune_empty(fn), x)

    def test_refuted_status_survives(self):
        base = two_conflicting_pieces()
        fn = PwaFn(1, 1, (self.contradictory_piece(),) + base.pieces)
        verdict = check_univalence(fn)
        assert isinstance(verdict, UnivalenceViolation)
        assert (verdict.piece_i, verdict.piece_j) == (1, 2)
        pruned = prune_empty(fn)
        assert pruned.univalence == REFUTED

    def test_verified_status_survives(self):
        relu = relu_1d()
        pruned = prune_empty(relu)
        assert pruned.univalence == VERIFIED
        assert len(pruned.pieces) == 2


class TestCountRegions:
    def test_relu_has_two(self):
        assert count_regions(relu_1d()) == 2

    def test_empty_pieces_do_not_count(self):
        relu = relu_1d()
        padded = PwaFn(
            1, 1, relu.pieces + (TestPruneEmpty().contradictory_piece(),)
        )
        assert count_regions(padded) == 2
        assert len(padded.pieces) == 3

    def test_zero_piece_function(self):
        assert count_regions(PwaFn(3, 1)) == 0


def _pieces_over(dim, prefixes):
    """One piece per constraint tuple, with the zero map onto R^1."""
    zero = Mat([[0] * dim], cols=dim)
    return [AffinePiece(Polyhedron(dim, lcs), zero, ColVec([0])) for lcs in prefixes]


def _halfspace(c, b):
    return LinearConstraint(ColVec(c), b)


def _copy(lc):
    """An equal constraint that is a distinct object, down to its row."""
    return LinearConstraint(ColVec(list(lc.c.entries)), lc.b)


_X_LE_0 = _halfspace([1], 0)
_X_GE_1 = _halfspace([-1], -1)
_X_LE_2 = _halfspace([1], 2)

# Named cases, each run besides the drawn ones.
_LIVE_CASES = {
    "shared prefixes": PwaFn(1, 1, _pieces_over(1, [
        (_X_LE_2, _X_LE_0), (_X_LE_2, _X_GE_1), (_X_LE_2, _X_LE_0, _X_GE_1),
    ])),
    "no shared first constraint": PwaFn(1, 1, _pieces_over(1, [
        (_X_LE_0, _X_LE_2), (_X_GE_1,), (_X_LE_2, _X_GE_1, _X_LE_0),
    ])),
    "equal but distinct objects": PwaFn(1, 1, _pieces_over(1, [
        (_X_GE_1, _X_LE_2), (_copy(_X_GE_1), _X_LE_0), (_copy(_X_GE_1), _copy(_X_LE_2)),
    ])),
    "empty prefix below live pieces": PwaFn(1, 1, _pieces_over(1, [
        (), (_X_LE_0, _X_GE_1), (_X_LE_0, _X_GE_1, _X_LE_2), (_X_LE_0,),
    ])),
    "strict prefix and duplicates": PwaFn(1, 1, _pieces_over(1, [
        (_X_GE_1, _X_LE_2), (_X_GE_1,), (_X_GE_1, _X_LE_2), (_X_GE_1, _X_LE_2, _X_LE_0),
    ]), univalence=REFUTED, claimed=True),
    "zero pieces": PwaFn(2, 1, (), univalence=VERIFIED),
    "in_dim 0": PwaFn(0, 1, _pieces_over(0, [
        (), (_halfspace([], 0),), (_halfspace([], -1),), (_halfspace([], 0), _halfspace([], -1)),
    ])),
}


@st.composite
def _prefix_sharing_fns(draw):
    """Functions on R^0..R^4 whose pieces often share constraint prefixes,
    on both sides of lp._root's cutoff between the hyperplane decider and
    the simplex.

    Constraints come from a small pool, so some pieces repeat each other's
    first constraints; a piece may also start with a prefix of an earlier
    piece (all of it, for a duplicate), and any constraint may be an equal
    copy rather than the pool's object. Small bounds make many prefixes
    empty.
    """
    dim = draw(st.integers(0, 4))
    small = st.integers(-2, 2)
    pool = draw(st.lists(
        st.builds(_halfspace, st.lists(small, min_size=dim, max_size=dim), small),
        min_size=1, max_size=5,
    ))
    prefixes = []
    for _ in range(draw(st.integers(0, 8))):
        start = ()
        if prefixes and draw(st.booleans()):
            base = draw(st.sampled_from(prefixes))
            start = base[: draw(st.integers(0, len(base)))]
        extra = draw(st.lists(st.sampled_from(pool), max_size=4))
        prefixes.append(tuple(
            _copy(lc) if draw(st.booleans()) else lc for lc in start + tuple(extra)
        ))
    status = draw(st.sampled_from((UNCHECKED, VERIFIED, REFUTED)))
    return PwaFn(dim, 1, _pieces_over(dim, prefixes), univalence=status, claimed=draw(st.booleans()))


class TestLivePieces:
    """prune_empty and count_regions decide emptiness per shared prefix.

    The oracle is the plain loop they replace: phase 1 on every piece.
    """

    def check(self, fn):
        live = [not lp.is_empty(piece.polyhedron) for piece in fn.pieces]
        expected = PwaFn(
            fn.in_dim,
            fn.out_dim,
            (piece for piece, keep in zip(fn.pieces, live) if keep),
            univalence=fn.univalence,
            claimed=fn.claimed,
        )
        pruned = prune_empty(fn)
        assert serialize_pwa(pruned) == serialize_pwa(expected)
        assert pruned.pieces == expected.pieces
        assert (pruned.univalence, pruned.claimed) == (fn.univalence, fn.claimed)
        assert count_regions(fn) == sum(live)
        return live

    @pytest.mark.parametrize("name", sorted(_LIVE_CASES))
    def test_named_case_matches_the_per_piece_loop(self, name):
        live = self.check(_LIVE_CASES[name])
        # Every case but "zero pieces" has both a live and an empty piece.
        assert (any(live) and not all(live)) == (name != "zero pieces")

    @settings(derandomize=True, database=None, max_examples=300, deadline=timedelta(seconds=5))
    @given(_prefix_sharing_fns())
    def test_drawn_function_matches_the_per_piece_loop(self, fn):
        self.check(fn)

    @staticmethod
    def runs(monkeypatch, call, arg, dim):
        """(phase-1 runs, hyperplane solves) that call(arg) makes on R^dim.

        A phase 1 is a run of the simplex's one routine, from a build or an
        extension; a hyperplane solve is one row of R^dim that a low-dim
        decider's witness violates, not the solves one dimension down
        inside it.
        """
        phase_1s, solves = [], []
        phase_1 = lp._Simplex._phase_1
        on_hyperplane = lp._on_hyperplane

        def counted_phase_1(self, rows):
            phase_1s.append(rows)
            phase_1(self, rows)

        def counted_solve(n, rows, h):
            if n == dim:
                solves.append(h)
            return on_hyperplane(n, rows, h)

        monkeypatch.setattr(lp._Simplex, "_phase_1", counted_phase_1)
        monkeypatch.setattr(lp, "_on_hyperplane", counted_solve)
        call(arg)
        monkeypatch.undo()
        return len(phase_1s), len(solves)

    @classmethod
    def phase_1_runs(cls, monkeypatch, call, fn):
        """Runs of the one phase-1 routine that call(fn) makes."""
        return cls.runs(monkeypatch, call, fn, fn.in_dim)[0]

    def test_phase_1_runs_on_a_seeded_compile(self, monkeypatch):
        # On R^2 no phase 1 runs: every violated row is one hyperplane solve.
        fn = transform(dense_network(random.Random(1), (2, 3, 3, 2)))
        assert len(fn.pieces) == 256
        assert self.runs(monkeypatch, prune_empty, fn, 2) == (0, 62)
        assert self.runs(monkeypatch, count_regions, fn, 2) == (0, 62)
        assert count_regions(fn) == 14
        # Prefixes are shared by value: equal copies of every constraint
        # cost the same solves as the objects compose_relu shares.
        copied = PwaFn(fn.in_dim, fn.out_dim, (
            AffinePiece(Polyhedron(2, tuple(map(_copy, p.polyhedron.constraints))), p.M, p.b)
            for p in fn.pieces
        ))
        assert self.runs(monkeypatch, count_regions, copied, 2) == (0, 62)

    @pytest.mark.parametrize(
        "widths, trie_runs, fold_runs, live",
        [
            ((2, 3, 3, 2), (0, 62), (0, 64), 14),
            ((3, 4, 4, 2), (0, 263), (0, 270), 87),
            # On R^4 the simplex decides, with the phase-1 runs it made
            # before R^1 to R^3 had the hyperplane decider.
            ((4, 3, 3, 2), (111, 0), (126, 0), 60),
        ],
        ids=["2-3-3-2", "3-4-4-2", "4-3-3-2"],
    )
    def test_phase_1_runs_of_the_pruned_fold(self, monkeypatch, widths, trie_runs, fold_runs, live):
        # The fold decides each piece from its parent's state, layer by
        # layer, instead of walking the unpruned function's trie.
        net = dense_network(random.Random(1), widths)
        dim = widths[0]
        assert self.runs(monkeypatch, prune_empty, transform(net), dim) == trie_runs
        fold = self.runs(monkeypatch, lambda n: transform(n, prune=True), net, dim)
        assert fold == fold_runs
        assert len(transform(net, prune=True).pieces) == live

    def test_no_shared_first_constraint_costs_at_most_one_run_per_piece(self, monkeypatch):
        rng = random.Random(4407)
        prefixes = [
            (_halfspace([1, 0], k),) + box_polyhedron(rng, 2).constraints for k in range(-6, 6)
        ]
        fn = PwaFn(2, 1, _pieces_over(2, prefixes))
        extensions = self.warm_steps(monkeypatch, count_regions, fn)
        assert len(extensions) <= len(fn.pieces)
        assert len(extensions) == 11  # one of the twelve pieces holds the origin
        # Each extension solves once per row its witness violates.
        assert self.runs(monkeypatch, count_regions, fn, 2) == (0, 24)
        self.check(fn)

    @staticmethod
    def warm_steps(monkeypatch, call, fn):
        """(prefix polyhedron, decider) of each extension call makes."""
        extended = lp._LowDim.extended
        prefixes = {}
        steps = []

        def recorded(self, rows):
            below = extended(self, rows)
            prefixes[id(below)] = prefix = prefixes.get(id(self), ()) + tuple(
                LinearConstraint(ColVec(Fraction(a, den) for a in ints[:-1]), Fraction(ints[-1], den))
                for den, ints in rows
            )
            steps.append((Polyhedron(fn.in_dim, prefix), below))
            return below

        monkeypatch.setattr(lp._LowDim, "extended", recorded)
        call(fn)
        monkeypatch.undo()
        return steps

    def test_warm_points_and_certificates_check(self, monkeypatch):
        fns = [transform(dense_network(random.Random(1), (2, 3, 3, 2)))]
        fns += list(_LIVE_CASES.values())
        outcomes = []
        for fn in fns:
            for prefix, decider in self.warm_steps(monkeypatch, prune_empty, fn):
                assert len(decider.rows) == len(prefix.constraints)
                if decider.feasible:
                    assert contains(prefix, _unscaled(*decider.witness))
                else:
                    assert farkas_refutes(prefix, decider.farkas)
                outcomes.append(decider.feasible)
        assert outcomes.count(True) > 10 and outcomes.count(False) > 10

    @pytest.mark.parametrize("call", [prune_empty, count_regions])
    @pytest.mark.parametrize("fault", ["multiplier", "point"])
    def test_a_corrupted_extension_raises(self, monkeypatch, call, fault):
        # In "shared prefixes", x <= 2 and x >= 1 needs a hyperplane solve
        # that finds a point, and x <= 2, x <= 0 and x >= 1 one that finds
        # none.
        fn = _LIVE_CASES["shared prefixes"]
        call(fn)  # without the fault, every verdict checks
        if fault == "point":
            corrupted = corrupt_hyperplane_point(monkeypatch)
        else:
            corrupted = corrupt_phase_1(monkeypatch, fault)
        with pytest.raises(RuntimeError):
            call(fn)
        assert len(corrupted) == 1

    def test_a_hostile_12_input_function_keeps_the_simplex(self, monkeypatch):
        # The hyperplane recursion grows like m^n: on R^12 with 36 rows it
        # takes seconds where the simplex takes milliseconds, so count_regions
        # on a crafted 12-input file must take the simplex.
        rng = random.Random(3312)
        prefixes = []
        for _ in range(2):
            inside = [rng.randint(2, 5) for _ in range(12)]
            rows = []
            for _ in range(36):
                c = [rng.randint(-3, 3) for _ in range(12)]
                rows.append(_halfspace(c, dot(ColVec(c), ColVec(inside)) + rng.randint(0, 2)))
            prefixes.append(tuple(rows))
        fn = PwaFn(12, 1, _pieces_over(12, prefixes))
        phase_1s, solves = self.runs(monkeypatch, count_regions, fn, 12)
        assert phase_1s > 0 and solves == 0
        assert count_regions(fn) == 2


def _axis(dim, k, sign, b):
    """sign * x_k <= b on R^dim."""
    return _halfspace([sign if i == k else 0 for i in range(dim)], b)


@pytest.mark.parametrize("dim, kind", [(2, lp._LowDim), (4, lp._Simplex)])
class TestNarrowed:
    """pwa._narrowed, the one emptiness step of the pruned compile and of
    the trie walk, on both sides of lp._root's cutoff: the hyperplane
    decider on R^2, the simplex on R^4. (None, ()) is R^n before any row;
    the first rows build the root decider of their width, and a step
    whose rows the witness satisfies does no work.
    """

    @staticmethod
    def rows(constraints):
        return tuple(_row(lc) for lc in constraints)

    @classmethod
    def check_extended(cls, decider, dim, kind, constraints):
        """decider is feasible and decides as lp._root(dim) extended by
        constraints' rows does, down to its witness."""
        expected = lp._root(dim).extended(cls.rows(constraints))
        assert type(decider) is kind and decider.feasible and expected.feasible
        assert (decider.rows, decider.witness) == (expected.rows, expected.witness)

    def test_no_constraints_return_the_state_itself(self, dim, kind):
        start = (None, ())
        assert pwa._narrowed(start, ()) is start
        state = pwa._narrowed(start, (_axis(dim, 0, 1, 1),))
        assert pwa._narrowed(state, ()) is state
        assert pwa._narrowed(state, []) is state

    def test_rows_the_origin_satisfies_build_the_root_and_wait(self, monkeypatch, dim, kind):
        lcs = (_axis(dim, 0, 1, 1), _axis(dim, dim - 1, -1, 0))
        states = []
        runs = TestLivePieces.runs(
            monkeypatch, lambda s: states.append(pwa._narrowed(s, lcs)), (None, ()), dim
        )
        assert runs == (0, 0)
        ((decider, pending),) = states
        assert type(decider) is kind
        assert (decider.n, decider.rows, decider.feasible) == (dim, (), True)
        assert decider.witness == (1, [0] * dim)
        assert pending == self.rows(lcs)

    def test_a_row_the_origin_violates_extends_the_root(self, dim, kind):
        # x_0 >= 1 cuts the origin off; x_0 + ... <= 3 keeps a point.
        lcs = (_axis(dim, 0, -1, -1), _halfspace([1] * dim, 3))
        decider, pending = pwa._narrowed((None, ()), lcs)
        assert pending == ()
        self.check_extended(decider, dim, kind, lcs)

    def test_a_violated_row_extends_by_every_pending_row(self, dim, kind):
        waiting = (_axis(dim, 0, 1, 2), _axis(dim, dim - 1, 1, 0))
        state = pwa._narrowed((None, ()), waiting)
        assert state[1] == self.rows(waiting)
        cut = (_axis(dim, 0, -1, -1),)
        decider, pending = pwa._narrowed(state, cut)
        assert pending == ()
        self.check_extended(decider, dim, kind, waiting + cut)

    def test_contradicting_rows_give_none(self, dim, kind):
        # x_0 >= 0 and x_0 <= -1: in one step, and in two.
        lcs = (_axis(dim, 0, -1, 0), _axis(dim, 0, 1, -1))
        assert pwa._narrowed((None, ()), lcs) is None
        state = pwa._narrowed((None, ()), lcs[:1])
        assert state is not None and state[1] == self.rows(lcs[:1])
        assert pwa._narrowed(state, lcs[1:]) is None


def _moved(fn, k):
    """fn with 1 added to row 0 of piece k's offset."""
    pieces = list(fn.pieces)
    piece = pieces[k]
    bump = ColVec([1] + [0] * (fn.out_dim - 1))
    pieces[k] = AffinePiece(piece.polyhedron, piece.M, vec_add(piece.b, bump))
    return PwaFn(fn.in_dim, fn.out_dim, pieces)


@st.composite
def _core_sharing_fns(draw):
    """Functions on R^1 or R^2 onto R^1 or R^2 with many empty overlaps.

    Most pieces are sign patterns over one to three drawn hyperplanes
    c.x = b: per hyperplane, c.x <= b or -c.x <= -b - g with g in {0, 1},
    so two patterns that differ at a hyperplane with g = 1 are disjoint,
    for the same two constraints every time, while g = 0 leaves them a
    shared facet. The other pieces take up to three constraints from a
    small pool, half the time after a prefix of an earlier piece's
    constraints. Every function has at least two pieces. Any
    constraint may be an equal copy instead of the shared object. Maps
    come from a pool of at most three, so some pairs share their map,
    and a piece may repeat an earlier one outright. Some functions open
    with two disjoint pieces whose maps differ, and some have one piece's
    offset moved, so violations come after empty overlaps.
    """
    dim = draw(st.integers(1, 2))
    out = draw(st.integers(1, 2))
    small = st.integers(-2, 2)
    row = st.lists(small, min_size=dim, max_size=dim)
    pool = draw(st.lists(st.builds(_halfspace, row, small), min_size=1, max_size=6))
    sides = [
        (lc, _halfspace([-a for a in lc.c], -lc.b - draw(st.integers(0, 1))))
        for lc in draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
    ]
    offset = st.lists(small, min_size=out, max_size=out)
    maps = draw(st.lists(
        st.tuples(st.lists(row, min_size=out, max_size=out), offset), min_size=1, max_size=3
    ))
    pieces = []
    if draw(st.booleans()):
        axis = [1] + [0] * (dim - 1)
        for lc, shift in ((_halfspace(axis, -1), 0), (_halfspace([-a for a in axis], 0), 1)):
            pieces.append(AffinePiece(
                Polyhedron(dim, (lc,)), Mat([axis] * out, cols=dim), ColVec([shift] * out)
            ))
    for _ in range(draw(st.integers(2, 8))):
        kind = draw(st.integers(0, 5))
        if pieces and kind == 0:
            pieces.append(draw(st.sampled_from(pieces)))
            continue
        if kind > 2:
            lcs = tuple(pair[draw(st.integers(0, 1))] for pair in sides)
        else:
            lcs = ()
            if pieces and draw(st.booleans()):
                base = draw(st.sampled_from(pieces)).polyhedron.constraints
                lcs = base[: draw(st.integers(0, len(base)))]
            lcs += tuple(draw(st.lists(st.sampled_from(pool), max_size=3)))
        m, b = draw(st.sampled_from(maps))
        pieces.append(AffinePiece(
            Polyhedron(dim, tuple(_copy(lc) if draw(st.booleans()) else lc for lc in lcs)),
            Mat(m, cols=dim),
            ColVec(b),
        ))
    fn = PwaFn(dim, out, pieces)
    if pieces and draw(st.booleans()):
        fn = _moved(fn, draw(st.integers(0, len(pieces) - 1)))
    return fn


class TestEmptyCores:
    """check_univalence skips pairs whose overlap holds a certified empty core.

    The oracle is the plain pair loop, with LPs on every pair whose maps
    differ; the verdict, down to the pair, row and witness, must be its.
    """

    def check(self, fn):
        expected = plain_check_univalence(PwaFn(fn.in_dim, fn.out_dim, fn.pieces))
        copy = PwaFn(fn.in_dim, fn.out_dim, fn.pieces, univalence=VERIFIED, claimed=True)
        assert check_univalence(copy) == expected
        assert (copy.univalence, copy.claimed) == (
            REFUTED if isinstance(expected, UnivalenceViolation) else VERIFIED,
            False,
        )
        return expected

    @settings(derandomize=True, database=None, max_examples=300, deadline=timedelta(seconds=5))
    @given(_core_sharing_fns())
    def test_drawn_function_matches_the_plain_loop(self, fn):
        self.check(fn)

    def test_compiled_and_moved_functions_match_the_plain_loop(self):
        fns = [
            transform(random_network(random.Random(seed), max_pieces=16, max_dim=3, max_depth=3))
            for seed in range(4410, 4420)
        ]
        fns.append(relu_into_relu())
        refuted = 0
        for fn in fns:
            self.check(fn)
            for k in range(len(fn.pieces)):
                refuted += isinstance(self.check(_moved(fn, k)), UnivalenceViolation)
        assert refuted > 20

    @pytest.mark.parametrize(
        "shape, plain, scan",
        [((2, 3, 3, 2), 91, 0), ((2, 4, 4), 300, 0), ((3, 3, 2), 38, 0)],
        ids=["2-3-3-2", "2-4-4", "3-3-2"],
    )
    def test_pair_simplex_builds_on_a_seeded_compile(self, monkeypatch, shape, plain, scan):
        # On R^2 and R^3 every pair that the cores and facet pins leave
        # has consistent facets and is decided on the flat they leave.
        fn = prune_empty(transform(dense_network(random.Random(1), shape)))
        runs = TestLivePieces.phase_1_runs
        assert runs(monkeypatch, plain_check_univalence, fn) == plain
        assert runs(monkeypatch, check_univalence, fn) == scan
        assert check_univalence(fn) == Univalent()

    @staticmethod
    def disjoint_pieces():
        """x <= -1 and x >= 0 with different maps: their overlap is empty."""
        return PwaFn(1, 1, (
            AffinePiece(Polyhedron(1, (_halfspace([1], -1),)), Mat([[1]]), ColVec([0])),
            AffinePiece(Polyhedron(1, (_halfspace([-1], 0),)), Mat([[2]]), ColVec([0])),
        ))

    @staticmethod
    def overlap_tableau(fn):
        """The tableau of fn's two constraints, extended in order."""
        return lp._Simplex.empty(fn.in_dim).extended(pwa._value_keys(fn)[1])

    def test_a_checked_certificate_files_its_core(self):
        # Keys 4 and 7 stand for the two rows of the tableau, in order.
        tableau = self.overlap_tableau(self.disjoint_pieces())
        assert not tableau.feasible and tableau.core == [0, 1]
        cores = pwa._EmptyCores()
        cores.add((4, 7), tableau.core)
        assert cores.filed == {7: [frozenset({4, 7})]}
        assert cores.cover({4, 7, 9}) and not cores.cover({4, 9})

    def test_a_corrupted_multiplier_raises_and_files_nothing(self, monkeypatch):
        fn = self.disjoint_pieces()
        corrupted = corrupt_phase_1(monkeypatch, "multiplier")
        with pytest.raises(RuntimeError):
            self.overlap_tableau(fn)
        assert len(corrupted) == 1
        corrupted.clear()

        # The scan files the core of the overlap that its flat, the line
        # R^1, proves empty.
        made = []

        class Recorded(pwa._EmptyCores):
            def __init__(self):
                super().__init__()
                made.append(self)

        monkeypatch.setattr(pwa, "_EmptyCores", Recorded)
        with pytest.raises(RuntimeError):
            check_univalence(fn)
        assert len(corrupted) == 1
        assert [cores.filed for cores in made] == [{}]


@st.composite
def _facet_sharing_fns(draw):
    """Functions on R^1 or R^2 onto R^1 or R^2 whose pieces agree on shared
    facets, and a flag: was one map entry or offset then moved?

    One to three hyperplanes c.x = b are drawn, and each piece takes a
    side of every one: c.x <= b, or its exact negation -c.x <= -b, like
    the two sides of a ReLU unit. Now and then the second side is written
    as 2 times the negation, which is no exact negation, so the pairs it
    separates fall back to LPs. A piece may add a constraint of its own,
    and any constraint may be an equal copy. On the side past c.x = b,
    output row r adds mu * (c.x - b), mu drawn per hyperplane and row, so
    two pieces' maps differ by a combination of the (c, b) of the
    hyperplanes that separate them, and those hold as equalities on the
    overlap: the function is univalent until an entry is moved. Planes,
    mus and maps have small rational entries, so two pieces' rows have
    different denominators.
    """
    dim = draw(st.integers(1, 2))
    out = draw(st.integers(1, 2))
    small = st.integers(-2, 2)
    row = st.lists(small, min_size=dim, max_size=dim)
    ratio = st.builds(Fraction, small, st.integers(1, 3))
    ratios = st.lists(ratio, min_size=dim, max_size=dim)
    planes = draw(st.lists(st.tuples(ratios, ratio), min_size=1, max_size=3))
    mus = [draw(st.lists(ratio, min_size=out, max_size=out)) for _ in planes]
    m0 = draw(st.lists(ratios, min_size=out, max_size=out))
    b0 = draw(st.lists(ratio, min_size=out, max_size=out))
    pieces = []
    for _ in range(draw(st.integers(2, 6))):
        lcs, m, b = [], list(m0), list(b0)
        for (c, t), mu in zip(planes, mus):
            if not draw(st.booleans()):
                lcs.append(_halfspace(c, t))
                continue
            scale = 2 if draw(st.integers(0, 4)) == 0 else 1
            lcs.append(_halfspace([-scale * a for a in c], -scale * t))
            for r in range(out):
                m[r] = [a + mu[r] * ck for a, ck in zip(m[r], c)]
                b[r] -= mu[r] * t
        if draw(st.integers(0, 3)) == 0:
            lcs.append(draw(st.builds(_halfspace, row, small)))
        pieces.append(AffinePiece(
            Polyhedron(dim, tuple(_copy(lc) if draw(st.booleans()) else lc for lc in lcs)),
            Mat(m, cols=dim),
            ColVec(b),
        ))
    moved = draw(st.booleans())
    if moved:
        k = draw(st.integers(0, len(pieces) - 1))
        r = draw(st.integers(0, out - 1))
        col = draw(st.integers(0, dim))  # dim stands for the offset
        delta = draw(st.sampled_from((-2, -1, 1, 2)))
        piece = pieces[k]
        m = [list(entries) for entries in piece.M.entries]
        b = list(piece.b.entries)
        if col == dim:
            b[r] += delta
        else:
            m[r][col] += delta
        pieces[k] = AffinePiece(piece.polyhedron, Mat(m, cols=dim), ColVec(b))
    return PwaFn(dim, out, pieces), moved


class TestFacetEqualities:
    """check_univalence needs no LP for a row that the overlap's facet
    equalities pin: a constraint and its exact negation, both in the
    overlap, and the row in the rational span of their (c, b).

    The oracle is the plain pair loop, with LPs on every pair whose maps
    differ; the verdict, down to the pair, row and witness, must be its.
    """

    @staticmethod
    def check(fn):
        expected = plain_check_univalence(PwaFn(fn.in_dim, fn.out_dim, fn.pieces))
        assert check_univalence(PwaFn(fn.in_dim, fn.out_dim, fn.pieces)) == expected
        return expected

    @settings(derandomize=True, database=None, max_examples=300, deadline=timedelta(seconds=5))
    @given(_facet_sharing_fns())
    def test_drawn_function_matches_the_plain_loop(self, drawn):
        fn, moved = drawn
        expected = self.check(fn)
        if not moved:
            assert expected == Univalent()

    @staticmethod
    def pinned(monkeypatch, fn):
        """check_univalence on fn, recording each pair that reached the
        facet test, _PairScan.of: (i, j, the rows it left to the
        deciders, as _PairScan.flat_off or the cold lp._first_off took
        them; none if neither ran)."""
        seen, pair = [], []
        check_pair, of = pwa._check_pair, pwa._PairScan.of
        flat_off, first_off = pwa._PairScan.flat_off, lp._first_off

        def checking(fn, i, j, scan):
            pair[:] = [i, j]
            return check_pair(fn, i, j, scan)

        def reached(self, overlap):
            seen.append((*pair, []))
            return of(self, overlap)

        def left(rows):
            # Each (r, row); a pair the flat decides off target hands the
            # same rows to the cold search after it.
            if not seen[-1][2]:
                seen[-1][2].extend(r for r, _ in rows)

        def on_flat(self, overlap, facets, rows):
            left(rows)
            return flat_off(self, overlap, facets, rows)

        def cold(simplex, rows):
            left(rows)
            return first_off(simplex, rows)

        monkeypatch.setattr(pwa, "_check_pair", checking)
        monkeypatch.setattr(pwa._PairScan, "of", reached)
        monkeypatch.setattr(pwa._PairScan, "flat_off", on_flat)
        monkeypatch.setattr(lp, "_first_off", cold)
        check_univalence(PwaFn(fn.in_dim, fn.out_dim, fn.pieces))
        monkeypatch.undo()
        return seen

    def test_every_pinned_pair_and_row_agrees_on_seeded_compiles(self, monkeypatch):
        fns = [
            transform(random_network(random.Random(seed), max_pieces=16, max_dim=3, max_depth=3))
            for seed in range(4420, 4430)
        ]
        fns += [
            prune_empty(transform(dense_network(random.Random(seed), shape)))
            for seed, shape in ((1, (2, 3, 3, 2)), (1, (2, 4, 4)), (2, (2, 4, 4)))
        ]
        fns += [_moved(fn, k) for fn in list(fns) for k in range(len(fn.pieces))]
        whole = rows_pinned = 0
        for fn in fns:
            for i, j, unpinned in self.pinned(monkeypatch, fn):
                if not unpinned:
                    whole += 1
                    assert _plain_check_pair(fn, i, j) is None
                    continue
                pi, pj = fn.pieces[i], fn.pieces[j]
                region = intersect(pi.polyhedron, pj.polyhedron)
                for r in range(fn.out_dim):
                    if r not in unpinned:
                        rows_pinned += 1
                        d = ColVec(a - b for a, b in zip(pi.M.entries[r], pj.M.entries[r]))
                        target = [(d, pj.b[r] - pi.b[r])]
                        assert all(p is None for p in lp.off_target_points(region, target))
        assert whole >= 1000 and rows_pinned >= 2000

    def test_a_relu_pair_builds_no_simplex(self, monkeypatch):
        fn = relu_1d()
        runs = TestLivePieces.phase_1_runs
        assert runs(monkeypatch, check_univalence, fn) == 0
        assert check_univalence(fn) == Univalent()
        # Its active offset moved by 1: the row is no longer pinned. The
        # facet x = 0 leaves the point 0, where the maps differ, so the
        # one simplex is the from-scratch one that finds the witness.
        moved = _moved(fn, 1)
        assert runs(monkeypatch, check_univalence, moved) == 1
        assert check_univalence(moved) == UnivalenceViolation(0, 1, 0, ColVec([0]))


def _oracle_value_keys(fn):
    """Constraint keys numbered by Fraction value, (c.entries, b), in
    order of first appearance, and that numbering."""
    number = {}
    keys = [
        tuple(
            number.setdefault((lc.c.entries, lc.b), len(number))
            for lc in piece.polyhedron.constraints
        )
        for piece in fn.pieces
    ]
    return keys, number


def _doc_fn(pieces):
    """parse_pwa of a function on R^1 onto R^1 from (constraints, M, b)
    written as strings, so each spelling is read as its own object."""
    return parse_pwa(json.dumps({
        "in_dim": 1,
        "out_dim": 1,
        "univalence": "unchecked",
        "pieces": [
            {"constraints": [{"c": c, "b": b} for c, b in lcs], "M": m, "b": offset}
            for lcs, m, offset in pieces
        ],
    }))


class TestValueKeys:
    """_value_keys numbers constraints as the Fraction oracle does, by
    value and in order of first appearance; row k is scaled_ints of
    constraint k's (c, b), and (den, *ints) of that row maps back to k.
    The scan finds a negation by its row, as the oracle by its value.
    """

    @staticmethod
    def check(fn):
        keys, rows, number = pwa._value_keys(fn)
        expected, values = _oracle_value_keys(fn)
        assert keys == expected
        assert len(rows) == len(number) == len(values)
        scan = pwa._PairScan(fn)
        for (c, b), k in values.items():
            den, ints = rows[k]
            assert rows[k] == scaled_ints(c + (b,))
            assert number[(den, *ints)] == k
            assert scan.negations[k] == values.get((tuple(-a for a in c), -b), -1)
        return keys, rows

    def test_equal_constraints_held_by_distinct_objects_share_a_key(self):
        pieces = _pieces_over(1, [(_X_LE_0, _X_GE_1), (_copy(_X_GE_1), _copy(_X_LE_0), _X_LE_2)])
        keys, _ = self.check(PwaFn(1, 1, pieces))
        assert keys == [(0, 1), (1, 0, 2)]

    def test_spellings_of_one_constraint_share_a_key(self):
        spellings = [(["0.5"], "1"), (["1/2"], "1.0"), (["2/4"], "2/2")]
        fn = _doc_fn([([lc], [["0"]], ["0"]) for lc in spellings])
        assert len({id(piece.polyhedron.constraints[0]) for piece in fn.pieces}) == 3
        keys, rows = self.check(fn)
        assert keys == [(0,), (0,), (0,)] and rows == [(2, [1, 2])]

    def test_scaled_copies_stay_distinct(self):
        pieces = _pieces_over(1, [(_halfspace([1], 1),), (_halfspace([2], 2),)])
        keys, rows = self.check(PwaFn(1, 1, pieces))
        assert keys == [(0,), (1,)] and rows == [(1, [1, 1]), (1, [2, 2])]

    def test_negations_over_a_denominator(self):
        half = Fraction(1, 2)
        third = Fraction(1, 3)
        lcs = (
            _halfspace([half], third),
            _halfspace([-half], -third),
            # Not exact negations of the first: scaled, or another bound.
            _halfspace([-1], -2 * third),
            _halfspace([-half], -Fraction(1, 4)),
        )
        fn = PwaFn(1, 1, _pieces_over(1, [lcs[:2], lcs[2:]]))
        _, rows = self.check(fn)
        assert rows[:2] == [(6, [3, 2]), (6, [-3, -2])]
        scan = pwa._PairScan(fn)
        assert [scan.negations[k] for k in range(4)] == [1, 0, -1, -1]

    @settings(derandomize=True, database=None, max_examples=150, deadline=timedelta(seconds=5))
    @given(st.one_of(_prefix_sharing_fns(), _facet_sharing_fns().map(lambda drawn: drawn[0])))
    def test_drawn_functions_match_the_oracle(self, fn):
        self.check(fn)

    def test_generated_functions_match_the_oracle(self):
        for seed in range(4470, 4480):
            rng = random.Random(seed)
            self.check(univalent_fn(rng, rng.randint(1, 3)))
            net = random_network(rng, max_pieces=16, max_dim=3, max_depth=3)
            self.check(transform(net))


@st.composite
def _map_sharing_fns(draw):
    """Functions on R^1 onto R^1 or R^2 whose pieces draw their maps from a
    pool of at most three, each piece with its own Mat and ColVec objects.

    Entries are -1, 0 or 1 over 1 to 3, so two maps of the pool may
    differ in an offset's denominator alone, as 1/2 and 1/3 do next to a
    zero row. Each piece is an interval lo <= x <= hi of small integers,
    so many pairs overlap and some are disjoint.
    """
    out = draw(st.integers(1, 2))
    entry = st.builds(Fraction, st.integers(-1, 1), st.integers(1, 3))
    column = st.lists(entry, min_size=out, max_size=out)
    pool = draw(st.lists(st.tuples(column, column), min_size=1, max_size=3))
    pieces = []
    for _ in range(draw(st.integers(2, 6))):
        m, b = draw(st.sampled_from(pool))
        lo = draw(st.integers(-2, 1))
        hi = draw(st.integers(lo - 1, 2))
        poly = Polyhedron(1, (_halfspace([-1], -lo), _halfspace([1], hi)))
        pieces.append(AffinePiece(poly, Mat([[a] for a in m], cols=1), ColVec(list(b))))
    return PwaFn(1, out, pieces)


class TestIntegerMapEquality:
    """_check_pair compares two pieces' maps on the scan's integer rows:
    maps equal by value, whatever their objects or spellings, are skipped
    before _EmptyCores.cover, and maps whose rows have equal ints over
    different denominators are not. Each verdict is the plain scan's,
    which compares the maps as Fractions.
    """

    @staticmethod
    def covered(monkeypatch, fn):
        """check_univalence on fn, checked against the plain scan, and the
        number of _EmptyCores.cover calls it made."""
        calls = []
        cover = pwa._EmptyCores.cover

        def counted(self, keys):
            calls.append(keys)
            return cover(self, keys)

        monkeypatch.setattr(pwa._EmptyCores, "cover", counted)
        verdict = check_univalence(PwaFn(fn.in_dim, fn.out_dim, fn.pieces))
        monkeypatch.undo()
        assert verdict == plain_check_univalence(PwaFn(fn.in_dim, fn.out_dim, fn.pieces))
        return verdict, len(calls)

    def test_spellings_of_one_map_are_skipped(self, monkeypatch):
        fn = _doc_fn([
            ([(["1"], "1")], [["0.5"]], ["0"]),
            ([(["-1"], "0")], [["1/2"]], ["0.0"]),
        ])
        pi, pj = fn.pieces
        assert pi.M is not pj.M and pi.b is not pj.b
        assert self.covered(monkeypatch, fn) == (Univalent(), 0)

    def test_equal_maps_in_distinct_objects_are_skipped(self, monkeypatch):
        rng = random.Random(4481)
        m, b = mat_of(rng, 2, 2), colvec_of(rng, 2)
        pieces = [
            AffinePiece(box((-k, -k), (1, 1)), Mat([list(r) for r in m.entries]), ColVec(list(b)))
            for k in range(3)
        ]
        assert self.covered(monkeypatch, PwaFn(2, 2, pieces)) == (Univalent(), 0)

    def test_an_offset_over_another_denominator_is_not_skipped(self, monkeypatch):
        # Maps 0x + 1/2 and 0x + 1/3 scale to one row [0] and offset [1],
        # over 2 and over 3.
        fn = _doc_fn([
            ([(["1"], "1")], [["0"]], ["1/2"]),
            ([(["-1"], "0")], [["0"]], ["1/3"]),
        ])
        assert [pwa._int_map(p) for p in fn.pieces] == [(2, [[0]], [1]), (3, [[0]], [1])]
        verdict, covers = self.covered(monkeypatch, fn)
        assert covers == 1
        assert verdict == UnivalenceViolation(0, 1, 0, ColVec([0]))

    @settings(derandomize=True, database=None, max_examples=200, deadline=timedelta(seconds=5))
    @given(_map_sharing_fns())
    def test_only_pairs_whose_maps_differ_reach_the_cores(self, fn):
        with pytest.MonkeyPatch.context() as monkeypatch:
            verdict, covers = self.covered(monkeypatch, fn)
        pairs = list(combinations(range(len(fn.pieces)), 2))
        if isinstance(verdict, UnivalenceViolation):
            pairs = pairs[: pairs.index((verdict.piece_i, verdict.piece_j)) + 1]
        pieces = fn.pieces
        differ = [
            (i, j) for i, j in pairs
            if (pieces[i].M, pieces[i].b) != (pieces[j].M, pieces[j].b)
        ]
        assert covers == len(differ)


@st.composite
def _flat_scan_fns(draw):
    """Functions on R^1 or R^2 onto R^1 or R^2 for the pair scan on flats.

    Two disjoint pieces with different maps, x_0 <= -1 and -x_0 <= 0,
    are among the first, so their pair files an empty core early. An
    empty piece, x_0 <= -2 and -x_0 <= -1, sits at a drawn place, the
    first one included. The other pieces take up to four constraints
    from a small pool, so pieces share constraints by value, an overlap
    holds the same constraint twice, and a piece may repeat one of its
    own; any constraint may be an equal copy. Maps come from a pool of
    at most three. Half the functions then have one offset moved, so a
    violation may follow the empty-core pairs.
    """
    dim = draw(st.integers(1, 2))
    out = draw(st.integers(1, 2))
    small = st.integers(-2, 2)
    row = st.lists(small, min_size=dim, max_size=dim)
    pool = draw(st.lists(st.builds(_halfspace, row, small), min_size=1, max_size=5))
    offset = st.lists(small, min_size=out, max_size=out)
    maps = draw(st.lists(
        st.tuples(st.lists(row, min_size=out, max_size=out), offset), min_size=1, max_size=3
    ))
    axis = [1] + [0] * (dim - 1)
    minus = [-a for a in axis]
    shape = []
    for _ in range(draw(st.integers(1, 6))):
        m, b = draw(st.sampled_from(maps))
        shape.append((tuple(draw(st.lists(st.sampled_from(pool), max_size=4))), m, b))
    shape[:0] = [((_halfspace(axis, -1),), [axis] * out, [0] * out),
                 ((_halfspace(minus, 0),), [axis] * out, [1] * out)]
    m, b = draw(st.sampled_from(maps))
    empty = ((_halfspace(axis, -2), _halfspace(minus, -1)), m, b)
    shape.insert(draw(st.integers(0, len(shape))), empty)
    pieces = [
        AffinePiece(
            Polyhedron(dim, tuple(_copy(lc) if draw(st.booleans()) else lc for lc in lcs)),
            Mat(m, cols=dim),
            ColVec(b),
        )
        for lcs, m, b in shape
    ]
    fn = PwaFn(dim, out, pieces)
    if draw(st.booleans()):
        fn = _moved(fn, draw(st.integers(0, len(pieces) - 1)))
    return fn


class TestFlatScan:
    """check_univalence decides a pair on the flat its facets leave, with
    no simplex, and runs a from-scratch simplex on the pair's own
    intersection only for the witness of the pair that disagrees, or for
    a pair whose flat it cannot decide.

    The oracle is the plain pair loop, with a cold phase 1 and LPs on
    every pair whose maps differ; the verdict, down to the pair, row and
    witness, must be its, and the witness that of a from-scratch
    off_target_points over the pair's own intersection.
    """

    @staticmethod
    def check(fn):
        expected = plain_check_univalence(PwaFn(fn.in_dim, fn.out_dim, fn.pieces))
        found = check_univalence(PwaFn(fn.in_dim, fn.out_dim, fn.pieces))
        assert found == expected
        if isinstance(found, UnivalenceViolation):
            i, j, r = found.piece_i, found.piece_j, found.row
            assert cold_witness(fn, i, j, r) == found.witness
        return found

    @settings(derandomize=True, database=None, max_examples=300, deadline=timedelta(seconds=5))
    @given(_flat_scan_fns())
    def test_drawn_function_matches_the_plain_loop(self, fn):
        self.check(fn)

    def test_moved_compiles_match_the_plain_loop(self):
        fns = [
            transform(random_network(random.Random(seed), max_pieces=16, max_dim=3, max_depth=3))
            for seed in range(4430, 4436)
        ]
        fns.append(prune_empty(transform(dense_network(random.Random(1), (2, 3, 2)))))
        refuted = 0
        for fn in fns:
            self.check(fn)
            for k in range(len(fn.pieces)):
                refuted += isinstance(self.check(_moved(fn, k)), UnivalenceViolation)
        assert refuted > 20

    @staticmethod
    def pair_steps(monkeypatch, fn):
        """check_univalence on fn: the number of rows of each cold
        simplex and each core filed, in order."""
        steps = []
        build = lp._Simplex.__init__
        add = pwa._EmptyCores.add

        def recorded(self, poly):
            steps.append(("cold", len(poly.constraints)))
            build(self, poly)

        def filed(self, keys, certificate):
            steps.append(("core", keys))
            add(self, keys, certificate)

        monkeypatch.setattr(lp._Simplex, "__init__", recorded)
        monkeypatch.setattr(pwa._EmptyCores, "add", filed)
        verdict = check_univalence(fn)
        monkeypatch.undo()
        return verdict, steps

    @staticmethod
    def on_axis(dim, pieces):
        """A function on R^dim onto R^1 whose constraints and maps read x_0
        alone: pieces are (constraints as (a, b) for a * x_0 <= b, slope)."""
        pad = [0] * (dim - 1)
        return PwaFn(dim, 1, (
            AffinePiece(
                Polyhedron(dim, tuple(_halfspace([a] + pad, b) for a, b in lcs)),
                Mat([[slope] + pad]),
                ColVec([0]),
            )
            for lcs, slope in pieces
        ))

    @classmethod
    def lacking(cls, dim):
        """Piece 0 repeats x_0 <= 2; piece 1 shares x_0 >= 1 with it, by
        value, and adds x_0 <= 0 twice."""
        return cls.on_axis(dim, [
            (((1, 2), (-1, -1), (1, 2)), 1),
            (((-1, -1), (1, 0), (1, 0)), 2),
        ])

    def test_an_overlap_without_facets_is_decided_on_r2(self, monkeypatch):
        # On R^2, with no facet, the overlap's rows are walked on all of
        # R^2 and no simplex is built. Keys 0 (x_0 <= 2) and 1 (x_0 >= 1),
        # then key 2 (x_0 <= 0): the certificate needs only x_0 >= 1 and
        # x_0 <= 0.
        fn = self.lacking(2)
        verdict, steps = self.pair_steps(monkeypatch, fn)
        assert verdict == Univalent()
        assert steps == [("core", (1, 2))]
        assert self.check(_moved(fn, 1)) == Univalent()

    def test_on_the_line_the_flat_files_the_core(self, monkeypatch):
        # On R^1 the flat is the whole line: x <= 0 (key 2) bounds it from
        # above and x >= 1 (key 1) from below, past it. No tableau. The
        # core's keys come in the overlap's key order.
        fn = self.lacking(1)
        verdict, steps = self.pair_steps(monkeypatch, fn)
        assert verdict == Univalent()
        assert steps == [("core", (1, 2))]
        assert self.check(_moved(fn, 1)) == Univalent()

    @classmethod
    def after_an_empty_piece(cls, dim):
        """An empty piece, x_0 <= -2 and x_0 >= 1, then 2 x_0 <= 0 and
        x_0 >= 0, whose maps x_0 and 2 x_0 agree where they meet; 2 x_0 <= 0
        is no exact negation of -x_0 <= 0, so they share no facet."""
        return cls.on_axis(dim, [(((1, -2), (-1, -1)), 3), (((2, 0),), 1), (((-1, 0),), 2)])

    def test_an_empty_piece_files_its_own_core(self, monkeypatch):
        fn = self.after_an_empty_piece(2)
        verdict, steps = self.pair_steps(monkeypatch, fn)
        assert verdict == Univalent()
        # On R^2 with no facet, pair (0, 1) walks x_0 <= -2, then x_0 >= 1,
        # and files their core, which covers pair (0, 2). Pieces 1 and 2
        # meet on x_0 = 0, where their maps agree: neither side of the
        # row has a point one coordinate up, and no simplex is built.
        assert steps == [("core", (0, 1))]
        moved = _moved(fn, 2)
        assert self.check(moved) == UnivalenceViolation(1, 2, 0, ColVec([0, 0]))

    def test_on_the_line_an_empty_piece_files_a_flat_core(self, monkeypatch):
        fn = self.after_an_empty_piece(1)
        verdict, steps = self.pair_steps(monkeypatch, fn)
        assert verdict == Univalent()
        # On R^1, x <= -2 and x >= 1 cross: pair (0, 1) files their core,
        # which covers pair (0, 2). Pieces 1 and 2 meet at the one point
        # 0, where x and 2x agree, and no core is filed.
        assert steps == [("core", (0, 1))]
        moved = _moved(fn, 2)
        assert self.check(moved) == UnivalenceViolation(1, 2, 0, ColVec([0]))

    def test_a_violation_on_r0_is_found(self):
        # The witness is the empty point, a ColVec of length 0.
        zero = Mat([[]], cols=0)
        fn = PwaFn(0, 1, (
            AffinePiece(full_space(0), zero, ColVec([0])),
            AffinePiece(Polyhedron(0, (_halfspace([], 0),)), zero, ColVec([1])),
        ))
        assert self.check(fn) == UnivalenceViolation(0, 1, 0, ColVec([]))

    @staticmethod
    def violation_after_a_core():
        """Two disjoint pieces, then 1 <= x <= 5, whose 3x disagrees with
        the second piece's 2x; its overlap with the first is empty too."""
        return PwaFn(1, 1, TestEmptyCores.disjoint_pieces().pieces + (
            AffinePiece(
                Polyhedron(1, (_halfspace([-1], -1), _halfspace([1], 5))), Mat([[3]]), ColVec([0])
            ),
        ))

    def test_a_corrupted_point_raises(self, monkeypatch):
        fn = self.violation_after_a_core()
        found = self.check(fn)
        assert (found.piece_i, found.piece_j, found.row) == (1, 2, 0)
        corrupt_phase_1(monkeypatch, "point")
        with pytest.raises(RuntimeError, match="basic point"):
            check_univalence(fn)

    @pytest.mark.parametrize("cold", ["empty", "on target"])
    def test_a_cold_search_that_disagrees_raises(self, monkeypatch, cold):
        # On R^1 every pair is decided on its flat, so lp._first_off runs
        # only for the witness, on the pair's from-scratch tableau. The
        # corrupted search finds the overlap empty, or every row on target.
        fn = self.violation_after_a_core()
        first_off = lp._first_off
        nowhere = lp._Simplex(Polyhedron(1, (_halfspace([0], -1),)))

        def search(simplex, rows):
            return first_off(nowhere, rows) if cold == "empty" else first_off(simplex, [])

        monkeypatch.setattr(lp, "_first_off", search)
        with pytest.raises(RuntimeError, match="disagree"):
            check_univalence(fn)


@st.composite
def _facet_flat_fns(draw):
    """Functions on R^0 to R^3 whose overlaps' facet equalities often
    leave a point or a line.

    Planes c.x = b are drawn, dim - 1 of them or one, then up to three
    in all: a new one, an earlier one times 2 or 3, a new normal through
    an earlier bound, or an earlier normal with its bound moved by 1,
    which contradicts it where both are facets. A zero normal gives
    0 <= b. Each piece takes, per plane, c.x <= b, its exact negation
    -c.x <= -b, now and then 2 times the negation, or neither. Two
    pieces on opposite sides share the facet c.x = b; with the doubled
    side they meet on the plane with no facet, so a line of other
    facets crosses it at a single point. Up to two halfspaces from a
    pool follow, which make the overlap on a line a ray, a segment, a
    point or nothing. Maps start from one drawn map and, past a plane,
    output row r adds mu * (c.x - b), so two pieces agree on the planes
    between them; a third of the pieces take a slope of their own. Most
    bounds are 0, so many overlaps meet at the origin, where the maps
    share their offset. Half the functions then have one offset moved.
    """
    dim = draw(st.integers(0, 3))
    out = draw(st.integers(1, 2))
    small = st.integers(-2, 2)
    normal = st.lists(small, min_size=dim, max_size=dim)
    bound = st.sampled_from((0, 0, 1, -1))
    planes = [(draw(normal), draw(bound)) for _ in range(max(dim - 1, 1))]
    for _ in range(draw(st.integers(0, 3 - len(planes)))):
        c, b = draw(st.sampled_from(planes))
        k = draw(st.integers(2, 3))
        planes.append(draw(st.sampled_from([
            (draw(normal), draw(bound)), ([k * a for a in c], k * b), (draw(normal), b), (c, b + 1)
        ])))
    pool = draw(st.lists(st.builds(_halfspace, normal, bound), max_size=4))
    mus = [draw(st.lists(small, min_size=out, max_size=out)) for _ in planes]
    m0 = draw(st.lists(normal, min_size=out, max_size=out))
    b0 = draw(st.lists(bound, min_size=out, max_size=out))
    pieces = []
    for _ in range(draw(st.integers(2, 6))):
        lcs, m, b = [], [list(r) for r in m0], list(b0)
        for (c, t), mu in zip(planes, mus):
            # c.x <= b, its negation, neither, or 2 times the negation
            k = draw(st.sampled_from((1, -1) * 3 + (0, -2, -2)))
            if k:
                lcs.append(_halfspace([k * a for a in c], k * t))
            if k < 0:
                for r in range(out):
                    m[r] = [a + mu[r] * ck for a, ck in zip(m[r], c)]
                    b[r] -= mu[r] * t
        if pool:
            lcs += draw(st.lists(st.sampled_from(pool), max_size=2))
        if draw(st.integers(0, 2)) == 0:
            m = draw(st.lists(normal, min_size=out, max_size=out))
        pieces.append(AffinePiece(
            Polyhedron(dim, tuple(_copy(lc) if draw(st.booleans()) else lc for lc in lcs)),
            Mat(m, cols=dim),
            ColVec(b),
        ))
    fn = PwaFn(dim, out, pieces)
    if draw(st.booleans()):
        fn = _moved(fn, draw(st.integers(0, len(pieces) - 1)))
    return fn


def _constraint(den, ints):
    """The constraint of an integer row (den, ints), as lp keeps it."""
    return LinearConstraint(
        ColVec(Fraction(a, den) for a in ints[:-1]), Fraction(ints[-1], den)
    )


class TestFacetFlats:
    """check_univalence decides a pair with no simplex when the facet
    equalities of its overlap leave a point or a line.

    The oracle is the plain pair loop, with LPs on every pair whose maps
    differ; the verdict, down to the pair, row and witness, must be its.
    Every certificate a flat files must refute its constraints and stop
    refuting them when any one multiplier is dropped.
    """

    @staticmethod
    def scanned(fn):
        """check_univalence on a copy of fn: its verdict, each flat
        decision ("empty", "agree" or "off") and each pair decided cold,
        on a from-scratch simplex alone ("simplex"), and the (dim, rows,
        certificate) of each core a flat filed."""
        decided, certificates, filing, built, last = [], [], [], [], []
        check_pair, flat_off = pwa._check_pair, pwa._PairScan.flat_off
        build = lp._Simplex.__init__
        checked_support, add = lp._checked_support, pwa._EmptyCores.add

        def checking(fn, i, j, scan):
            ran, built[:] = len(decided), []
            found = check_pair(fn, i, j, scan)
            if built and len(decided) == ran:
                decided.append("simplex")
            return found

        def on_flat(self, *args):
            # A certificate checked inside flat_off is the flat's.
            filed = len(certificates)
            filing.append(self.in_dim)
            try:
                off = flat_off(self, *args)
            finally:
                filing.pop()
            empty = len(certificates) > filed
            decided.append("empty" if empty else "agree" if off is None else "off")
            return off

        def cold(self, poly):
            built.append(poly)
            build(self, poly)

        def checked(rows, certificate):
            support = checked_support(rows, certificate)
            last[:] = [rows, certificate]
            return support

        def filed(self, keys, support):
            if filing:
                certificates.append((filing[-1], *last))
            add(self, keys, support)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pwa, "_check_pair", checking)
            patch.setattr(pwa._PairScan, "flat_off", on_flat)
            patch.setattr(lp._Simplex, "__init__", cold)
            patch.setattr(lp, "_checked_support", checked)
            patch.setattr(pwa._EmptyCores, "add", filed)
            verdict = check_univalence(PwaFn(fn.in_dim, fn.out_dim, fn.pieces))
        return verdict, decided, certificates

    def check(self, fn):
        expected = plain_check_univalence(PwaFn(fn.in_dim, fn.out_dim, fn.pieces))
        verdict, decided, certificates = self.scanned(fn)
        assert verdict == expected
        for dim, rows, certificate in certificates:
            poly = Polyhedron(dim, tuple(_constraint(den, ints) for den, ints in rows))
            assert len(certificate) <= dim + 1
            assert farkas_refutes(poly, certificate)
            for k in range(len(certificate)):
                dropped = certificate[:k] + (0,) + certificate[k + 1 :]
                assert not farkas_refutes(poly, dropped)
        return decided

    def test_drawn_functions_match_the_plain_loop(self):
        decided = []

        @settings(derandomize=True, database=None, max_examples=300, deadline=timedelta(seconds=5))
        @given(_facet_flat_fns())
        def drawn(fn):
            decided.extend(self.check(fn))

        drawn()
        # Over the drawn corpus, the flats find empty overlaps, points
        # where the maps agree and overlaps where they do not. On R^0 to
        # R^3 every consistent flat leaves at most three coordinates and
        # contradicting facets are skipped, so a simplex is built only
        # for a witness, after its flat found the pair off target.
        assert all(decided.count(kind) for kind in ("empty", "agree", "off"))
        assert "simplex" not in decided

    @staticmethod
    def tilted_pieces():
        """On R^2, y <= 0 with x + y <= -1, and y >= 0 with x >= 0, with
        different maps: the facet y = 0 leaves the x axis, where x <= -1
        and x >= 0 leave nothing."""
        return PwaFn(2, 1, (
            AffinePiece(
                Polyhedron(2, (_halfspace([0, 1], 0), _halfspace([1, 1], -1))),
                Mat([[1, 0]]),
                ColVec([0]),
            ),
            AffinePiece(
                Polyhedron(2, (_halfspace([0, -1], 0), _halfspace([-1, 0], 0))),
                Mat([[2, 0]]),
                ColVec([0]),
            ),
        ))

    def test_an_empty_line_files_a_certificate_on_a_facet(self):
        verdict, decided, certificates = self.scanned(self.tilted_pieces())
        assert (verdict, decided) == (Univalent(), ["empty"])
        # (x + y <= -1) + (-x <= 0) + (-y <= 0) reads 0 <= -1: the facet
        # y = 0 enters on its negation's side.
        ((dim, rows, certificate),) = certificates
        assert [_constraint(*row) for row in rows] == [
            _halfspace([1, 1], -1), _halfspace([-1, 0], 0), _halfspace([0, -1], 0)
        ]
        assert certificate == (1, 1, 1)
        self.check(self.tilted_pieces())

    @staticmethod
    def recorded_cores(monkeypatch):
        """The _EmptyCores that scans make from now on."""
        made = []

        class Recorded(pwa._EmptyCores):
            def __init__(self):
                super().__init__()
                made.append(self)

        monkeypatch.setattr(pwa, "_EmptyCores", Recorded)
        return made

    def test_a_corrupted_flat_certificate_raises_and_files_nothing(self, monkeypatch):
        made = self.recorded_cores(monkeypatch)
        corrupted = corrupt_phase_1(monkeypatch, "multiplier")
        with pytest.raises(RuntimeError, match="do not refute"):
            check_univalence(self.tilted_pieces())
        assert corrupted == [(1, 1, 1)]
        assert [cores.filed for cores in made] == [{}]

    def test_a_flat_point_outside_its_overlap_raises_and_files_nothing(self, monkeypatch):
        # Two pieces on -1 <= x <= 1 with maps x and 2x: the overlap is a
        # segment of the line R^1, and its point is 0, which lies between
        # the bounds. With every point _Flat.point lifts moved by 2, it
        # comes back as 2, outside the overlap.
        fn = TestFlatScan.on_axis(1, [(((1, 1), (-1, 1)), 1), (((1, 1), (-1, 1)), 2)])
        assert self.scanned(fn)[:2] == (UnivalenceViolation(0, 1, 0, ColVec([-1])), ["off"])
        made = self.recorded_cores(monkeypatch)
        lifted = lp._Flat.point

        def moved(self, point):
            den, ints = lifted(self, point)
            return den, [a + 2 * den for a in ints]

        monkeypatch.setattr(lp._Flat, "point", moved)
        with pytest.raises(RuntimeError, match="leaves its pair's overlap"):
            check_univalence(fn)
        assert [cores.filed for cores in made] == [{}]

    def test_eleven_facets_on_r12_leave_a_line_decided_without_a_simplex(self, monkeypatch):
        # Eleven planes c.x = b through x0, each with c_0 = c_1, so all
        # hold on the line x0 + t (1, -1, 0, ..., 0). On it, piece 0's
        # last row reads x_0 <= x0_0 - 1, tilted by the rows of planes 0
        # and 1, and piece 1's x_0 >= x0_0: the overlap is empty, and its
        # certificate takes both planes.
        rng = random.Random(12)
        x0 = [rng.randint(-3, 3) for _ in range(12)]
        planes = []
        for _ in range(11):
            c = [rng.randint(-3, 3) for _ in range(12)]
            c[1] = c[0]
            planes.append((c, sum(a * b for a, b in zip(c, x0))))
        (c0, b0), (c1, b1) = planes[:2]
        tilted = [int(k == 0) + a - b for k, (a, b) in enumerate(zip(c0, c1))]
        first = [_halfspace(c, b) for c, b in planes]
        first.append(_halfspace(tilted, x0[0] - 1 + b0 - b1))
        second = [_halfspace([-a for a in c], -b) for c, b in planes]
        second.append(_halfspace([-1] + [0] * 11, -x0[0]))
        fn = PwaFn(12, 1, (
            AffinePiece(Polyhedron(12, tuple(first)), Mat([[0] * 12]), ColVec([0])),
            AffinePiece(Polyhedron(12, tuple(second)), Mat([[0, 1] + [0] * 10]), ColVec([0])),
        ))
        written = []
        restricted = lp._Flat.restricted

        def recorded(self, rows, depth=None):
            rows = restricted(self, rows, depth)
            written.extend(e for row in rows for e in row)
            return rows

        monkeypatch.setattr(lp._Flat, "restricted", recorded)
        runs = TestLivePieces.phase_1_runs
        assert runs(monkeypatch, check_univalence, fn) == 0
        verdict, decided, ((dim, rows, certificate),) = self.scanned(fn)
        assert (verdict, decided) == (Univalent(), ["empty"])
        assert len(certificate) == 4
        assert max(abs(e) for e in written).bit_length() < 64
        self.check(fn)

    @pytest.mark.parametrize(
        "fn, decided, verdict",
        [
            # On R^0 the flat is the one point, where offsets 0 and 1 differ.
            (PwaFn(0, 1, (
                AffinePiece(full_space(0), Mat([[]], cols=0), ColVec([0])),
                AffinePiece(full_space(0), Mat([[]], cols=0), ColVec([1])),
            )), ["off"], UnivalenceViolation(0, 1, 0, ColVec([]))),
            # y = 0 and y = 1 are parallel facets that contradict each
            # other: the overlap is empty, and the pair is skipped with no
            # flat decision and no simplex.
            (PwaFn(2, 1, (
                AffinePiece(
                    Polyhedron(2, (_halfspace([0, 1], 0), _halfspace([0, 1], 1))),
                    Mat([[1, 0]]), ColVec([0]),
                ),
                AffinePiece(
                    Polyhedron(2, (_halfspace([0, -1], 0), _halfspace([0, -1], -1))),
                    Mat([[2, 0]]), ColVec([0]),
                ),
            )), [], Univalent()),
            # y = 0 leaves the x axis, and x >= 0 a ray on it, where x and
            # 2x differ past 0.
            (PwaFn(2, 1, (
                AffinePiece(Polyhedron(2, (_halfspace([0, 1], 0),)), Mat([[1, 0]]), ColVec([0])),
                AffinePiece(
                    Polyhedron(2, (_halfspace([0, -1], 0), _halfspace([-1, 0], 0))),
                    Mat([[2, 0]]), ColVec([0]),
                ),
            )), ["off"], UnivalenceViolation(0, 1, 0, ColVec([1, 0]))),
            # On R^3, y = 0 and z = 0 leave the x axis, where x <= 0 and
            # 2x >= 0 meet at the origin; x and 2x agree there.
            (PwaFn(3, 1, (
                AffinePiece(
                    Polyhedron(3, (
                        _halfspace([0, 1, 0], 0), _halfspace([0, 0, 1], 0), _halfspace([1, 0, 0], 0)
                    )),
                    Mat([[1, 0, 0]]), ColVec([0]),
                ),
                AffinePiece(
                    Polyhedron(3, (
                        _halfspace([0, -1, 0], 0), _halfspace([0, 0, -1], 0),
                        _halfspace([-2, 0, 0], 0),
                    )),
                    Mat([[2, 0, 0]]), ColVec([0]),
                ),
            )), ["agree"], Univalent()),
            # y = 0 leaves the x axis, where 2x <= 6 and -3x <= -9 meet
            # at x = 3: row 0, x against 2x - 3, agrees there, and row 1,
            # x against 0, does not.
            (PwaFn(2, 2, (
                AffinePiece(
                    Polyhedron(2, (_halfspace([0, 1], 0), _halfspace([2, 0], 6))),
                    Mat([[1, 0], [1, 0]]), ColVec([0, 0]),
                ),
                AffinePiece(
                    Polyhedron(2, (_halfspace([0, -1], 0), _halfspace([-3, 0], -9))),
                    Mat([[2, 0], [0, 0]]), ColVec([-3, 0]),
                ),
            )), ["off"], UnivalenceViolation(0, 1, 1, ColVec([3, 0]))),
        ],
        ids=[
            "R^0 point", "contradicting facets", "ray", "point on a line in R^3",
            "zero-width line with scaled ends",
        ],
    )
    def test_named_overlaps(self, fn, decided, verdict):
        assert self.scanned(fn)[:2] == (verdict, decided)
        assert self.check(fn) == decided

    @staticmethod
    def three_input_compile():
        """The pruned compile of the CI console step's 3-input network."""
        return transform(parse_network(json.dumps({
            "input_dim": 3, "output_dim": 2, "layers": [
                {"kind": "linear", "weights": [["0", "-1", "1"], ["-2", "-2", "2"], ["-2", "0", "2"]],
                 "bias": ["-1", "1", "-1"]},
                {"kind": "relu", "dim": 3},
                {"kind": "linear", "weights": [["-2", "-2", "1"], ["1", "-2", "-1"]], "bias": ["-1", "1"]},
                {"kind": "relu", "dim": 2},
                {"kind": "output"},
            ],
        })), prune=True)

    def test_a_3_input_compile_is_decided_on_its_flats(self):
        # The 3-input network of the CI console step: on R^3 every flat
        # leaves at most three coordinates, so no pair needs the simplex;
        # some overlaps keep a plane, or all of R^3, and are walked there.
        fn = self.three_input_compile()
        assert len(fn.pieces) == 22
        decided = self.check(fn)
        assert {kind: decided.count(kind) for kind in set(decided)} == {"agree": 64, "empty": 9}
        moved = _moved(fn, 6)
        self.check(moved)
        assert check_univalence(moved) == UnivalenceViolation(
            6, 7, 0, ColVec([0, Fraction(3, 2), 1])
        )

    @staticmethod
    def built_tableaus(monkeypatch):
        """Each lp._Simplex built from now on, cold (its polyhedron) or
        empty (its n)."""
        built = []
        build, empty = lp._Simplex.__init__, lp._Simplex.empty.__func__

        def cold(self, poly):
            built.append(poly)
            build(self, poly)

        def made(cls, n):
            built.append(n)
            return empty(cls, n)

        monkeypatch.setattr(lp._Simplex, "__init__", cold)
        monkeypatch.setattr(lp._Simplex, "empty", classmethod(made))
        return built

    def test_a_3_input_check_builds_no_simplex(self, monkeypatch):
        # No tableau is built, cold or empty, from the first pair to the
        # verdict.
        fn = self.three_input_compile()
        built = self.built_tableaus(monkeypatch)
        assert check_univalence(fn) == Univalent()
        assert built == []


@st.composite
def _flat_fns(draw):
    """Functions on R^2 to R^5 whose overlaps leave flats of every size.

    Up to three planes c.x = b are drawn, as in _facet_flat_fns: new ones,
    earlier ones scaled, and earlier normals with the bound moved by 1,
    which contradict them where both are facets. Each piece takes a side
    of each plane, or neither, so on R^4 and R^5 many overlaps keep four
    or more coordinates. A wedge of three rows, u.x <= 0 and v.x <= 0 on
    one side and -(u + v).x <= 0 on the other, each now and then doubled,
    collapses an overlap of the two sides onto u.x = v.x = 0 with no
    exact negation among them; past the wedge, output row r adds
    mu_r u.x + nu_r v.x, so the two sides agree where they meet. Pieces
    may add a strip -1 <= a.x <= 1 or a halfspace from a pool, and a
    sixth of them take a slope of their own. Half the functions then
    have one offset moved.
    """
    dim = draw(st.integers(2, 5))
    out = draw(st.integers(1, 2))
    small = st.integers(-2, 2)
    normal = st.lists(small, min_size=dim, max_size=dim)
    bound = st.sampled_from((0, 0, 1, -1))
    planes = []
    for _ in range(draw(st.integers(0, 3))):
        options = [(draw(normal), draw(bound))]
        if planes:
            c, b = draw(st.sampled_from(planes))
            options += [([2 * a for a in c], 2 * b), (c, b + 1)]
        planes.append(draw(st.sampled_from(options)))
    mus = [draw(st.lists(small, min_size=out, max_size=out)) for _ in planes]
    wedge = draw(st.integers(0, 3)) > 0
    u, v = draw(normal), draw(normal)
    w = [-a - b for a, b in zip(u, v)]
    wedge_mus = draw(st.lists(st.tuples(small, small), min_size=out, max_size=out))
    a = draw(normal)
    pool = [_halfspace(a, 1), _halfspace([-e for e in a], 1)]
    pool += draw(st.lists(st.builds(_halfspace, normal, bound), max_size=2))
    m0 = draw(st.lists(normal, min_size=out, max_size=out))
    b0 = draw(st.lists(bound, min_size=out, max_size=out))
    pieces = []
    for _ in range(draw(st.integers(2, 5))):
        lcs, m, b = [], [list(r) for r in m0], list(b0)
        for (c, t), mu in zip(planes, mus):
            k = draw(st.sampled_from((1, -1) * 3 + (0, -2)))
            if k:
                lcs.append(_halfspace([k * e for e in c], k * t))
            if k < 0:
                for r in range(out):
                    m[r] = [e + mu[r] * ck for e, ck in zip(m[r], c)]
                    b[r] -= mu[r] * t
        if wedge:
            k = draw(st.sampled_from((1, 2)))
            if draw(st.booleans()):
                lcs += [_halfspace([k * e for e in u], 0), _halfspace(v, 0)]
            else:
                lcs.append(_halfspace([k * e for e in w], 0))
                for r, (mu, nu) in enumerate(wedge_mus):
                    m[r] = [e + mu * x + nu * y for e, x, y in zip(m[r], u, v)]
        lcs += draw(st.lists(st.sampled_from(pool), max_size=2))
        if draw(st.integers(0, 5)) == 0:
            m = draw(st.lists(normal, min_size=out, max_size=out))
        pieces.append(AffinePiece(
            Polyhedron(dim, tuple(_copy(lc) if draw(st.booleans()) else lc for lc in lcs)),
            Mat(m, cols=dim),
            ColVec(b),
        ))
    fn = PwaFn(dim, out, pieces)
    if draw(st.booleans()):
        fn = _moved(fn, draw(st.integers(0, len(pieces) - 1)))
    return fn


class TestFlatPairs:
    """check_univalence skips a pair whose facets contradict each other,
    decides a pair whose consistent facets leave at most three
    coordinates on their flat, with no simplex, and every other pair on
    one cold simplex over the pair's own intersection.

    The oracle is the plain pair loop, with LPs on every pair whose maps
    differ; the verdict, down to the pair, row and witness, must be its.
    Every core the scan files, from a flat or from a cold simplex, must
    refute its constraints and stop refuting them when any one
    multiplier is dropped. The one exception is a cold core that weighs
    two rows 0 <= b with b < 0, such as 0 <= -1 and 0 <= -2 with
    neither's negation in the overlap: each refutes it alone, and phase
    1 may weigh both.
    """

    @staticmethod
    def check(fn):
        """check_univalence on fn against the plain loop, with the checks
        of every core filed: the verdict, each decision as
        TestFacetFlats.scanned gives it, and the coordinates each flat
        left."""
        cores, last, left, inside = [], [], [], []
        checked_support, add = lp._checked_support, pwa._EmptyCores.add
        flat_off = pwa._PairScan.flat_off

        def checked(rows, certificate):
            support = checked_support(rows, certificate)
            last[:] = [rows, certificate]
            return support

        def filed(self, keys, support):
            cores.append((bool(inside), *last))
            add(self, keys, support)

        def on_flat(self, overlap, facets, rows):
            left.append(self.in_dim - len(self.flat(facets)[0].kept))
            inside.append(True)
            try:
                return flat_off(self, overlap, facets, rows)
            finally:
                inside.pop()

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lp, "_checked_support", checked)
            patch.setattr(pwa._EmptyCores, "add", filed)
            patch.setattr(pwa._PairScan, "flat_off", on_flat)
            verdict, decided, on_flats = TestFacetFlats.scanned(fn)
        assert verdict == plain_check_univalence(PwaFn(fn.in_dim, fn.out_dim, fn.pieces))
        assert all(sum(map(bool, certificate)) <= fn.in_dim + 1 for *_, certificate in on_flats)
        for on_a_flat, rows, certificate in cores:
            poly = Polyhedron(fn.in_dim, tuple(_constraint(den, ints) for den, ints in rows))
            assert farkas_refutes(poly, certificate)
            zero = [y for y, (_, ints) in zip(certificate, rows) if y and not any(ints[:-1])]
            if not on_a_flat and len(zero) > 1:
                continue
            for k, y in enumerate(certificate):
                if y:
                    dropped = certificate[:k] + (0,) + certificate[k + 1 :]
                    assert not farkas_refutes(poly, dropped)
        return verdict, decided, left

    def test_drawn_functions_match_the_plain_loop(self):
        cold, on_flats, refuted = 0, [], []

        @settings(derandomize=True, database=None, max_examples=400, deadline=timedelta(seconds=10))
        @given(_flat_fns())
        def drawn(fn):
            nonlocal cold
            verdict, decided, left = self.check(fn)
            cold += decided.count("simplex")
            flat = [kind for kind in decided if kind != "simplex"]
            on_flats.extend(zip(left, flat))
            refuted.append(isinstance(verdict, UnivalenceViolation))

        drawn()
        # Flats of 2 and 3 coordinates each find empty overlaps, rows that
        # agree and rows that do not; consistent facets that leave four or
        # more coordinates take the cold simplex; both verdicts occur.
        for kind in ("empty", "agree", "off"):
            assert on_flats.count((2, kind)) >= 10 and on_flats.count((3, kind)) >= 10
        assert cold >= 50
        assert refuted.count(False) >= 50 and refuted.count(True) >= 50

    @staticmethod
    def wedge(dim):
        """On R^dim, x_0 <= 0 and x_1 <= 0 with map 0, and -x_0 - 2 x_1 <=
        0 with map x_0 + 2 x_1: they meet only where x_0 = x_1 = 0, a
        point on R^2 and a line on R^3, with no exact negation, and
        agree there."""
        pad = [0] * (dim - 2)
        return PwaFn(dim, 1, (
            AffinePiece(
                Polyhedron(dim, (_halfspace([1, 0] + pad, 0), _halfspace([0, 1] + pad, 0))),
                Mat([[0] * dim]), ColVec([0]),
            ),
            AffinePiece(
                Polyhedron(dim, (_halfspace([-1, -2] + pad, 0),)), Mat([[1, 2] + pad]), ColVec([0]),
            ),
        ))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_a_collapsed_overlap_is_decided_on_its_flat(self, monkeypatch, dim):
        # No facet, so the flat is all of R^dim: the walk finds the
        # overlap's point, and neither side of the row has a point one
        # coordinate up. With the offset moved, the row is off at once.
        fn = self.wedge(dim)
        runs = TestLivePieces.phase_1_runs
        assert runs(monkeypatch, check_univalence, fn) == 0
        assert self.check(fn) == (Univalent(), ["agree"], [dim])
        moved = _moved(fn, 1)
        assert runs(monkeypatch, check_univalence, moved) == 1
        assert self.check(moved) == (UnivalenceViolation(0, 1, 0, ColVec([0] * dim)), ["off"], [dim])

    def test_r4_without_facets_takes_the_cold_simplex(self, monkeypatch):
        fn = self.wedge(4)
        runs = TestLivePieces.phase_1_runs
        assert runs(monkeypatch, check_univalence, fn) == 1
        assert self.check(fn) == (Univalent(), ["simplex"], [])

    def test_contradicting_facets_on_r5_build_no_simplex(self, monkeypatch):
        # x_0 = 0 and x_0 = 1 are facets of the overlap that contradict
        # each other; their flat keeps one plane and would leave four
        # coordinates. The overlap is empty, so the pair is skipped: no
        # tableau is built and no core is filed.
        pad = [0] * 4
        fn = PwaFn(5, 1, (
            AffinePiece(
                Polyhedron(5, (_halfspace([1] + pad, 0), _halfspace([1] + pad, 1))),
                Mat([[0, 1] + pad[1:]]), ColVec([0]),
            ),
            AffinePiece(
                Polyhedron(5, (_halfspace([-1] + pad, 0), _halfspace([-1] + pad, -1))),
                Mat([[0, 2] + pad[1:]]), ColVec([0]),
            ),
        ))
        flat = lp._Flat([[1] + pad + [0], [1] + pad + [1]])
        assert (flat.kept, flat.consistent) == ([0], False)
        assert self.check(fn) == (Univalent(), [], [])
        made = TestFacetFlats.recorded_cores(monkeypatch)
        built = TestFacetFlats.built_tableaus(monkeypatch)
        assert check_univalence(fn) == Univalent()
        assert built == []
        assert [cores.filed for cores in made] == [{}]

    def test_a_corrupted_walk_multiplier_raises_and_files_nothing(self, monkeypatch):
        # The row's on-target sides end with multipliers, and so does the
        # walk over an empty overlap on R^2; each is checked before use.
        for fn in (self.wedge(3), TestFlatScan.lacking(2)):
            with pytest.MonkeyPatch.context() as patch:
                made = TestFacetFlats.recorded_cores(patch)
                corrupted = corrupt_walk_multiplier(patch)
                with pytest.raises(RuntimeError, match="do not refute"):
                    check_univalence(fn)
                assert len(corrupted) == 1
                assert [cores.filed for cores in made] == [{}]

    def test_a_corrupted_flat_point_raises_and_files_nothing(self, monkeypatch):
        made = TestFacetFlats.recorded_cores(monkeypatch)
        lifted = lp._Flat.point

        def moved(self, point):
            den, ints = lifted(self, point)
            return den, [a + 1000 * den for a in ints]

        monkeypatch.setattr(lp._Flat, "point", moved)
        with pytest.raises(RuntimeError, match="leaves its pair's overlap"):
            check_univalence(self.wedge(3))
        assert [cores.filed for cores in made] == [{}]


class TestCorpusChecks:
    """check_univalence on the benchmark's check corpus and three larger
    pruned shapes, at run seeds 1 and 2, each with its refuted variant
    (perfbench/corpus.py): the verdicts are pinned as one sha256, and
    with the cores the scan files, in order, and its phase-1 runs as
    another."""

    SHAPES = [(2, 4, 4), (3, 4, 4, 2), (4, 3, 3, 2)]

    @staticmethod
    def documents():
        corpus = perfbench_corpus()
        for shape in corpus.SHAPES["check"] + TestCorpusChecks.SHAPES:
            for seed in (1, 2):
                net = parse_network(corpus.network_document(corpus.relabelled_layers(shape, seed)))
                text = serialize_pwa(transform(net, prune=True))
                yield text
                yield corpus.refuted_document(text)

    def test_verdicts_are_pinned(self):
        # The verdicts alone, down to pair, row and witness: whichever
        # decider settles a pair, these may not move.
        lines = [repr(check_univalence(parse_pwa(text))) for text in self.documents()]
        assert sha256("\n".join(lines).encode()).hexdigest() == (
            "01c4c453dd0e757f9b663548db12473fe8a424e2d1d703409e0d224c9007cdc3"
        )

    def test_verdicts_cores_and_phase_1s_are_pinned(self, monkeypatch):
        documents = list(self.documents())
        cores, phase_1s = [], []
        add = pwa._EmptyCores.add
        phase_1 = lp._Simplex._phase_1

        def filed(self, keys, support):
            cores.append(sorted({keys[i] for i in support}))
            add(self, keys, support)

        def counted(self, rows):
            phase_1s.append(len(rows))
            phase_1(self, rows)

        monkeypatch.setattr(pwa._EmptyCores, "add", filed)
        monkeypatch.setattr(lp._Simplex, "_phase_1", counted)
        lines, totals = [], [0, 0]
        for text in documents:
            verdict = check_univalence(parse_pwa(text))
            lines.append(f"{verdict!r} {cores} {len(phase_1s)}")
            totals = [totals[0] + len(cores), totals[1] + len(phase_1s)]
            cores.clear()
            phase_1s.clear()
        assert totals == [1050, 14]
        # Cores and phase 1s follow the deciders; the verdicts alone are
        # pinned by test_verdicts_are_pinned.
        assert sha256("\n".join(lines).encode()).hexdigest() == (
            "d76033452388791b12aa334951e3660f064a08686fc36a5612a78909d21cdb56"
        )

    @staticmethod
    def check_documents():
        """The benchmark's check corpus at run seeds 1 and 2, each with its
        refuted variant."""
        corpus = perfbench_corpus()
        for shape in corpus.SHAPES["check"]:
            for seed in (1, 2):
                net = parse_network(corpus.network_document(corpus.relabelled_layers(shape, seed)))
                text = serialize_pwa(transform(net, prune=True))
                yield text
                yield corpus.refuted_document(text)

    def test_each_pair_builds_its_row_differences_once(self, monkeypatch):
        # On the check corpus, every pair that reaches the facet test
        # builds its row differences once, but for a pair whose facets
        # contradict each other, which is empty and builds none; no other
        # pair builds them.
        pair, reached, built = [], [], []
        check_pair, of, diffs = pwa._check_pair, pwa._PairScan.of, pwa._PairScan.diffs

        def checking(fn, i, j, scan):
            pair[:] = [i, j]
            return check_pair(fn, i, j, scan)

        def reaching(self, overlap):
            facets = of(self, overlap)
            reached.append((tuple(pair), self.flat(facets)[0].consistent))
            return facets

        def building(self, i, j):
            built.append((i, j))
            return diffs(self, i, j)

        monkeypatch.setattr(pwa, "_check_pair", checking)
        monkeypatch.setattr(pwa._PairScan, "of", reaching)
        monkeypatch.setattr(pwa._PairScan, "diffs", building)
        for text in self.check_documents():
            check_univalence(parse_pwa(text))
        assert [consistent for _, consistent in reached].count(False) == 22
        assert built == [ij for ij, consistent in reached if consistent]

    def test_each_pair_is_settled_as_pinned(self, monkeypatch):
        # How each pair of the check corpus is settled, through the hooks
        # TestFacetFlats.scanned patches and the facet test: identical
        # maps, a core, contradicting facets, every row pinned, a flat
        # leaving k coordinates ("empty", "agree" or "off") or a cold
        # simplex with k left; a flat found off target builds one more
        # simplex, for its witness. No pair here has contradicting facets
        # and a row they leave unpinned.
        settled, steps = [], []
        check_pair, of = pwa._check_pair, pwa._PairScan.of
        flat_off, build, add = pwa._PairScan.flat_off, lp._Simplex.__init__, pwa._EmptyCores.add

        def checking(fn, i, j, scan):
            steps[:] = []
            found = check_pair(fn, i, j, scan)
            if not steps:
                same = pwa._int_map(fn.pieces[i]) == pwa._int_map(fn.pieces[j])
                settled.append("identical maps" if same else "core")
                return found
            (k, consistent), *rest = steps
            if not rest:
                settled.append("pinned" if consistent else "contradicting facets")
            elif rest[0] == "simplex":
                settled.append(("cold", k))
            else:
                settled.append(rest[0])
                settled.extend(["witness"] * rest.count("simplex"))
            return found

        def reaching(self, overlap):
            facets = of(self, overlap)
            flat = self.flat(facets)[0]
            steps.append((self.in_dim - len(flat.kept), flat.consistent))
            return facets

        def on_flat(self, *args):
            at = len(steps)
            off = flat_off(self, *args)
            kind = "empty" if "core" in steps[at:] else "agree" if off is None else "off"
            steps[at:] = [(steps[0][0], kind)]
            return off

        def cold(self, poly):
            steps.append("simplex")
            build(self, poly)

        def filed(self, keys, support):
            steps.append("core")
            add(self, keys, support)

        monkeypatch.setattr(pwa, "_check_pair", checking)
        monkeypatch.setattr(pwa._PairScan, "of", reaching)
        monkeypatch.setattr(pwa._PairScan, "flat_off", on_flat)
        monkeypatch.setattr(lp._Simplex, "__init__", cold)
        monkeypatch.setattr(pwa._EmptyCores, "add", filed)
        for text in self.check_documents():
            check_univalence(parse_pwa(text))
        assert {kind: settled.count(kind) for kind in set(settled)} == {
            "identical maps": 124,
            "core": 132,
            "contradicting facets": 22,
            "pinned": 102,
            (0, "empty"): 16,
            (1, "empty"): 29,
            (1, "agree"): 24,
            (1, "off"): 6,
            (2, "empty"): 2,
            (2, "off"): 2,
            "witness": 8,
        }
        assert len(settled) - settled.count("witness") == 459
