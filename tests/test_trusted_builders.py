"""The library's own builders store what the checked constructors would.

compose, compose_relu, concat, prune_empty, the pruned fold of
transform, parse_pwa and the products build their values without re-running the public constructors' checks.
Each value they return is rebuilt here through those constructors
(oracles.checked_copy) and must be equal, and every entry must be a
Fraction in a tuple: 0 == Fraction(0) and str(0) == "0", so equality and
bytes alone would miss an int. compose is also compared byte for byte
with the per-pair compose it replaced (oracles.pairwise_compose).
"""

import random
from datetime import timedelta
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwanet.formats import parse_pwa, serialize_pwa
from pwanet.network import transform
from pwanet.numeric import ColVec, Mat, mat_mul, mat_vec_mul, vec_add
from pwanet.polyhedra import LinearConstraint, Polyhedron
from pwanet.pwa import _STATUSES, AffinePiece, PwaFn, linear_pwaf, prune_empty
from pwanet.pwa_algebra import compose, compose_affine, compose_polyhedron, compose_relu, concat

from genutil import colvec_of, dense_network, mat_of, random_network, univalent_fn
from oracles import checked_copy, pairwise_compose

# The benchmark's widths, input first, for every workload.
BENCHMARK_SHAPES = [(2, 2, 2), (2, 3, 2), (2, 3, 3), (2, 4, 3), (3, 3, 2), (2, 3, 3, 2), (2, 4, 4)]


def assert_fractions(entries):
    assert type(entries) is tuple
    assert all(type(e) is Fraction for e in entries)


def assert_built_as_checked(fn):
    """fn holds exactly what the checked constructors would store."""
    copy = checked_copy(fn)
    assert type(fn) is PwaFn
    assert (fn.in_dim, fn.out_dim, fn.univalence, fn.claimed) == (
        copy.in_dim, copy.out_dim, copy.univalence, copy.claimed
    )
    assert type(fn.pieces) is tuple
    assert fn.pieces == copy.pieces
    for piece in fn.pieces:
        poly, m = piece.polyhedron, piece.M
        assert (type(piece), type(poly), type(m), type(piece.b)) == (
            AffinePiece, Polyhedron, Mat, ColVec
        )
        assert type(poly.constraints) is tuple
        for lc in poly.constraints:
            assert (type(lc), type(lc.c), type(lc.b)) == (LinearConstraint, ColVec, Fraction)
            assert_fractions(lc.c.entries)
        assert type(m.entries) is tuple
        assert (m.rows, m.cols) == (len(m.entries), poly.dim)
        for row in m.entries:
            assert_fractions(row)
        assert_fractions(piece.b.entries)


def _networks():
    """The benchmark's shapes and seeded random networks."""
    nets = [dense_network(random.Random(1), shape) for shape in BENCHMARK_SHAPES]
    nets += [random_network(random.Random(seed), max_pieces=32, max_dim=4) for seed in range(30)]
    return nets


def _compiles():
    """Compiles of _networks."""
    return [transform(net) for net in _networks()]


class TestTrustedBuilders:
    @pytest.fixture(scope="class")
    def compiles(self):
        return _compiles()

    def test_transform_and_prune_empty(self, compiles):
        for fn in compiles:
            assert_built_as_checked(fn)
            assert_built_as_checked(prune_empty(fn))

    def test_pruned_fold(self):
        for net in _networks():
            assert_built_as_checked(transform(net, prune=True))

    def test_parse_pwa(self, compiles):
        for fn in compiles:
            for text in (serialize_pwa(fn), serialize_pwa(prune_empty(fn))):
                parsed = parse_pwa(text)
                assert_built_as_checked(parsed)
                assert serialize_pwa(parsed) == text

    def test_compose_concat_and_compose_relu(self):
        rng = random.Random(19)
        for _ in range(60):
            g = univalent_fn(rng, rng.randint(0, 3))
            f = univalent_fn(rng, g.out_dim)
            assert_built_as_checked(compose(f, g))
            assert_built_as_checked(concat(f, g))
            assert_built_as_checked(compose_relu(g.out_dim, g))

    def test_products(self):
        rng = random.Random(20)
        for _ in range(100):
            rows, inner, cols = (rng.randint(0, 3) for _ in range(3))
            a, b = mat_of(rng, rows, inner), mat_of(rng, inner, cols)
            product = mat_mul(a, b)
            assert product == Mat([list(row) for row in product.entries], cols=cols)
            assert type(product.entries) is tuple and product.rows == rows
            for row in product.entries:
                assert_fractions(row)
            x, y = colvec_of(rng, inner), colvec_of(rng, rows)
            for v in (mat_vec_mul(a, x), vec_add(y, y)):
                assert v == ColVec(list(v.entries))
                assert_fractions(v.entries)
            m_f, b_f = mat_of(rng, cols, rows), colvec_of(rng, cols)
            m, b = compose_affine(m_f, b_f, a, y)
            assert_built_as_checked(PwaFn(inner, cols, (AffinePiece(Polyhedron(inner), m, b),)))
            p_f = Polyhedron(rows, [LinearConstraint(colvec_of(rng, rows), 1) for _ in range(cols)])
            poly = compose_polyhedron(Polyhedron(inner), a, y, p_f)
            piece = AffinePiece(poly, Mat([], cols=inner), ColVec())
            assert_built_as_checked(PwaFn(inner, 0, (piece,)))


_SMALL = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))


@st.composite
def _fns(draw, in_dim, out_dim):
    """Up to three pieces over R^in_dim onto R^out_dim, each with up to
    three constraints, with a drawn status and claim."""

    def vec(dim):
        return draw(st.lists(_SMALL, min_size=dim, max_size=dim))

    pieces = []
    for _ in range(draw(st.integers(0, 3))):
        constraints = [
            LinearConstraint(ColVec(vec(in_dim)), draw(_SMALL))
            for _ in range(draw(st.integers(0, 3)))
        ]
        m = Mat([vec(in_dim) for _ in range(out_dim)], cols=in_dim)
        pieces.append(AffinePiece(Polyhedron(in_dim, constraints), m, ColVec(vec(out_dim))))
    status = draw(st.sampled_from(_STATUSES))
    return PwaFn(in_dim, out_dim, pieces, univalence=status, claimed=draw(st.booleans()))


@st.composite
def _composable_pairs(draw):
    """(f, g) with g onto f's domain; any of the three dims may be 0."""
    in_dim, mid, out_dim = (draw(st.integers(0, 3)) for _ in range(3))
    return draw(_fns(mid, out_dim)), draw(_fns(in_dim, mid))


class TestComposeBytes:
    """compose gives the bytes, pieces and status of the per-pair compose."""

    def check(self, f, g):
        got = compose(f, g)
        want = pairwise_compose(f, g)
        assert serialize_pwa(got) == serialize_pwa(want)
        assert got.pieces == want.pieces
        assert (got.univalence, got.claimed) == (want.univalence, want.claimed)
        assert_built_as_checked(got)

    @settings(derandomize=True, database=None, max_examples=300, deadline=timedelta(seconds=5))
    @given(_composable_pairs())
    def test_drawn_pairs(self, pair):
        self.check(*pair)

    @pytest.mark.parametrize("in_dim, mid, out_dim", [
        (0, 0, 0), (0, 2, 1), (2, 0, 1), (2, 1, 0), (0, 0, 2), (2, 0, 0),
    ])
    def test_zero_dims_and_empty_piece_lists(self, in_dim, mid, out_dim):
        rng = random.Random(in_dim * 9 + mid * 3 + out_dim)

        def fn(n, m, count):
            return PwaFn(n, m, [
                AffinePiece(
                    Polyhedron(n, [LinearConstraint(colvec_of(rng, n), 1) for _ in range(2)]),
                    mat_of(rng, m, n),
                    colvec_of(rng, m),
                )
                for _ in range(count)
            ])

        for f_count in (0, 2):
            for g_count in (0, 3):
                self.check(fn(mid, out_dim, f_count), fn(in_dim, mid, g_count))

    def test_benchmark_shapes_composed_with_a_constrained_layer(self):
        rng = random.Random(21)
        for shape in BENCHMARK_SHAPES:
            g = transform(dense_network(rng, shape))
            # A dense layer onto R^2 and its ReLU: four constrained pieces.
            f = compose_relu(2, linear_pwaf(mat_of(rng, 2, g.out_dim), colvec_of(rng, 2)))
            self.check(f, g)
