"""Composition and concatenation: piece structure and pointwise laws."""

import hashlib
import random
from fractions import Fraction

import pytest

from pwanet.numeric import ColVec, DimensionError, Mat, mat_vec_mul, vec_add
from pwanet.polyhedra import LinearConstraint, Polyhedron, contains, full_space
from pwanet.pwa import (
    REFUTED,
    UNCHECKED,
    VERIFIED,
    AffinePiece,
    PwaFn,
    Univalent,
    check_univalence,
    evaluate,
    identity_pwaf,
    linear_pwaf,
)
from pwanet.formats import parse_pwa, serialize_pwa
from pwanet.pwa_algebra import (
    compose,
    compose_affine,
    compose_polyhedron,
    compose_relu,
    concat,
)
from pwanet.network import Network, OutputLayer, relu_nd, transform

from genutil import (
    box_polyhedron,
    colvec_of,
    mat_of,
    point,
    random_network,
    restricted_affine,
    single_piece,
    univalent_fn,
)
from oracles import relu_1d, stacked_relu


def unchecked_copy(fn):
    """The same pieces with no status, so the checker has to earn it."""
    return PwaFn(fn.in_dim, fn.out_dim, fn.pieces)


class TestComposePolyhedron:
    def test_pullback_of_a_halfspace(self):
        # Inner map x -> 2x + 3; outer region y <= 5 must become 2x <= 2.
        p_f = Polyhedron(1, (LinearConstraint(ColVec([1]), 5),))
        got = compose_polyhedron(full_space(1), Mat([[2]]), ColVec([3]), p_f)
        assert got.constraints == (LinearConstraint(ColVec([2]), 2),)
        # Oracle: 2x + 3 <= 5 exactly when x <= 1.
        assert contains(got, ColVec([0]))
        assert contains(got, ColVec([1]))
        assert not contains(got, ColVec([2]))

    def test_inner_constraints_come_first_verbatim(self):
        inner = LinearConstraint(ColVec([1]), 0)
        p_g = Polyhedron(1, (inner,))
        p_f = Polyhedron(1, (LinearConstraint(ColVec([1]), 5),))
        got = compose_polyhedron(p_g, Mat([[2]]), ColVec([3]), p_f)
        assert got.constraints[0] is inner
        assert len(got.constraints) == 2

    def test_identity_map_passes_constraints_through(self):
        p_f = Polyhedron(
            2,
            (LinearConstraint(ColVec([1, -1]), 4), LinearConstraint(ColVec([0, 2]), 3)),
        )
        got = compose_polyhedron(full_space(2), Mat([[1, 0], [0, 1]]), ColVec([0, 0]), p_f)
        assert got.constraints == p_f.constraints

    def test_unconstrained_target_adds_nothing(self):
        p_g = Polyhedron(1, (LinearConstraint(ColVec([1]), 7),))
        got = compose_polyhedron(p_g, Mat([[3]]), ColVec([0]), full_space(1))
        assert got.constraints == p_g.constraints

    def test_membership_characterization_random(self):
        # x is in the result exactly when x is in p_g and (Mx + b) is in p_f.
        rng = random.Random(5501)
        for _ in range(10):
            n, m = rng.randint(1, 3), rng.randint(1, 3)
            from genutil import box_polyhedron

            p_g = box_polyhedron(rng, n)
            p_f = box_polyhedron(rng, m)
            m_g = mat_of(rng, m, n, num=5, den=3)
            b_g = colvec_of(rng, m, num=5, den=3)
            result = compose_polyhedron(p_g, m_g, b_g, p_f)
            for _ in range(60):
                x = point(rng, n)
                image = vec_add(mat_vec_mul(m_g, x), b_g)
                assert contains(result, x) == (contains(p_g, x) and contains(p_f, image))

    def test_shape_mismatches_raise(self):
        with pytest.raises(DimensionError):
            compose_polyhedron(full_space(2), Mat([[1]]), ColVec([0]), full_space(1))
        with pytest.raises(DimensionError):
            compose_polyhedron(full_space(1), Mat([[1]]), ColVec([0, 0]), full_space(1))
        with pytest.raises(DimensionError):
            compose_polyhedron(full_space(1), Mat([[1]]), ColVec([0]), full_space(2))


class TestComposeAffine:
    def test_known_composition(self):
        m, b = compose_affine(Mat([[2]]), ColVec([1]), Mat([[3]]), ColVec([4]))
        assert m == Mat([[6]])
        assert b == ColVec([9])

    def test_identity_neutral(self):
        m_f, b_f = Mat([[2, 1], [0, 1]]), ColVec([5, -3])
        ident = Mat([[1, 0], [0, 1]])
        zero = ColVec([0, 0])
        assert compose_affine(m_f, b_f, ident, zero) == (m_f, b_f)
        assert compose_affine(ident, zero, m_f, b_f) == (m_f, b_f)

    def test_pointwise_law_random(self):
        rng = random.Random(5502)
        for _ in range(25):
            n, k, m = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
            m_g, b_g = mat_of(rng, k, n, num=7, den=4), colvec_of(rng, k, num=7, den=4)
            m_f, b_f = mat_of(rng, m, k, num=7, den=4), colvec_of(rng, m, num=7, den=4)
            m_c, b_c = compose_affine(m_f, b_f, m_g, b_g)
            for _ in range(10):
                x = point(rng, n)
                inner = vec_add(mat_vec_mul(m_g, x), b_g)
                assert vec_add(mat_vec_mul(m_c, x), b_c) == vec_add(
                    mat_vec_mul(m_f, inner), b_f
                )


class TestCompose:
    def test_identity_is_neutral_on_both_sides(self):
        rng = random.Random(5503)
        relu = relu_1d()
        left = compose(identity_pwaf(1), relu)
        right = compose(relu, identity_pwaf(1))
        for _ in range(1000):
            x = point(rng, 1)
            expected = evaluate(relu, x)
            assert evaluate(left, x) == expected
            assert evaluate(right, x) == expected

    def test_relu_after_negation(self):
        fn = compose(relu_1d(), linear_pwaf(Mat([[-1]]), ColVec([0])))
        assert evaluate(fn, ColVec([2])) == ColVec([0])
        assert evaluate(fn, ColVec([-2])) == ColVec([2])
        assert evaluate(fn, ColVec([0])) == ColVec([0])

    def test_piece_count_is_multiplicative(self):
        relu = relu_1d()
        assert len(compose(relu, relu).pieces) == 4
        two = relu_nd(2)
        assert len(compose(two, two).pieces) == 16

    def test_piece_order_is_inner_major(self):
        # Pieces come out grouped by the inner function's pieces, with the
        # outer function's pieces cycling fastest; each piece polyhedron
        # starts with the inner piece's constraints verbatim.
        f = relu_1d()
        g = relu_1d()
        out = compose(f, g)
        for gi in range(2):
            for fi in range(2):
                piece = out.pieces[gi * 2 + fi]
                g_constraints = g.pieces[gi].polyhedron.constraints
                assert piece.polyhedron.constraints[: len(g_constraints)] == g_constraints

    def test_dimensions_chain(self):
        g = linear_pwaf(Mat([[1, 2], [0, 1], [1, 1]]), ColVec([0, 0, 0]))
        f = linear_pwaf(Mat([[1, 1, 1]]), ColVec([2]))
        out = compose(f, g)
        assert (out.in_dim, out.out_dim) == (2, 1)
        with pytest.raises(DimensionError):
            compose(g, f)

    def test_pointwise_law_on_random_univalent_pairs(self):
        rng = random.Random(5504)
        checked = 0
        for _ in range(20):
            g = univalent_fn(rng, rng.randint(1, 3))
            f = univalent_fn(rng, g.out_dim)
            composed = compose(f, g)
            assert len(composed.pieces) == len(f.pieces) * len(g.pieces)
            for _ in range(40):
                x = point(rng, g.in_dim)
                gx = evaluate(g, x)
                if gx is None:
                    assert evaluate(composed, x) is None
                    continue
                fgx = evaluate(f, gx)
                got = evaluate(composed, x)
                if fgx is None:
                    assert got is None
                    continue
                assert got == fgx
                checked += 1
        assert checked > 200

    def test_composition_of_univalent_inputs_rechecks_univalent(self):
        rng = random.Random(5505)
        for _ in range(5):
            g = univalent_fn(rng, rng.randint(1, 2), max_pieces=4)
            f = univalent_fn(rng, g.out_dim, max_pieces=4)
            out = compose(f, g)
            both = f.univalence == VERIFIED and g.univalence == VERIFIED
            assert out.univalence == (VERIFIED if both else UNCHECKED)
            assert isinstance(check_univalence(unchecked_copy(out)), Univalent)

    def test_status_is_verified_only_when_both_inputs_are(self):
        f = linear_pwaf(Mat([[2]]), ColVec([0]))
        g = relu_1d()
        assert compose(f, g).univalence == VERIFIED
        assert compose(f, unchecked_copy(g)).univalence == UNCHECKED
        assert compose(unchecked_copy(f), g).univalence == UNCHECKED
        refuted = PwaFn(1, 1, g.pieces, univalence=REFUTED)
        assert compose(f, refuted).univalence == UNCHECKED

    def test_semantic_associativity(self):
        rng = random.Random(5506)
        h = univalent_fn(rng, 2, allow_partial=False)
        g = univalent_fn(rng, h.out_dim, allow_partial=False)
        f = univalent_fn(rng, g.out_dim, allow_partial=False)
        left = compose(compose(f, g), h)
        right = compose(f, compose(g, h))
        for _ in range(50):
            x = point(rng, 2)
            assert evaluate(left, x) == evaluate(right, x)


class TestConcatPolyhedra:
    """The polyhedron of each concat piece, read off single-piece functions."""

    def test_known_layout(self):
        p_f = Polyhedron(1, (LinearConstraint(ColVec([1]), 0),))
        p_g = Polyhedron(2, (LinearConstraint(ColVec([-1, 3]), 2),))
        (piece,) = concat(single_piece(p_f), single_piece(p_g)).pieces
        got = piece.polyhedron
        assert got.dim == 3
        # f's rows keep the leading coordinates, g's move to the trailing ones.
        assert got.constraints == (
            LinearConstraint(ColVec([1, 0, 0]), 0),
            LinearConstraint(ColVec([0, -1, 3]), 2),
        )
        # Membership is componentwise: x <= 0 in the first slot, 3z - y <= 2 in the others.
        assert contains(got, ColVec([-1, 1, 1]))
        assert contains(got, ColVec([0, 0, 0]))
        assert not contains(got, ColVec([1, 1, 1]))
        assert not contains(got, ColVec([-1, 0, 1]))

    def test_zero_dim_is_neutral(self):
        p = Polyhedron(2, (LinearConstraint(ColVec([1, 1]), 3),))
        f = single_piece(p, Mat([[1, 2], [3, 4]]))
        for stacked in (concat(f, identity_pwaf(0)), concat(identity_pwaf(0), f)):
            (piece,) = stacked.pieces
            assert piece.polyhedron.constraints == p.constraints
            assert (piece.M, piece.b) == (f.pieces[0].M, f.pieces[0].b)

    def test_membership_is_componentwise_random(self):
        rng = random.Random(5507)
        for _ in range(10):
            n, m = rng.randint(0, 3), rng.randint(0, 3)
            p_f = box_polyhedron(rng, n)
            p_g = box_polyhedron(rng, m)
            (piece,) = concat(single_piece(p_f), single_piece(p_g)).pieces
            stacked = piece.polyhedron
            for _ in range(60):
                x = point(rng, n)
                y = point(rng, m)
                assert contains(stacked, ColVec(x.entries + y.entries)) == (
                    contains(p_f, x) and contains(p_g, y)
                )


class TestConcat:
    def test_identity_concat_identity_is_bigger_identity(self):
        rng = random.Random(5508)
        fn = concat(identity_pwaf(1), identity_pwaf(2))
        assert (fn.in_dim, fn.out_dim) == (3, 3)
        for _ in range(100):
            x = point(rng, 3)
            assert evaluate(fn, x) == x

    def test_relu_concat_relu(self):
        fn = concat(relu_1d(), relu_1d())
        assert len(fn.pieces) == 4
        assert evaluate(fn, ColVec([-1, 2])) == ColVec([0, 2])
        assert evaluate(fn, ColVec([3, -4])) == ColVec([3, 0])

    def test_piece_order_is_second_major(self):
        f = relu_1d()
        g = relu_1d()
        out = concat(f, g)
        for gi in range(2):
            for fi in range(2):
                piece = out.pieces[gi * 2 + fi]
                f_c = f.pieces[fi].polyhedron.constraints[0]
                g_c = g.pieces[gi].polyhedron.constraints[0]
                assert piece.polyhedron.constraints == (
                    LinearConstraint(ColVec([f_c.c[0], 0]), f_c.b),
                    LinearConstraint(ColVec([0, g_c.c[0]]), g_c.b),
                )

    def test_stacking_law_on_random_univalent_pairs(self):
        rng = random.Random(5509)
        checked = 0
        for _ in range(20):
            f = univalent_fn(rng, rng.randint(1, 3))
            g = univalent_fn(rng, rng.randint(1, 3))
            stacked = concat(f, g)
            assert (stacked.in_dim, stacked.out_dim) == (
                f.in_dim + g.in_dim,
                f.out_dim + g.out_dim,
            )
            assert len(stacked.pieces) == len(f.pieces) * len(g.pieces)
            for _ in range(40):
                x = point(rng, f.in_dim)
                y = point(rng, g.in_dim)
                fx = evaluate(f, x)
                gy = evaluate(g, y)
                got = evaluate(stacked, ColVec(x.entries + y.entries))
                if fx is None or gy is None:
                    assert got is None
                    continue
                assert got == ColVec(fx.entries + gy.entries)
                checked += 1
        assert checked > 200

    def test_concat_of_univalent_inputs_rechecks_univalent(self):
        rng = random.Random(5510)
        for _ in range(5):
            f = univalent_fn(rng, rng.randint(1, 2), max_pieces=4)
            g = univalent_fn(rng, rng.randint(1, 2), max_pieces=4)
            out = concat(f, g)
            assert isinstance(check_univalence(out), Univalent)

    def test_status_is_verified_only_when_both_inputs_are(self):
        relu = relu_1d()
        assert concat(relu, identity_pwaf(1)).univalence == VERIFIED
        assert concat(unchecked_copy(relu), identity_pwaf(1)).univalence == UNCHECKED
        assert concat(relu, unchecked_copy(relu)).univalence == UNCHECKED
        refuted = PwaFn(1, 1, relu.pieces, univalence=REFUTED)
        assert concat(refuted, relu).univalence == UNCHECKED

    def test_maps_are_block_diagonal(self):
        f = single_piece(full_space(1), Mat([[1]]))
        g = single_piece(full_space(2), Mat([[2, 3]]))
        (piece,) = concat(f, g).pieces
        assert piece.M == Mat([[1, 0, 0], [0, 2, 3]])
        assert piece.b == ColVec([0, 0])

    def test_maps_act_blockwise_random(self):
        rng = random.Random(1104)
        for _ in range(25):
            a = mat_of(rng, rng.randint(0, 3), rng.randint(0, 3), num=9, den=5)
            b = mat_of(rng, rng.randint(0, 3), rng.randint(0, 3), num=9, den=5)
            f = single_piece(full_space(a.cols), a)
            g = single_piece(full_space(b.cols), b)
            (piece,) = concat(f, g).pieces
            x = colvec_of(rng, a.cols, num=9, den=5)
            y = colvec_of(rng, b.cols, num=9, den=5)
            assert mat_vec_mul(piece.M, ColVec(x.entries + y.entries)) == ColVec(
                mat_vec_mul(a, x).entries + mat_vec_mul(b, y).entries
            )

    def test_zero_dim_functions_are_neutral(self):
        relu = relu_1d()
        left = concat(identity_pwaf(0), relu)
        right = concat(relu, identity_pwaf(0))
        assert evaluate(left, ColVec([-3])) == ColVec([0])
        assert evaluate(right, ColVec([5])) == ColVec([5])


def stacked_restricted_pieces(rng):
    """0-3 pieces of restricted_affine on R^0..R^3 onto R^0..R^3, one
    function; "verified" on a coin flip when it has at most one piece."""
    in_dim, out_dim = rng.randint(0, 3), rng.randint(0, 3)
    pieces = [
        piece
        for _ in range(rng.randint(0, 3))
        for piece in restricted_affine(rng, in_dim, out_dim).pieces
    ]
    status = VERIFIED if len(pieces) <= 1 and rng.random() < 0.5 else UNCHECKED
    return PwaFn(in_dim, out_dim, pieces, univalence=status)


class TestConcatBytes:
    """concat's output pinned byte for byte: piece order, constraint order,
    every rational and the status tag. The digests were computed with the
    earlier concat, which padded the rows of every pair anew, and with
    relu_nd built by stacking 1-d ReLUs; relu_nd is now compose_relu on the
    identity and must still give those bytes."""

    def test_relu_nd_bytes(self):
        digest = hashlib.sha256()
        for n in range(10):
            digest.update(serialize_pwa(relu_nd(n)).encode())
        assert digest.hexdigest() == (
            "889c4f8e8baff010e4107343b6c4b3529fe5beb128ed24c8aecc79de209631a1"
        )

    def test_stacked_relu_bytes(self):
        # The paper's construction, 1-d ReLUs stacked with concat, against
        # the digest test_relu_nd_bytes pins for the library's relu_nd.
        digest = hashlib.sha256()
        for n in range(10):
            digest.update(serialize_pwa(stacked_relu(n)).encode())
        assert digest.hexdigest() == (
            "889c4f8e8baff010e4107343b6c4b3529fe5beb128ed24c8aecc79de209631a1"
        )

    def test_seeded_pairs_bytes(self):
        rng = random.Random(1010)
        digest = hashlib.sha256()
        for _ in range(300):
            f = stacked_restricted_pieces(rng)
            g = stacked_restricted_pieces(rng)
            digest.update(serialize_pwa(concat(f, g)).encode())
        assert digest.hexdigest() == (
            "d95be7a6e888335bc1f09736ad01dafe2831f97e22c1c8762218d07b0dd59f91"
        )


def relu_prefixes(rng):
    """Functions onto R^0..R^4 to put a ReLU after: compiled network
    prefixes, partial affine pieces and univalent functions, each as
    built, unchecked, parse_pwa-claimed and refuted."""
    built = [linear_pwaf(Mat([], cols=2), ColVec([]))]
    for _ in range(40):
        net = random_network(rng, max_pieces=8, max_dim=4, max_depth=3)
        dim = net.input_dim
        for cut, layer in enumerate(net.layers[:-1]):
            prefix = net.layers[:cut] + (OutputLayer(dim),)
            built.append(transform(Network(net.input_dim, dim, prefix)))
            dim = layer.out_dim
    for k in range(60):
        built.append(restricted_affine(rng, rng.randint(0, 3), k % 5))
        built.append(univalent_fn(rng, rng.randint(1, 3), max_pieces=4))
    for g in built:
        yield g
        yield unchecked_copy(g)
        yield parse_pwa(serialize_pwa(g))
        yield PwaFn(g.in_dim, g.out_dim, g.pieces, univalence=REFUTED)


class TestComposeRelu:
    """compose_relu(n, g) is compose(stacked_relu(n), g), the paper's ReLU
    composed explicitly, without building its pieces. relu_nd is built by
    compose_relu, so the oracle is the concat-stacked construction."""

    def test_same_bytes_tag_and_claim_as_composing_relu_nd(self):
        widths = set()
        prefixes = 0
        for g in relu_prefixes(random.Random(5507)):
            n = g.out_dim
            direct = compose_relu(n, g)
            oracle = compose(stacked_relu(n), g)
            assert serialize_pwa(direct) == serialize_pwa(oracle)
            assert (direct.univalence, direct.claimed) == (oracle.univalence, oracle.claimed)
            widths.add(n)
            prefixes += 1
        assert widths == set(range(5)) and prefixes >= 800

    def test_width_mismatch_raises_what_compose_raises(self):
        g = linear_pwaf(Mat([[1], [2], [3]]), ColVec([0, 0, 0]))
        with pytest.raises(DimensionError) as expected:
            compose(stacked_relu(2), g)
        with pytest.raises(DimensionError, match=f"^{expected.value}$"):
            compose_relu(2, g)
