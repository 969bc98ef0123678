"""Layer chains: the chain check at construction, evaluation, ReLU, and compilation."""

import random
from collections import Counter
from datetime import timedelta
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwanet import lp, network, numeric, polyhedra, pwa, pwa_algebra
from pwanet.formats import parse_network, parse_pwa, serialize_pwa
from pwanet.numeric import ColVec, DimensionError, Mat
from pwanet.polyhedra import LinearConstraint, Polyhedron
from pwanet.pwa import (
    AffinePiece,
    UNCHECKED,
    VERIFIED,
    PwaFn,
    Univalent,
    check_univalence,
    evaluate,
    identity_pwaf,
    prune_empty,
)
from pwanet.network import (
    MAX_PIECES,
    MAX_RATIONALS,
    Network,
    TooLarge,
    OutputLayer,
    PlainLayer,
    PwaLayer,
    ReluLayer,
    UnknownLayer,
    nn_eval,
    nn_linear,
    nn_relu,
    oversize,
    piece_product,
    relu_nd,
    transform,
)

from genutil import (
    EXAMPLE_BIAS,
    EXAMPLE_WEIGHTS,
    colvec_of,
    dense_network,
    example_network,
    mat_of,
    perfbench_corpus,
    point,
    random_network,
    restricted_affine,
    univalent_fn,
)
from oracles import apply_affine, forward, relu_1d, relu_reference, right_fold_transform

def example_oracle(x: ColVec) -> ColVec:
    pre = apply_affine(EXAMPLE_WEIGHTS, EXAMPLE_BIAS, list(x.entries))
    return relu_reference(ColVec(pre))


class TestLayerDims:
    def test_each_kind(self):
        def dims(layer):
            return layer.in_dim, layer.out_dim

        assert dims(OutputLayer(3)) == (3, 3)
        assert dims(nn_relu(2)) == (2, 2)
        assert dims(nn_linear(Mat([[1, 0]]), ColVec([0]))) == (2, 1)
        assert dims(PlainLayer(lambda v: v, 4, 4)) == (4, 4)
        assert dims(UnknownLayer(2, 5)) == (2, 5)


class TestValidateDims:
    """The chain is checked when a Network is built: the first break raises."""

    def test_example_network_is_well_formed(self):
        assert len(example_network().layers) == 3

    def test_output_only_network_is_well_formed(self):
        assert Network(2, 2, (OutputLayer(2),)).layers == (OutputLayer(2),)

    def test_relu_fed_wrong_width(self):
        layers = (nn_linear(mat_of(random.Random(0), 3, 2), ColVec([0, 0, 0])), nn_relu(2))
        with pytest.raises(DimensionError, match="^layer 1: expects input dim 2, gets dim 3$"):
            Network(2, 2, layers)

    def test_first_layer_must_consume_input_dim(self):
        layers = (nn_linear(Mat([[1, 0]]), ColVec([0])), OutputLayer(1))
        with pytest.raises(DimensionError, match="^layer 0: expects input dim 2, gets dim 3$"):
            Network(3, 1, layers)

    def test_missing_output_layer(self):
        with pytest.raises(DimensionError, match="^network has no output layer$"):
            Network(2, 2, (nn_relu(2),))

    def test_output_layer_in_the_middle(self):
        with pytest.raises(
            DimensionError, match="^layer 0: output layer before the end of the network$"
        ):
            Network(2, 2, (OutputLayer(2), nn_relu(2), OutputLayer(2)))

    def test_output_layer_contradicts_declared_output_dim(self):
        with pytest.raises(
            DimensionError, match="^layer 0: output layer has dim 2, network declares 3$"
        ):
            Network(2, 3, (OutputLayer(2),))

    def test_an_object_that_is_not_a_layer_raises_type_error(self):
        with pytest.raises(TypeError, match="^not a layer: <object object at "):
            Network(1, 1, (object(), OutputLayer(1)))


class TestNnEval:
    def test_example_value(self):
        got = nn_eval(example_network(), ColVec(["1", "1"]))
        assert got == ColVec([Fraction(37, 10), Fraction(63, 50)])

    def test_example_against_reference_loops(self):
        rng = random.Random(6601)
        net = example_network()
        for _ in range(200):
            x = point(rng, 2)
            assert nn_eval(net, x) == example_oracle(x)

    def test_relu_clips_negative_preactivations(self):
        got = nn_eval(example_network(), ColVec(["-1", "1"]))
        assert got == ColVec([Fraction(0), Fraction(0)])

    def test_output_only_is_identity(self):
        rng = random.Random(6602)
        net = Network(3, 3, (OutputLayer(3),))
        for _ in range(20):
            x = point(rng, 3)
            assert nn_eval(net, x) == x

    def test_unknown_layer_yields_nothing(self):
        net = Network(2, 2, (nn_relu(2), UnknownLayer(2, 2), OutputLayer(2)))
        assert nn_eval(net, ColVec([1, 1])) is None

    def test_plain_layer_is_applied(self):
        double = PlainLayer(lambda v: ColVec(2 * e for e in v), 2, 2)
        net = Network(2, 2, (double, OutputLayer(2),))
        assert nn_eval(net, ColVec([3, -5])) == ColVec([6, -10])

    def test_plain_layer_with_lying_output_dim(self):
        bad = PlainLayer(lambda v: ColVec([v[0]]), 2, 2)
        net = Network(2, 2, (bad, OutputLayer(2)))
        with pytest.raises(DimensionError):
            nn_eval(net, ColVec([1, 2]))

    def test_input_width_mismatch_raises(self):
        with pytest.raises(DimensionError):
            nn_eval(example_network(), ColVec([1, 2, 3]))

    def test_partial_pwa_layer_outside_its_domain(self):
        rng = random.Random(6603)
        fn = restricted_affine(rng, 1, 1)
        net = Network(1, 1, (PwaLayer(fn), OutputLayer(1)))
        outside = ColVec([1000])
        assert evaluate(fn, outside) is None
        assert nn_eval(net, outside) is None

    def test_network_without_output_layer_raises(self):
        # Evaluation would stop at the unknown layer before reaching the end.
        with pytest.raises(DimensionError, match="^network has no output layer$"):
            Network(2, 2, (nn_relu(2), UnknownLayer(2, 2)))

    def test_a_marker_of_the_wrong_width_cannot_be_evaluated(self):
        # Once a 2-vector came back from a network declaring output_dim 3.
        with pytest.raises(DimensionError, match="^layer 0: output layer has dim 2"):
            nn_eval(Network(2, 3, (OutputLayer(2),)), ColVec([1, 2]))


class TestReluLayer:
    def test_holds_only_its_width(self):
        assert nn_relu(3) == ReluLayer(3)
        assert (nn_relu(3).in_dim, nn_relu(3).out_dim) == (3, 3)

    def test_negative_width_rejected(self):
        with pytest.raises(DimensionError):
            nn_relu(-1)

    def test_nn_eval_matches_relu_nd(self):
        rng = random.Random(6617)
        for n in range(6):
            net = Network(n, n, (nn_relu(n), OutputLayer(n)))
            fn = relu_nd(n)
            for _ in range(40):
                x = point(rng, n)
                assert nn_eval(net, x) == evaluate(fn, x) == forward(net, x)


class TestRelu1d:
    """The paper's two-piece 1-d ReLU (the tests' oracle) and the library's
    relu_nd(1), which must be the same function byte for byte."""

    def test_piece_layout(self):
        assert serialize_pwa(relu_nd(1)) == serialize_pwa(relu_1d())
        for fn in (relu_1d(), relu_nd(1)):
            assert (fn.in_dim, fn.out_dim) == (1, 1)
            left, right = fn.pieces
            assert left.polyhedron.constraints == (LinearConstraint(ColVec([1]), 0),)
            assert left.M == Mat([[0]]) and left.b == ColVec([0])
            assert right.polyhedron.constraints == (LinearConstraint(ColVec([-1]), 0),)
            assert right.M == Mat([[1]]) and right.b == ColVec([0])

    def test_verdict_is_earned_in_the_constructor(self):
        # The oracle earns it from check_univalence, relu_nd by construction.
        for fn in (relu_1d(), relu_nd(1)):
            assert (fn.univalence, fn.claimed) == (VERIFIED, False)

    def test_values(self):
        for fn in (relu_1d(), relu_nd(1)):
            for raw in ("-7", "-1/3", "0", "1/3", "7"):
                x = ColVec([raw])
                assert evaluate(fn, x) == relu_reference(x)


class TestReluNd:
    def test_dim_zero(self):
        fn = relu_nd(0)
        assert (fn.in_dim, fn.out_dim) == (0, 0)
        assert evaluate(fn, ColVec([])) == ColVec([])

    def test_dim_one_matches_relu_1d(self):
        rng = random.Random(6604)
        one = relu_1d()
        built = relu_nd(1)
        for _ in range(100):
            x = point(rng, 1)
            assert evaluate(built, x) == evaluate(one, x)

    def test_known_value(self):
        assert evaluate(relu_nd(2), ColVec([-1, 3])) == ColVec([0, 3])

    def test_piece_count_is_two_to_the_n(self):
        for n in range(6):
            assert len(relu_nd(n).pieces) == 2**n

    def test_pieces_are_the_sign_orthants(self):
        fn = relu_nd(3)
        seen = set()
        for piece in fn.pieces:
            pattern = {}
            for lc in piece.polyhedron.constraints:
                assert lc.b == 0
                support = [(k, e) for k, e in enumerate(lc.c) if e != 0]
                assert len(support) == 1
                axis, coeff = support[0]
                assert coeff in (1, -1) and axis not in pattern
                # x_k <= 0 clips the coordinate; -x_k <= 0 passes it through.
                pattern[axis] = 0 if coeff == 1 else 1
            key = tuple(pattern[k] for k in range(3))
            assert piece.M == Mat(
                [[key[r] if c == r else 0 for c in range(3)] for r in range(3)]
            )
            assert piece.b == ColVec([0, 0, 0])
            seen.add(key)
        assert len(seen) == 8

    def test_matches_componentwise_reference(self):
        rng = random.Random(6605)
        for n in range(1, 5):
            fn = relu_nd(n)
            for _ in range(50):
                x = point(rng, n)
                assert evaluate(fn, x) == relu_reference(x)

    def test_negative_dim_rejected(self):
        with pytest.raises(DimensionError):
            relu_nd(-1)


class TestTransform:
    def test_output_only_collapses_to_identity(self):
        rng = random.Random(6606)
        fn = transform(Network(2, 2, (OutputLayer(2),)))
        assert fn is not None and len(fn.pieces) == 1
        for _ in range(20):
            x = point(rng, 2)
            assert evaluate(fn, x) == x

    def test_example_network_compiles_to_four_pieces(self):
        fn = transform(example_network())
        assert fn is not None
        assert len(fn.pieces) == 4
        assert evaluate(fn, ColVec(["1", "1"])) == ColVec(
            [Fraction(37, 10), Fraction(63, 50)]
        )

    def test_example_agrees_with_nn_eval(self):
        rng = random.Random(6607)
        net = example_network()
        fn = transform(net)
        assert fn is not None
        for _ in range(300):
            x = point(rng, 2)
            assert evaluate(fn, x) == nn_eval(net, x) == forward(net, x)

    def test_plain_layer_blocks_compilation(self):
        net = Network(
            2, 2, (PlainLayer(lambda v: v, 2, 2), nn_relu(2), OutputLayer(2))
        )
        assert transform(net) is None

    def test_unknown_layer_blocks_compilation(self):
        net = Network(2, 2, (nn_relu(2), UnknownLayer(2, 2), OutputLayer(2)))
        assert transform(net) is None

    def test_piece_count_is_the_product_over_layers(self):
        rng = random.Random(6608)
        for _ in range(20):
            net = random_network(rng)
            fn = transform(net)
            assert fn is not None
            product = 1
            for layer in net.layers:
                if isinstance(layer, ReluLayer):
                    product *= len(relu_nd(layer.dim).pieces)
                elif isinstance(layer, PwaLayer):
                    product *= len(layer.fn.pieces)
            assert len(fn.pieces) == product

    def test_random_networks_evaluate_identically(self):
        rng = random.Random(6609)
        for _ in range(30):
            net = random_network(rng)
            fn = transform(net)
            assert fn is not None
            assert (fn.in_dim, fn.out_dim) == (net.input_dim, net.output_dim)
            for _ in range(30):
                x = point(rng, net.input_dim)
                assert evaluate(fn, x) == nn_eval(net, x) == forward(net, x)

    def test_compiles_verified_and_the_checker_agrees(self):
        rng = random.Random(6610)
        for _ in range(10):
            net = random_network(rng, max_pieces=8, max_dim=3, max_depth=3)
            fn = transform(net)
            assert fn is not None and fn.univalence == VERIFIED
            unchecked = PwaFn(fn.in_dim, fn.out_dim, fn.pieces)
            assert isinstance(check_univalence(unchecked), Univalent)

    def test_long_linear_chain_compiles(self):
        step = nn_linear(Mat([[1]]), ColVec([1]))
        net = Network(1, 1, (step,) * 1500 + (OutputLayer(1),))
        fn = transform(net)
        assert fn is not None and len(fn.pieces) == 1
        assert evaluate(fn, ColVec([0])) == ColVec([1500])


class TestTransformEdgeChains:
    """Shapes at the ends of the chain, pinned on the backward fold first."""

    def test_output_only_is_the_identity_on_the_marker_dim(self):
        fn = transform(Network(2, 2, (OutputLayer(2),)))
        assert serialize_pwa(fn) == serialize_pwa(identity_pwaf(2))

    def test_last_layer_must_meet_the_marker(self):
        with pytest.raises(DimensionError, match="^layer 1: expects input dim 3, gets dim 2$"):
            Network(2, 3, (nn_relu(2), OutputLayer(3)))

    def test_a_first_layer_off_the_input_dim_cannot_be_compiled(self):
        # Once this compiled to a function on R^3 under input_dim 5.
        rng = random.Random(6611)
        first = nn_linear(mat_of(rng, 2, 3), colvec_of(rng, 2))
        with pytest.raises(DimensionError, match="^layer 0: expects input dim 3, gets dim 5$"):
            transform(Network(5, 2, (first, nn_relu(2), OutputLayer(2))))

    def test_a_single_claimed_layer_compiles_unchecked(self):
        claimed = parse_pwa(serialize_pwa(relu_1d()))
        fn = transform(Network(1, 1, (PwaLayer(claimed), OutputLayer(1))))
        assert (fn.univalence, fn.claimed) == (UNCHECKED, False)
        assert serialize_pwa(fn) == serialize_pwa(
            PwaFn(1, 1, relu_1d().pieces, univalence=UNCHECKED)
        )

    def test_a_layer_without_pieces_empties_the_result(self):
        layers = (PwaLayer(PwaFn(2, 2, ())), nn_relu(2), OutputLayer(2))
        fn = transform(Network(2, 2, layers))
        assert (fn.in_dim, fn.out_dim, fn.pieces) == (2, 2, ())


def _edge_chains():
    """Chains at the edges of the fold: output only, a zero-width ReLU, a
    leading ReLU, two ReLUs, a layer without pieces, a claimed layer and
    a restricted affine layer."""
    rng = random.Random(6620)
    claimed = PwaFn(2, 2, identity_pwaf(2).pieces, univalence=VERIFIED, claimed=True)
    hidden = nn_linear(Mat([[1, -1], [Fraction(1, 2), 1]]), ColVec([-1, Fraction(1, 3)]))
    return [
        Network(3, 3, (OutputLayer(3),)),
        Network(0, 0, (nn_relu(0), OutputLayer(0))),
        Network(2, 2, (nn_relu(2), hidden, nn_relu(2), OutputLayer(2))),
        Network(3, 3, (nn_relu(3), nn_relu(3), OutputLayer(3))),
        Network(2, 2, (PwaLayer(PwaFn(2, 2, ())), nn_relu(2), OutputLayer(2))),
        Network(2, 2, (PwaLayer(claimed), nn_relu(2), OutputLayer(2))),
        Network(2, 1, (PwaLayer(restricted_affine(rng, 2, 1)), OutputLayer(1))),
    ]


class TestForwardFoldMatchesRightFold:
    """transform folds first to last; the old last-to-first fold is the oracle."""

    @staticmethod
    def assert_same_bytes(net, prune=False):
        forward = transform(net)
        backward = right_fold_transform(net)
        assert serialize_pwa(forward) == serialize_pwa(backward)
        if prune:
            assert serialize_pwa(prune_empty(forward)) == serialize_pwa(prune_empty(backward))

    def test_random_networks(self):
        rng = random.Random(6613)
        for k in range(40):
            self.assert_same_bytes(random_network(rng), prune=k % 4 == 0)

    def test_partial_and_univalent_layer_chains(self):
        rng = random.Random(6614)
        for k in range(20):
            dims = [rng.randint(1, 3)]
            layers = []
            for _ in range(rng.randint(1, 3)):
                if rng.random() < 0.5:
                    dims.append(rng.randint(1, 3))
                    fn = restricted_affine(rng, dims[-2], dims[-1])
                else:
                    fn = univalent_fn(rng, dims[-1], max_pieces=4)
                    dims.append(fn.out_dim)
                layers.append(PwaLayer(fn))
            net = Network(dims[0], dims[-1], tuple(layers) + (OutputLayer(dims[-1]),))
            self.assert_same_bytes(net, prune=k % 2 == 0)

    @pytest.mark.parametrize("widths", [(2, 3, 3), (2, 4, 4), (3, 4, 4, 2)])
    def test_dense_networks(self, widths):
        net = dense_network(random.Random(6615 + len(widths)), widths)
        self.assert_same_bytes(net, prune=True)

    def test_edge_chains(self):
        for net in _edge_chains():
            self.assert_same_bytes(net, prune=True)


class TestPieceProduct:
    @staticmethod
    def layer_of(count: int) -> PwaLayer:
        return PwaLayer(PwaFn(1, 1, identity_pwaf(1).pieces * count))

    def test_product_of_the_leading_pwa_layers(self):
        layers = (self.layer_of(3), self.layer_of(5), UnknownLayer(1, 1), self.layer_of(7))
        net = Network(1, 1, layers + (OutputLayer(1),))
        assert piece_product(net) == 15
        assert piece_product(Network(1, 1, (OutputLayer(1),))) == 1

    def test_matches_transform(self):
        rng = random.Random(6616)
        for _ in range(10):
            net = random_network(rng)
            assert piece_product(net) == len(transform(net).pieces)

    def test_reaches_the_bound_exactly_and_stops_past_it(self):
        at_bound = (self.layer_of(MAX_PIECES // 2), self.layer_of(2))
        assert piece_product(Network(1, 1, at_bound + (OutputLayer(1),))) == MAX_PIECES
        past = (self.layer_of(MAX_PIECES), self.layer_of(2)) + (self.layer_of(MAX_PIECES),) * 100
        assert MAX_PIECES < piece_product(Network(1, 1, past + (OutputLayer(1),))) <= 2 * MAX_PIECES

    def test_a_relu_counts_two_to_its_width(self):
        for n in range(13):
            assert piece_product(Network(n, n, (nn_relu(n), OutputLayer(n)))) == 2**n
        layers = (self.layer_of(3), nn_relu(1), nn_relu(1), OutputLayer(1))
        assert piece_product(Network(1, 1, layers)) == 12

    @pytest.mark.parametrize("dim", [13, 10**9, 10**18])
    def test_a_huge_width_passes_the_bound_without_computing_two_to_it(self, dim):
        net = Network(dim, dim, (nn_relu(dim), nn_relu(dim), OutputLayer(dim)))
        product = piece_product(net)
        assert product > MAX_PIECES and product.bit_length() < 64


class TestOversize:
    PIECES = f"the compiled function would have more than {MAX_PIECES} pieces"
    RATIONALS = f"the compiled function would hold more than {MAX_RATIONALS} rationals"

    def test_a_small_network_fits(self):
        assert oversize(example_network()) is None

    def test_past_the_piece_bound(self):
        assert oversize(Network(13, 13, (nn_relu(13), OutputLayer(13)))) == self.PIECES

    def test_past_the_rational_bound_at_the_piece_bound(self):
        # 4,096 pieces of (20 + 1) * (12 + 12) rationals fit; one more input does not.
        for n, expected in ((20, None), (21, self.RATIONALS)):
            layers = (nn_linear(Mat([[1] * n] * 12), ColVec([0] * 12)), nn_relu(12))
            assert oversize(Network(n, 12, layers + (OutputLayer(12),))) == expected

    def test_a_given_piece_count_replaces_the_product(self):
        net = Network(13, 13, (nn_relu(13), OutputLayer(13)))
        assert oversize(net, 1) is None
        assert oversize(net, MAX_PIECES) is None
        assert oversize(net, MAX_PIECES + 1) == self.PIECES
        # (20 + 1) * (20 + 20) = 840 rationals a piece: 2,496 pieces fit.
        net = Network(20, 20, (nn_relu(20), OutputLayer(20)))
        assert oversize(net, 2496) is None
        assert oversize(net, 2497) == self.RATIONALS

    def test_the_plain_compile_bounds_the_product_alone(self):
        # 4,096 pieces of (1 + 1) * (250 + 12) rationals pass MAX_RATIONALS
        # after the ReLU, but the product is 0: neither compile refuses.
        layers = (
            nn_linear(Mat([[1]] * 12), ColVec(range(12))),
            nn_relu(12),
            PwaLayer(PwaFn(12, 250, ())),
            OutputLayer(250),
        )
        net = Network(1, 250, layers)
        for prune in (False, True):
            fn = transform(net, prune=prune)
            assert (fn.in_dim, fn.out_dim, fn.pieces) == (1, 250, ())

    def test_transform_refuses_before_building_a_piece(self, monkeypatch):
        def refuse(n, g):
            raise AssertionError(f"pulled back a ReLU of width {n}")

        monkeypatch.setattr(network, "compose_relu", refuse)
        with pytest.raises(TooLarge, match=f"^{self.PIECES}$"):
            transform(Network(30, 30, (nn_relu(30), OutputLayer(30))))


def _corpus_networks():
    """Every shape of the benchmark corpus, at run seeds 1 to 3."""
    corpus = perfbench_corpus()
    shapes = sorted({shape for shapes in corpus.SHAPES.values() for shape in shapes})
    return [
        pytest.param(
            parse_network(corpus.network_document(corpus.relabelled_layers(shape, seed))),
            id=f"{corpus.shape_name(shape)}-seed{seed}",
        )
        for shape in shapes
        for seed in (1, 2, 3)
    ]


@st.composite
def _fold_chains(draw):
    """Layer chains for the pruned fold: a random_network chain, maybe
    behind a leading ReLU or PWA layer, then drawn layers: zero-width
    ones, linear layers with all-zero or duplicated rows, ReLUs, and PWA
    layers of one or several pieces, some claimed verified. The unpruned
    compile has at most 256 pieces, so the oracle stays cheap."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))

    def pwa_layer(in_dim, out_dim):
        if out_dim is None and rng.random() < 0.5:
            fn = univalent_fn(rng, in_dim, max_pieces=4)
        else:
            out_dim = rng.randint(1, 2) if out_dim is None else out_dim
            fns = [restricted_affine(rng, in_dim, out_dim) for _ in range(rng.randint(1, 3))]
            fn = PwaFn(in_dim, out_dim, [p for fn in fns for p in fn.pieces])
        if draw(st.booleans()):
            fn = PwaFn(in_dim, fn.out_dim, fn.pieces, univalence=VERIFIED, claimed=True)
        return PwaLayer(fn)

    base = random_network(rng, max_pieces=16, max_dim=3, max_depth=3)
    dim = current = base.input_dim
    layers = list(base.layers[:-1])
    pieces = piece_product(base)
    lead = draw(st.sampled_from(("none", "relu", "pwa")))
    if lead == "relu" and pieces << dim <= 64:
        layers.insert(0, nn_relu(dim))
        pieces <<= dim
    elif lead == "pwa":
        layers.insert(0, pwa_layer(dim, dim))
        pieces *= len(layers[0].fn.pieces)
    current = base.output_dim
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("zero", "from zero", "flat rows", "twin rows", "pwa", "relu")))
        if kind == "zero":
            layers.append(nn_linear(Mat([], cols=current), ColVec([])))
            current = 0
        elif kind == "from zero" and current == 0:
            out = rng.randint(1, 2)
            layers.append(nn_linear(Mat([[]] * out, cols=0), colvec_of(rng, out)))
            current = out
        elif kind in ("flat rows", "twin rows"):
            out = rng.randint(1, 3)
            m = mat_of(rng, out, current).entries
            row = (Fraction(0),) * current if kind == "flat rows" else m[0]
            m = (row,) + m[1:]
            if out > 1 and kind == "twin rows":
                m = m[:-1] + (row,)
            layers.append(nn_linear(Mat(m, cols=current), colvec_of(rng, out)))
            current = out
        elif kind == "pwa":
            layer = pwa_layer(current, None)
            if pieces * len(layer.fn.pieces) <= 256:
                layers.append(layer)
                pieces *= len(layer.fn.pieces)
                current = layer.out_dim
        elif pieces << current <= 256:
            layers.append(nn_relu(current))
            pieces <<= current
    return Network(dim, current, tuple(layers) + (OutputLayer(current),))


class TestPrunedFold:
    """transform(net, prune=True) folds forward keeping only live pieces;
    the oracle is prune_empty of the last-to-first fold, byte for byte,
    since the plain transform runs the same fold."""

    @staticmethod
    def assert_same(net):
        pruned = transform(net, prune=True)
        expected = prune_empty(right_fold_transform(net))
        assert serialize_pwa(pruned) == serialize_pwa(expected)
        assert pruned.pieces == expected.pieces
        assert (pruned.univalence, pruned.claimed) == (expected.univalence, expected.claimed)
        return pruned

    @pytest.mark.parametrize("net", _corpus_networks())
    def test_benchmark_corpus(self, net):
        self.assert_same(net)

    @pytest.mark.parametrize("widths", [(3, 4, 4, 2), (2, 5, 5)])
    def test_dense_networks(self, widths):
        fn = self.assert_same(dense_network(random.Random(1), widths))
        assert len(fn.pieces) == {(3, 4, 4, 2): 87, (2, 5, 5): 51}[widths]

    @settings(derandomize=True, database=None, max_examples=200, deadline=timedelta(seconds=10))
    @given(_fold_chains())
    def test_drawn_chains(self, net):
        self.assert_same(net)

    def test_edge_chains(self):
        for net in _edge_chains():
            self.assert_same(net)

    # A 1-d staircase of 13 ReLUs, of x, x - 1, ..., x - 12: 14 live pieces.
    STAIR = Network(1, 13, (
        nn_linear(Mat([[1]] * 13), ColVec(range(0, -13, -1))), nn_relu(13), OutputLayer(13)
    ))

    @pytest.mark.parametrize(
        "net", [STAIR, dense_network(random.Random(1), (3, 4, 4, 2))], ids=["stair", "3-4-4-2"]
    )
    def test_each_constraint_object_is_scaled_at_most_once(self, monkeypatch, net):
        # A scaling of lc.c.entries + (lc.b,) passes the objects of lc's
        # coefficients and bound, so the ids of its entries name lc; the
        # scaled entries are kept, so no id is reused.
        scaled_ints = numeric.scaled_ints
        scaled, calls = [], Counter()

        def counted(entries):
            entries = tuple(entries)
            scaled.append(entries)
            calls[tuple(map(id, entries))] += 1
            return scaled_ints(entries)

        for module in (numeric, polyhedra, lp, pwa, pwa_algebra, network):
            if getattr(module, "scaled_ints", None) is scaled_ints:
                monkeypatch.setattr(module, "scaled_ints", counted)
        built = [lc for layer in net.layers if isinstance(layer, PwaLayer)
                 for piece in layer.fn.pieces for lc in piece.polyhedron.constraints]
        make = pwa_algebra._unchecked_constraint

        def recorded(c, b):
            built.append(make(c, b))
            return built[-1]

        monkeypatch.setattr(pwa_algebra, "_unchecked_constraint", recorded)
        fn = transform(net, prune=True)
        monkeypatch.undo()
        distinct = {id(lc): lc for lc in built}.values()
        objects = Counter(tuple(map(id, lc.c.entries + (lc.b,))) for lc in distinct)
        rows = {key: n for key, n in calls.items() if key in objects}
        assert len(rows) >= len({lc for piece in fn.pieces for lc in piece.polyhedron.constraints})
        assert all(n <= objects[key] for key, n in rows.items())

    def test_a_function_without_rows_builds_no_root_tableau(self):
        # Two unconstrained pieces on R^(10^12): a root tableau would hold
        # 10^12 zeros.
        dim = 10**12
        piece = AffinePiece(Polyhedron(dim), Mat([], cols=dim), ColVec([]))
        net = Network(dim, 0, (PwaLayer(PwaFn(dim, 0, (piece, piece))), OutputLayer(0)))
        assert transform(net, prune=True).pieces == (piece, piece)

    def test_past_the_live_bound_raises_as_it_grows(self, monkeypatch):
        built = []
        split = network._relu_split

        def counted(*args):
            for item in split(*args):
                built.append(item)
                yield item

        monkeypatch.setattr(network, "_relu_split", counted)
        # 2^30 orthants, each of 31 * 60 rationals: the 1,128th passes
        # MAX_RATIONALS.
        with pytest.raises(TooLarge, match=f"^the compiled function would hold more than {MAX_RATIONALS} rationals$"):
            transform(Network(30, 30, (nn_relu(30), OutputLayer(30))), prune=True)
        assert len(built) == MAX_RATIONALS // (31 * 60) + 1
        built.clear()
        with pytest.raises(TooLarge, match=f"^the compiled function would have more than {MAX_PIECES} pieces$"):
            transform(Network(13, 13, (nn_relu(13), OutputLayer(13))), prune=True)
        assert len(built) == MAX_PIECES + 1

    @pytest.mark.parametrize("dim", [10**9, 10**18])
    def test_a_huge_leading_relu_is_refused_before_the_fold(self, monkeypatch, dim):
        def refuse(n):
            raise AssertionError(f"built the identity on dim {n}")

        monkeypatch.setattr(network, "identity_pwaf", refuse)
        with pytest.raises(TooLarge, match=f"^the compiled function would hold more than {MAX_RATIONALS} rationals$"):
            transform(Network(dim, dim, (nn_relu(dim), OutputLayer(dim))), prune=True)

    def test_a_non_pwa_network_gives_none(self):
        net = Network(2, 2, (nn_relu(2), UnknownLayer(2, 2), OutputLayer(2)))
        assert transform(net, prune=True) is None
