"""nn_eval and evaluate on integer rows, against the Fraction evaluation.

nn_eval carries a point as integers over one denominator, and both it
and evaluate apply a piece's map with pwa._mapped, on the map scaled
once to integers and cached on the piece (pwa._int_map). The oracles
are oracles.forward, the layer-by-layer Fraction evaluation nn_eval ran
before, and vec_add(mat_vec_mul(M, x), b) on the piece that contains x.
"""

import copy
import pickle
import re
import time
from dataclasses import FrozenInstanceError
from datetime import timedelta
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwanet import pwa
from pwanet.network import (
    Network,
    OutputLayer,
    PlainLayer,
    PwaLayer,
    UnknownLayer,
    nn_eval,
    nn_linear,
    nn_relu,
)
from pwanet.numeric import ColVec, DimensionError, Mat, mat_vec_mul, scaled_ints, vec_add
from pwanet.polyhedra import LinearConstraint, Polyhedron
from pwanet.pwa import AffinePiece, PwaFn, evaluate

from oracles import contains, dot, forward

# Denominators from one small set, so that products and sums often cancel.
_RATIONALS = st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 3, 6)))
_SETTINGS = settings(
    derandomize=True, database=None, max_examples=300, deadline=timedelta(seconds=10)
)


def _vec(draw, dim: int) -> ColVec:
    return ColVec(draw(st.lists(_RATIONALS, min_size=dim, max_size=dim)))


def _mat(draw, rows: int, cols: int) -> Mat:
    return Mat([_vec(draw, cols).entries for _ in range(rows)], cols=cols)


def _polyhedron(draw, dim: int) -> Polyhedron:
    """Up to three constraints with small integer normals and rational bounds."""
    constraints = []
    for _ in range(draw(st.integers(0, 3))):
        c = ColVec(draw(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)))
        constraints.append(LinearConstraint(c, draw(_RATIONALS)))
    return Polyhedron(dim, tuple(constraints))


def _pwa_fn(draw, in_dim: int, out_dim: int) -> PwaFn:
    """Zero to three pieces, each on its own polyhedron: a partial function."""
    pieces = [
        AffinePiece(_polyhedron(draw, in_dim), _mat(draw, out_dim, in_dim), _vec(draw, out_dim))
        for _ in range(draw(st.integers(0, 3)))
    ]
    return PwaFn(in_dim, out_dim, pieces)


class _Host:
    """A host function that records each point it is given and returns
    2v - 1/2, or, when it breaks its width, that and one more entry."""

    def __init__(self, breaks: bool):
        self.breaks = breaks
        self.seen: list[ColVec] = []

    def __call__(self, v: ColVec) -> ColVec:
        self.seen.append(v)
        out = [2 * e - Fraction(1, 2) for e in v]
        return ColVec(out + [Fraction(0)] * self.breaks)


@st.composite
def _networks(draw):
    """A chain of up to five layers and a point of its input width: linear
    layers (zero-width ones too), ReLUs anywhere (leading ones too), PWA
    layers of zero to three constrained pieces, host functions (a few
    that break their width) and unknown layers."""
    dim = current = draw(st.integers(0, 3))
    layers = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(("linear", "relu", "pwa", "plain", "unknown")))
        if kind == "linear":
            out = draw(st.integers(0, 3))
            layers.append(nn_linear(_mat(draw, out, current), _vec(draw, out)))
            current = out
        elif kind == "relu":
            layers.append(nn_relu(current))
        elif kind == "pwa":
            out = draw(st.integers(0, 2))
            layers.append(PwaLayer(_pwa_fn(draw, current, out)))
            current = out
        elif kind == "plain":
            breaks = draw(st.sampled_from((False, False, False, True)))
            layers.append(PlainLayer(_Host(breaks), current, current))
        else:
            layers.append(UnknownLayer(current, current))
    layers.append(OutputLayer(current))
    return Network(dim, current, tuple(layers)), _vec(draw, dim)


def _outcome(run, net: Network, x: ColVec):
    """run(net, x), or the text of its DimensionError, and the points
    each host function was given."""
    hosts = [layer.fn for layer in net.layers if isinstance(layer, PlainLayer)]
    for host in hosts:
        host.seen = []
    try:
        result = run(net, x)
    except DimensionError as error:
        result = str(error)
    return result, [host.seen for host in hosts]


def _exact(v: ColVec) -> bool:
    return type(v) is ColVec and all(type(e) is Fraction for e in v.entries)


class TestNnEvalMatchesForward:
    @_SETTINGS
    @given(_networks())
    def test_drawn_networks(self, drawn):
        net, x = drawn
        got, got_seen = _outcome(nn_eval, net, x)
        want, want_seen = _outcome(forward, net, x)
        assert got == want
        if isinstance(got, str):
            assert re.fullmatch(r"host function produced dim \d+, layer declares \d+", got)
        elif got is not None:
            assert _exact(got)
        # Each host function is handed the oracle's point, as a ColVec of Fractions.
        assert got_seen == want_seen
        assert all(_exact(v) for seen in got_seen for v in seen)
        wide = ColVec(x.entries + (Fraction(1, 2),))
        text = f"input of dim {x.dim + 1} into network on dim {x.dim}"
        for run in (nn_eval, forward):
            with pytest.raises(DimensionError, match=f"^{text}$"):
                run(net, wide)

    def test_edge_chains(self):
        half = Fraction(1, 2)
        nets = [
            (Network(0, 0, (nn_relu(0), OutputLayer(0))), ColVec([])),
            (Network(2, 0, (nn_linear(Mat([], cols=2), ColVec([])), OutputLayer(0))), ColVec([1, 2])),
            (Network(0, 2, (nn_linear(Mat([[], []], cols=0), ColVec([half, -half])), nn_relu(2),
                            OutputLayer(2))), ColVec([])),
            (Network(2, 2, (nn_relu(2), nn_relu(2), OutputLayer(2))), ColVec([-half, half])),
            (Network(2, 2, (PwaLayer(PwaFn(2, 2, ())), OutputLayer(2))), ColVec([0, 0])),
            (Network(2, 2, (nn_relu(2), UnknownLayer(2, 2), OutputLayer(2))), ColVec([1, 1])),
        ]
        expected = [ColVec([]), ColVec([]), ColVec([half, 0]), ColVec([0, half]), None, None]
        for (net, x), value in zip(nets, expected):
            assert nn_eval(net, x) == forward(net, x) == value

    def test_cancelling_denominators_leave_integers(self):
        piece = nn_linear(Mat([["2/3", "3/2"]]), ColVec(["-1/6"])).fn.pieces[0]
        # 2/3 * 3 + 3/2 * 2 - 1/6 = 29/6, and 2/3 * 3/2 + 3/2 * 2/3 = 2 exactly.
        assert pwa._mapped(piece, *scaled_ints(ColVec([3, 2]).entries)) == (6, [29])
        assert pwa._mapped(piece, *scaled_ints(ColVec(["3/2", "2/3"]).entries)) == (6, [11])
        square = nn_linear(Mat([["2/3", "3/2"]]), ColVec(["1/3"])).fn.pieces[0]
        assert pwa._mapped(square, *scaled_ints(ColVec(["3/2", "2/3"]).entries)) == (3, [7])
        zero = nn_linear(Mat([["1/7", "-1/7"]]), ColVec([0])).fn.pieces[0]
        assert pwa._mapped(zero, 12, [5, 5]) == (1, [0])


class TestMappedKernel:
    @_SETTINGS
    @given(st.data())
    def test_scaled_like_the_fraction_image(self, data):
        """_mapped gives the image as scaled_ints would, from any common
        denominator of the point."""
        in_dim, out_dim = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
        m, b = _mat(data.draw, out_dim, in_dim), _vec(data.draw, out_dim)
        x = _vec(data.draw, in_dim)
        piece = AffinePiece(Polyhedron(in_dim), m, b)
        want = scaled_ints(vec_add(mat_vec_mul(m, x), b).entries)
        den, ints = scaled_ints(x.entries)
        k = data.draw(st.integers(1, 12))
        assert pwa._mapped(piece, den, ints) == want
        assert pwa._mapped(piece, den * k, [a * k for a in ints]) == want

    @_SETTINGS
    @given(st.data())
    def test_evaluate_on_piece_boundaries(self, data):
        """evaluate at a point moved onto one of its pieces' hyperplanes
        gives the first containing piece's vec_add(mat_vec_mul(M, x), b)."""
        dim = data.draw(st.integers(1, 3))
        fn = _pwa_fn(data.draw, dim, data.draw(st.integers(0, 2)))
        x = _vec(data.draw, dim)
        rows = [lc for piece in fn.pieces for lc in piece.polyhedron.constraints if any(lc.c)]
        if rows:
            lc = data.draw(st.sampled_from(rows))
            step = (lc.b - dot(lc.c, x)) / dot(lc.c, lc.c)
            x = ColVec(a + step * c for a, c in zip(x, lc.c))
            assert dot(lc.c, x) == lc.b
        piece = next((p for p in fn.pieces if contains(p.polyhedron, x)), None)
        want = None if piece is None else vec_add(mat_vec_mul(piece.M, x), piece.b)
        got = evaluate(fn, x)
        assert got == want
        assert got is None or _exact(got)


class TestCachedMap:
    """The integer map cached on a piece is not part of its value."""

    @staticmethod
    def build() -> PwaLayer:
        poly = Polyhedron(2, (LinearConstraint(ColVec([1, "-1/2"]), Fraction(5)),))
        m = Mat([["1/2", "2/3"], ["-3/4", "0"]])
        return PwaLayer(PwaFn(2, 2, (AffinePiece(poly, m, ColVec(["1/5", "7"])),)))

    def test_equality_hash_repr_and_pickle_ignore_it(self):
        layer, fresh = self.build(), self.build()
        piece, fresh_piece = layer.fn.pieces[0], fresh.fn.pieces[0]
        before = (hash(layer), repr(layer), pickle.dumps(layer), hash(piece), pickle.dumps(piece))
        x = ColVec([1, 1])
        net = Network(2, 2, (layer, OutputLayer(2)))
        assert evaluate(layer.fn, x) == nn_eval(net, x) == forward(net, x)
        assert "_int_map" in piece.__dict__ and "_int_map" not in fresh_piece.__dict__
        assert piece == fresh_piece and hash(piece) == hash(fresh_piece)
        assert repr(piece) == repr(fresh_piece)
        assert pickle.dumps(piece) == pickle.dumps(fresh_piece)
        assert layer == PwaLayer(layer.fn) and hash(layer) == hash(PwaLayer(layer.fn))
        assert repr(layer) == repr(fresh)
        assert pickle.dumps(layer) == pickle.dumps(fresh)
        assert (hash(layer), repr(layer), pickle.dumps(layer), hash(piece), pickle.dumps(piece)) == before
        restored = pickle.loads(pickle.dumps(piece))
        assert restored == piece and list(restored.__dict__) == ["polyhedron", "M", "b"]

    def test_deepcopy_and_immutability(self):
        layer = self.build()
        piece = layer.fn.pieces[0]
        x = ColVec(["1/3", -2])
        value = evaluate(layer.fn, x)
        for copied in (copy.deepcopy(piece), copy.copy(piece)):
            assert copied == piece and "_int_map" not in copied.__dict__
            assert evaluate(PwaFn(2, 2, (copied,)), x) == value
        twin = copy.deepcopy(layer)
        assert pickle.dumps(twin) == pickle.dumps(layer)
        assert evaluate(twin.fn, x) == value
        with pytest.raises(FrozenInstanceError):
            piece.M = Mat([[0, 0], [0, 0]])
        with pytest.raises(FrozenInstanceError):
            piece._int_map = None
        with pytest.raises(FrozenInstanceError):
            layer.fn = None


def test_long_chain_keeps_its_denominators_small():
    # x -> 7/3 x + 1/3 -> 3/7 (7/3 x + 1/3) - 1/7 = x: each pair of
    # layers gives the point back, so its denominators stay small.
    layers = tuple(
        nn_linear(Mat([[w]]), ColVec([b])) for w, b in [("7/3", "1/3"), ("3/7", "-1/7")] * 150
    )
    net = Network(1, 1, layers + (OutputLayer(1),))
    x = ColVec(["5/2"])
    start = time.perf_counter()
    got = nn_eval(net, x)
    elapsed = time.perf_counter() - start
    assert got == forward(net, x) == x
    assert elapsed < 2.0
    den, ints = scaled_ints(x.entries)
    for layer in layers:
        den, ints = pwa._mapped(layer.fn.pieces[0], den, ints)
        assert den in (6, 2)
