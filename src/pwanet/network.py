"""Feedforward networks as layer chains, and their compilation to PWA form.

A network is a list of layers ending in an output marker. The chain is
checked once, when the Network is built, the way the paper's typed model
cannot write an ill-formed chain down: each layer consumes what the last
produced, from input_dim to the marker's output_dim. Layers carrying a
PwaFn, and ReLU layers, can be both evaluated and compiled; layers
carrying an opaque host function can only be evaluated; layers known by
their dimensions alone can do neither. Evaluation and compilation both
treat "no answer" as a missing value rather than an error, mirroring
partial PWA domains.

nn_eval runs on integers, through the pieces' cached integer maps that
evaluate applies too, and locates x in a multi-piece layer as evaluate
does (pwa._located). A ReLU layer holds only its width: nn_eval takes
max(0, x) componentwise, and transform pulls the 2^n sign patterns back
through the prefix directly (pwa_algebra.compose_relu). relu_nd(n), the
ReLU as 2^n explicit pieces, is that pullback through the identity. The
paper stacks two-piece 1-d ReLUs with concat instead; that construction
gives the same bytes and is kept in the tests as the oracle for
compose_relu.
non_pwa_layer names the layer that keeps a network from compiling, and
oversize says why a network is too large to compile: a piece_product past
MAX_PIECES, or a compiled file of more than MAX_RATIONALS rationals.
transform runs one fold over the layers (_fold), piece by piece, and
each piece carries a state that a step advances by the constraints each
layer adds. The plain compile's step keeps every piece. With prune, the
step keeps only the non-empty ones, so the work follows the live
regions, and both bounds apply to the live count instead of the
product. Either compile raises TooLarge past a bound. The pruned step
is pwa._narrowed, which owns the deciders and the integer rows: it
reads each constraint as its cached integer row (polyhedra._row), so a
ReLU unit's constraint is scaled once per piece it splits, however
many partial patterns it is added to.
"""

from __future__ import annotations

from math import inf
from typing import Callable, Optional, Union, get_args

from .numeric import ColVec, DimensionError, Mat, _Frozen, _unscaled, scaled_ints
from .pwa import PwaFn, _located, _mapped, _narrowed, _unchecked_pwafn, identity_pwaf, linear_pwaf
from .pwa_algebra import _carried, _composed, _every_side, _relu_split, compose_relu
from .pwa_algebra import compose  # no longer called here; perfbench's tracer wraps network.compose

MAX_PIECES = 4096
# A 12-wide ReLU on 12 inputs writes 4,096 * 13 * 24 = 1,277,952 rationals.
MAX_RATIONALS = 2**21


class TooLarge(ValueError):
    """A compile, plain or pruned, past MAX_PIECES pieces or MAX_RATIONALS
    rationals; the message is oversize's."""


class _OnWidth(_Frozen):
    """A layer from R^dim to R^dim, known by its width alone."""

    __match_args__ = ("dim",)

    def __init__(self, dim: int):
        self.__dict__.update(dim=dim)

    @property
    def in_dim(self) -> int:
        return self.dim

    @property
    def out_dim(self) -> int:
        return self.dim


class OutputLayer(_OnWidth):
    """Terminates the network and passes its input through unchanged."""


class PwaLayer(_Frozen):
    """A layer whose function is piecewise-affine, hence compilable."""

    __match_args__ = ("fn",)

    def __init__(self, fn: PwaFn):
        self.__dict__.update(fn=fn)

    @property
    def in_dim(self) -> int:
        return self.fn.in_dim

    @property
    def out_dim(self) -> int:
        return self.fn.out_dim


class ReluLayer(_OnWidth):
    """Componentwise max(0, x) on R^dim, known by its width alone."""

    def __init__(self, dim: int):
        if dim < 0:
            raise DimensionError("relu layer dimension must be nonnegative")
        super().__init__(dim)


class PlainLayer(_Frozen):
    """An opaque host function: evaluable, but not compilable."""

    __match_args__ = ("fn", "in_dim", "out_dim")

    def __init__(self, fn: Callable[[ColVec], ColVec], in_dim: int, out_dim: int):
        self.__dict__.update(fn=fn, in_dim=in_dim, out_dim=out_dim)


class UnknownLayer(_Frozen):
    """A layer known only by its dimensions: neither evaluable nor compilable."""

    __match_args__ = ("in_dim", "out_dim")

    def __init__(self, in_dim: int, out_dim: int):
        self.__dict__.update(in_dim=in_dim, out_dim=out_dim)


Layer = Union[OutputLayer, PwaLayer, ReluLayer, PlainLayer, UnknownLayer]
_LAYERS = get_args(Layer)
# The layers transform can compose.
_COMPILABLE = (PwaLayer, ReluLayer)


class Network(_Frozen):
    """A layer chain from R^input_dim to R^output_dim, checked when built.

    Each layer must consume exactly what the previous one produced, the
    first layer must consume input_dim, and the chain must end in a single
    OutputLayer whose pass-through dim equals output_dim. The first place
    the chain breaks raises DimensionError, and an object that is not a
    layer raises TypeError, so every Network in hand is well-formed.
    """

    __match_args__ = ("input_dim", "output_dim", "layers")

    def __init__(self, input_dim: int, output_dim: int, layers: tuple[Layer, ...]):
        layers = tuple(layers)
        current = input_dim
        last = len(layers) - 1
        for i, layer in enumerate(layers):
            if not isinstance(layer, _LAYERS):
                raise TypeError(f"not a layer: {layer!r}")
            if layer.in_dim != current:
                raise DimensionError(
                    f"layer {i}: expects input dim {layer.in_dim}, gets dim {current}"
                )
            if isinstance(layer, OutputLayer):
                if i != last:
                    raise DimensionError(f"layer {i}: output layer before the end of the network")
                if layer.dim != output_dim:
                    raise DimensionError(
                        f"layer {i}: output layer has dim {layer.dim}, "
                        f"network declares {output_dim}"
                    )
                break
            current = layer.out_dim
        else:
            raise DimensionError("network has no output layer")
        self.__dict__.update(input_dim=input_dim, output_dim=output_dim, layers=layers)


def nn_eval(net: Network, x: ColVec) -> Optional[ColVec]:
    """Feed x through the layers; None when some layer has no answer.

    A PWA layer yields nothing outside its domain and an unknown layer
    never yields anything; both make the whole evaluation come up empty.
    The chain was checked when the network was built, so only a point of
    the wrong width, or a host function that breaks its declared output
    width, raises.

    The point travels as (den, ints), as scaled_ints gives it, through
    pwa._mapped; a linear layer's lone piece needs no containment test.
    """
    if x.dim != net.input_dim:
        raise DimensionError(f"input of dim {x.dim} into network on dim {net.input_dim}")
    den, ints = scaled_ints(x.entries)
    for layer in net.layers[:-1]:
        if isinstance(layer, ReluLayer):
            ints = [a if a > 0 else 0 for a in ints]
        elif isinstance(layer, PwaLayer):
            pieces = layer.fn.pieces
            if len(pieces) != 1 or pieces[0].polyhedron.constraints:
                pieces = [_located(pieces, _unscaled(den, ints))]
                if pieces[0] is None:
                    return None
            den, ints = _mapped(pieces[0], den, ints)
        elif isinstance(layer, UnknownLayer):
            return None
        else:
            current = layer.fn(_unscaled(den, ints))
            if current.dim != layer.out_dim:
                raise DimensionError(
                    f"host function produced dim {current.dim}, layer declares "
                    f"{layer.out_dim}"
                )
            den, ints = scaled_ints(current.entries)
    return _unscaled(den, ints)


def transform(net: Network, prune: bool = False) -> Optional[PwaFn]:
    """Collapse an all-PWA network into one PwaFn; None if any layer resists.

    The PWA and ReLU layers before the output marker are composed from the
    first to the last by one fold (_fold): after layer i the prefix is
    compose(layer_i, prefix), or compose_relu for a ReLU layer, built
    piece by piece. A first PWA layer starts the fold with its own pieces,
    since pulling it back through the identity would copy it: a wide
    first layer costs its own size, not the square of its input width.
    Exact pullbacks are associative, so this gives the same bytes as
    composing from the last layer back onto the marker's identity, with
    every ReLU as its 2^n explicit pieces: the same pieces in the same
    order (first layer's pieces slowest), the same constraints in the
    same order, the same rationals. An empty chain is the identity on the
    input. On the common layers the result evaluates exactly like
    nn_eval. Every layer that parse_network builds is univalent by
    construction, so its compile is verified too.

    Past oversize(net), TooLarge is raised before any piece is built.
    With prune, the result is prune_empty(transform(net)): the fold's
    step drops each piece as soon as it is empty, and the bound is
    oversize(net, 1) and then oversize of the live count.
    """
    if non_pwa_layer(net) is not None:
        return None
    excess = oversize(net, 1 if prune else None)
    if excess is not None:
        raise TooLarge(excess)
    return _fold(net, prune)


def _fold(net: Network, prune: bool) -> PwaFn:
    """transform(net, prune) for an all-PWA net, one layer at a time.

    The fold starts from the first layer's own pieces, or from the
    identity for a leading ReLU or an empty chain, and applies each later
    layer to every piece through pwa_algebra._relu_split or
    pwa_algebra._composed. Each piece carries a state, and a step maps
    (state, constraints the layer added) to the new state, or to None to
    drop the piece. The plain compile's step, _every_side, keeps them all.

    The pruned compile's step is pwa._narrowed, the emptiness step that
    prune_empty's walk takes too, so a piece's state is its nearest
    feasible decider and the rows added since: on R^1 to R^3 the
    hyperplane decider, from R^4 on a simplex tableau, as lp._root gives
    them, and (None, ()) before a piece has a row. Every layer only
    appends constraints, so an empty piece has nothing live below it and
    goes at once; a ReLU side is decided from the parent's witness with
    no work where it can be. oversize of the live count is checked every
    time it grows, so the work is bounded by the live pieces and the
    input; the plain compile passed oversize(net) instead.
    """
    dim = net.input_dim
    layers = net.layers[:-1]
    if prune:
        per_piece = _rationals_per_piece(net)
        limit = min(MAX_PIECES, MAX_RATIONALS // per_piece) if per_piece else MAX_PIECES
        step, state = _narrowed, (None, ())
    else:
        step, state, limit = _every_side, (), inf
    if not layers or isinstance(layers[0], ReluLayer):
        start = identity_pwaf(dim)
    else:
        start = layers[0].fn
        layers = layers[1:]
    out_dim, univalence = start.out_dim, _carried(start)
    pieces, states = [], []

    def keep(piece, state):
        if state is not None:
            pieces.append(piece)
            states.append(state)
            if len(pieces) > limit:
                raise TooLarge(oversize(net, len(pieces)))

    for piece in start.pieces:
        keep(piece, step(state, piece.polyhedron.constraints))
    for layer in layers:
        g = _unchecked_pwafn(dim, out_dim, tuple(pieces), univalence)
        parents, pieces, states = states, [], []
        if isinstance(layer, ReluLayer):
            for gp, state in zip(g.pieces, parents):
                for piece, below in _relu_split(gp, dim, state, step):
                    keep(piece, below)
            out_dim, univalence = layer.dim, _carried(g)
        else:
            for gp, state, composed in zip(g.pieces, parents, _composed(layer.fn, g)):
                held = len(gp.polyhedron.constraints)
                for piece in composed:
                    keep(piece, step(state, piece.polyhedron.constraints[held:]))
            out_dim, univalence = layer.out_dim, _carried(layer.fn, g)
    return _unchecked_pwafn(dim, out_dim, tuple(pieces), univalence)


def non_pwa_layer(net: Network) -> Optional[int]:
    """The first layer before the output marker that transform cannot compose.

    That is a PlainLayer or an UnknownLayer; None means every layer before
    the marker is PWA or ReLU, so the network compiles. compile exits 4
    naming this index, transform returns None, and piece_product counts
    the layers ahead of it.
    """
    return next(
        (i for i, layer in enumerate(net.layers[:-1]) if not isinstance(layer, _COMPILABLE)),
        None,
    )


def piece_product(net: Network) -> int:
    """The piece count transform(net) would produce, from the layers alone.

    It is the product of the piece counts of the PWA and ReLU layers
    ahead of non_pwa_layer, or of the marker (2^dim for a ReLU), and it
    stops growing once it passes MAX_PIECES. A ReLU's exponent is capped
    where 2^dim alone passes MAX_PIECES, so a huge width costs nothing.
    """
    end = non_pwa_layer(net)
    product = 1
    for layer in net.layers[: -1 if end is None else end]:
        if product > MAX_PIECES:
            break
        if isinstance(layer, ReluLayer):
            product <<= min(layer.dim, MAX_PIECES.bit_length())
        else:
            product *= len(layer.fn.pieces)
    return product


def oversize(net: Network, pieces: Optional[int] = None) -> Optional[str]:
    """Why a compile of net into this many pieces is too large to build
    and write; None when it fits.

    The compile is refused past MAX_PIECES pieces, or past MAX_RATIONALS
    rationals in the written file. pieces defaults to piece_product(net),
    the count transform(net) builds, so the answer comes before any piece
    is built; the pruned fold passes its live count instead.
    """
    if pieces is None:
        pieces = piece_product(net)
    if pieces > MAX_PIECES:
        return f"the compiled function would have more than {MAX_PIECES} pieces"
    if pieces * _rationals_per_piece(net) > MAX_RATIONALS:
        return f"the compiled function would hold more than {MAX_RATIONALS} rationals"
    return None


def _rationals_per_piece(net: Network) -> int:
    """The rationals a compiled piece writes: one constraint per ReLU unit
    and one output row, each of input_dim coefficients and one constant."""
    rows = net.output_dim + sum(layer.dim for layer in net.layers if isinstance(layer, ReluLayer))
    return (net.input_dim + 1) * rows


def relu_nd(n: int) -> PwaFn:
    """Componentwise max(0, x) on R^n as 2^n pieces, one per sign orthant.

    It is compose_relu on the identity: the sign patterns of the
    coordinates themselves, coordinate 0 fastest. These are the bytes the
    paper's construction gives, a 1-d ReLU stacked n times with concat.
    """
    if n < 0:
        raise DimensionError("relu_nd needs a nonnegative dimension")
    return compose_relu(n, identity_pwaf(n))


def nn_linear(weights: Mat, bias: ColVec) -> PwaLayer:
    """A dense layer x -> Wx + b."""
    return PwaLayer(linear_pwaf(weights, bias))


def nn_relu(n: int) -> ReluLayer:
    """A componentwise ReLU layer on R^n."""
    return ReluLayer(n)
