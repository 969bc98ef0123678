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

A ReLU layer holds only its width: nn_eval takes max(0, x)
componentwise, and transform pulls the 2^n sign patterns back through the
prefix directly (pwa_algebra.compose_relu). relu_nd(n), the ReLU as 2^n
explicit pieces, is that pullback through the identity, and a leading
ReLU layer compiles to it. The paper stacks two-piece 1-d ReLUs with
concat instead; that construction gives the same bytes and is kept in
the tests as the oracle for compose_relu.
non_pwa_layer names the layer that keeps a network from compiling, and
oversize says why a network is too large to compile: a piece_product past
MAX_PIECES, or a compiled file of more than MAX_RATIONALS rationals.
"""

from __future__ import annotations

from typing import Callable, Optional, Union, get_args

from .numeric import ColVec, DimensionError, Mat, _Frozen
from .pwa import PwaFn, evaluate, identity_pwaf, linear_pwaf
from .pwa_algebra import _carried, compose, compose_relu

MAX_PIECES = 4096
# A 12-wide ReLU on 12 inputs writes 4,096 * 13 * 24 = 1,277,952 rationals.
MAX_RATIONALS = 2**21


class OutputLayer(_Frozen):
    """Terminates the network and passes its input through unchanged."""

    __match_args__ = ("dim",)

    def __init__(self, dim: int):
        self.__dict__.update(dim=dim)

    @property
    def in_dim(self) -> int:
        return self.dim

    @property
    def out_dim(self) -> int:
        return self.dim


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


class ReluLayer(_Frozen):
    """Componentwise max(0, x) on R^dim, known by its width alone."""

    __match_args__ = ("dim",)

    def __init__(self, dim: int):
        if dim < 0:
            raise DimensionError("relu layer dimension must be nonnegative")
        self.__dict__.update(dim=dim)

    @property
    def in_dim(self) -> int:
        return self.dim

    @property
    def out_dim(self) -> int:
        return self.dim


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
    """
    if x.dim != net.input_dim:
        raise DimensionError(f"input of dim {x.dim} into network on dim {net.input_dim}")
    current = x
    for layer in net.layers[:-1]:
        if isinstance(layer, UnknownLayer):
            return None
        if isinstance(layer, PwaLayer):
            current = evaluate(layer.fn, current)
            if current is None:
                return None
        elif isinstance(layer, ReluLayer):
            current = ColVec(max(e, 0) for e in current)
        else:
            current = layer.fn(current)
            if current.dim != layer.out_dim:
                raise DimensionError(
                    f"host function produced dim {current.dim}, layer declares "
                    f"{layer.out_dim}"
                )
    return current


def transform(net: Network) -> Optional[PwaFn]:
    """Collapse an all-PWA network into one PwaFn; None if any layer resists.

    The PWA and ReLU layers before the output marker are composed from the
    first to the last: the fold starts from the first layer's own pieces
    (relu_nd for a leading ReLU layer), and after layer i the prefix is
    compose(layer_i, prefix), or compose_relu for a ReLU layer. Pulling a
    layer back through the identity would copy it unchanged, so no
    identity seed is built: a wide first layer costs its own size, not the
    square of its input width. Exact pullbacks are associative, so this
    gives the same bytes as composing from the last layer back onto the
    marker's identity, with every ReLU as its 2^n explicit pieces: the
    same pieces in the same order (first layer's pieces slowest), the same
    constraints in the same order, the same rationals. Folding forward
    pulls each layer's constraints back only through the layers before it,
    never again through the first. An empty chain is the identity on the
    input. On the common layers the result evaluates exactly like
    nn_eval. Every layer that parse_network builds is univalent by
    construction, so its compile is verified too.
    """
    if non_pwa_layer(net) is not None:
        return None
    dim = net.input_dim
    if len(net.layers) == 1:
        return identity_pwaf(dim)
    first = net.layers[0]
    if isinstance(first, ReluLayer):
        fn = relu_nd(dim)
    else:
        fn = PwaFn(dim, first.out_dim, first.fn.pieces, univalence=_carried(first.fn))
    for layer in net.layers[1:-1]:
        fn = compose_relu(layer.dim, fn) if isinstance(layer, ReluLayer) else compose(layer.fn, fn)
    return fn


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


def oversize(net: Network) -> Optional[str]:
    """Why transform(net) is too large to build and write; None when it fits.

    The compile is refused past MAX_PIECES pieces (piece_product), or
    past MAX_RATIONALS rationals in the written file. Both are read off
    the layers, so the answer comes before any piece is built.
    """
    pieces = piece_product(net)
    if pieces > MAX_PIECES:
        return f"the compiled function would have more than {MAX_PIECES} pieces"
    # Each piece holds one constraint per ReLU unit and one output row,
    # each of input_dim coefficients and one constant.
    rows = net.output_dim + sum(layer.dim for layer in net.layers if isinstance(layer, ReluLayer))
    if pieces * (net.input_dim + 1) * rows > MAX_RATIONALS:
        return f"the compiled function would hold more than {MAX_RATIONALS} rationals"
    return None


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
