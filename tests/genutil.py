"""Seeded random builders, and the fixed example fixtures, shared across the test modules.

Every random builder takes an explicit random.Random so each test controls its own
seed and reruns are reproducible. Weights stay small (numerators and
denominators bounded by 100) to keep the exact arithmetic quick.
"""

from __future__ import annotations

import importlib.util
import json
import random
from fractions import Fraction
from pathlib import Path

from pwanet import lp
from pwanet.numeric import ColVec, Mat
from pwanet.polyhedra import LinearConstraint, Polyhedron
from pwanet.pwa import AffinePiece, PwaFn, linear_pwaf
from pwanet.network import Network, OutputLayer, nn_linear, nn_relu, transform

from oracles import stacked_relu


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def perfbench_corpus():
    """The benchmark's corpus module, perfbench/corpus.py."""
    spec = importlib.util.spec_from_file_location("corpus", PERFBENCH / "corpus.py")
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    return corpus


EXAMPLE_WEIGHTS = [["2.7", "0"], ["1", "0.01"]]
EXAMPLE_BIAS = ["1", "0.25"]


def example_network() -> Network:
    """Dense 2 -> 2 with decimal-string weights, then ReLU, then output."""
    linear = nn_linear(Mat(EXAMPLE_WEIGHTS), ColVec(EXAMPLE_BIAS))
    return Network(2, 2, (linear, nn_relu(2), OutputLayer(2)))


def scaling_doc(factor: str) -> str:
    """One total piece x -> factor * x, written by hand: it need not be writable."""
    piece = {"constraints": [], "M": [[factor]], "b": ["0"]}
    return json.dumps({"in_dim": 1, "out_dim": 1, "univalence": "unchecked", "pieces": [piece]})


def rational(rng: random.Random, num: int = 100, den: int = 100) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def colvec_of(rng: random.Random, dim: int, num: int = 100, den: int = 100) -> ColVec:
    return ColVec(rational(rng, num, den) for _ in range(dim))


def mat_of(rng: random.Random, rows: int, cols: int, num: int = 100, den: int = 100) -> Mat:
    return Mat(([rational(rng, num, den) for _ in range(cols)] for _ in range(rows)), cols=cols)


def point(rng: random.Random, dim: int) -> ColVec:
    """An evaluation point with small entries, to keep piece scans cheap."""
    return ColVec(Fraction(rng.randint(-40, 40), rng.randint(1, 8)) for _ in range(dim))


def box_polyhedron(rng: random.Random, dim: int, max_constraints: int = 6) -> Polyhedron:
    """A bounded polyhedron: a (possibly infeasible) box plus random cuts.

    Every axis gets both an upper and a lower bound, so the feasible set is
    always bounded; when a lower bound exceeds its upper the set is empty,
    which the callers want to see sometimes.
    """
    constraints = []
    for k in range(dim):
        upper = Fraction(rng.randint(-10, 10))
        lower = Fraction(rng.randint(-10, 10))
        axis = [Fraction(0)] * dim
        axis[k] = Fraction(1)
        constraints.append(LinearConstraint(ColVec(axis), upper))
        axis = [Fraction(0)] * dim
        axis[k] = Fraction(-1)
        constraints.append(LinearConstraint(ColVec(axis), -lower))
    extra = rng.randint(0, max(0, max_constraints - 2 * dim))
    for _ in range(extra):
        c = ColVec(Fraction(rng.randint(-4, 4)) for _ in range(dim))
        constraints.append(LinearConstraint(c, Fraction(rng.randint(-12, 12))))
    return Polyhedron(dim, tuple(constraints))


def random_network(
    rng: random.Random,
    max_pieces: int = 64,
    max_dim: int = 6,
    max_depth: int = 4,
) -> Network:
    """A random chain of linear and ReLU layers ending in an output marker.

    ReLU layers multiply the compiled piece count by 2^dim, so a ReLU is
    demoted to a linear layer whenever it would push the product past
    max_pieces. That keeps compilation and evaluation affordable without
    narrowing the dimension or depth ranges.
    """
    input_dim = rng.randint(1, max_dim)
    depth = rng.randint(1, max_depth)
    layers = []
    current = input_dim
    pieces = 1
    for _ in range(depth):
        kind = rng.choice(("linear", "relu"))
        if kind == "relu" and pieces * (2**current) > max_pieces:
            kind = "linear"
        if kind == "linear":
            out = rng.randint(1, max_dim)
            layers.append(nn_linear(mat_of(rng, out, current), colvec_of(rng, out)))
            current = out
        else:
            layers.append(nn_relu(current))
            pieces *= 2**current
    layers.append(OutputLayer(current))
    return Network(input_dim, current, tuple(layers))


def dense_network(rng: random.Random, widths: tuple[int, ...]) -> Network:
    """linear -> relu per layer: widths (2, 4, 4) is 2 -> 4 -> 4, 256 pieces."""
    layers = []
    for fan_in, fan_out in zip(widths, widths[1:]):
        layers.append(nn_linear(mat_of(rng, fan_out, fan_in), colvec_of(rng, fan_out)))
        layers.append(nn_relu(fan_out))
    layers.append(OutputLayer(widths[-1]))
    return Network(widths[0], widths[-1], tuple(layers))


def corrupt_phase_1(monkeypatch, fault: str) -> list:
    """Corrupt verdicts inside lp before their checks run. With fault
    "multiplier", every certificate that lp._checked_support checks, from
    either decider (a phase 1 of lp._Simplex or lp._LowDim), gets its
    first entry raised by one; with "point", only lp._Simplex's basic
    point moves, by 1000 in every coordinate (corrupt_hyperplane_point
    does the same for lp._LowDim). Returns the list of verdicts corrupted
    so far."""
    corrupted = []
    if fault == "multiplier":
        checked_support = lp._checked_support

        def corrupt(rows, certificate):
            corrupted.append(certificate)
            return checked_support(rows, (certificate[0] + 1,) + certificate[1:])

        monkeypatch.setattr(lp, "_checked_support", corrupt)
    else:
        basic_point = lp._Simplex._basic_point

        def corrupt(self):
            den, ints = basic_point(self)
            corrupted.append((den, ints))
            return den, [a + 1000 * den for a in ints]

        monkeypatch.setattr(lp._Simplex, "_basic_point", corrupt)
    return corrupted


def corrupt_hyperplane_point(monkeypatch) -> list:
    """Corrupt every point that lp._on_hyperplane finds, on the way to a
    verdict of lp._LowDim that goes on to be checked: it moves by 1000 in
    every coordinate. Returns the list of points corrupted so far."""
    corrupted = []
    on_hyperplane = lp._on_hyperplane

    def corrupt(n, rows, h):
        feasible, found = on_hyperplane(n, rows, h)
        if feasible:
            corrupted.append(found)
            den, ints = found
            found = den, [a + 1000 * den for a in ints]
        return feasible, found

    monkeypatch.setattr(lp, "_on_hyperplane", corrupt)
    return corrupted


def corrupt_walk_multiplier(monkeypatch) -> list:
    """Corrupt the multipliers of every empty verdict of an outermost
    lp._advanced call, before they are lifted or checked: the first
    positive one is raised by one. The walk's own recursion is left as
    it is. Returns the list of multipliers corrupted so far."""
    corrupted, depth = [], []
    advanced = lp._advanced

    def corrupt(n, rows, point, start):
        depth.append(n)
        try:
            feasible, found = advanced(n, rows, point, start)
        finally:
            depth.pop()
        if not feasible and not depth:
            corrupted.append(found)
            k = next(k for k, y in enumerate(found) if y)
            found = found[:k] + [found[k] + 1] + found[k + 1 :]
        return feasible, found

    monkeypatch.setattr(lp, "_advanced", corrupt)
    return corrupted


def single_piece(poly: Polyhedron, m: Mat | None = None) -> PwaFn:
    """poly as the domain of one piece: m (default the zero map onto R^0) and a zero offset."""
    m = Mat([], cols=poly.dim) if m is None else m
    return PwaFn(poly.dim, m.rows, (AffinePiece(poly, m, ColVec([0] * m.rows)),))


def restricted_affine(rng: random.Random, in_dim: int, out_dim: int) -> PwaFn:
    """A single affine piece over a bounded polyhedron: a partial function."""
    piece = AffinePiece(
        box_polyhedron(rng, in_dim),
        mat_of(rng, out_dim, in_dim),
        colvec_of(rng, out_dim),
    )
    return PwaFn(in_dim, out_dim, (piece,))


def univalent_fn(
    rng: random.Random,
    in_dim: int,
    max_pieces: int = 8,
    allow_partial: bool = True,
) -> PwaFn:
    """A function that is univalent by construction.

    Single affine pieces cannot conflict with themselves; ReLU stacks and
    compiled linear/ReLU networks inherit univalence from the operators
    that build them. The status is left as produced: "verified" for
    everything but a restricted affine piece, which stays "unchecked".
    check_univalence rescans regardless, so callers still exercise it.
    """
    kinds = ["linear", "net"]
    if 2**in_dim <= max_pieces:
        kinds.append("relu")
    if allow_partial:
        kinds.append("restricted")
    kind = rng.choice(kinds)
    if kind == "linear":
        out_dim = rng.randint(1, 4)
        return linear_pwaf(mat_of(rng, out_dim, in_dim), colvec_of(rng, out_dim))
    if kind == "relu":
        return stacked_relu(in_dim)
    if kind == "restricted":
        return restricted_affine(rng, in_dim, rng.randint(1, 4))
    layers = []
    current = in_dim
    pieces = 1
    for _ in range(rng.randint(1, 2)):
        if rng.random() < 0.5 and pieces * (2**current) <= max_pieces:
            layers.append(nn_relu(current))
            pieces *= 2**current
        else:
            out = rng.randint(1, 4)
            layers.append(nn_linear(mat_of(rng, out, current), colvec_of(rng, out)))
            current = out
    layers.append(OutputLayer(current))
    fn = transform(Network(in_dim, current, tuple(layers)))
    assert fn is not None
    return fn
