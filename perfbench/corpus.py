"""Seeded inputs for the benchmark: networks, points and refuted variants.

Each shape has one fixed base network, drawn from BASE_SEED. The run seed
picks a relabelling of it: the input coordinates and the units of every
layer are permuted. That changes the bytes the program sees (weight order,
piece order, LP column order, pivot paths) but keeps the amount of work
fixed: the activation regions map one to one, so the number of pieces, of
non-empty pieces and of overlapping pairs is the same for every seed.
Fresh random weights per seed made the check time vary tenfold between
seeds, which no bound could absorb.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

BASE_SEED = 1

# Layer widths, input first. A pass over a workload's shapes takes a few
# seconds, so one run times every operation at least six times.
SHAPES = {
    "compile": [(2, 3, 3), (2, 4, 3), (3, 3, 2), (2, 3, 3, 2)],
    "check": [(2, 2, 2), (2, 3, 2), (3, 3, 2), (2, 3, 3, 2)],
    "eval": [(2, 3, 3), (2, 4, 4), (3, 3, 2)],
}

# A few-second corpus for the smoke test: same code paths, tiny shapes.
TINY_SHAPES = {
    "compile": [(1, 2), (2, 2)],
    "check": [(1, 2), (2, 2)],
    "eval": [(1, 2), (2, 2)],
}

POINTS_PER_NETWORK = 1000


def shape_name(shape) -> str:
    return "-".join(str(w) for w in shape)


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-3, 3), rng.randint(1, 2))


def base_layers(shape):
    """Weights and biases of the base network of a shape, as Fractions."""
    rng = random.Random(f"{BASE_SEED}:{shape_name(shape)}")
    layers = []
    for a, b in zip(shape, shape[1:]):
        weights = [[_rational(rng) for _ in range(a)] for _ in range(b)]
        bias = [_rational(rng) for _ in range(b)]
        layers.append((weights, bias))
    return layers


def relabelled_layers(shape, seed: int):
    """The base network with seeded permutations of inputs and of units.

    Layer k's rows are permuted by p_k, and its columns by p_{k-1}, the
    permutation already applied to the units feeding it. ReLU acts
    coordinate-wise, so the result computes the base function with permuted
    inputs and outputs, and its regions are the base regions relabelled.
    """
    rng = random.Random(f"{seed}:{shape_name(shape)}")
    previous = list(range(shape[0]))
    rng.shuffle(previous)
    layers = []
    for weights, bias in base_layers(shape):
        rows = list(range(len(weights)))
        rng.shuffle(rows)
        layers.append(
            (
                [[weights[r][c] for c in previous] for r in rows],
                [bias[r] for r in rows],
            )
        )
        previous = rows
    return layers


def network_document(layers) -> str:
    """A dense linear->relu network in the pwanet JSON schema."""
    doc_layers = []
    for weights, bias in layers:
        doc_layers.append(
            {
                "kind": "linear",
                "weights": [[str(w) for w in row] for row in weights],
                "bias": [str(v) for v in bias],
            }
        )
        doc_layers.append({"kind": "relu", "dim": len(bias)})
    doc_layers.append({"kind": "output"})
    return json.dumps(
        {
            "input_dim": len(layers[0][0][0]),
            "output_dim": len(layers[-1][1]),
            "layers": doc_layers,
        },
        indent=2,
    ) + "\n"


def points(shape, seed: int, count: int):
    """Small-rational evaluation points for one network."""
    rng = random.Random(f"points:{seed}:{shape_name(shape)}")
    return [
        tuple(Fraction(rng.randint(-40, 40), rng.randint(1, 8)) for _ in range(shape[0]))
        for _ in range(count)
    ]


def refuted_document(pwa_text: str) -> str:
    """The PWA document with 1 added to row 0 of the first piece's offset.

    The first piece's pairs come first in the checker's scan, so it stops
    within n - 1 pairs, at the first piece that overlaps it. Which region
    is first depends on the seed's relabelling.
    """
    doc = json.loads(pwa_text)
    offset = doc["pieces"][0]["b"]
    offset[0] = str(Fraction(offset[0]) + 1)
    return json.dumps(doc, indent=2) + "\n"
