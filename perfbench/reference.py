"""Independent reference for the benchmark's correctness checks.

Plain Fractions and the json module only: nothing here imports pwanet, so
a defect in the library cannot hide itself by also breaking its oracle.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction


def forward(layers, x):
    """The network as written: y = max(0, W x + b) for each layer."""
    for weights, bias in layers:
        x = tuple(
            max(Fraction(0), sum((w * v for w, v in zip(row, x)), Fraction(0)) + b)
            for row, b in zip(weights, bias)
        )
    return x


def parse_pieces(text: str):
    """The pieces of a PWA document as ([(c, b), ...], M, b) Fraction tuples."""
    pieces = []
    for raw in json.loads(text)["pieces"]:
        constraints = [
            (tuple(Fraction(a) for a in rc["c"]), Fraction(rc["b"]))
            for rc in raw["constraints"]
        ]
        m = [tuple(Fraction(a) for a in row) for row in raw["M"]]
        b = tuple(Fraction(a) for a in raw["b"])
        pieces.append((constraints, m, b))
    return pieces


def _dot(u, v) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def contains(piece, x) -> bool:
    return all(_dot(c, x) <= b for c, b in piece[0])


def apply(piece, x):
    _, m, b = piece
    return tuple(_dot(row, x) + off for row, off in zip(m, b))


def evaluate(pieces, x):
    """Value of the first piece containing x, or None outside the domain."""
    for piece in pieces:
        if contains(piece, x):
            return apply(piece, x)
    return None


def pieces_digest(text: str) -> str:
    """sha256 of the piece list alone, so the univalence tag may change."""
    pieces = json.loads(text)["pieces"]
    canonical = json.dumps(pieces, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


_VIOLATION = re.compile(
    r"violation: pieces (\d+) and (\d+) differ in row (\d+) at point \((.*)\)\n\Z"
)


def violation_error(pieces, stdout: str):
    """None when stdout names a real violation of these pieces, else why not.

    The witness must lie in both named pieces, and the named output row
    must differ between them there.
    """
    match = _VIOLATION.match(stdout)
    if match is None:
        return f"not a violation line: {stdout!r}"
    i, j, row = (int(g) for g in match.group(1, 2, 3))
    if not (0 <= i < j < len(pieces)):
        return f"piece indices {i}, {j} out of range"
    text = match.group(4)
    x = tuple(Fraction(part) for part in text.split(", ")) if text else ()
    if not (contains(pieces[i], x) and contains(pieces[j], x)):
        return f"witness {text} is not in both pieces {i} and {j}"
    if apply(pieces[i], x)[row] == apply(pieces[j], x)[row]:
        return f"pieces {i} and {j} agree in row {row} at {text}"
    return None
