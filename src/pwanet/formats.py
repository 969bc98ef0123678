"""On-disk formats: JSON documents for networks and PWA functions, SMT export.

Scalars in both JSON schemas are strings, never JSON numbers, so nothing is
ever routed through floating point: "2.7" means exactly 27/10, and "p/q"
forms are accepted too. Serialization always writes the canonical reduced
form, which makes serialize(parse(serialize(f))) byte-identical.

Network document:

    {"input_dim": 2, "output_dim": 2,
     "layers": [{"kind": "linear", "weights": [["2.7", "0"], ["1", "0.01"]],
                 "bias": ["1", "0.25"]},
                {"kind": "relu", "dim": 2},
                {"kind": "output"}]}

An {"kind": "unknown", "in_dim": a, "out_dim": b} layer marks a layer the
file cannot describe; it evaluates to nothing and blocks compilation. A
relu layer is read as its dim alone, so any width parses at the same cost.

PWA document:

    {"in_dim": 1, "out_dim": 1, "univalence": "unchecked",
     "pieces": [{"constraints": [{"c": ["1"], "b": "0"}],
                 "M": [["0"]], "b": ["0"]}, ...]}

"univalence" is one of "unchecked", "verified", "refuted"; a refuted
document does not carry the witness. The tag is read back as written,
so documents round-trip byte for byte, but the parsed function marks it as
claimed: compose and concat do not carry a claimed "verified" into their
results, and check_univalence never relies on any tag.

Each document is read with one table that lives for that parse call: the
raw text of a literal maps to its Fraction, a raw row of strings to its
ColVec, and a row with its bound to its LinearConstraint. Repeated text
is parsed once and the pieces share those immutable objects; a
malformed document fails where, and with the message, it would if every
entry were read afresh.

The SMT export targets QF_LRA: constants x_0..x_{n-1} and y_0..y_{m-1},
and per piece one assertion (=> <membership> <output rows>). It contains
no check-sat, so callers can conjoin their own assertions after it.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .numeric import ColVec, Mat, format_scalar, parse_scalar
from .polyhedra import LinearConstraint, Polyhedron
from .pwa import _STATUSES, AffinePiece, PwaFn
from .network import Network, OutputLayer, UnknownLayer, nn_linear, nn_relu


class ParseError(ValueError):
    """The document text does not follow the schema."""


def _load_json(text: str):
    try:
        return json.loads(text)
    except ValueError as exc:
        # JSONDecodeError, or an integer literal past the digit limit.
        raise ParseError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None


def _get(obj, key, where):
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object")
    if key not in obj:
        raise ParseError(f"{where}: missing key {key!r}")
    return obj[key]


def _nat(value, where) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ParseError(f"{where}: expected a nonnegative integer")
    return value


class _Reader:
    """One document's parse table: each distinct literal and row is read once.

    literals maps a scalar's raw text to its Fraction, and rows maps a raw
    row (a tuple of strings) to its ColVec, so repeated text yields the very
    same immutable object. Only values that parsed are stored, and a row's
    width is checked on every use, so a malformed document fails where and
    how it would without the table. A row holding something other than
    strings never parses, so it is never stored; an unhashable one is not
    even looked up. constraints maps the ids of a row and a bound, which
    the other two tables keep alive, to their LinearConstraint. The table
    lives as long as one parse call.
    """

    __slots__ = ("literals", "rows", "constraints")

    def __init__(self):
        self.literals: dict[str, Fraction] = {}
        self.rows: dict[tuple[str, ...], ColVec] = {}
        self.constraints: dict[tuple[int, int], LinearConstraint] = {}

    def scalar(self, value, where) -> Fraction:
        q = self.literals.get(value) if isinstance(value, str) else None
        if q is None:
            if not isinstance(value, str):
                raise ParseError(f"{where}: scalars must be strings, got {value!r}")
            try:
                q = self.literals[value] = parse_scalar(value)
            except ValueError as exc:
                raise ParseError(f"{where}: {exc}") from None
        return q

    def vector(self, value, dim, where) -> ColVec:
        if not isinstance(value, list):
            raise ParseError(f"{where}: expected a list")
        key = tuple(value)
        try:
            vec = self.rows.get(key)
        except TypeError:
            vec = None
        if vec is None:
            vec = ColVec([self.scalar(v, f"{where}[{i}]") for i, v in enumerate(value)])
            self.rows[key] = vec
        if len(vec) != dim:
            raise ParseError(f"{where}: expected {dim} entries, got {len(vec)}")
        return vec

    def constraint(self, c: ColVec, b: Fraction) -> LinearConstraint:
        key = id(c), id(b)
        lc = self.constraints.get(key)
        if lc is None:
            lc = self.constraints[key] = LinearConstraint(c, b)
        return lc

    def matrix(self, value, rows, cols, where) -> Mat:
        if not isinstance(value, list):
            raise ParseError(f"{where}: expected a list of rows")
        if len(value) != rows:
            raise ParseError(f"{where}: expected {rows} rows, got {len(value)}")
        body = [self.vector(row, cols, f"{where}[{i}]").entries for i, row in enumerate(value)]
        return Mat(body, cols=cols)


def parse_network(text: str) -> Network:
    """Read a network document.

    Every layer is parsed before the Network is built, so a ParseError
    comes before the DimensionError of a chain that does not fit.
    """
    doc = _load_json(text)
    read = _Reader()
    input_dim = _nat(_get(doc, "input_dim", "network"), "input_dim")
    output_dim = _nat(_get(doc, "output_dim", "network"), "output_dim")
    raw_layers = _get(doc, "layers", "network")
    if not isinstance(raw_layers, list):
        raise ParseError("layers: expected a list")
    layers = []
    for i, raw in enumerate(raw_layers):
        where = f"layer {i}"
        kind = _get(raw, "kind", where)
        if kind == "linear":
            raw_weights = _get(raw, "weights", where)
            if not isinstance(raw_weights, list) or not raw_weights:
                raise ParseError(f"{where}: weights must be a non-empty list of rows")
            first = raw_weights[0]
            if not isinstance(first, list):
                raise ParseError(f"{where}: weights must be a list of rows")
            weights = read.matrix(raw_weights, len(raw_weights), len(first), f"{where}.weights")
            bias = read.vector(_get(raw, "bias", where), weights.rows, f"{where}.bias")
            layers.append(nn_linear(weights, bias))
        elif kind == "relu":
            layers.append(nn_relu(_nat(_get(raw, "dim", where), f"{where}.dim")))
        elif kind == "output":
            layers.append(OutputLayer(output_dim))
        elif kind == "unknown":
            layers.append(
                UnknownLayer(
                    _nat(_get(raw, "in_dim", where), f"{where}.in_dim"),
                    _nat(_get(raw, "out_dim", where), f"{where}.out_dim"),
                )
            )
        else:
            raise ParseError(f"{where}: unknown kind {kind!r}")
    return Network(input_dim, output_dim, tuple(layers))


def parse_pwa(text: str) -> PwaFn:
    doc = _load_json(text)
    in_dim = _nat(_get(doc, "in_dim", "function"), "in_dim")
    out_dim = _nat(_get(doc, "out_dim", "function"), "out_dim")
    tag = _get(doc, "univalence", "function")
    if tag not in _STATUSES:
        raise ParseError(f"univalence: unknown tag {tag!r}")
    raw_pieces = _get(doc, "pieces", "function")
    if not isinstance(raw_pieces, list):
        raise ParseError("pieces: expected a list")
    read = _Reader()
    pieces = []
    for i, raw in enumerate(raw_pieces):
        where = f"piece {i}"
        raw_constraints = _get(raw, "constraints", where)
        if not isinstance(raw_constraints, list):
            raise ParseError(f"{where}: constraints must be a list")
        constraints = []
        for k, rc in enumerate(raw_constraints):
            cwhere = f"{where} constraint {k}"
            c = read.vector(_get(rc, "c", cwhere), in_dim, f"{cwhere}.c")
            b = read.scalar(_get(rc, "b", cwhere), f"{cwhere}.b")
            constraints.append(read.constraint(c, b))
        m = read.matrix(_get(raw, "M", where), out_dim, in_dim, f"{where}.M")
        b = read.vector(_get(raw, "b", where), out_dim, f"{where}.b")
        pieces.append(AffinePiece(Polyhedron(in_dim, tuple(constraints)), m, b))
    return PwaFn(in_dim, out_dim, pieces, univalence=tag, claimed=True)


def serialize_pwa(fn: PwaFn) -> str:
    doc = {
        "in_dim": fn.in_dim,
        "out_dim": fn.out_dim,
        "univalence": fn.univalence,
        "pieces": [
            {
                "constraints": [
                    {
                        "c": [format_scalar(a) for a in lc.c],
                        "b": format_scalar(lc.b),
                    }
                    for lc in piece.polyhedron.constraints
                ],
                "M": [[format_scalar(a) for a in row] for row in piece.M.entries],
                "b": [format_scalar(a) for a in piece.b],
            }
            for piece in fn.pieces
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def _smt_rat(q: Fraction) -> str:
    if q.denominator == 1:
        return format_scalar(q) if q >= 0 else f"(- {format_scalar(-q)})"
    core = f"(/ {format_scalar(abs(q.numerator))} {format_scalar(q.denominator)})"
    return core if q > 0 else f"(- {core})"


def _smt_linear(coeffs, constant=None) -> str:
    terms = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        terms.append(f"x_{k}" if c == 1 else f"(* {_smt_rat(c)} x_{k})")
    if constant is not None and constant != 0:
        terms.append(_smt_rat(constant))
    if not terms:
        return "0"
    if len(terms) == 1:
        return terms[0]
    return "(+ " + " ".join(terms) + ")"


def _smt_join(op: str, unit: str, parts) -> str:
    """(op part ...), with no parts giving unit and one part giving itself."""
    parts = list(parts)
    if not parts:
        return unit
    if len(parts) == 1:
        return parts[0]
    return f"({op} " + " ".join(parts) + ")"


def export_smt(fn: PwaFn, assert_domain: bool = False) -> str:
    """Emit a QF_LRA script relating inputs x_* to outputs y_* piece by piece.

    Each piece contributes one implication: membership in its polyhedron
    forces every output row to equal its affine expression. With
    assert_domain, one more assertion places x inside some piece.
    """
    # Each distinct constraint object, and each distinct (map row, offset)
    # pair of objects, is written once: the pieces of a parsed function
    # share theirs, and fn keeps every one alive, so the ids stay put for
    # the whole call.
    atoms: dict[int, str] = {}
    terms: dict[tuple[int, int], str] = {}

    def atom(lc: LinearConstraint) -> str:
        text = atoms.get(id(lc))
        if text is None:
            text = atoms[id(lc)] = f"(<= {_smt_linear(lc.c.entries)} {_smt_rat(lc.b)})"
        return text

    def term(row, offset: Fraction) -> str:
        key = id(row), id(offset)
        text = terms.get(key)
        if text is None:
            text = terms[key] = _smt_linear(row, offset)
        return text

    conditions = [
        _smt_join("and", "true", map(atom, piece.polyhedron.constraints)) for piece in fn.pieces
    ]
    lines = ["(set-logic QF_LRA)"]
    for k in range(fn.in_dim):
        lines.append(f"(declare-const x_{k} Real)")
    for r in range(fn.out_dim):
        lines.append(f"(declare-const y_{r} Real)")
    for piece, condition in zip(fn.pieces, conditions):
        rows = _smt_join(
            "and",
            "true",
            (f"(= y_{r} {term(piece.M.entries[r], piece.b[r])})" for r in range(fn.out_dim)),
        )
        lines.append(f"(assert (=> {condition} {rows}))")
    if assert_domain:
        lines.append(f"(assert {_smt_join('or', 'false', conditions)})")
    return "\n".join(lines) + "\n"
