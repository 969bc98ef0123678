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
ColVec, and a constraint's raw text, its c row with its b, to its
LinearConstraint. Repeated text is parsed once and the pieces share those
immutable objects; a malformed document fails where, and with the
message, it would if every entry were read afresh.

serialize_pwa writes the bytes json.dumps(doc, indent=2) would, plus a
newline, but lays them out directly: with indent, json uses its slow
pure-Python encoder. Nothing needs escaping, since the keys are fixed, the
tag is one of three words and format_scalar writes only digits, "-" and
"/". Each distinct constraint object and map row is rendered once per
call, as export_smt renders each distinct constraint once.

The SMT export targets QF_LRA: constants x_0..x_{n-1} and y_0..y_{m-1},
and per piece one assertion (=> <membership> <output rows>). It contains
no check-sat, so callers can conjoin their own assertions after it.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .numeric import ColVec, Mat, _unchecked_mat, _unchecked_vec, format_scalar, parse_scalar
from .polyhedra import LinearConstraint, _unchecked_constraint, _unchecked_polyhedron
from .pwa import _STATUSES, AffinePiece, PwaFn, _unchecked_piece, _unchecked_pwafn
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
    even looked up. constraints maps a constraint's raw text, the pair
    (tuple of c, b), to its LinearConstraint; a pair is stored only once it
    has parsed, so a hit is a repeat of valid text. The table lives as long
    as one parse call.
    """

    __slots__ = ("literals", "rows", "constraints")

    def __init__(self):
        self.literals: dict[str, Fraction] = {}
        self.rows: dict[tuple[str, ...], ColVec] = {}
        self.constraints: dict[tuple, LinearConstraint] = {}

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
            vec = _unchecked_vec(
                tuple([self.scalar(v, f"{where}[{i}]") for i, v in enumerate(value)])
            )
            self.rows[key] = vec
        if len(vec) != dim:
            raise ParseError(f"{where}: expected {dim} entries, got {len(vec)}")
        return vec

    def constraint(self, raw, dim, where, k) -> LinearConstraint:
        """Constraint k of the piece at where, from its raw {"c": [...], "b": ...}.

        A repeat of a raw text that parsed before is the stored constraint,
        found before any location string is made; anything else is read
        afresh, so it fails as a first reading would.
        """
        key = None
        if isinstance(raw, dict) and isinstance(raw.get("c"), list):
            try:
                key = tuple(raw["c"]), raw["b"]
                lc = self.constraints.get(key)
            except (KeyError, TypeError):
                key = lc = None
            if lc is not None:
                return lc
        cwhere = f"{where} constraint {k}"
        c = self.vector(_get(raw, "c", cwhere), dim, f"{cwhere}.c")
        lc = _unchecked_constraint(c, self.scalar(_get(raw, "b", cwhere), f"{cwhere}.b"))
        if key is not None:
            self.constraints[key] = lc
        return lc

    def matrix(self, value, rows, cols, where) -> Mat:
        if not isinstance(value, list):
            raise ParseError(f"{where}: expected a list of rows")
        if len(value) != rows:
            raise ParseError(f"{where}: expected {rows} rows, got {len(value)}")
        body = tuple(self.vector(row, cols, f"{where}[{i}]").entries for i, row in enumerate(value))
        # read.vector has checked every row's width against cols.
        return _unchecked_mat(body, cols)


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
        constraints = tuple(
            [read.constraint(rc, in_dim, where, k) for k, rc in enumerate(raw_constraints)]
        )
        m = read.matrix(_get(raw, "M", where), out_dim, in_dim, f"{where}.M")
        b = read.vector(_get(raw, "b", where), out_dim, f"{where}.b")
        # The reader has checked every width against in_dim and out_dim.
        pieces.append(_unchecked_piece(_unchecked_polyhedron(in_dim, constraints), m, b))
    return _unchecked_pwafn(in_dim, out_dim, tuple(pieces), tag, claimed=True)


def _block(open_: str, close: str, items: list[str], depth: int) -> str:
    """items in a container at depth, laid out as json.dumps(indent=2) does."""
    if not items:
        return open_ + close
    pad = "\n" + "  " * depth
    return open_ + pad + "  " + ("," + pad + "  ").join(items) + pad + close


def _strings(row, depth: int) -> str:
    return _block("[", "]", [f'"{format_scalar(a)}"' for a in row], depth)


def serialize_pwa(fn: PwaFn) -> str:
    """The canonical document of fn: json.dumps(doc, indent=2) and a newline.

    Every constraint and map row sits at depth 4, so each distinct
    constraint object and row is rendered once; fn keeps every one alive,
    so their ids stay put for the whole call.
    """
    constraints: dict[int, str] = {}
    rows: dict[int, str] = {}

    def constraint(lc: LinearConstraint) -> str:
        text = constraints.get(id(lc))
        if text is None:
            fields = [f'"c": {_strings(lc.c, 5)}', f'"b": "{format_scalar(lc.b)}"']
            text = constraints[id(lc)] = _block("{", "}", fields, 4)
        return text

    def row(entries) -> str:
        text = rows.get(id(entries))
        if text is None:
            text = rows[id(entries)] = _strings(entries, 4)
        return text

    def piece_text(piece: AffinePiece) -> str:
        cons = _block("[", "]", [*map(constraint, piece.polyhedron.constraints)], 3)
        m = _block("[", "]", [*map(row, piece.M.entries)], 3)
        fields = [f'"constraints": {cons}', f'"M": {m}', f'"b": {_strings(piece.b, 3)}']
        return _block("{", "}", fields, 2)

    fields = [
        f'"in_dim": {fn.in_dim}',
        f'"out_dim": {fn.out_dim}',
        f'"univalence": "{fn.univalence}"',
        f'"pieces": {_block("[", "]", [*map(piece_text, fn.pieces)], 1)}',
    ]
    return _block("{", "}", fields, 0) + "\n"


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
