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

Each document is read with one table (_Reader.known) that maps raw text
to what it parsed to, so the pieces share those immutable objects.
parse_pwa finds a repeated constraint, map row or offset in one lookup of
its raw text; a first appearance, or anything malformed, goes to the item
reader. That reader looks each row and literal up with dict.get and parses
only new literals, so a well-formed item raises and catches nothing; a
malformed one fails where, and with the message, a reading of every entry
afresh would, and makes location text only then. parse_network reads every
item through the same reader.

serialize_pwa writes json.dumps(doc, indent=2) plus a newline, laid out
from templates and precomputed indents (json's indenting encoder is slow
pure Python; nothing here needs escaping). export_smt writes QF_LRA:
constants x_0..x_{n-1} and y_0..y_{m-1}, per piece one assertion
(=> <membership> <output rows>), and no check-sat, so callers can add
their own; each rational is written from its numerator and denominator.
Both writers render each distinct constraint object and map row once,
and raise format_scalar's ScalarTooLong for a rational too long to write.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .numeric import ColVec, Mat, _too_long, _unchecked_mat, _unchecked_vec, parse_scalar
from .polyhedra import LinearConstraint, _unchecked_constraint, _unchecked_polyhedron
from .pwa import _STATUSES, PwaFn, _unchecked_piece, _unchecked_pwafn
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
    """One document's parse table, known, and the reader of its items.

    known maps a literal's text, a raw row (a tuple) and a constraint's
    (tuple of c, b) to what they parsed to; no key of one kind equals one of
    another (JSON has no tuples). Only text that parsed is stored, and a
    row's width is checked on every use. A well-formed item is read with
    lookups and parse_scalar on its new literals alone; an index joins a
    location only when its entry fails.
    """

    __slots__ = ("known",)

    def __init__(self):
        self.known: dict = {}

    def scalar(self, value, where, *at) -> Fraction:
        q = self.known.get(value) if isinstance(value, str) else None
        if q is None:
            try:
                if not isinstance(value, str):
                    raise ValueError(f"scalars must be strings, got {value!r}")
                q = self.known[value] = parse_scalar(value)
            except ValueError as exc:
                raise ParseError(f"{_at(where, at)}: {exc}") from None
        return q

    def vector(self, value, dim, where, *at) -> ColVec:
        if not isinstance(value, list):
            raise ParseError(f"{_at(where, at)}: expected a list")
        get = self.known.get
        try:
            vec = get(key := tuple(value))
        except TypeError:
            vec = None
        if vec is None:
            entries = []
            for v in value:
                if type(v) is not str or (q := get(v)) is None:
                    q = self.scalar(v, where, *at, len(entries))
                entries.append(q)
            vec = self.known[key] = _unchecked_vec(tuple(entries))
        if len(value) != dim:
            raise ParseError(f"{_at(where, at)}: expected {dim} entries, got {len(value)}")
        return vec

    def constraint(self, raw, dim, k) -> LinearConstraint:
        """Constraint k of a piece, read and stored under its raw text."""
        try:
            c = self.vector(_get(raw, "c", ""), dim, ".c")
            lc = _unchecked_constraint(c, self.scalar(_get(raw, "b", ""), ".b"))
        except ParseError as exc:
            raise ParseError(f" constraint {k}{exc}") from None
        self.known[tuple(raw["c"]), raw["b"]] = lc
        return lc

    def matrix(self, value, rows, cols, where) -> Mat:
        if not isinstance(value, list):
            raise ParseError(f"{where}: expected a list of rows")
        if len(value) != rows:
            raise ParseError(f"{where}: expected {rows} rows, got {len(value)}")
        body = tuple([self.vector(row, cols, where, i).entries for i, row in enumerate(value)])
        # read.vector has checked every row's width against cols.
        return _unchecked_mat(body, cols)


def _at(where: str, at: tuple) -> str:
    """The location where followed by an index in brackets per entry of at."""
    return where + "".join([f"[{k}]" for k in at])


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
    get = read.known.get
    pieces = []
    for i, raw in enumerate(raw_pieces):
        # An item that repeats text read before is one table lookup; a miss,
        # or anything malformed, goes to the item reader, whose errors are
        # located within the piece and get its number on the way out.
        try:
            rcs = _get(raw, "constraints", "")
            if not isinstance(rcs, list):
                raise ParseError(": constraints must be a list")
            cons = []
            for k, rc in enumerate(rcs):
                try:
                    lc = get((tuple(c) if type(c := rc["c"]) is list else None, rc["b"]))
                except (KeyError, TypeError):
                    lc = None
                cons.append(read.constraint(rc, in_dim, k) if lc is None else lc)
            rm = _get(raw, "M", "")
            if not isinstance(rm, list) or len(rm) != out_dim:
                read.matrix(rm, out_dim, in_dim, ".M")  # raises
            rows = []
            for j, r in enumerate(rm):
                try:
                    vec = get(tuple(r) if type(r) is list and len(r) == in_dim else None)
                except TypeError:
                    vec = None
                rows.append(read.vector(r, in_dim, ".M", j) if vec is None else vec)
            rb = _get(raw, "b", "")
            try:
                b = get(tuple(rb) if type(rb) is list and len(rb) == out_dim else None)
            except TypeError:
                b = None
            if b is None:
                b = read.vector(rb, out_dim, ".b")
        except ParseError as exc:
            raise ParseError(f"piece {i}{exc}") from None
        m = _unchecked_mat(tuple([r.entries for r in rows]), in_dim)
        pieces.append(_unchecked_piece(_unchecked_polyhedron(in_dim, tuple(cons)), m, b))
    return _unchecked_pwafn(in_dim, out_dim, tuple(pieces), tag, claimed=True)


def _layout(depth: int, quote: str = "") -> tuple[str, str, str]:
    """Open, separator and close of json.dumps(indent=2)'s list at depth, items in quote."""
    pad = "\n" + "  " * depth
    return f"[{pad}  {quote}", f"{quote},{pad}  {quote}", f"{quote}{pad}]"


_PIECES, _ITEMS = _layout(1), _layout(3)
_C_ROW, _M_ROW, _OFFSET = _layout(5, '"'), _layout(4, '"'), _layout(3, '"')
_DOC = '{\n  "in_dim": %d,\n  "out_dim": %d,\n  "univalence": "%s",\n  "pieces": %s\n}\n'
_PIECE = '{\n      "constraints": %s,\n      "M": %s,\n      "b": %s\n    }'
_CONSTRAINT = '{\n          "c": %s,\n          "b": "%s"\n        }'


def _listed(texts: list[str], layout: tuple[str, str, str]) -> str:
    """texts as a list laid out by layout."""
    open_, separator, close = layout
    return open_ + separator.join(texts) + close if texts else "[]"


def serialize_pwa(fn: PwaFn) -> str:
    """The canonical document of fn: json.dumps(doc, indent=2) and a newline.

    Each distinct constraint object and map row is rendered once; fn keeps
    every one alive, so their ids stay put for the whole call.
    """
    texts: dict[int, str] = {}

    def constraint(lc: LinearConstraint) -> str:
        c = _listed([*map(str, lc.c.entries)], _C_ROW)
        text = texts[id(lc)] = _CONSTRAINT % (c, lc.b)
        return text

    def row(entries: tuple[Fraction, ...]) -> str:
        text = texts[id(entries)] = _listed([*map(str, entries)], _M_ROW)
        return text

    get = texts.get
    try:
        pieces = [
            _PIECE % (
                _listed([get(id(lc)) or constraint(lc) for lc in p.polyhedron.constraints], _ITEMS),
                _listed([get(id(r)) or row(r) for r in p.M.entries], _ITEMS),
                _listed([*map(str, p.b.entries)], _OFFSET),
            )
            for p in fn.pieces
        ]
    except ValueError:
        raise _too_long() from None
    return _DOC % (fn.in_dim, fn.out_dim, fn.univalence, _listed(pieces, _PIECES))


def _smt_rat(q: Fraction) -> str:
    """q as an SMT-LIB term, written from its numerator and denominator."""
    n, d = str(q.numerator), q.denominator
    if n[0] == "-":
        return f"(- {n[1:]})" if d == 1 else f"(- (/ {n[1:]} {d}))"
    return n if d == 1 else f"(/ {n} {d})"


def _smt_join(op: str, unit: str, parts: list[str]) -> str:
    """(op part ...), with no parts giving unit and one part giving itself."""
    if len(parts) < 2:
        return parts[0] if parts else unit
    return f"({op} " + " ".join(parts) + ")"


def _smt_linear(coeffs, constant=None) -> str:
    # A reduced q is 1 exactly when its numerator equals its denominator.
    terms = [
        f"x_{k}" if q.numerator == q.denominator else f"(* {_smt_rat(q)} x_{k})"
        for k, q in enumerate(coeffs)
        if q.numerator
    ]
    if constant is not None and constant.numerator:
        terms.append(_smt_rat(constant))
    return _smt_join("+", "0", terms)


def export_smt(fn: PwaFn, assert_domain: bool = False) -> str:
    """Emit a QF_LRA script relating inputs x_* to outputs y_* piece by piece.

    Each piece contributes one implication: membership in its polyhedron
    forces every output row to equal its affine expression. With
    assert_domain, one more assertion places x inside some piece.
    """
    # Each distinct constraint object, and (map row, offset) pair of objects,
    # is written once; fn keeps every one alive, so the ids stay put.
    texts: dict = {}

    def atom(lc: LinearConstraint) -> str:
        text = texts[id(lc)] = f"(<= {_smt_linear(lc.c.entries)} {_smt_rat(lc.b)})"
        return text

    def term(row: tuple[Fraction, ...], offset: Fraction) -> str:
        text = texts[id(row), id(offset)] = _smt_linear(row, offset)
        return text

    get = texts.get
    lines = ["(set-logic QF_LRA)"]
    lines += [f"(declare-const x_{k} Real)" for k in range(fn.in_dim)]
    lines += [f"(declare-const y_{r} Real)" for r in range(fn.out_dim)]
    conditions = []
    try:
        for p in fn.pieces:
            atoms = [get(id(lc)) or atom(lc) for lc in p.polyhedron.constraints]
            conditions.append(condition := _smt_join("and", "true", atoms))
            rows = [
                f"(= y_{r} {get((id(row), id(q))) or term(row, q)})"
                for r, (row, q) in enumerate(zip(p.M.entries, p.b.entries))
            ]
            lines.append(f"(assert (=> {condition} {_smt_join('and', 'true', rows)}))")
    except ValueError:
        raise _too_long() from None
    if assert_domain:
        lines.append(f"(assert {_smt_join('or', 'false', conditions)})")
    return "\n".join(lines) + "\n"
