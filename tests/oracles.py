"""Independent reference computations the tests check the library against.

Nothing in here touches the simplex or the library's arithmetic: linear
systems are solved by direct Gaussian elimination, optima come from
brute-force vertex enumeration, and dot products, membership and affine
maps are raw Fraction loops. forward is the network's layer-by-layer
evaluation on those loops, the oracle for nn_eval. read_pwa and
smt_reference read a PWA document and write its SMT script with json
and Fraction alone, reading and rendering every entry afresh.
careful_parse_pwa is parse_pwa as it was before it looked repeated items
up in its table itself, with its reader: every item of every piece goes
through a _CarefulReader method, which makes the item's location text
before it reads it.
regex_parse_scalar is numeric.parse_scalar as it was before integers and
p/q in ASCII digits skipped its regex. json_serialize_pwa is the document
writer as it was before serialize_pwa laid out its text by hand: the
whole document built as a dict and handed to json.dumps, with the
library's format_scalar for each entry.

farkas_refutes checks a Farkas certificate of emptiness with raw
Fraction sums and nothing of the simplex that produced it.

The ReLU oracles are the exception: they are the paper's construction,
built with the library's own operators. relu_1d is two literal affine
pieces meeting at zero, and check_univalence earns its "verified" tag;
stacked_relu(n) folds n copies together with concat. Neither goes
through compose_relu, which builds every ReLU the library compiles, so
they are its reference. pairwise_compose is compose as it was before
it scaled each operand once per call, one compose_polyhedron and one
compose_affine per pair of pieces. right_fold_transform keeps the
network compiler's earlier composition order, last layer first, with
every ReLU as stacked_relu and every step a pairwise_compose, as the
reference for the forward fold. checked_copy rebuilds a function
through the public constructors, the reference for the library's
unchecked builders.
plain_check_univalence is the univalence checker's pair loop as it was
before it reused certified empty cores: every pair with different maps
gets its own LPs, through the library's off_target_points.
DATACLASS_TWINS holds, for each of the library's record types, the
@dataclass(frozen=True) it was declared as before the types were written
by hand: the same name and fields, made by dataclasses.make_dataclass
without the constructors' checks.
"""

from __future__ import annotations

import json
from dataclasses import field, make_dataclass
from fractions import Fraction
from itertools import combinations

from pwanet import lp
from pwanet.network import (
    Network,
    OutputLayer,
    PlainLayer,
    PwaLayer,
    ReluLayer,
    UnknownLayer,
)
from pwanet.formats import ParseError, _get, _load_json, _nat
from pwanet.numeric import (
    _LITERAL,
    _MAX_EXPONENT,
    ColVec,
    DimensionError,
    Mat,
    _unchecked_mat,
    _unchecked_vec,
    format_scalar,
    parse_scalar,
)
from pwanet.polyhedra import (
    LinearConstraint,
    Polyhedron,
    _unchecked_constraint,
    _unchecked_polyhedron,
    intersect,
)
from pwanet.pwa import (
    _STATUSES,
    REFUTED,
    VERIFIED,
    AffinePiece,
    PwaFn,
    Univalent,
    UnivalenceViolation,
    _unchecked_piece,
    _unchecked_pwafn,
    check_univalence,
    identity_pwaf,
)
from pwanet.pwa_algebra import _carried, compose_affine, compose_polyhedron, concat


def dot(v, w) -> Fraction:
    """Inner product by a raw Fraction loop, one term at a time."""
    total = Fraction(0)
    for a, b in zip(v, w, strict=True):
        total += Fraction(a) * Fraction(b)
    return total


def contains(poly: Polyhedron, x: ColVec) -> bool:
    """Does x satisfy every constraint c.x <= b of poly?"""
    return all(dot(lc.c, x) <= lc.b for lc in poly.constraints)


def farkas_refutes(poly: Polyhedron, multipliers) -> bool:
    """Do the multipliers prove poly empty?

    They must be one nonnegative number y_i per constraint c_i.x <= b_i
    of poly, with sum y_i c_i the zero vector and sum y_i b_i negative:
    every point of poly would satisfy 0 = (sum y_i c_i).x <= sum y_i b_i
    < 0.
    """
    constraints = poly.constraints
    if len(multipliers) != len(constraints):
        return False
    combined = [Fraction(0)] * poly.dim
    bound = Fraction(0)
    for y, lc in zip(multipliers, constraints):
        y = Fraction(y)
        if y < 0:
            return False
        if y == 0:
            continue
        for k in range(poly.dim):
            combined[k] += y * Fraction(lc.c.entries[k])
        bound += y * Fraction(lc.b)
    return all(a == 0 for a in combined) and bound < 0


def _plain_check_pair(fn: PwaFn, i: int, j: int) -> UnivalenceViolation | None:
    pi = fn.pieces[i]
    pj = fn.pieces[j]
    if pi.M == pj.M and pi.b == pj.b:
        # Identical maps agree everywhere, overlap or not.
        return None
    region = intersect(pi.polyhedron, pj.polyhedron)
    rows = (
        (ColVec(a - b for a, b in zip(pi.M.entries[r], pj.M.entries[r])), pj.b[r] - pi.b[r])
        for r in range(fn.out_dim)
    )
    for r, point in enumerate(lp.off_target_points(region, rows)):
        if point is not None:
            return UnivalenceViolation(i, j, r, point)
    return None


def cold_witness(fn: PwaFn, i: int, j: int, r: int) -> ColVec | None:
    """Row r's point of a from-scratch off_target_points over the overlap
    of pieces i and j, with every row of their map difference in order."""
    pi = fn.pieces[i]
    pj = fn.pieces[j]
    rows = [
        (ColVec(a - b for a, b in zip(pi.M.entries[k], pj.M.entries[k])), pj.b[k] - pi.b[k])
        for k in range(fn.out_dim)
    ]
    points = list(lp.off_target_points(intersect(pi.polyhedron, pj.polyhedron), rows))
    return points[r] if points else None


def plain_check_univalence(fn: PwaFn):
    """check_univalence with LPs on every pair whose maps differ."""
    found = None
    for i, j in combinations(range(len(fn.pieces)), 2):
        found = _plain_check_pair(fn, i, j)
        if found is not None:
            break
    fn.claimed = False
    fn.univalence = VERIFIED if found is None else REFUTED
    return Univalent() if found is None else found


def relu_1d() -> PwaFn:
    """max(0, x) on R: the zero map left of 0, the identity right of it.

    The two polyhedra share only the origin, where both maps send 0 to 0,
    so the function is univalent; the checker is run here so the verdict
    is earned rather than asserted.
    """
    left = AffinePiece(
        Polyhedron(1, (LinearConstraint(ColVec([1]), 0),)),
        Mat([[0]]),
        ColVec([0]),
    )
    right = AffinePiece(
        Polyhedron(1, (LinearConstraint(ColVec([-1]), 0),)),
        Mat([[1]]),
        ColVec([0]),
    )
    fn = PwaFn(1, 1, (left, right))
    check_univalence(fn)
    return fn


def stacked_relu(n: int) -> PwaFn:
    """Componentwise max(0, x) on R^n, the paper's way: a fresh 1-d ReLU
    concatenated on top of the function built so far, n times, into 2^n
    pieces, one per sign orthant."""
    fn = identity_pwaf(0)
    one = relu_1d()
    for _ in range(n):
        fn = concat(one, fn)
    return fn


def pairwise_compose(f: PwaFn, g: PwaFn) -> PwaFn:
    """compose as it was before it scaled each operand once per call:
    compose_polyhedron and compose_affine on every (f piece, g piece)
    pair, and the checked constructors for each piece and the function."""
    if g.out_dim != f.in_dim:
        raise DimensionError(
            f"compose of function on dim {f.in_dim} after function onto dim {g.out_dim}"
        )
    pieces = []
    for gp in g.pieces:
        for fp in f.pieces:
            poly = compose_polyhedron(gp.polyhedron, gp.M, gp.b, fp.polyhedron)
            m, b = compose_affine(fp.M, fp.b, gp.M, gp.b)
            pieces.append(AffinePiece(poly, m, b))
    return PwaFn(g.in_dim, f.out_dim, pieces, univalence=_carried(f, g))


def checked_copy(fn: PwaFn) -> PwaFn:
    """fn rebuilt through the public constructors, every entry coerced
    and every width checked again."""
    return PwaFn(
        fn.in_dim,
        fn.out_dim,
        [
            AffinePiece(
                Polyhedron(
                    piece.polyhedron.dim,
                    [
                        LinearConstraint(ColVec(list(lc.c.entries)), lc.b)
                        for lc in piece.polyhedron.constraints
                    ],
                ),
                Mat([list(row) for row in piece.M.entries], cols=piece.M.cols),
                ColVec(list(piece.b.entries)),
            )
            for piece in fn.pieces
        ],
        univalence=fn.univalence,
        claimed=fn.claimed,
    )


# Each record type's fields, in order, as its dataclass declared them; a
# field with a default, or kept out of equality and repr, gives its Field.
_DATACLASS_FIELDS = {
    lp.Optimal: ("value", "witness"),
    lp.Infeasible: (("certificate", tuple, field(default=(), compare=False, repr=False)),),
    lp.Unbounded: (),
    LinearConstraint: ("c", "b"),
    Polyhedron: ("dim", ("constraints", tuple, field(default=()))),
    AffinePiece: ("polyhedron", "M", "b"),
    Univalent: (),
    UnivalenceViolation: ("piece_i", "piece_j", "row", "witness"),
    OutputLayer: ("dim",),
    PwaLayer: ("fn",),
    ReluLayer: ("dim",),
    PlainLayer: ("fn", "in_dim", "out_dim"),
    UnknownLayer: ("in_dim", "out_dim"),
    Network: ("input_dim", "output_dim", "layers"),
}

DATACLASS_TWINS = {
    cls: make_dataclass(cls.__name__, fields, frozen=True)
    for cls, fields in _DATACLASS_FIELDS.items()
}


def right_fold_transform(net: Network) -> PwaFn | None:
    """network.transform as it composed before the forward fold.

    The output marker becomes the identity, and the PWA layers before it
    are composed onto it from the last to the first, each ReLU layer
    expanded into stacked_relu(dim).
    """
    end = next(
        (i for i, layer in enumerate(net.layers) if not isinstance(layer, (PwaLayer, ReluLayer))),
        len(net.layers),
    )
    if end == len(net.layers) or not isinstance(net.layers[end], OutputLayer):
        return None
    fn = identity_pwaf(net.layers[end].dim)
    for layer in reversed(net.layers[:end]):
        fn = pairwise_compose(
            fn, stacked_relu(layer.dim) if isinstance(layer, ReluLayer) else layer.fn
        )
    return fn


def gauss_solve(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Solve a square linear system exactly; None when it is singular."""
    n = len(rows)
    aug = [list(row) + [rhs[i]] for i, row in enumerate(rows)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot_row is None:
            return None
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


def enumerate_vertices(poly: Polyhedron) -> list[ColVec]:
    """All basic feasible points: solutions of dim-sized constraint subsets
    that satisfy every constraint. For a bounded polyhedron these are its
    vertices, and the polyhedron is non-empty exactly when some exist."""
    found = []
    seen = set()
    cs = poly.constraints
    for subset in combinations(range(len(cs)), poly.dim):
        rows = [list(cs[i].c.entries) for i in subset]
        rhs = [cs[i].b for i in subset]
        solution = gauss_solve(rows, rhs)
        if solution is None:
            continue
        x = ColVec(solution)
        if x.entries in seen:
            continue
        if contains(poly, x):
            seen.add(x.entries)
            found.append(x)
    return found


def vertex_optimum(
    poly: Polyhedron, objective: ColVec, sense: str
) -> tuple[Fraction, ColVec] | None:
    """Optimum over a bounded polyhedron by checking every vertex.

    None means infeasible. The witness is one optimal vertex; the optimal
    value is what callers should compare, since ties are broken differently
    than the simplex does.
    """
    vertices = enumerate_vertices(poly)
    if not vertices:
        return None
    values = [dot(objective, v) for v in vertices]
    best = max(values) if sense == "max" else min(values)
    return best, vertices[values.index(best)]


def parse_sexprs(text: str) -> list:
    """Read a whole SMT script as nested lists; raises on unbalanced parens.

    Minimal on purpose: tokens are parens or whitespace-separated atoms,
    which is all the exporter emits.
    """
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    items: list = []
    stack: list[list] = []
    for tok in tokens:
        if tok == "(":
            stack.append([])
        elif tok == ")":
            if not stack:
                raise ValueError("unbalanced close paren")
            done = stack.pop()
            (stack[-1] if stack else items).append(done)
        else:
            (stack[-1] if stack else items).append(tok)
    if stack:
        raise ValueError("unclosed paren")
    return items


def relu_reference(x: ColVec) -> ColVec:
    """Componentwise max(0, x)."""
    zero = Fraction(0)
    return ColVec(e if e > 0 else zero for e in x)


def apply_affine(weights: list[list], bias: list, xs: list) -> list[Fraction]:
    """W x + b with raw loops over Fractions."""
    return [
        sum((Fraction(w) * Fraction(v) for w, v in zip(row, xs)), Fraction(0)) + Fraction(b)
        for row, b in zip(weights, bias)
    ]


def forward(net: Network, x: ColVec) -> ColVec | None:
    """nn_eval as it was before it ran on integer rows: layer by layer
    on Fractions, each PWA layer through its first piece that contains
    the point (contains), then apply_affine; each ReLU is relu_reference.
    The same DimensionError texts for a point of the wrong width and a
    host function that breaks its width, and None past an unknown layer
    or outside a PWA layer's domain."""
    if x.dim != net.input_dim:
        raise DimensionError(f"input of dim {x.dim} into network on dim {net.input_dim}")
    current = x
    for layer in net.layers[:-1]:
        if isinstance(layer, UnknownLayer):
            return None
        if isinstance(layer, PwaLayer):
            piece = next((p for p in layer.fn.pieces if contains(p.polyhedron, current)), None)
            if piece is None:
                return None
            current = ColVec(apply_affine(piece.M.entries, piece.b.entries, current.entries))
        elif isinstance(layer, ReluLayer):
            current = relu_reference(current)
        else:
            current = layer.fn(current)
            if current.dim != layer.out_dim:
                raise DimensionError(
                    f"host function produced dim {current.dim}, layer declares "
                    f"{layer.out_dim}"
                )
    return current


def read_pwa(text: str) -> tuple[int, int, list]:
    """A PWA document as plain data: (in_dim, out_dim, pieces).

    Each piece is (constraints, M, b), with every constraint a (c, b) pair;
    vectors are lists and matrices lists of rows, every entry read afresh
    by Fraction(str). Only well-formed documents are expected.
    """
    doc = json.loads(text)
    pieces = [
        (
            [([Fraction(a) for a in rc["c"]], Fraction(rc["b"])) for rc in raw["constraints"]],
            [[Fraction(a) for a in row] for row in raw["M"]],
            [Fraction(a) for a in raw["b"]],
        )
        for raw in doc["pieces"]
    ]
    return doc["in_dim"], doc["out_dim"], pieces


class _CarefulReader:
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


def careful_parse_pwa(text: str) -> PwaFn:
    doc = _load_json(text)
    in_dim = _nat(_get(doc, "in_dim", "function"), "in_dim")
    out_dim = _nat(_get(doc, "out_dim", "function"), "out_dim")
    tag = _get(doc, "univalence", "function")
    if tag not in _STATUSES:
        raise ParseError(f"univalence: unknown tag {tag!r}")
    raw_pieces = _get(doc, "pieces", "function")
    if not isinstance(raw_pieces, list):
        raise ParseError("pieces: expected a list")
    read = _CarefulReader()
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


def regex_parse_scalar(text: str) -> Fraction:
    if not isinstance(text, str):
        raise ValueError(f"expected a string literal, got {type(text).__name__}")
    match = _LITERAL.fullmatch(text)
    try:
        if match is None or abs(int(match["exponent"] or 0)) > _MAX_EXPONENT:
            raise ValueError
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
    except ValueError:
        raise ValueError(f"malformed rational literal {text!r}") from None


def json_serialize_pwa(fn: PwaFn) -> str:
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
        return str(q.numerator) if q >= 0 else f"(- {-q.numerator})"
    core = f"(/ {abs(q.numerator)} {q.denominator})"
    return core if q > 0 else f"(- {core})"


def _smt_linear(coeffs, constant=None) -> str:
    terms = [
        f"x_{k}" if c == 1 else f"(* {_smt_rat(c)} x_{k})" for k, c in enumerate(coeffs) if c
    ]
    if constant:
        terms.append(_smt_rat(constant))
    if len(terms) < 2:
        return terms[0] if terms else "0"
    return "(+ " + " ".join(terms) + ")"


def _smt_join(op: str, unit: str, parts: list[str]) -> str:
    if len(parts) < 2:
        return parts[0] if parts else unit
    return f"({op} " + " ".join(parts) + ")"


def smt_reference(text: str, assert_domain: bool = False) -> str:
    """export_smt's script for a PWA document, rendering every constraint anew."""
    in_dim, out_dim, pieces = read_pwa(text)
    lines = ["(set-logic QF_LRA)"]
    lines += [f"(declare-const x_{k} Real)" for k in range(in_dim)]
    lines += [f"(declare-const y_{r} Real)" for r in range(out_dim)]
    conditions = [
        _smt_join("and", "true", [f"(<= {_smt_linear(c)} {_smt_rat(b)})" for c, b in cons])
        for cons, _, _ in pieces
    ]
    for condition, (_, m, b) in zip(conditions, pieces):
        rows = [f"(= y_{r} {_smt_linear(m[r], b[r])})" for r in range(out_dim)]
        lines.append(f"(assert (=> {condition} {_smt_join('and', 'true', rows)}))")
    if assert_domain:
        lines.append(f"(assert {_smt_join('or', 'false', conditions)})")
    return "\n".join(lines) + "\n"
