"""Composition and concatenation of piecewise-affine functions.

Both operators build one piece per pair of input pieces, so piece counts
multiply. Empty pairings are kept; prune_empty is a separate pass. The
pair order is fixed: the inner (or second) argument varies in the outer
loop, so pieces of compose(f, g) and concat(f, g) are laid out g-piece by
g-piece with f's pieces cycling fastest.

compose_relu(n, g) follows g with the ReLU on R^n. It pulls each sign
pattern back through g's maps directly, so the ReLU's 2^n pieces are
never built; the bytes are those of compose(relu, g) with relu the
paper's construction, n two-piece 1-d ReLUs stacked with concat.
network.relu_nd(n) is compose_relu on the identity.

All three preserve univalence (the theorem behind the network compiler),
so the result is "verified" exactly when every input is (the ReLU always
is), and "unchecked" otherwise; no LP is run. A "verified" read from a
document is only a claim (PwaFn.claimed) and is not carried.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .numeric import ColVec, DimensionError, Mat, mat_mul, mat_vec_mul, vec_add
from .polyhedra import LinearConstraint, Polyhedron
from .pwa import UNCHECKED, VERIFIED, AffinePiece, PwaFn


def compose_polyhedron(p_g: Polyhedron, m_g: Mat, b_g: ColVec, p_f: Polyhedron) -> Polyhedron:
    """Preimage piece polyhedron: x in p_g and (m_g x + b_g) in p_f.

    p_g's constraints are kept verbatim; each constraint c.y <= b of p_f
    is pulled back through y = m_g x + b_g into (c^T m_g).x <= b - c.b_g.
    All of p_f's constraints go through one product: their rows c^T are
    stacked into a matrix C, and C m_g and C b_g give every coefficient
    row and shift at once.
    """
    if m_g.cols != p_g.dim:
        raise DimensionError(f"map on dim {m_g.cols} over polyhedron of dim {p_g.dim}")
    if m_g.rows != b_g.dim:
        raise DimensionError(f"matrix has {m_g.rows} rows but offset has dim {b_g.dim}")
    if m_g.rows != p_f.dim:
        raise DimensionError(
            f"map into dim {m_g.rows} against target polyhedron of dim {p_f.dim}"
        )
    c = Mat((lc.c.entries for lc in p_f.constraints), cols=p_f.dim)
    pulled = tuple(
        LinearConstraint(ColVec(row), lc.b - shift)
        for lc, row, shift in zip(p_f.constraints, mat_mul(c, m_g).entries, mat_vec_mul(c, b_g))
    )
    return Polyhedron(p_g.dim, p_g.constraints + pulled)


def compose_affine(m_f: Mat, b_f: ColVec, m_g: Mat, b_g: ColVec) -> tuple[Mat, ColVec]:
    """The affine map x -> m_f(m_g x + b_g) + b_f as a (matrix, offset) pair."""
    return mat_mul(m_f, m_g), vec_add(mat_vec_mul(m_f, b_g), b_f)


def _carried(*fns: PwaFn) -> str:
    proved = all(fn.univalence == VERIFIED and not fn.claimed for fn in fns)
    return VERIFIED if proved else UNCHECKED


def compose(f: PwaFn, g: PwaFn) -> PwaFn:
    """The composition f after g, one piece per (f piece, g piece) pair.

    Wherever both sides are defined, evaluate(compose(f, g), x) equals
    evaluate(f, evaluate(g, x)). Verified when f and g are: where two
    pieces overlap at x, g univalent sends x to one y, and f univalent
    then sends y to one output.
    """
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


def compose_relu(n: int, g: PwaFn) -> PwaFn:
    """Componentwise max(0, .) after g, one piece per (g piece, sign pattern).

    Each g piece (M, b) is followed by its 2^n sign patterns, coordinate 0
    fastest, as in n stacked 1-d ReLUs. Unit k appends
    (row k of M).x <= -b_k and zeroes output row k when it is inactive,
    and appends -(row k of M).x <= b_k and keeps row k when it is active:
    the pullbacks of x_k <= 0 and -x_k <= 0 through x -> Mx + b. Verified
    when g is, since the ReLU itself is univalent.
    """
    if g.out_dim != n:
        raise DimensionError(f"compose of function on dim {n} after function onto dim {g.out_dim}")
    zero_row = (Fraction(0),) * g.in_dim
    pieces = []
    for gp in g.pieces:
        units = [
            (
                (LinearConstraint(ColVec(row), -b), zero_row, 0),
                (LinearConstraint(ColVec(-a for a in row), b), row, b),
            )
            for row, b in zip(gp.M.entries, gp.b)
        ]
        # product varies its last argument fastest, so unit 0 goes last.
        for pattern in product(*reversed(units)):
            lcs, rows, offsets = zip(*reversed(pattern)) if pattern else ((), (), ())
            poly = Polyhedron(g.in_dim, gp.polyhedron.constraints + lcs)
            pieces.append(AffinePiece(poly, Mat(rows, cols=g.in_dim), ColVec(offsets)))
    return PwaFn(g.in_dim, n, pieces, univalence=_carried(g))


def _padded(piece: AffinePiece, before: int, after: int):
    """The piece's constraints and map rows with `before` zeros ahead and
    `after` zeros behind each row, and its offset entries."""
    lead, trail = (Fraction(0),) * before, (Fraction(0),) * after
    constraints = tuple(
        LinearConstraint(ColVec(lead + lc.c.entries + trail), lc.b)
        for lc in piece.polyhedron.constraints
    )
    return constraints, tuple(lead + row + trail for row in piece.M.entries), piece.b.entries


def concat(f: PwaFn, g: PwaFn) -> PwaFn:
    """Run f and g side by side on a stacked input, f on top.

    evaluate(concat(f, g), x1 ++ x2) equals evaluate(f, x1) ++ evaluate(g, x2)
    whenever both halves are defined. Each piece pairs an f piece, its
    rows padded with zeros below, with a g piece, its rows padded with
    zeros above: f's constraints come first, then g's, and the map is
    block-diagonal. Piece pairs follow the same order as compose: g's
    pieces drive the outer loop, f's cycle fastest. Each piece is padded
    once and its rows are shared by every pair it is in. Verified when f
    and g are: overlapping pieces overlap in both halves, where f and g
    each agree.
    """
    dim = f.in_dim + g.in_dim
    tops = [_padded(fp, 0, g.in_dim) for fp in f.pieces]
    pieces = []
    for gp in g.pieces:
        g_lcs, g_rows, g_b = _padded(gp, f.in_dim, 0)
        for f_lcs, f_rows, f_b in tops:
            poly = Polyhedron(dim, f_lcs + g_lcs)
            pieces.append(AffinePiece(poly, Mat(f_rows + g_rows, cols=dim), ColVec(f_b + g_b)))
    return PwaFn(dim, f.out_dim + g.out_dim, pieces, univalence=_carried(f, g))
