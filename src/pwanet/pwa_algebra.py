"""Composition and concatenation of piecewise-affine functions.

Both operators build one piece per pair of input pieces, so piece counts
multiply. Empty pairings are kept; prune_empty is a separate pass. The
network compiler folds its layers through compose's per-piece lists
(_composed) and the ReLU's depth-first split (_relu_split), one step per
piece; the pruned compile's step drops the empty ones as they come. The
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

Every value these operators build skips its constructor's checks (the
_unchecked_* builders of numeric, polyhedra and pwa): each entry is a
Fraction computed from checked inputs, and each width follows from the
dimension check at the top of the call. compose scales every operand
to integers once (see numeric): each f piece's constraint and map rows
once per call, each g piece's map columns and offset once per g piece.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from typing import Iterator

from .numeric import ColVec, DimensionError, Mat, mat_mul, mat_vec_mul, scaled_ints, vec_add
from .numeric import _int_dot, _unchecked_mat, _unchecked_vec
from .polyhedra import Polyhedron, _unchecked_constraint, _unchecked_polyhedron
from .pwa import UNCHECKED, VERIFIED, AffinePiece, PwaFn, _unchecked_piece, _unchecked_pwafn


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
    c = _unchecked_mat(tuple(lc.c.entries for lc in p_f.constraints), p_f.dim)
    pulled = tuple(
        _unchecked_constraint(_unchecked_vec(row), lc.b - shift)
        for lc, row, shift in zip(p_f.constraints, mat_mul(c, m_g).entries, mat_vec_mul(c, b_g))
    )
    return _unchecked_polyhedron(p_g.dim, p_g.constraints + pulled)


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
    pieces = tuple(chain.from_iterable(_composed(f, g)))
    return _unchecked_pwafn(g.in_dim, f.out_dim, pieces, _carried(f, g))


def _composed(f: PwaFn, g: PwaFn) -> Iterator[list[AffinePiece]]:
    """compose's pieces, one list per g piece in g's order: f after that
    g piece, f's pieces in order. g.out_dim is f.in_dim.

    Each list holds the g piece's constraints, then those of one f piece
    pulled back, so a caller that keeps only some g pieces, as the pruned
    compile does, gets exactly their lists.
    """
    dim = g.in_dim
    # Each f piece's constraint rows and map rows as scaled_ints gives them.
    f_lcs = [[scaled_ints(lc.c.entries) for lc in fp.polyhedron.constraints] for fp in f.pieces]
    f_rows = [[*map(scaled_ints, fp.M.entries)] for fp in f.pieces]
    for gp in g.pieces:
        columns = [*map(scaled_ints, zip(*gp.M.entries))] if f.in_dim else [(1, [])] * dim
        offset = scaled_ints(gp.b.entries)

        def times(row):
            return tuple([_int_dot(*row, *col) for col in columns])

        pieces = []
        for fp, lc_rows, m_rows in zip(f.pieces, f_lcs, f_rows):
            pulled = tuple(
                _unchecked_constraint(_unchecked_vec(times(row)), lc.b - _int_dot(*row, *offset))
                for lc, row in zip(fp.polyhedron.constraints, lc_rows)
            )
            poly = _unchecked_polyhedron(dim, gp.polyhedron.constraints + pulled)
            m = _unchecked_mat(tuple(map(times, m_rows)), dim)
            b = tuple([_int_dot(*row, *offset) + a for row, a in zip(m_rows, fp.b.entries)])
            pieces.append(_unchecked_piece(poly, m, _unchecked_vec(b)))
        yield pieces


def compose_relu(n: int, g: PwaFn) -> PwaFn:
    """Componentwise max(0, .) after g, one piece per (g piece, sign pattern).

    Each g piece (M, b) is followed by its 2^n sign patterns, coordinate 0
    fastest, as in n stacked 1-d ReLUs. Unit k appends
    (row k of M).x <= -b_k and zeroes output row k when it is inactive,
    and appends -(row k of M).x <= b_k and keeps row k when it is active:
    the pullbacks of x_k <= 0 and -x_k <= 0 through x -> Mx + b. The
    patterns come from _relu_split, whose step keeps every side here
    (_every_side, as in the plain compile) and only the non-empty ones in
    the pruned compile. Verified when g is, since the ReLU itself is
    univalent.
    """
    if g.out_dim != n:
        raise DimensionError(f"compose of function on dim {n} after function onto dim {g.out_dim}")
    pieces = tuple(
        piece for gp in g.pieces for piece, _ in _relu_split(gp, g.in_dim, (), _every_side)
    )
    return _unchecked_pwafn(g.in_dim, n, pieces, _carried(g))


def _every_side(state, constraints: tuple):
    """The step that keeps every piece, whatever constraints it adds:
    compose_relu's for _relu_split, and the plain compile's."""
    return state


def _relu_split(gp: AffinePiece, dim: int, state, step) -> Iterator[tuple[AffinePiece, object]]:
    """The pieces of compose_relu for the g piece gp, over R^dim, in its
    order, each with its state, except those step drops.

    The sign patterns are split one unit at a time, depth first from
    unit n-1 down to unit 0, the inactive side before the active one,
    which lists them with unit 0 fastest. step(state, (constraint,)) is
    the state once a unit's side, that one constraint, is added to a
    partial pattern with that state, or None to drop the side and every
    pattern under it. A dropped side is never split further, so the 2^n
    patterns are listed only when every side is kept, and the stack
    holds at most one pattern per unit.
    """
    zero = Fraction(0)
    zero_row = (zero,) * dim
    units = [
        (
            (_unchecked_constraint(_unchecked_vec(row), -b), zero_row, zero),
            (_unchecked_constraint(_unchecked_vec(tuple([-a for a in row])), b), row, b),
        )
        for row, b in zip(gp.M.entries, gp.b)
    ]
    # (units left to split, the sides chosen for the units above them,
    # unit k first, and their state)
    stack = [(len(units), (), state)]
    while stack:
        k, pattern, state = stack.pop()
        # Go down the inactive sides, leaving each active side on the stack.
        while k:
            k -= 1
            inactive, active = units[k]
            below = step(state, active[:1])
            if below is not None:
                stack.append((k, (active,) + pattern, below))
            state = step(state, inactive[:1])
            if state is None:
                break
            pattern = (inactive,) + pattern
        else:
            lcs, rows, offsets = zip(*pattern) if pattern else ((), (), ())
            poly = _unchecked_polyhedron(dim, gp.polyhedron.constraints + lcs)
            yield _unchecked_piece(poly, _unchecked_mat(rows, dim), _unchecked_vec(offsets)), state


def _padded(piece: AffinePiece, before: int, after: int):
    """The piece's constraints and map rows with `before` zeros ahead and
    `after` zeros behind each row, and its offset entries."""
    lead, trail = (Fraction(0),) * before, (Fraction(0),) * after
    constraints = tuple(
        _unchecked_constraint(_unchecked_vec(lead + lc.c.entries + trail), lc.b)
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
            poly = _unchecked_polyhedron(dim, f_lcs + g_lcs)
            m = _unchecked_mat(f_rows + g_rows, dim)
            pieces.append(_unchecked_piece(poly, m, _unchecked_vec(f_b + g_b)))
    return _unchecked_pwafn(dim, f.out_dim + g.out_dim, tuple(pieces), _carried(f, g))
