"""Piecewise-affine functions over polyhedral subdivisions.

A PwaFn is an ordered list of pieces, each an affine map x -> Mx + b
restricted to a polyhedron. Evaluation walks the list and takes the first
piece containing the input; inputs outside every piece are simply not in
the domain, so partial functions are legal, as is a function with no
pieces at all. A piece's map is one integer encoding, _int_map: M and b
over one lcm, made once and cached on the piece where equality and
pickling never look. evaluate and network.nn_eval apply it (_mapped),
and check_univalence compares maps and takes row differences on it.

Nothing forces the pieces of an arbitrary function to agree where they
overlap. Each function carries a univalence status: "verified" when its
construction proves the pieces agree (identity_pwaf, linear_pwaf, and
compose/concat/compose_relu of verified inputs), otherwise "unchecked" until
check_univalence decides it exactly, via linear programs over the
pairwise intersections, as "verified" or "refuted"; the refutation comes
back to the caller with a concrete witness point, and only its status is
kept on the function. check_univalence ignores any existing status and
rescans the pairs. Each check numbers the function's distinct
constraints by their integer rows (polyhedra._row), and compares two
pieces' integer maps: identical maps agree and need nothing more. lp
certifies every phase 1. An overlap found empty leaves a core, the
constraints its checked Farkas certificate uses, and a later pair whose
overlap holds a whole core is empty without an LP.
A constraint whose exact negation is in the same overlap is a facet
equality, c.x = b all over it, as where two ReLU regions meet. When
those equalities share no point (lp._Flat.consistent), neither does
the overlap, and the pair needs nothing more. Otherwise a map row
whose difference lies in the rational span of their (c, b) needs no
LP either: it is zero on their flat (lp._Flat). Each pair's row
differences are built once and written on that flat. When the
equalities leave at most three coordinates (lp._Flat.decides), lp
decides the pair there with no simplex, by the flat step of
lp._LowDim's hyperplane walk (lp._on_flat): an empty overlap gives
multipliers that the scan maps to constraint keys and files as a core
once lp has checked them, and on a non-empty one lp._flat_off checks
the lifted point against every row and finds the first row off
target. Every other pair is decided, and every witness found, from
scratch by one simplex on the pair's own intersection (lp._first_off
on the pair's integer row differences).
Only a univalent function is independent of piece order.

prune_empty and count_regions walk the pieces' shared constraint
prefixes, and the pruned compile (network._fold) its layers, by one
emptiness step, _narrowed: it holds a polyhedron as its nearest
feasible decider and the rows added since, and its first rows build
lp._root.

The public constructors check every width; the library's own builders,
whose widths hold by construction, use _unchecked_piece and
_unchecked_pwafn. prune_empty keeps a subset of a checked function's
pieces; pwa_algebra's operators and the document reader are the others.
"""

from __future__ import annotations

import itertools
from math import gcd
from operator import itemgetter, mul
from typing import Optional, Sequence, Union

from . import lp
from .numeric import (
    ColVec,
    DimensionError,
    Mat,
    _Frozen,
    _unscaled,
    identity,
    mat_vec_mul,  # no longer called here; perfbench's tracer wraps pwa.mat_vec_mul
    scaled_ints,
    zeros_vec,
)
from .polyhedra import LinearConstraint, Polyhedron, _row, contains, full_space, intersect

UNCHECKED = "unchecked"
VERIFIED = "verified"
REFUTED = "refuted"

_STATUSES = (UNCHECKED, VERIFIED, REFUTED)


class AffinePiece(_Frozen):
    """The map x -> Mx + b restricted to a polyhedron."""

    __match_args__ = ("polyhedron", "M", "b")

    def __init__(self, polyhedron: Polyhedron, M: Mat, b: ColVec):
        if M.cols != polyhedron.dim:
            raise DimensionError(
                f"matrix has {M.cols} columns on a polyhedron of dim {polyhedron.dim}"
            )
        if M.rows != b.dim:
            raise DimensionError(f"matrix has {M.rows} rows but offset has dim {b.dim}")
        self.__dict__.update(polyhedron=polyhedron, M=M, b=b)


def _int_map(piece: AffinePiece) -> tuple[int, list[list[int]], list[int]]:
    """piece's map as (d, rows, offsets): M = rows / d and b = offsets / d
    over one lcm d of the reduced denominators, so equal maps give equal
    triples. Scaled once and cached on the piece, outside its fields;
    callers read it and never change it."""
    cached = piece.__dict__.get("_int_map")
    if cached is None:
        m, cols = piece.M.rows, piece.M.cols
        d, flat = scaled_ints(itertools.chain(piece.b.entries, *piece.M.entries))
        rows = [flat[m + k * cols : m + (k + 1) * cols] for k in range(m)]
        cached = piece.__dict__["_int_map"] = (d, rows, flat[:m])
    return cached


def _mapped(piece: AffinePiece, den: int, ints: list[int]) -> tuple[int, list[int]]:
    """piece's map at ints / den, as scaled_ints gives the image: over the
    lcm of its reduced denominators, whatever common den the point has."""
    d, rows, offsets = _int_map(piece)
    out = [sum(map(mul, row, ints)) + b * den for row, b in zip(rows, offsets)]
    g = gcd(den * d, *out)
    return den * d // g, [a // g for a in out]


def _unchecked_piece(polyhedron: Polyhedron, M: Mat, b: ColVec) -> AffinePiece:
    """AffinePiece(polyhedron, M, b) without its checks: M is b.dim x polyhedron.dim."""
    piece = object.__new__(AffinePiece)
    piece.__dict__.update(polyhedron=polyhedron, M=M, b=b)
    return piece


class Univalent(_Frozen):
    """All overlapping pieces agree wherever they overlap."""


class UnivalenceViolation(_Frozen):
    """Two pieces disagree: at `witness`, row `row` of their maps differs."""

    __match_args__ = ("piece_i", "piece_j", "row", "witness")

    def __init__(self, piece_i: int, piece_j: int, row: int, witness: ColVec):
        self.__dict__.update(piece_i=piece_i, piece_j=piece_j, row=row, witness=witness)


UnivalenceVerdict = Union[Univalent, UnivalenceViolation]


class PwaFn:
    """Ordered affine pieces with a univalence status.

    The status is set by check_univalence or by a constructor that proves
    it: identity_pwaf and linear_pwaf (a single piece cannot conflict with
    itself) and compose, concat and compose_relu of verified inputs.
    `claimed` marks a status read from a document rather than proved in
    this process; those operators do not carry a claimed "verified", and
    check_univalence clears the mark.
    """

    __slots__ = ("in_dim", "out_dim", "pieces", "univalence", "claimed")

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        pieces=(),
        univalence: str = UNCHECKED,
        claimed: bool = False,
    ):
        if in_dim < 0 or out_dim < 0:
            raise DimensionError("function dimensions must be nonnegative")
        pieces = tuple(pieces)
        for piece in pieces:
            if piece.polyhedron.dim != in_dim:
                raise DimensionError(
                    f"piece over dim {piece.polyhedron.dim} in a function on dim {in_dim}"
                )
            if piece.M.rows != out_dim:
                raise DimensionError(
                    f"piece with {piece.M.rows} output rows in a function onto dim {out_dim}"
                )
        if univalence not in _STATUSES:
            raise ValueError(f"unknown univalence status {univalence!r}")
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.pieces = pieces
        self.univalence = univalence
        self.claimed = claimed

    def __repr__(self) -> str:
        return (
            f"PwaFn({self.in_dim}->{self.out_dim}, {len(self.pieces)} pieces, "
            f"{self.univalence})"
        )


def _unchecked_pwafn(
    in_dim: int, out_dim: int, pieces: tuple[AffinePiece, ...], univalence: str, claimed=False
) -> PwaFn:
    """PwaFn(...) without its checks: dims >= 0, a known status, and a tuple
    of pieces, each over in_dim with out_dim rows."""
    fn = object.__new__(PwaFn)
    fn.in_dim, fn.out_dim, fn.pieces = in_dim, out_dim, pieces
    fn.univalence, fn.claimed = univalence, claimed
    return fn


def evaluate(fn: PwaFn, x: ColVec) -> Optional[ColVec]:
    """Apply the first piece whose polyhedron contains x; None if none does."""
    if x.dim != fn.in_dim:
        raise DimensionError(f"point of dim {x.dim} into function on dim {fn.in_dim}")
    piece = _located(fn.pieces, x)
    return None if piece is None else _unscaled(*_mapped(piece, *scaled_ints(x.entries)))


def _located(pieces: tuple[AffinePiece, ...], x: ColVec) -> Optional[AffinePiece]:
    """The first of pieces whose polyhedron contains x; None if none does.
    evaluate and network.nn_eval both locate x here."""
    for piece in pieces:
        if contains(piece.polyhedron, x):
            return piece
    return None


def identity_pwaf(n: int) -> PwaFn:
    """The identity on R^n as a single unconstrained piece."""
    return linear_pwaf(identity(n), zeros_vec(n))


def linear_pwaf(m: Mat, b: ColVec) -> PwaFn:
    """The total affine map x -> Mx + b as a single unconstrained piece.

    A matrix and offset of different heights raise AffinePiece's
    DimensionError.
    """
    piece = AffinePiece(full_space(m.cols), m, b)
    return PwaFn(m.cols, m.rows, (piece,), univalence=VERIFIED)


def _value_keys(
    fn: PwaFn,
) -> tuple[list[tuple[int, ...]], list[tuple[int, list[int]]], dict[tuple, int]]:
    """For each piece of fn, its constraints as ints: equal constraints,
    by value, get equal ints, numbered in order of first appearance.
    Also each number's integer row (den, ints), polyhedra._row, and the
    numbering, from each (den, *ints) to its int.

    Equal values give equal rows, so a row hashes without Fraction
    arithmetic. Pieces share constraint objects, so each object is
    numbered once.
    """
    number: dict[tuple, int] = {}
    key_of: dict[int, int] = {}
    keys = []
    rows = []
    for piece in fn.pieces:
        row = []
        for lc in piece.polyhedron.constraints:
            key = key_of.get(id(lc))
            if key is None:
                den, ints = _row(lc)
                key = key_of[id(lc)] = number.setdefault((den, *ints), len(number))
                if key == len(rows):
                    rows.append((den, ints))
            row.append(key)
        keys.append(tuple(row))
    return keys, rows, number


class _EmptyCores:
    """Sets of constraint keys (see _value_keys) with no common point.

    A core is the support of a Farkas certificate that lp has checked
    exactly, so any polyhedron holding every constraint of a core is
    empty, whatever else it holds. Each core is filed under its largest
    key, so a set of keys scans only the cores filed under its own keys.
    """

    def __init__(self):
        self.filed: dict[int, list[frozenset[int]]] = {}

    def cover(self, keys: set[int]) -> bool:
        """Does keys hold every key of some core?"""
        filed = self.filed
        return any(core <= keys for key in keys if key in filed for core in filed[key])

    def add(self, keys: tuple[int, ...], support: list[int]) -> None:
        """File the core of an infeasible tableau whose rows, in order,
        have these keys: support is its checked core, as row indices."""
        core = frozenset(keys[i] for i in support)
        self.filed.setdefault(max(core), []).append(core)


class _PairScan:
    """What check_univalence keeps from pair to pair: one table per check.

    keys and the integer rows come from _value_keys, and negations, built
    once from its numbering, hold each key's exact negation, or -1;
    cores are the scan's _EmptyCores. Nothing else passes from pair to
    pair but the flats and the rows written on them: beyond a core that
    skips it, a pair is decided the same whatever pairs came before.

    The scan also finds the facet equalities of overlaps, the map rows
    they pin, and the flat they leave. A constraint c.x <= b of
    an overlap whose exact negation -c.x <= -b is in the same overlap
    makes c.x = b hold on all of it. compose_relu writes the hyperplane
    of a flipping unit as such a pair, one side in each of the two pieces
    it separates, and their maps differ by multiples of it. A row (d, t)
    in the rational span of the (c, b) of those equalities gives d.x = t
    on the overlap, with no LP, whether the overlap is empty or not.
    _check_pair writes the facets on their lp._Flat, the elimination
    lp._LowDim decides hyperplanes with, and skips a pair whose facets
    contradict each other there: its overlap is empty. Otherwise it
    builds the pair's row differences once (diffs) and writes them on
    the flat, where a row is in the span when it is zero. The rows left
    go to flat_off as written on the flat, and to the cold simplex as
    integer rows. Every decision on a flat is lp's; the scan keeps only
    what needs constraint keys: the rows written on each flat by key,
    the constraint each facet's weight stands for, and the cores.
    """

    def __init__(self, fn: PwaFn):
        self.fn = fn
        self.in_dim = fn.in_dim
        self.keys, self.rows, number = _value_keys(fn)
        self.negations = [number.get((den, *(-a for a in ints)), -1) for den, ints in self.rows]
        self.cores = _EmptyCores()
        self.flats: dict[tuple[int, ...], tuple[lp._Flat, dict[int, list[int]]]] = {}

    def of(self, overlap: set[int]) -> tuple[int, ...]:
        """The facets of an overlap, whose constraint keys are overlap: the
        smaller key of each constraint and negation it holds, in order."""
        negations = self.negations
        return tuple(sorted(k for k in overlap if k < negations[k] and negations[k] in overlap))

    def flat(self, facets: tuple[int, ...]) -> tuple[lp._Flat, dict[int, list[int]]]:
        """The lp._Flat of the facets' (c, b) rows, built once per set of
        facets, and the constraints flat_off has written on it, by key."""
        entry = self.flats.get(facets)
        if entry is None:
            entry = self.flats[facets] = (lp._Flat([self.rows[key][1] for key in facets]), {})
        return entry

    def diffs(self, i: int, j: int) -> tuple[int, list[list[int]]]:
        """Each row of piece i's map less piece j's as ints = den * (d, t),
        d.x = t where the two agree, over one den, di * dj, the two maps'
        scales (_int_map): (den, ints) is an integer row."""
        di, rows_i, offsets_i = _int_map(self.fn.pieces[i])
        dj, rows_j, offsets_j = _int_map(self.fn.pieces[j])
        return di * dj, [
            [a * dj - b * di for a, b in zip(row_i, row_j)] + [bj * di - bi * dj]
            for row_i, row_j, bi, bj in zip(rows_i, rows_j, offsets_i, offsets_j)
        ]

    def flat_off(
        self, overlap: set[int], facets: tuple[int, ...], on_flat: list[tuple[int, list[int]]]
    ) -> Optional[int]:
        """The first of on_flat, (r, row difference written on the facets'
        flat) for the rows left to the deciders, off target on the
        overlap, or None, when the flat decides the pair
        (lp._Flat.decides): no simplex.

        Written on the flat, once per key, each constraint is a row on
        the coordinates left, and lp._on_flat decides them. An empty
        verdict weighs the rows and the facets; each facet's weight goes
        to its constraint or its exact negation by sign, and
        lp._certified checks the certificate before its support is filed
        as a core. Otherwise lp._flat_off checks the lifted point against
        every constraint and finds the first row off target.
        """
        flat, written = self.flat(facets)
        new = list(overlap.difference(written))
        if new:
            written.update(zip(new, flat.restricted([self.rows[key][1] for key in new])))
        keys = list(overlap)
        on = list(map(written.__getitem__, keys))
        left = self.in_dim - len(flat.kept)
        # Each constraint's ints, read only when the overlap is empty.
        ints = map(itemgetter(1), map(self.rows.__getitem__, keys))
        feasible, found = lp._on_flat(flat, left, ints, on)
        if feasible:
            return lp._flat_off(list(map(self.rows.__getitem__, keys)), found, on, on_flat)
        # Each kept facet's weight stands for its constraint or, when
        # negative, its exact negation; keys then follow found.
        for k, w in zip(flat.kept, found[len(keys) :]):
            keys.append(facets[k] if w > 0 else self.negations[facets[k]])
        used = list(itertools.compress(keys, found))
        weights = list(map(abs, filter(None, found)))
        self.cores.add(tuple(used), lp._certified([self.rows[key] for key in used], weights)[1])
        return None


def _check_pair(fn: PwaFn, i: int, j: int, scan: _PairScan) -> Optional[UnivalenceViolation]:
    """Search for a disagreement between pieces i and j on their overlap.

    An overlap that holds one of the scan's cores needs no LP, and
    neither does one whose facet equalities contradict each other on
    their flat: it is empty. Otherwise the pair's row differences are
    built once (_PairScan.diffs) and written on that flat: a row is
    pinned when it is zero there, and a pair whose every row is pinned
    needs no LP either. When the facets leave at most three coordinates
    (lp._Flat.decides), the rows written on the flat decide the pair
    with no simplex (_PairScan.flat_off), and one found off target is
    searched again on the cold simplex of intersect(pi, pj), for its
    witness, which must agree on the row. Any other pair is decided by
    that cold simplex alone: lp._first_off gives its verdict and
    witness, and an infeasible one files its core.
    """
    pi = fn.pieces[i]
    pj = fn.pieces[j]
    if _int_map(pi) == _int_map(pj):
        # Identical maps agree everywhere, overlap or not.
        return None
    overlap = set(scan.keys[i]).union(scan.keys[j])
    if scan.cores.cover(overlap):
        return None
    facets = scan.of(overlap)
    flat = scan.flat(facets)[0]
    if not flat.consistent:
        # Each facet holds with equality on the overlap, and they share no point.
        return None
    den, diffs = scan.diffs(i, j)
    on_flat = [(r, row) for r, row in enumerate(flat.restricted(diffs)) if any(row)]
    if not on_flat:
        return None
    decided = flat.decides(fn.in_dim)
    if decided:
        off = scan.flat_off(overlap, facets, on_flat)
        if off is None:
            return None
    cold = lp._Simplex(intersect(pi.polyhedron, pj.polyhedron))
    found = lp._first_off(cold, [(r, (den, diffs[r])) for r, _ in on_flat])
    if decided:
        if found is None or found[0] != off:
            raise RuntimeError("the flat and the cold simplex disagree on a pair's overlap")
    elif not cold.feasible:
        scan.cores.add(scan.keys[i] + scan.keys[j], cold.core)
    return None if found is None else UnivalenceViolation(i, j, *found)


def check_univalence(fn: PwaFn) -> UnivalenceVerdict:
    """Decide whether all overlapping pieces of fn agree on their overlaps.

    Every unordered pair of pieces is examined in order; pairs with
    identical maps agree and need no LP. Maps are compared on their
    integer encodings (_int_map), M and b scaled to ints by the lcm of
    their denominators, which are equal exactly when the maps are equal
    by value. Otherwise each output row decides whether the row
    difference is pinned to the offset difference on the pair's
    intersection: on the flat its facets leave, or by two exact linear
    programs after phase 1 over the intersection.
    The scan stops at the first violation in pair order (then row order)
    and returns it with a witness point lying in both polyhedra.

    An empty overlap never disagrees. When a pair's flat or phase 1 finds
    its overlap empty, the constraints that its checked Farkas
    certificate uses form a core, and a later pair whose overlap holds
    every constraint of a core, by value, is skipped without an LP.

    First, a pair collects its overlap's facet equalities:
    each constraint c.x <= b whose exact negation -c.x <= -b, by value,
    is in the overlap too. When they contradict each other
    (lp._Flat.consistent) the overlap is empty, and the pair is skipped
    before its row differences are built. Otherwise a row whose
    difference and offset difference lie in the exact rational span of
    their (c, b) holds on all of the overlap, empty or not, and needs no
    LP; a pair whose every row is pinned is skipped, and only the other
    rows go to the LPs, in order. A row is in the span when it is zero
    on their flat (lp._Flat).

    Where the facets leave k <= 3 coordinates (normals of rank n - k on
    R^n; lp._Flat.decides), the pair needs no simplex: lp decides its
    rows on the flat by the flat step of its hyperplane walk
    (lp._on_flat, then lp._flat_off), and an empty verdict's checked
    certificate, at most n + 1 constraints, is filed as a core. Any
    other pair, with four or more coordinates left, builds one cold
    simplex on its own intersection; lp certifies its phase 1, and
    lp._first_off gives the verdict and the witness. A pair that its
    flat finds off target takes its witness from the same cold simplex,
    which must agree on the row.

    Pinned rows never have an off-target point and skipped pairs are
    empty or agree, so the verdict, down to the witness, is that of the
    plain scan. fn.univalence is set to the
    verdict's status and fn.claimed is cleared; the violation itself is
    only returned.
    """
    scan = _PairScan(fn)
    found: Optional[UnivalenceViolation] = None
    for i, j in itertools.combinations(range(len(fn.pieces)), 2):
        found = _check_pair(fn, i, j, scan)
        if found is not None:
            break
    fn.claimed = False
    fn.univalence = VERIFIED if found is None else REFUTED
    return Univalent() if found is None else found


def _narrowed(
    state: tuple, constraints: Sequence[LinearConstraint]
) -> Optional[tuple[lp._Decider, tuple]]:
    """One emptiness step: a polyhedron with constraints added, or None
    when they leave it empty. The pruned compile (network._fold) takes it
    as its step, and _live walks its trie with it.

    A non-empty polyhedron is held as its nearest feasible decider, of
    the kind lp._root gives, and the rows added since, all of which that
    decider's witness satisfies; (None, ()) is R^n before any row, whose
    first rows build lp._root of their width, so a polyhedron without
    rows builds no decider. Each constraint is read as its integer row
    (den, ints), polyhedra._row. If the witness satisfies the new rows
    too, the polyhedron keeps the decider and adds them to those rows,
    with no work. Otherwise the decider is extended by every row added
    since it, and its verdict, certified inside lp, decides. No
    constraints leave state as it is.
    """
    if not constraints:
        return state
    decider, pending = state
    new = tuple(map(_row, constraints))
    if decider is None:
        decider = lp._root(len(new[0][1]) - 1)
    if lp._satisfies(decider.witness, new):
        return decider, pending + new
    below = decider.extended(pending + new)
    return (below, ()) if below.feasible else None


def _live(fn: PwaFn) -> list[bool]:
    """For each piece of fn, whether its polyhedron is non-empty.

    The pieces' constraint tuples go into a trie keyed by constraint value,
    so a prefix that several pieces share is one node, and its emptiness
    is decided once. Each node holds one constraint object for its key,
    whose integer row (polyhedra._row) is scaled once and serves both the
    witness tests and the deciders. The walk starts at the root, all of
    R^in_dim, as (None, ()), and each child is one _narrowed step from
    its parent: the first rows build lp._root, on R^0 to R^3 the
    hyperplane decider (lp._LowDim), from R^4 on the empty tableau, both
    with the origin as witness, so a piece without constraints ends at
    the root and is live with no decider built. A child keeps the
    parent's decider when the witness satisfies its new constraints, and
    otherwise extends the nearest feasible decider above it by the
    constraints added since; siblings share the parent's decider, which
    extension leaves as it was, and the root's children each build an
    equal root decider of their own. A chain of nodes where no piece ends and
    nothing branches is one step, so pieces that share no first
    constraint cost at most one extension each: one phase 1 on a
    tableau, and on R^1 to R^3 as many hyperplane solves as the step has
    rows that the witness violates.

    Only booleans leave the walk, and lp has certified each verdict
    behind them against its prefix's rows.
    """
    keys, _, _ = _value_keys(fn)
    # A node is (children, pieces ending here, a constraint of its key);
    # children are keyed by that key.
    root = ({}, [], None)
    for i, (piece, piece_keys) in enumerate(zip(fn.pieces, keys)):
        node = root
        for key, lc in zip(piece_keys, piece.polyhedron.constraints):
            child = node[0].get(key)
            if child is None:
                child = node[0][key] = ({}, [], lc)
            node = child
        node[1].append(i)
    live = [False] * len(fn.pieces)
    # (node, _narrowed's state at it)
    stack = [(root, (None, ()))]
    while stack:
        (children, ends, _), state = stack.pop()
        for i in ends:
            live[i] = True
        for child in children.values():
            step = [child[2]]
            while not child[1] and len(child[0]) == 1:
                (child,) = child[0].values()
                step.append(child[2])
            below = _narrowed(state, step)
            if below is not None:
                stack.append((child, below))
    return live


def prune_empty(fn: PwaFn) -> PwaFn:
    """Drop pieces whose polyhedra are empty; order and semantics survive.

    Emptiness is decided once per shared constraint prefix (_live), by
    one _narrowed step from its parent prefix, the step the pruned
    compile takes too: a prefix that contains its parent prefix's
    witness point needs no work, any other extends the nearest feasible ancestor's decider by
    its new rows, on R^1 to R^3 by hyperplane solves and from R^4 on by
    a phase 1, and lp certifies every verdict. The result is that of
    testing every piece on its own.
    The univalence status stays valid: an empty piece never overlaps
    anything, and the two pieces of a violation both contain its witness,
    so neither is dropped and a "refuted" function stays refuted.
    """
    kept = tuple(itertools.compress(fn.pieces, _live(fn)))
    # fn's pieces passed PwaFn's checks when fn was built.
    return _unchecked_pwafn(fn.in_dim, fn.out_dim, kept, fn.univalence, fn.claimed)


def count_regions(fn: PwaFn) -> int:
    """Number of pieces whose polyhedron is non-empty.

    Decided like prune_empty: once per shared constraint prefix, reusing
    the parent prefix's witness point where it fits and extending its
    nearest feasible ancestor's decider where it does not.
    """
    return sum(_live(fn))
