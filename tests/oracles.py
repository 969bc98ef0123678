"""Independent reference computations the tests check the library against.

Nothing in here touches the simplex or the library's arithmetic: linear
systems are solved by direct Gaussian elimination, optima come from
brute-force vertex enumeration, and dot products, membership and affine
maps are raw Fraction loops. right_fold_transform is the one exception:
it keeps the network compiler's earlier composition order, last layer
first, and its explicit ReLU pieces, as the reference for the forward
fold and for compose_relu.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from pwanet.network import Network, OutputLayer, PwaLayer, ReluLayer, relu_nd
from pwanet.numeric import ColVec
from pwanet.polyhedra import Polyhedron
from pwanet.pwa import PwaFn, identity_pwaf
from pwanet.pwa_algebra import compose


def dot(v, w) -> Fraction:
    """Inner product by a raw Fraction loop, one term at a time."""
    total = Fraction(0)
    for a, b in zip(v, w, strict=True):
        total += Fraction(a) * Fraction(b)
    return total


def contains(poly: Polyhedron, x: ColVec) -> bool:
    """Does x satisfy every constraint c.x <= b of poly?"""
    return all(dot(lc.c, x) <= lc.b for lc in poly.constraints)


def right_fold_transform(net: Network) -> PwaFn | None:
    """network.transform as it composed before the forward fold.

    The output marker becomes the identity, and the PWA layers before it
    are composed onto it from the last to the first, each ReLU layer
    expanded into relu_nd(dim).
    """
    end = next(
        (i for i, layer in enumerate(net.layers) if not isinstance(layer, (PwaLayer, ReluLayer))),
        len(net.layers),
    )
    if end == len(net.layers) or not isinstance(net.layers[end], OutputLayer):
        return None
    fn = identity_pwaf(net.layers[end].dim)
    for layer in reversed(net.layers[:end]):
        fn = compose(fn, relu_nd(layer.dim) if isinstance(layer, ReluLayer) else layer.fn)
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
