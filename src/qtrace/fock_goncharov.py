"""Triangle quivers, snake matrices, and quantum matrix relation checks.

Coordinates on an ideal triangle are indexed by barycentric triples
(a, b, c) with a + b + c = n and a, b, c >= 0, excluding the three
corners.  Edge coordinates sit on the boundary of the discrete triangle,
interior coordinates strictly inside.  The omega-commutation exponents
come from a quiver: each small upward subtriangle contributes a
counterclockwise cycle of arrows, each small downward subtriangle a
clockwise cycle; arrows shared by two subtriangles add up to weight 2,
boundary arrows keep weight 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations, permutations
from typing import Callable, Mapping, Sequence

from .qtorus import (
    QuantumTorusSpec,
    TorusElement,
    TorusMatrix,
    make_spec,
    mat_mul,
    normal_product,
    q_power,
    torus_sum,
    weyl_lift,
)


def triangle_vertices(n: int) -> list[tuple[int, int, int]]:
    """Vertices of the discrete n-triangle minus its corners, in lex order."""
    if n < 2:
        raise ValueError("n must be >= 2")
    corners = {(n, 0, 0), (0, n, 0), (0, 0, n)}
    out = []
    for a in range(n + 1):
        for b in range(n + 1 - a):
            c = n - a - b
            if (a, b, c) not in corners:
                out.append((a, b, c))
    return out


def _vertex_name(n: int, v: tuple[int, int, int]) -> str:
    a, b, c = v
    if b == 0:
        return f"Z{a}"
    if c == 0:
        return f"Zp{a}"
    if a == 0:
        return f"Zpp{b}"
    return f"X{a}{b}{c}"


@dataclass(frozen=True)
class TriangleCoordinates:
    """Generator indexing for one triangle: spec plus (a,b,c) lookup."""

    n: int
    spec: QuantumTorusSpec
    index: Mapping[tuple[int, int, int], int]


def triangle_poisson(n: int) -> TriangleCoordinates:
    """Quiver-derived antisymmetric matrix for one triangle."""
    verts = triangle_vertices(n)
    idx = {v: i for i, v in enumerate(verts)}
    N = len(verts)
    P = [[0] * N for _ in range(N)]

    def arrow(u, v):
        if u in idx and v in idx:
            P[idx[u]][idx[v]] += 1
            P[idx[v]][idx[u]] -= 1

    def cycle(v0, v1, v2):
        arrow(v0, v1)
        arrow(v1, v2)
        arrow(v2, v0)

    # upward subtriangles, counterclockwise
    for a in range(n):
        for b in range(n - a):
            c = n - 1 - a - b
            cycle((a + 1, b, c), (a, b, c + 1), (a, b + 1, c))
    # downward subtriangles, clockwise
    for a in range(n - 1):
        for b in range(n - 1 - a):
            c = n - 2 - a - b
            cycle((a, b + 1, c + 1), (a + 1, b, c + 1), (a + 1, b + 1, c))

    spec = make_spec(n, P, [_vertex_name(n, v) for v in verts])
    return TriangleCoordinates(n=n, spec=spec, index=idx)


def commutative_spec(spec: QuantumTorusSpec) -> QuantumTorusSpec:
    """Same generators, trivial commutation: the h = 1 polynomial algebra."""
    zero = tuple(tuple(0 for _ in range(spec.N)) for _ in range(spec.N))
    return QuantumTorusSpec(n=spec.n, N=spec.N, P=zero, names=spec.names)


def _gen(spec, i, num):
    return TorusElement.generator(spec, i, num)


def elementary_matrix(
    spec: QuantumTorusSpec, kind: str, j: int, var: int | None = None, normalized: bool = True
) -> TorusMatrix:
    """The j-th elementary edge/left/right matrix, with its normalizing prefactor.

    var is the generator index of the variable; the left and right matrices
    with j = 1 take no variable.  normalized=False drops the fractional
    prefactor (useful only as a negative control; the resulting matrices are
    not quantum group points).
    """
    n = spec.n
    if not 1 <= j <= n - 1:
        raise ValueError("j out of range")
    one = TorusElement.one(spec)
    zero = TorusElement.zero(spec)
    M = [[zero for _ in range(n)] for _ in range(n)]
    if kind == "edge":
        # Z^(-j/n) * diag(Z ... Z, 1 ... 1), Z appearing j times
        p = -j if normalized else 0
        for k in range(n):
            M[k][k] = _gen(spec, var, n + p) if k < j else _gen(spec, var, p)
        return TorusMatrix(spec, M)
    if kind == "left":
        # X^(-(j-1)/n) * (diag(X ... X, 1 ... 1) + E_{j,j+1}), X appearing j-1 times
        pre = _gen(spec, var, -(j - 1)) if normalized and j > 1 else one
        for k in range(n):
            M[k][k] = pre * _gen(spec, var, n) if k < j - 1 else pre
        M[j - 1][j] = pre
        return TorusMatrix(spec, M)
    if kind == "right":
        # X^((j-1)/n) * (diag(1 ... 1, X^-1 ... X^-1) + E_{n-j+1,n-j}),
        # X^-1 appearing j-1 times in the last rows
        pre = _gen(spec, var, j - 1) if normalized and j > 1 else one
        for k in range(n):
            M[k][k] = pre * _gen(spec, var, -n) if k > n - j else pre
        M[n - j][n - j - 1] = pre
        return TorusMatrix(spec, M)
    raise ValueError(f"unknown kind {kind!r}")


def edge_matrix(spec: QuantumTorusSpec, zvec: Sequence[int], normalized: bool = True) -> TorusMatrix:
    """Product of elementary edge matrices S_1(Z_1) ... S_{n-1}(Z_{n-1})."""
    if len(zvec) != spec.n - 1:
        raise ValueError("edge vector must have n-1 entries")
    return reduce(mat_mul, (elementary_matrix(spec, "edge", j, z, normalized) for j, z in enumerate(zvec, start=1)))


def turn_matrix(
    spec: QuantumTorusSpec, kind: str, interior: Callable[[int, int, int], int], normalized: bool = True
) -> TorusMatrix:
    """Left or right monodromy matrix in interior variables only.

    The product runs over i = n-1 down to 1; within each block the
    elementary matrices are multiplied with ascending j, the j-th factor
    taking the interior variable at (j-1, n-i, i-j+1) for a left turn and
    at (i-j+1, n-i, j-1) for a right turn.
    """
    n = spec.n
    if kind not in ("left", "right"):
        raise ValueError("kind must be left or right")
    factors = []
    for i in range(n - 1, 0, -1):
        factors.append(elementary_matrix(spec, kind, 1))
        for j in range(2, i + 1):
            if kind == "left":
                v = interior(j - 1, n - i, i - j + 1)
            else:
                v = interior(i - j + 1, n - i, j - 1)
            factors.append(elementary_matrix(spec, kind, j, v, normalized))
    return reduce(mat_mul, factors)


def weyl_lift_matrix(M: TorusMatrix, qspec: QuantumTorusSpec) -> TorusMatrix:
    """Weyl-lift each entry of a commutative matrix term by term."""
    out = []
    for row in M.entries:
        out.append([weyl_lift(x.at_one(), qspec) for x in row])
    return TorusMatrix(qspec, out)


def quantum_turn_matrix(
    kind: str,
    tri: TriangleCoordinates,
    entry_edge: Sequence[int],
    exit_edge: Sequence[int],
    interior: Callable[[int, int, int], int],
    normalized: bool = True,
) -> TorusMatrix:
    """Weyl-ordered product edge * (left|right) * edge over the triangle torus.

    Edge vectors list generator indices for dot positions j = 1 .. n-1 on
    the entry and exit edges; interior(a, b, c) gives the generator index
    of an interior vertex.  The classical product is computed in the
    commutative twin algebra and each entry lifted term by term.
    """
    qspec = tri.spec
    cspec = commutative_spec(qspec)
    prod = mat_mul(
        mat_mul(edge_matrix(cspec, entry_edge, normalized), turn_matrix(cspec, kind, interior, normalized)),
        edge_matrix(cspec, exit_edge, normalized),
    )
    return weyl_lift_matrix(prod, qspec)


def _inversions(perm: Sequence[int]) -> int:
    return sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j])


def quantum_determinant(M: TorusMatrix) -> TorusElement:
    """Row-ordered quantum determinant: sum over permutations of
    (-q)^inv(s) * M[0][s(0)] * ... * M[m-1][s(m-1)]."""
    if M.rows != M.cols:
        raise ValueError("matrix must be square")
    n = M.spec.n

    def terms():
        for perm in permutations(range(M.rows)):
            entries = [row[j] for row, j in zip(M.entries, perm)]
            if not any(e.is_zero() for e in entries):
                inv = _inversions(perm)
                yield reduce(normal_product, entries) * q_power(n, inv, coeff=(-1) ** inv)

    return torus_sum(M.spec, terms())


def is_mnq_point(M: TorusMatrix) -> bool:
    """Every 2x2 submatrix [[a, b], [c, d]] satisfies the quantum matrix
    relations b a = q a b, c a = q a c, d b = q b d, d c = q c d, b c =
    c b and d a - a d = (q - q^-1) b c.  A same-row or same-column pair
    lies in many submatrices, so its relation is checked once."""
    E = M.entries
    n = M.spec.n
    q = q_power(n, 1)
    qinv = q_power(n, -1)
    pairs = lambda size: combinations(range(size), 2)

    def q_commute(a, b):
        return b * a == q * (a * b)

    return (
        all(q_commute(row[k], row[l]) for row in E for k, l in pairs(M.cols))
        and all(q_commute(E[i][k], E[j][k]) for k in range(M.cols) for i, j in pairs(M.rows))
        and all(
            E[i][l] * E[j][k] == E[j][k] * E[i][l]
            and E[j][l] * E[i][k] - E[i][k] * E[j][l] == (q - qinv) * (E[i][l] * E[j][k])
            for i, j in pairs(M.rows)
            for k, l in pairs(M.cols)
        )
    )


def is_slnq_point(M: TorusMatrix) -> bool:
    if M.rows != M.cols:
        raise ValueError("matrix must be square")
    return is_mnq_point(M) and quantum_determinant(M) == TorusElement.one(M.spec)
