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
from functools import lru_cache, reduce
from itertools import combinations, permutations
from operator import add
from typing import Callable, Mapping, Sequence

from .qtorus import (
    ONE,
    QuantumTorusSpec,
    TorusElement,
    TorusMatrix,
    normal_product,
    product_sum,
    q_power,
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


@dataclass(frozen=True, eq=False)
class TriangleCoordinates:
    """Generator indexing for one triangle: spec plus (a,b,c) lookup.
    It compares by identity, so it can key a cache."""

    n: int
    spec: QuantumTorusSpec
    index: Mapping[tuple[int, int, int], int]


@lru_cache(maxsize=None)
def triangle_poisson(n: int) -> TriangleCoordinates:
    """Quiver-derived torus of one triangle, built once per rank, so
    every triangle of that rank shares one torus.  Each arrow u -> v adds
    1 to P[u][v] and -1 to P[v][u], and is kept as its entry below the
    diagonal; arrows that cancel leave no entry."""
    verts = triangle_vertices(n)
    idx = {v: i for i, v in enumerate(verts)}
    rows = [{} for _ in verts]

    def arrow(u, v):
        if u in idx and v in idx:
            a, b = idx[u], idx[v]
            j, i, p = (a, b, 1) if a > b else (b, a, -1)
            rows[j][i] = rows[j].get(i, 0) + p

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

    lower = tuple(tuple(sorted((i, p) for i, p in row.items() if p)) for row in rows)
    spec = QuantumTorusSpec(n, len(verts), lower, tuple(_vertex_name(n, v) for v in verts))
    return TriangleCoordinates(n=n, spec=spec, index=idx)


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
    of an interior vertex.  The classical product is built at h = 1,
    where the generators commute, as column operations on one running
    matrix of {exponent: coefficient} entries:

    - the entry edge S_1(Z_1) ... S_{n-1}(Z_{n-1}) is the diagonal whose
      k-th entry carries Z_j for every j > k;
    - the turn runs i = n-1 down to 1 and, within each run, j = 1 .. i.
      Step j scales j-1 columns by X (left: the first ones) or X^-1
      (right: the last ones), X the interior variable at
      (j-1, n-i, i-j+1) for a left turn and at (i-j+1, n-i, j-1) for a
      right turn, then adds column j into column j+1 (left) or column
      n-j+1 into column n-j (right); step j = 1 has no variable;
    - the exit edge scales the columns by its diagonal.

    The normalizing prefactors Z_j^(-j/n) and X^(-+(j-1)/n) are central
    at h = 1, so they collect into one monomial; normalized=False drops
    it (a negative control: the result is not a quantum group point).
    Each entry is then Weyl-lifted term by term.
    """
    qspec = tri.spec
    n, N = qspec.n, qspec.N
    if len(entry_edge) != n - 1 or len(exit_edge) != n - 1:
        raise ValueError("edge vector must have n-1 entries")
    if kind not in ("left", "right"):
        raise ValueError("kind must be left or right")
    sign = 1 if kind == "left" else -1
    pre = [0] * N  # the collected prefactor, exponents in 1/n units

    def edge_diagonal(zvec):
        diag = [[0] * N for _ in range(n)]
        for j, z in enumerate(zvec, start=1):
            for k in range(j):
                diag[k][z] += n
            pre[z] -= j
        return diag

    M = [[{tuple(d): 1} if k == r else {} for k in range(n)] for r, d in enumerate(edge_diagonal(entry_edge))]
    for i in range(n - 1, 0, -1):
        for j in range(1, i + 1):
            if kind == "left":
                scaled, src, dst, vertex = range(j - 1), j - 1, j, (j - 1, n - i, i - j + 1)
            else:
                scaled, src, dst, vertex = range(n - j + 1, n), n - j, n - j - 1, (i - j + 1, n - i, j - 1)
            if j > 1:
                x = interior(*vertex)
                for row in M:
                    for k in scaled:
                        row[k] = {e[:x] + (e[x] + sign * n,) + e[x + 1 :]: c for e, c in row[k].items()}
                pre[x] -= sign * (j - 1)
            for row in M:
                for e, c in row[src].items():
                    row[dst][e] = row[dst].get(e, 0) + c
    exit_diag = edge_diagonal(exit_edge)
    if not normalized:
        pre = [0] * N
    shifts = [list(map(add, d, pre)) for d in exit_diag]
    rows = [[{tuple(map(add, e, s)): c for e, c in entry.items()} for entry, s in zip(row, shifts)] for row in M]
    return TorusMatrix(qspec, [[weyl_lift(entry, qspec) for entry in row] for row in rows])


def _inversions(perm: Sequence[int]) -> int:
    return sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j])


def quantum_determinant(M: TorusMatrix) -> TorusElement:
    """Row-ordered quantum determinant: sum over permutations of
    (-q)^-inv(s) * M[0][s(0)] * ... * M[m-1][s(m-1)], one ``product_sum``
    whose pairs are the product of the first m-1 factors and the last.
    This is the determinant of the relations ``is_mnq_point`` checks
    (b a = q a b, ..., Manin's with q inverted): a d - q^-1 b c at m = 2."""
    if M.rows != M.cols:
        raise ValueError("matrix must be square")
    n = M.spec.n

    def triples():
        for perm in permutations(range(M.rows)):
            entries = [row[j] for row, j in zip(M.entries, perm)]
            if not any(e.is_zero() for e in entries):
                inv = _inversions(perm)
                head = reduce(normal_product, entries[:-1] or [TorusElement.one(M.spec)])
                yield q_power(n, -inv, coeff=(-1) ** inv), head, entries[-1]

    return product_sum(M.spec, triples())


def is_mnq_point(M: TorusMatrix) -> bool:
    """Every 2x2 submatrix [[a, b], [c, d]] satisfies the quantum matrix
    relations b a = q a b, c a = q a c, d b = q b d, d c = q c d, b c =
    c b and d a - a d = (q - q^-1) b c.  A same-row or same-column pair
    lies in many submatrices, so its relation is checked once.  Each
    relation is one ``product_sum`` that must vanish."""
    E, spec, minus_q = M.entries, M.spec, q_power(M.spec.n, 1, coeff=-1)
    minus_one, gap = -ONE, q_power(M.spec.n, -1) + minus_q  # gap = q^-1 - q

    def vanishes(*triples):
        return product_sum(spec, triples).is_zero()

    def q_commute(a, b):
        return vanishes((ONE, b, a), (minus_q, a, b))

    return (
        all(q_commute(a, b) for row in E for a, b in combinations(row, 2))
        and all(q_commute(a, c) for col in zip(*E) for a, c in combinations(col, 2))
        and all(
            vanishes((ONE, b, c), (minus_one, c, b)) and vanishes((ONE, d, a), (minus_one, a, d), (gap, b, c))
            for i, j in combinations(range(M.rows), 2)
            for (a, c), (b, d) in combinations(zip(E[i], E[j]), 2)
        )
    )


def is_slnq_point(M: TorusMatrix) -> bool:
    if M.rows != M.cols:
        raise ValueError("matrix must be square")
    return is_mnq_point(M) and quantum_determinant(M) == TorusElement.one(M.spec)
