"""Classical oracles used by the test suite.

The numeric oracles re-derive the classical local monodromy matrices
directly from the elementary snake-matrix factorization with plain
floating point arithmetic, so they share no code with the symbolic
implementation.  ``edge_matrix`` and ``turn_matrix`` multiply the
elementary snake matrices out in the commutative algebra, independently
of the library's column operations; ``elementary_turn_matrix`` lifts
their product edge * turn * edge to the quantum torus.  The exact oracle
``classical_trace_polynomial`` multiplies those edge and turn matrices
along a closed curve, independently of the state sum.
``plain_normal_product`` multiplies two torus elements by the
commutation rule read from P with its own loops and plain dicts,
independently of the library's packed ``normal_product``;
``weyl_order`` and ``enumerated_trace`` multiply with it.
``weyl_order`` orders a word of generators with its own dense loop over
P, independently of the spec's ordering form.  ``enumerated_trace`` is the state sum taken term
by term in the tensor torus, reading every pair of edge states through
``biangle_trace``; it finds each arc end's edge and strand position by
its own scans, so it shares no wiring with ``quantum_trace``.  ``oracle_crossing_matrix`` builds
the biangle crossings from the four standard-basis braidings and a
change to the preferred dual basis, independently of the library's
single braiding and its rotation through the U-turns.
``dense_word_matrix`` multiplies a word of slices out as dense Kronecker
products of the public slice matrices, independently of the slice tables
and the biangle sweep.  ``paper_move_displays`` transcribes the paper's
n = 3 displayed matrices of the moves I-IV entry by entry, independently
of the matrix products that the move suite compares.
"""

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import product
from typing import Callable, Sequence

import numpy as np

from qtrace.biangle import CROSSING_KINDS, BiangleDiagram, biangle_trace, crossing_matrix, kink_scalar, uturn_matrix
from qtrace.qtorus import (
    ONE,
    ZERO,
    QuantumTorusSpec,
    RootScalar,
    TorusElement,
    TorusMatrix,
    kron,
    mat_mul,
    q_power,
    torus_sum,
    weyl_lift,
)
from qtrace.surface import arc_quantum_matrix, inward_sequence, rotate_vertex, turn_exit_side


# ---------------------------------------------------------------------------
# curves as edge and triangle sequences


@dataclass(frozen=True)
class CurveStep:
    """One edge crossing followed by one triangle traversal.

    edge: id of the edge crossed entering the triangle.
    triangle: id of the triangle entered.
    turn: 'left', 'right', 'uturn_cw', or 'uturn_ccw'.
    t: winding integer (full right turns; only relevant for even n).
    """

    edge: object
    triangle: object
    turn: str
    t: int = 0


def side_of(triangulation, edge_id, triangle):
    """The side of a triangle that an edge is glued to."""
    e = triangulation.edge_by_id(edge_id)
    sides = [s for t, s in e.incidences if t == triangle]
    if len(sides) != 1:
        raise ValueError(f"edge {edge_id!r} does not meet triangle {triangle} exactly once")
    return sides[0]


def edge_dot_indices(surface, edge_id, triangle):
    """Glued generator indices of an edge's dots in the order seen by a
    curve entering the given triangle through that edge."""
    side = side_of(surface.triangulation, edge_id, triangle)
    m = surface.tensor_to_glued[surface.tri_offset[triangle] :]
    return tuple(m[i] for i in inward_sequence(surface.tri, side))


def interior_lookup(surface, triangle, entry_edge):
    """Interior dot lookup in the frame where the entry edge plays side
    0, mapped to glued indices."""
    side = side_of(surface.triangulation, entry_edge, triangle)
    m = surface.tensor_to_glued[surface.tri_offset[triangle] :]

    def lookup(a, b, c):
        return m[surface.tri.index[rotate_vertex((a, b, c), side)]]

    return lookup


def exit_edge(surface, triangle, entry_edge, turn):
    side = side_of(surface.triangulation, entry_edge, triangle)
    if turn in ("uturn_cw", "uturn_ccw"):
        return entry_edge
    return edge_at(surface.triangulation, triangle, turn_exit_side(side, turn)).id


def edge_at(triangulation, triangle, side):
    """The edge glued to one side of a triangle, by a scan over edges."""
    (edge,) = [e for e in triangulation.edges if (triangle, side) in e.incidences]
    return edge


# ---------------------------------------------------------------------------
# snake matrices as products of elementary matrices


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


def elementary_turn_matrix(kind, tri, entry_edge, exit_edge, interior, normalized=True):
    """Weyl lift of the commutative product edge * (left|right) * edge,
    each factor multiplied out from its elementary matrices."""
    cspec = commutative_spec(tri.spec)
    prod = mat_mul(
        mat_mul(edge_matrix(cspec, entry_edge, normalized), turn_matrix(cspec, kind, interior, normalized)),
        edge_matrix(cspec, exit_edge, normalized),
    )
    return weyl_lift_matrix(prod, tri.spec)


# ---------------------------------------------------------------------------
# the exact classical trace


def classical_uturn(spec, ccw=False):
    """Antidiagonal matrix with alternating signs, +1 at the bottom left."""
    n = spec.n
    zero = TorusElement.zero(spec)
    M = [[zero for _ in range(n)] for _ in range(n)]
    for k in range(n):
        # row n-1-k, column k carries (-1)^k
        M[n - 1 - k][k] = TorusElement.scalar(spec, RootScalar({0: (-1) ** k}))
    U = TorusMatrix(spec, M)
    return U.transpose() if ccw else U


def classical_trace_polynomial(steps, surface):
    """Trace of the ordered product of edge and turn matrices at h = 1,
    as {exponent vector in 1/n units: integer coefficient}."""
    if not steps:
        raise ValueError("curve must cross at least one edge")
    spec = commutative_spec(surface.glued_spec)
    n = spec.n
    total = TorusMatrix.identity(spec, n)
    for k, step in enumerate(steps):
        prev = steps[k - 1]
        if exit_edge(surface, prev.triangle, prev.edge, prev.turn) != step.edge:
            raise ValueError(f"step {k}: curve is not closed/consistent at edge {step.edge!r}")
        zvec = edge_dot_indices(surface, step.edge, step.triangle)
        total = mat_mul(total, edge_matrix(spec, zvec))
        sign = (-1) ** ((n - 1) * step.t)
        if step.turn in ("left", "right"):
            M = turn_matrix(spec, step.turn, interior_lookup(surface, step.triangle, step.edge))
        elif step.turn == "uturn_cw":
            M = classical_uturn(spec, ccw=False)
        elif step.turn == "uturn_ccw":
            M = classical_uturn(spec, ccw=True)
        else:
            raise ValueError(f"unknown turn {step.turn!r}")
        if sign == -1:
            M = M.map(lambda x: -x)
        total = mat_mul(total, M)
    tr = TorusElement.zero(spec)
    for i in range(n):
        tr = tr + total.entries[i][i]
    return tr.at_one()


# ---------------------------------------------------------------------------
# numeric monodromy


def numeric_edge_matrix(z):
    """Normalized classical edge matrix for n = len(z) + 1 dots, dots
    listed in the order seen by the crossing strand."""
    n = len(z) + 1
    diag = [float(np.prod([1.0] + list(z[i:]))) for i in range(n - 1)] + [1.0]
    scale = float(np.prod([z[j] ** ((j + 1) / n) for j in range(n - 1)]))
    return np.diag(diag) / scale


def numeric_left_turn(n, interior):
    """Normalized classical left-turn factor between edge matrices,
    built as runs of elementary upper-triangular snake factors: for
    run r the factors are S_1, ..., S_{n-1-r}, where S_j carries the
    interior coordinate at (j-1, r+1, n-j-r) for j > 1."""
    total = np.eye(n)
    scale = 1.0
    for r in range(n - 1):
        for j in range(1, n - r):
            S = np.eye(n)
            S[j - 1, j] = 1.0
            if j > 1:
                x = interior(j - 1, r + 1, n - j - r)
                for k in range(j - 1):
                    S[k, k] = x
                scale *= x ** ((j - 1) / n)
            total = total @ S
    return total / scale


def numeric_right_turn(n, interior):
    """Normalized classical right-turn factor between edge matrices:
    runs of lower-triangular snake factors; S_j carries the interior
    coordinate at (n-j-r, r+1, j-1) for j > 1."""
    total = np.eye(n)
    scale = 1.0
    for r in range(n - 1):
        for j in range(1, n - r):
            S = np.eye(n)
            S[n - j, n - j - 1] = 1.0
            if j > 1:
                x = interior(n - j - r, r + 1, j - 1)
                for k in range(n - j + 1, n):
                    S[k, k] = 1.0 / x
                # the right-turn normalization multiplies by x^((j-1)/n)
                scale *= x ** ((j - 1) / n)
            total = total @ S
    return total * scale


def numeric_curve_trace(n, steps, surface, values):
    """Trace of the product of numeric edge and turn matrices along a
    closed curve; values maps glued generator index -> positive float."""
    total = np.eye(n)
    for step in steps:
        dots = edge_dot_indices(surface, step.edge, step.triangle)
        total = total @ numeric_edge_matrix([values[i] for i in dots])
        lookup = interior_lookup(surface, step.triangle, step.edge)
        interior = lambda a, b, c: values[lookup(a, b, c)]
        if step.turn == "left":
            total = total @ numeric_left_turn(n, interior)
        elif step.turn == "right":
            total = total @ numeric_right_turn(n, interior)
        else:
            raise ValueError("oracle only handles flat turns")
        total = total * (-1.0) ** ((n - 1) * step.t)
    return float(np.trace(total))


def evaluate_classical(n, poly, values):
    """Evaluate {exponent vector in 1/n units: coefficient} at positive
    generator values."""
    total = 0.0
    for evec, coeff in poly.items():
        term = float(coeff)
        for i, e in enumerate(evec):
            if e:
                term *= values[i] ** (e / n)
        total += term
    return total


def evaluate_scalar(c, h_value):
    """Numeric value of a Laurent polynomial in h at h = h_value."""
    if h_value == 0:
        raise ValueError("h must be nonzero")
    return sum(a * h_value**k for k, a in c.terms.items())


def evaluate_element(elem, h_value, gen_values):
    """Numeric value of a torus element at h = h_value and
    X_i = gen_values[i] > 0."""
    n = elem.spec.n
    total = 0.0
    for e, c in elem.terms.items():
        m = evaluate_scalar(c, h_value)
        for i, ei in enumerate(e):
            if ei:
                m *= gen_values[i] ** (ei / n)
        total += m
    return total


def map_exponents(elem, target_spec, index_map):
    """Reindex a torus element's monomials into another spec via a
    generator index map."""

    def reindexed(e):
        e2 = [0] * target_spec.N
        for i, ei in enumerate(e):
            if ei:
                e2[index_map[i]] += ei
        return tuple(e2)

    return TorusElement(target_spec, ((reindexed(e), c) for e, c in elem.terms.items()))


# ---------------------------------------------------------------------------
# Weyl ordering of a word


def plain_normal_product(a, b):
    """a * b by the rule X^e X^f = h^(2 sum_{i<j} P[j][i] e_j f_i) X^(e+f),
    read from spec.P with its own loops and summed in plain dicts."""
    P, N = a.spec.P, a.spec.N
    lower = [(j, i, P[j][i]) for j in range(N) for i in range(j) if P[j][i]]
    sums = {}
    for e, c in a.terms.items():
        for f, d in b.terms.items():
            k = 2 * sum(p * e[j] * f[i] for j, i, p in lower)
            acc = sums.setdefault(tuple(x + y for x, y in zip(e, f)), {})
            for h1, c1 in c.terms.items():
                for h2, c2 in d.terms.items():
                    acc[k + h1 + h2] = acc.get(k + h1 + h2, 0) + c1 * c2
    return TorusElement(a.spec, {e: RootScalar(t) for e, t in sums.items()})


def weyl_order(word, spec):
    """Weyl quantum ordering of a word [(index, exponent in 1/n units), ...].

    Returns h^(-sum_{a<b} P[i_a][i_b] m_a m_b) times the normal-ordered
    product of the letters; invariant under permutations of the word.
    """
    k = 0
    for a, (ia, ma) in enumerate(word):
        for ib, mb in word[a + 1 :]:
            k -= spec.P[ia][ib] * ma * mb
    out = TorusElement.scalar(spec, RootScalar({k: 1}))
    for i, m in word:
        out = plain_normal_product(out, TorusElement.generator(spec, i, m))
    return out


# ---------------------------------------------------------------------------
# the state sum, enumerated in the tensor torus


def side_arcs(link, triangle, side):
    """Arcs of a triangle incident to one side, bottom to top, with
    their role there ('entry' or 'exit'), by a scan over all arcs."""
    out = []
    for arc in link.arcs:
        if arc.triangle == triangle and arc.entry == side:
            out.append((arc, "entry"))
        if arc.triangle == triangle and arc.exit == side:
            out.append((arc, "exit"))
    return sorted(out, key=lambda pair: pair[0].height)


def endpoint_key(link, surface, arc, role):
    """Identify an arc end: ('slot', edge id, incidence, pos) for an
    internal interface, or ('state', fixed value) at the boundary."""
    side = arc.entry if role == "entry" else arc.exit
    edge = edge_at(surface.triangulation, arc.triangle, side)
    # an arc cannot enter and exit through the same side, so the arc
    # occurs once on this side
    pos = 1 + [a for a, _ in side_arcs(link, arc.triangle, side)].index(arc)
    if edge.is_boundary:
        return ("state", link.boundary_states[(edge.id, pos)])
    return ("slot", edge.id, edge.incidences.index((arc.triangle, side)), pos)


def enumerated_trace(link, surface):
    """Tensor-torus quantum trace of a link in good position, summed
    state by state: for every choice of internal boundary states, the
    product of the biangle amplitudes times the plain_normal_product, in
    triangle order, of each triangle's height-ordered arc factor
    embedded in the tensor torus.  Every pair of left and right states
    of an edge, zero or not, is read through biangle_trace from the
    edge's one diagram, so the oracle does not rely on which entries the
    diagram's amplitude table lists."""
    n = surface.n
    tensor_spec, tri_spec = surface.tensor_spec, surface.tri.spec
    edge_tables = []
    for edge in surface.triangulation.internal_edges:
        (t0, s0), (t1, s1) = edge.incidences
        left = tuple("r" if role == "exit" else "l" for _, role in side_arcs(link, t0, s0))
        right = tuple("r" if role == "entry" else "l" for _, role in side_arcs(link, t1, s1))
        diagram = BiangleDiagram(n, left, link.slices.get(edge.id, ()))
        table = {}
        for ls in product(range(1, n + 1), repeat=len(left)):
            for rs in product(range(1, n + 1), repeat=len(right)):
                value = biangle_trace(diagram, ls, rs)
                if not value.is_zero():
                    table[(ls, rs)] = value
        edge_tables.append((edge.id, table))

    tri_arcs = {}
    for arc in sorted(link.arcs, key=lambda a: a.height):
        tri_arcs.setdefault(arc.triangle, []).append(arc)

    def factor(t, slot_state):
        def state(arc, role):
            key = endpoint_key(link, surface, arc, role)
            return key[1] if key[0] == "state" else slot_state[key[1:]]

        elem = TorusElement.one(tri_spec)
        for arc in tri_arcs[t]:
            entry = arc_quantum_matrix(surface.tri, arc.entry, arc.turn)[state(arc, "entry") - 1, state(arc, "exit") - 1]
            elem = plain_normal_product(elem, entry)
        off = surface.tri_offset[t]
        return map_exponents(elem, tensor_spec, {i: off + i for i in range(tri_spec.N)})

    def terms():
        for combo in product(*(table.items() for _, table in edge_tables)):
            slot_state = {}
            amp = ONE
            for (edge_id, _), ((ls, rs), value) in zip(edge_tables, combo):
                amp = amp * value
                slot_state.update({(edge_id, 0, pos): v for pos, v in enumerate(ls, start=1)})
                slot_state.update({(edge_id, 1, pos): v for pos, v in enumerate(rs, start=1)})
            term = TorusElement.scalar(tensor_spec, amp)
            for t in sorted(tri_arcs):
                term = plain_normal_product(term, factor(t, slot_state))
            yield term

    return torus_sum(tensor_spec, terms())


# ---------------------------------------------------------------------------
# biangle crossings from the four standard-basis braidings


def braiding_std(n, pair):
    """Standard-basis matrix (rows = output, cols = input) of the inverse
    braiding on one of the four two-factor spaces.

    pair is one of "vv", "dd", "dv", "vd" where "v" is the defining
    n-dimensional space and "d" its dual.
    """
    size = n * n
    M = [[ZERO] * size for _ in range(size)]
    qp = lambda num, den=1: q_power(n, num, den)

    def add(out_i, out_j, in_i, in_j, value):
        M[(out_i - 1) * n + out_j - 1][(in_i - 1) * n + in_j - 1] += value

    states = range(1, n + 1)
    for i, j in product(states, repeat=2):
        if pair in ("vv", "dd"):
            # q^(1/n) { q^-1 (i,i) ; (q^-1 - q)(i,j) + (j,i) for i<j ; (j,i) for i>j },
            # with the i<j and i>j cases swapped on the dual spaces
            if i == j:
                add(i, i, i, i, qp(1, n) * qp(-1))
            elif (i < j) == (pair == "vv"):
                add(i, j, i, j, qp(1, n) * (qp(-1) - qp(1)))
                add(j, i, i, j, qp(1, n))
            else:
                add(j, i, i, j, qp(1, n))
        elif pair in ("dv", "vd"):
            # dual (x) defining -> defining (x) dual, or back
            if i != j:
                add(j, i, i, j, qp(-1, n))
                continue
            add(i, i, i, i, qp(-1, n) * qp(1))
            for k in range(1, i) if pair == "dv" else range(i + 1, n + 1):
                weight = ONE if pair == "dv" else qp(2 * (k - i))
                add(k, k, i, i, qp(-1, n) * (qp(1) - qp(-1)) * weight)
        else:
            raise ValueError(f"unknown factor pair: {pair!r}")
    return TorusMatrix(None, M)


def neg_q_power(n, k):
    """(-q)^k as an exact scalar."""
    return q_power(n, k, coeff=(-1) ** (k % 2))


def dual_basis_matrix(n):
    """Change of basis on the dual factor: the preferred dual basis
    vector with label i is (-q)^(n-i) times the standard dual vector with
    label n-i+1; columns hold the standard coordinates of the preferred
    vectors."""
    M = [[ZERO] * n for _ in range(n)]
    for i in range(1, n + 1):
        M[n - i][i - 1] = neg_q_power(n, n - i)
    return TorusMatrix(None, M)


def dual_basis_inverse(n):
    M = [[ZERO] * n for _ in range(n)]
    for i in range(1, n + 1):
        M[i - 1][n - i] = neg_q_power(n, i - n)
    return TorusMatrix(None, M)


@lru_cache(maxsize=None)
def crossing_constructions(n):
    """{pair: crossing matrix} in the preferred bases with rows = incoming
    pair: the same-direction crossing from the "vv" and "dd" braidings,
    the opposite-direction one (the negative crossing) from "dv" and
    "vd"."""
    B, Binv, I = dual_basis_matrix(n), dual_basis_inverse(n), TorusMatrix.identity(None, n)
    change = {
        "vv": (TorusMatrix.identity(None, n * n), TorusMatrix.identity(None, n * n)),
        "dd": (kron(Binv, Binv), kron(B, B)),
        "dv": (kron(I, Binv), kron(B, I)),
        "vd": (kron(Binv, I), kron(I, B)),
    }
    return {
        pair: mat_mul(mat_mul(out_inv, braiding_std(n, pair)), in_change).transpose()
        for pair, (out_inv, in_change) in change.items()
    }


def bar_swap(n, M):
    """M with h -> h^-1 in every entry and the two strands of every pair
    index swapped: the closed form R^-1(q) = R_21(q^-1)."""
    swap = [(j - 1) * n + i - 1 for i in range(1, n + 1) for j in range(1, n + 1)]
    bar = lambda x: RootScalar({-k: c for k, c in x.terms.items()})
    return TorusMatrix(None, [[bar(M[r, c]) for c in swap] for r in swap])


def oracle_crossing_matrix(kind, n):
    """The matrix of one of the eight oriented crossings: positive
    same-direction and negative opposite-direction crossings get the
    braidings themselves, the other four their closed-form inverses."""
    built = crossing_constructions(n)
    sign, direction, _ = kind.split("_", 2)
    base, direct = (built["vv"], "pos") if direction == "same" else (built["dv"], "neg")
    return base if sign == direct else bar_swap(n, base)


def dense_word_matrix(n, strands, word):
    """The matrix, rows = incoming states and columns = outgoing ones, of
    a word of (kind, pos) slices that starts on the given number of
    strands: the product in word order of the factors kron(I, S, I), with
    S acting from strand pos on and the top strand's state fastest.

    S is crossing_matrix for a crossing and kink_scalar times the
    identity for a kink.  A cup is the row, and a cap the column, of the
    n^2 entries of uturn_matrix, indexed (bottom, top) for inc_* and
    (top, bottom) for dec_*, so a cup adds two strands and a cap removes
    two."""
    identity = lambda k: TorusMatrix.identity(None, n**k)
    out = identity(strands)
    for kind, pos in word:
        if kind in CROSSING_KINDS:
            local, before, after = crossing_matrix(kind, n), 2, 2
        elif kind in ("kink_pos", "kink_neg"):
            local, before, after = identity(1) * kink_scalar(n, 1 if kind == "kink_pos" else -1), 1, 1
        else:
            U = uturn_matrix(kind, n)
            pair = [U[t, b] if kind.startswith("dec") else U[b, t] for b in range(n) for t in range(n)]
            if kind in ("dec_cw", "inc_ccw"):
                local, before, after = TorusMatrix(None, [pair]), 0, 2
            else:
                local, before, after = TorusMatrix(None, [[x] for x in pair]), 2, 0
        out = mat_mul(out, kron(kron(identity(pos - 1), local), identity(strands - pos + 1 - before)))
        strands += after - before
    return out


# ---------------------------------------------------------------------------
# the paper's n = 3 move displays


def paper_move_displays(tri):
    """The matrices the paper displays for the good position moves at
    n = 3, transcribed entry by entry over the arc matrices' entries of
    the triangle torus tri and multiplied with plain_normal_product.

    Keys name the move; each value is the matrix the move's state-sum
    product must equal: the U-turn products of I and II, the crossed
    pair kron(L1^T, L1^T) of III and the stacked pair kron(L3, R2) of
    IV, with IV's factor q^(1/3)."""
    spec = tri.spec
    L1 = arc_quantum_matrix(tri, 0, "left")
    R1 = arc_quantum_matrix(tri, 1, "right")
    L2 = arc_quantum_matrix(tri, 1, "left")
    R2 = arc_quantum_matrix(tri, 2, "right")
    L3 = arc_quantum_matrix(tri, 2, "left")
    a1, b1, c1 = L1[0, 0], L1[0, 1], L1[0, 2]
    e1, f1, i1 = L1[1, 1], L1[1, 2], L1[2, 2]
    A1, D1, E1 = R1[0, 0], R1[1, 0], R1[1, 1]
    G1, H1, I1 = R1[2, 0], R1[2, 1], R1[2, 2]
    a2, b2, c2 = L2[0, 0], L2[0, 1], L2[0, 2]
    e2, f2, i2 = L2[1, 1], L2[1, 2], L2[2, 2]
    A2, D2, E2 = R2[0, 0], R2[1, 0], R2[1, 1]
    G2, H2, I2 = R2[2, 0], R2[2, 1], R2[2, 2]
    a3, b3, c3 = L3[0, 0], L3[0, 1], L3[0, 2]
    e3, f3, i3 = L3[1, 1], L3[1, 2], L3[2, 2]

    zero = TorusElement.zero(spec)
    q3 = lambda num: q_power(3, num, 3)  # q^(num/3)
    pm = plain_normal_product

    def mono(num, *factors):
        return reduce(pm, factors) * q3(num)

    def lc(*pairs):
        return torus_sum(spec, (pm(x, y) * coeff for coeff, x, y in pairs))

    matrix = lambda rows: TorusMatrix(spec, rows)
    displays = {}

    displays["move_i"] = matrix([
        [
            mono(-1, A1, c1) - mono(-4, D1, b1) + mono(-7, G1, a1),
            -mono(-4, E1, b1) + mono(-7, H1, a1),
            mono(-7, I1, a1),
        ],
        [mono(-1, A1, f1) - mono(-4, D1, e1), -mono(-4, E1, e1), zero],
        [mono(-1, A1, i1), zero, zero],
    ])
    displays["move_i_b"] = matrix([
        [
            mono(-7, c1, A1) - mono(-4, b1, D1) + mono(-1, a1, G1),
            -mono(-4, b1, E1) + mono(-1, a1, H1),
            mono(-1, a1, I1),
        ],
        [mono(-7, f1, A1) - mono(-4, e1, D1), -mono(-4, e1, E1), zero],
        [mono(-7, i1, A1), zero, zero],
    ])
    displays["move_i_c"] = matrix([
        [zero, zero, mono(1, i1, A1)],
        [zero, -mono(4, e1, E1), -mono(4, f1, E1) + mono(1, i1, D1)],
        [
            mono(7, a1, I1),
            mono(7, b1, I1) - mono(4, e1, H1),
            mono(7, c1, I1) - mono(4, f1, H1) + mono(1, i1, G1),
        ],
    ])
    displays["move_i_d"] = matrix([
        [zero, zero, mono(7, A1, i1)],
        [zero, -mono(4, E1, e1), -mono(4, E1, f1) + mono(7, D1, i1)],
        [
            mono(1, I1, a1),
            mono(1, I1, b1) - mono(4, H1, e1),
            mono(1, I1, c1) - mono(4, H1, f1) + mono(7, G1, i1),
        ],
    ])
    displays["move_ii"] = matrix([
        [mono(-1, A2, G1), mono(-1, A2, H1), mono(-1, A2, I1)],
        [
            -mono(-4, E2, D1) + mono(-1, D2, G1),
            -mono(-4, E2, E1) + mono(-1, D2, H1),
            mono(-1, D2, I1),
        ],
        [
            mono(-7, I2, A1) - mono(-4, H2, D1) + mono(-1, G2, G1),
            -mono(-4, H2, E1) + mono(-1, G2, H1),
            mono(-1, G2, I1),
        ],
    ])
    displays["move_ii_b"] = matrix([
        [
            mono(-1, a2, c1),
            mono(-1, b2, c1) - mono(-4, e2, b1),
            mono(-1, c2, c1) - mono(-4, f2, b1) + mono(-7, i2, a1),
        ],
        [
            mono(-1, a2, f1),
            mono(-1, b2, f1) - mono(-4, e2, e1),
            mono(-1, c2, f1) - mono(-4, f2, e1),
        ],
        [mono(-1, a2, i1), mono(-1, b2, i1), mono(-1, c2, i1)],
    ])

    qq, qi = q3(3), q3(-3)
    d_ = qq - qi  # q - q^-1
    u_ = ONE - q3(6)  # 1 - q^2
    v_ = ONE - q3(-6)  # 1 - q^-2
    w_ = RootScalar({0: 2}) - q3(6) - q3(-6)  # -q^2 + 2 - q^-2
    displays["move_iii"] = matrix([
        [pm(a1, a1), zero, zero, zero, zero, zero, zero, zero, zero],
        [
            lc((qq, b1, a1), (u_, a1, b1)), pm(e1, a1), zero,
            lc((d_, e1, a1), (-d_, a1, e1)), zero, zero,
            zero, zero, zero,
        ],
        [
            lc((qq, c1, a1), (u_, a1, c1)), pm(f1, a1), pm(i1, a1),
            lc((d_, f1, a1), (-d_, a1, f1)), zero, zero,
            lc((d_, i1, a1), (-d_, a1, i1)), zero, zero,
        ],
        [
            lc((qq, a1, b1)), zero, zero,
            pm(a1, e1), zero, zero,
            zero, zero, zero,
        ],
        [
            pm(b1, b1), lc((qi, e1, b1)), zero,
            lc((qi, b1, e1), (v_, e1, b1)), pm(e1, e1), zero,
            zero, zero, zero,
        ],
        [
            lc((qq, c1, b1), (u_, b1, c1)),
            lc((ONE, f1, b1), (qi - qq, e1, c1)),
            pm(i1, b1),
            lc((w_, e1, c1), (ONE, c1, e1), (d_, f1, b1), (-d_, b1, f1)),
            lc((qq, f1, e1), (u_, e1, f1)),
            pm(i1, e1),
            lc((d_, i1, b1), (-d_, b1, i1)),
            lc((d_, i1, e1), (-d_, e1, i1)),
            zero,
        ],
        [
            lc((qq, a1, c1)), zero, zero,
            pm(a1, f1), zero, zero,
            pm(a1, i1), zero, zero,
        ],
        [
            lc((qq, b1, c1)), pm(e1, c1), zero,
            lc((ONE, b1, f1), (d_, e1, c1)), lc((qq, e1, f1)), zero,
            pm(b1, i1), pm(e1, i1), zero,
        ],
        [
            pm(c1, c1), lc((qi, f1, c1)), lc((qi, i1, c1)),
            lc((qi, c1, f1), (v_, f1, c1)), pm(f1, f1), lc((qi, i1, f1)),
            lc((qi, c1, i1), (v_, i1, c1)), lc((qi, f1, i1), (v_, i1, f1)),
            pm(i1, i1),
        ],
    ])

    di = qi - qq  # q^-1 - q
    iv_rows = [
        [
            lc((qi, A2, a3)), zero, zero,
            lc((qi, A2, b3)), zero, zero,
            lc((qi, A2, c3)), zero, zero,
        ],
        [
            pm(D2, a3), pm(E2, a3), zero,
            lc((ONE, D2, b3), (di, A2, e3)), pm(E2, b3), zero,
            lc((ONE, D2, c3), (di, A2, f3)), pm(E2, c3), zero,
        ],
        [
            pm(G2, a3), pm(H2, a3), pm(I2, a3),
            pm(G2, b3), pm(H2, b3), pm(I2, b3),
            lc((ONE, G2, c3), (di, A2, i3)), pm(H2, c3), pm(I2, c3),
        ],
        [
            zero, zero, zero,
            pm(A2, e3), zero, zero,
            pm(A2, f3), zero, zero,
        ],
        [
            zero, zero, zero,
            lc((qi, D2, e3)), lc((qi, E2, e3)), zero,
            lc((qi, D2, f3)), lc((qi, E2, f3)), zero,
        ],
        [
            zero, zero, zero,
            pm(G2, e3), pm(H2, e3), pm(I2, e3),
            lc((ONE, G2, f3), (di, D2, i3)),
            lc((ONE, H2, f3), (di, E2, i3)),
            pm(I2, f3),
        ],
        [zero, zero, zero, zero, zero, zero, pm(A2, i3), zero, zero],
        [zero, zero, zero, zero, zero, zero, pm(D2, i3), pm(E2, i3), zero],
        [
            zero, zero, zero, zero, zero, zero,
            lc((qi, G2, i3)), lc((qi, H2, i3)), lc((qi, I2, i3)),
        ],
    ]
    displays["move_iv"] = matrix([[x * q3(1) for x in row] for row in iv_rows])
    return displays
