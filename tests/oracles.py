"""Classical oracles used by the test suite.

The numeric oracles re-derive the classical local monodromy matrices
directly from the elementary snake-matrix factorization with plain
floating point arithmetic, so they share no code with the symbolic
implementation.  The exact oracle ``classical_trace_polynomial``
multiplies the library's commutative edge and turn matrices along a
closed curve, independently of the state sum.  ``weyl_order`` orders a
word of generators with its own dense loop over P, independently of the
spec's ordering form.  ``enumerated_trace`` is the state sum taken term
by term in the tensor torus, with one biangle sweep per state; it finds
each arc end's edge and strand position by its own scans, so it shares
no wiring with ``quantum_trace``.
"""

from dataclasses import dataclass
from itertools import product

import numpy as np

from qtrace.biangle import BiangleDiagram, BiangleState, biangle_trace
from qtrace.fock_goncharov import commutative_spec, edge_matrix, turn_matrix
from qtrace.qtorus import ONE, RootScalar, TorusElement, TorusMatrix, mat_mul, normal_product, torus_sum
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
    m = surface.local_to_glued[triangle]
    return tuple(m[i] for i in inward_sequence(surface.tri, side))


def interior_lookup(surface, triangle, entry_edge):
    """Interior dot lookup in the frame where the entry edge plays side
    0, mapped to glued indices."""
    side = side_of(surface.triangulation, entry_edge, triangle)
    m = surface.local_to_glued[triangle]

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
        out = normal_product(out, TorusElement.generator(spec, i, m))
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
    product of the biangle amplitudes times the normal_product, in
    triangle order, of each triangle's height-ordered arc factor
    embedded in the tensor torus.  Every amplitude is swept on a freshly
    built diagram, so no state reuses another state's sweep."""
    n = surface.n
    tensor_spec, tri_spec = surface.tensor_spec, surface.tri.spec
    edge_tables = []
    for edge in surface.triangulation.internal_edges:
        (t0, s0), (t1, s1) = edge.incidences
        left = tuple("r" if role == "exit" else "l" for _, role in side_arcs(link, t0, s0))
        right = tuple("r" if role == "entry" else "l" for _, role in side_arcs(link, t1, s1))
        table = {}
        for ls in product(range(1, n + 1), repeat=len(left)):
            for rs in product(range(1, n + 1), repeat=len(right)):
                diagram = BiangleDiagram(n, left, link.slices.get(edge.id, ()))
                value = biangle_trace(diagram, BiangleState(ls, rs))
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
            elem = normal_product(elem, entry)
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
                term = normal_product(term, factor(t, slot_state))
            yield term

    return torus_sum(tensor_spec, terms())
