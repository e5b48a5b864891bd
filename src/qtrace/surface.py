"""Triangulated surfaces and the global state-sum quantum trace.

A punctured surface carries an ideal triangulation.  Splitting every
internal edge into a biangle puts any stated framed oriented link into
good position: all crossings, U-turns, and kinks live in the biangles
while each triangle carries only flat left- or right-turning arcs at
distinct heights.  Each triangle arc contributes an entry of a quantum
left or right matrix over that triangle's quantum torus; each biangle
contributes a scalar amplitude.  Summing over the states at all internal
interfaces yields an element of the tensor product of the per-triangle
quantum tori, which then projects onto the glued surface torus whose
internal edge generators pair the two adjacent triangle copies.

Conventions used throughout:

- Triangle sides are numbered 0, 1, 2 so that an arc entering through
  side s and turning left exits through side (s + 1) mod 3, and a right
  turn exits through side (s + 2) mod 3 (this lists the sides clockwise
  when the surface is drawn with its standard orientation).
- The dots on an edge are enumerated from the crossing strand's right
  to its left.  For a fixed (triangle, side) this gives the "inward"
  sequence used by an arc entering through that side; an exiting arc
  sees the reverse.
- An internal edge's global dots are ordered by the inward sequence of
  its first incidence; the second incidence sees them reversed.  With
  this pairing the two local quiver contributions cancel between dots
  on a common edge, so paired edge generators commute in the glued
  torus.
"""

from dataclasses import dataclass, field
from itertools import product as iter_product
from math import prod
from operator import itemgetter
from typing import Callable, NamedTuple

from .qtorus import (
    ONE,
    ZERO,
    RootScalar,
    QuantumTorusSpec,
    TorusElement,
    TorusMatrix,
    kron,
    make_spec,
    mat_mul,
    normal_product,
    q_power,
    torus_sum,
)
from .fock_goncharov import (
    TriangleCoordinates,
    quantum_turn_matrix,
    triangle_poisson,
    triangle_vertices,
)
from .biangle import (
    BiangleDiagram,
    BiangleState,
    Slice,
    biangle_trace,
    crossing_matrix,
    kink_scalar,
    uturn_matrix,
)


# ---------------------------------------------------------------------------
# triangulation combinatorics


@dataclass(frozen=True)
class Edge:
    """One ideal edge: a pair of (triangle, side) incidences for an
    internal edge, or a single incidence for a boundary edge."""

    id: str
    incidences: tuple

    def __post_init__(self):
        object.__setattr__(self, "incidences", tuple(tuple(i) for i in self.incidences))

    @property
    def is_boundary(self) -> bool:
        return len(self.incidences) == 1


class TriangulationError(ValueError):
    """A fault of a triangulation; edge is the index of the offending
    edge, or None when the fault names no edge."""

    def __init__(self, message, edge=None):
        super().__init__(message)
        self.edge = edge


@dataclass(frozen=True)
class IdealTriangulation:
    """Triangles are indexed 0 .. n_triangles-1; every (triangle, side)
    pair must be claimed by exactly one edge."""

    n_triangles: int
    edges: tuple

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(self.edges))
        if self.n_triangles < 1:
            raise TriangulationError("a triangulation needs at least one triangle")
        seen = {}
        ids = set()
        for k, e in enumerate(self.edges):
            if e.id in ids:
                raise TriangulationError(f"duplicate edge id {e.id!r}", k)
            ids.add(e.id)
            if len(e.incidences) not in (1, 2):
                raise TriangulationError(f"edge {e.id!r} must have one or two incidences", k)
            tris = [t for t, _ in e.incidences]
            if len(e.incidences) == 2 and tris[0] == tris[1]:
                raise TriangulationError(f"edge {e.id!r} would make triangle {tris[0]} self-folded", k)
            for t, s in e.incidences:
                if not 0 <= t < self.n_triangles:
                    raise TriangulationError(f"edge {e.id!r} refers to missing triangle {t}", k)
                if s not in (0, 1, 2):
                    raise TriangulationError(f"edge {e.id!r} has bad side {s}", k)
                if (t, s) in seen:
                    raise TriangulationError(f"side {s} of triangle {t} is claimed twice", k)
                seen[(t, s)] = e.id
        for t in range(self.n_triangles):
            for s in (0, 1, 2):
                if (t, s) not in seen:
                    raise TriangulationError(f"side {s} of triangle {t} is not glued to any edge")

    def edge_by_id(self, edge_id: str) -> Edge:
        for e in self.edges:
            if e.id == edge_id:
                return e
        raise KeyError(f"no edge {edge_id!r}")

    @property
    def internal_edges(self):
        return tuple(e for e in self.edges if not e.is_boundary)

    @property
    def boundary_edges(self):
        return tuple(e for e in self.edges if e.is_boundary)


def rotate_vertex(v, k: int):
    """Apply the discrete triangle's side rotation k times; it carries
    side 0 onto side 1 and preserves the quiver."""
    a, b, c = v
    for _ in range(k % 3):
        a, b, c = c, a, b
    return (a, b, c)


def inward_sequence(tri: TriangleCoordinates, side: int):
    """Local generator indices of a side's dots as enumerated by a
    strand entering the triangle through that side (right to left)."""
    n = tri.n
    return tuple(tri.index[rotate_vertex((j, 0, n - j), side)] for j in range(1, n))


def turn_exit_side(entry: int, turn: str) -> int:
    if turn == "left":
        return (entry + 1) % 3
    if turn == "right":
        return (entry + 2) % 3
    raise ValueError(f"unknown turn {turn!r}")


# ---------------------------------------------------------------------------
# the surface quantum torus


@dataclass(frozen=True)
class SurfaceTorusSpec:
    """Per-triangle tensor torus, glued torus, and the index plumbing
    between them, for one triangulated surface."""

    n: int
    triangulation: IdealTriangulation
    tri: TriangleCoordinates
    tensor_spec: QuantumTorusSpec
    glued_spec: QuantumTorusSpec
    tri_offset: tuple
    local_to_glued: tuple  # per triangle: dict local index -> glued index
    glued_ids: tuple  # stable string id per glued generator


def build_surface(triangulation: IdealTriangulation, n: int) -> SurfaceTorusSpec:
    """Assemble the tensor and glued quantum tori of a triangulation."""
    tri = triangle_poisson(n)
    Nt = tri.spec.N
    m = triangulation.n_triangles

    # tensor spec: block diagonal over triangle copies
    tensor_names = []
    for t in range(m):
        tensor_names.extend(f"T{t}.{name}" for name in tri.spec.names)
    NT = m * Nt
    TP = [[0] * NT for _ in range(NT)]
    for t in range(m):
        off = t * Nt
        for a in range(Nt):
            for b in range(Nt):
                TP[off + a][off + b] = tri.spec.P[a][b]
    tensor_spec = make_spec(n, TP, tensor_names)

    # glued generators: edge dots (edges in declaration order), then
    # triangle interior dots (triangles in order, vertices lex)
    glued_ids = []
    glued_index = {}
    for e in triangulation.edges:
        for k in range(1, n):
            glued_index[("E", e.id, k)] = len(glued_ids)
            glued_ids.append(f"{e.id}.{k}")
    interior_verts = [v for v in triangle_vertices(n) if all(x > 0 for x in v)]
    for t in range(m):
        for v in interior_verts:
            glued_index[("T", t, v)] = len(glued_ids)
            glued_ids.append(f"T{t}.{tri.spec.names[tri.index[v]]}")

    local_to_glued = [dict() for _ in range(m)]
    for e in triangulation.edges:
        t0, s0 = e.incidences[0]
        seq0 = inward_sequence(tri, s0)
        for k in range(1, n):
            local_to_glued[t0][seq0[k - 1]] = glued_index[("E", e.id, k)]
        if not e.is_boundary:
            t1, s1 = e.incidences[1]
            seq1 = inward_sequence(tri, s1)
            for k in range(1, n):
                local_to_glued[t1][seq1[n - 1 - k]] = glued_index[("E", e.id, k)]
    for t in range(m):
        for v in interior_verts:
            local_to_glued[t][tri.index[v]] = glued_index[("T", t, v)]

    NG = len(glued_ids)
    GP = [[0] * NG for _ in range(NG)]
    for t in range(m):
        g = local_to_glued[t]
        for a in range(Nt):
            for b in range(Nt):
                GP[g[a]][g[b]] += tri.spec.P[a][b]
    glued_spec = make_spec(n, GP, glued_ids)

    return SurfaceTorusSpec(
        n=n,
        triangulation=triangulation,
        tri=tri,
        tensor_spec=tensor_spec,
        glued_spec=glued_spec,
        tri_offset=tuple(t * Nt for t in range(m)),
        local_to_glued=tuple(local_to_glued),
        glued_ids=tuple(glued_ids),
    )


# ---------------------------------------------------------------------------
# links in good position


@dataclass(frozen=True)
class TriangleArc:
    """A flat oriented arc crossing one triangle between two distinct
    sides, at a given height rank within the triangle."""

    triangle: int
    entry: int
    turn: str  # 'left' or 'right'
    height: int

    @property
    def exit(self) -> int:
        return turn_exit_side(self.entry, self.turn)


@dataclass
class GoodPositionLink:
    """A stated framed oriented link in good position.

    arcs: flat triangle arcs.
    slices: per internal edge id, the bridge-position slice list of the
        biangle tangle (missing edges default to all-trivial strands).
    boundary_states: state in 1..n per (boundary edge id, height rank)
        strand endpoint.
    """

    arcs: tuple = ()
    slices: dict = field(default_factory=dict)
    boundary_states: dict = field(default_factory=dict)

    def __post_init__(self):
        self.arcs = tuple(self.arcs)
        self.slices = {k: tuple(v) for k, v in dict(self.slices).items()}
        self.boundary_states = dict(self.boundary_states)


def _sides(link: GoodPositionLink):
    """The arc ends on each (triangle, side), bottom to top, as (arc,
    role) pairs with role 'entry' or 'exit'.  An arc never enters and
    exits through one side, so every pair is one arc end."""
    sides = {}
    for arc in sorted(link.arcs, key=lambda a: a.height):
        sides.setdefault((arc.triangle, arc.entry), []).append((arc, "entry"))
        sides.setdefault((arc.triangle, arc.exit), []).append((arc, "exit"))
    return sides


def _profiles(sides, edge: Edge):
    """Boundary orientation profiles of an internal edge's biangle as
    forced by the adjacent triangle arcs."""
    left = tuple("r" if role == "exit" else "l" for _, role in sides.get(edge.incidences[0], ()))
    right = tuple("r" if role == "entry" else "l" for _, role in sides.get(edge.incidences[1], ()))
    return left, right


def validate_good_position(link: GoodPositionLink, surface: SurfaceTorusSpec):
    """Check the good position conditions; returns a list of
    diagnostics (empty when the link is well formed)."""
    tr = surface.triangulation
    problems = []
    heights = {}
    for arc in link.arcs:
        if arc.turn not in ("left", "right"):
            problems.append(f"arc in triangle {arc.triangle}: unknown turn {arc.turn!r}")
            continue
        if not 0 <= arc.triangle < tr.n_triangles:
            problems.append(f"arc refers to missing triangle {arc.triangle}")
            continue
        if arc.entry not in (0, 1, 2):
            problems.append(f"arc in triangle {arc.triangle}: bad entry side {arc.entry}")
            continue
        key = (arc.triangle, arc.height)
        if key in heights:
            problems.append(f"triangle {arc.triangle}: duplicate height {arc.height}")
        heights[key] = arc
    if problems:
        return problems

    for edge_id in link.slices:
        try:
            edge = tr.edge_by_id(edge_id)
        except KeyError:
            problems.append(f"slices given for unknown edge {edge_id!r}")
            continue
        if edge.is_boundary:
            problems.append(f"edge {edge_id!r} is a boundary edge and has no biangle")

    sides = _sides(link)
    for edge in tr.internal_edges:
        left, right = _profiles(sides, edge)
        try:
            diagram = BiangleDiagram(surface.n, left, link.slices.get(edge.id, ()))
        except ValueError as err:
            problems.append(f"biangle {edge.id!r}: {err}")
            continue
        if diagram.right != right:
            problems.append(
                f"biangle {edge.id!r}: right boundary {diagram.right} does not match "
                f"the adjacent triangle arcs {right}"
            )

    strands = {e.id: len(sides.get(e.incidences[0], ())) for e in tr.boundary_edges}
    for eid, count in strands.items():
        for pos in range(1, count + 1):
            if (eid, pos) not in link.boundary_states:
                problems.append(f"missing boundary state for edge {eid!r} position {pos}")
    for (eid, pos), value in link.boundary_states.items():
        if eid not in strands:
            problems.append(f"boundary state given for non-boundary edge {eid!r}")
        elif not 1 <= pos <= strands[eid]:
            problems.append(f"boundary state at edge {eid!r} position {pos} has no strand")
        elif not 1 <= value <= surface.n:
            problems.append(f"boundary state at edge {eid!r} position {pos} out of range")
    return problems


# ---------------------------------------------------------------------------
# per-triangle arc matrices

_ARC_CACHE = {}


def arc_quantum_matrix(tri: TriangleCoordinates, entry: int, turn: str) -> TorusMatrix:
    """Quantum turn matrix of a flat arc entering through a given side,
    in the triangle's own torus."""
    key = (tri.n, entry, turn)
    if key in _ARC_CACHE:
        return _ARC_CACHE[key]
    n = tri.n
    entry_vec = tuple(tri.index[rotate_vertex((j, 0, n - j), entry)] for j in range(1, n))
    if turn == "left":
        exit_vec = tuple(tri.index[rotate_vertex((j, n - j, 0), entry)] for j in range(1, n))
    elif turn == "right":
        exit_vec = tuple(tri.index[rotate_vertex((0, j, n - j), entry)] for j in range(1, n))
    else:
        raise ValueError(f"unknown turn {turn!r}")

    def interior(a, b, c):
        return tri.index[rotate_vertex((a, b, c), entry)]

    M = quantum_turn_matrix(turn, tri, entry_vec, exit_vec, interior)
    _ARC_CACHE[key] = M
    return M


# ---------------------------------------------------------------------------
# the state-sum trace


class _Factor(NamedTuple):
    """A factor of the state sum: the internal edges it reads, the
    triangles whose blocks its exponents join, and its reader of the
    flat state list (see quantum_trace)."""

    edges: tuple
    tris: tuple
    read: Callable


@dataclass
class TracePolynomial:
    """Quantum trace in the tensor algebra, with its surface context."""

    tensor: TorusElement
    surface: SurfaceTorusSpec


def quantum_trace(link: GoodPositionLink, surface: SurfaceTorusSpec) -> TracePolynomial:
    """State-sum quantum trace of a link in good position.

    Every internal interface state is summed over; each biangle
    contributes a scalar amplitude, each triangle the height-ordered
    (lowest first) product of its arcs' turn matrix entries.

    The sum is a tensor network whose indices are the internal edges'
    states.  Its edges are summed out one at a time, always the edge
    whose bucket (the factors that read it, and the edges those read) has
    the fewest state combinations; the last bucket, once it spans every
    edge left, is streamed into the result instead of being tabulated.
    """
    problems = validate_good_position(link, surface)
    if problems:
        raise ValueError("link is not in good position:\n" + "\n".join(problems))
    n = surface.n
    tr = surface.triangulation
    sides = _sides(link)

    # Each arc end reads one entry of a flat state list: the fixed
    # boundary states first, then each internal edge's left and right
    # strands, bottom to top, in edge order.
    ends = {}
    states = []
    for edge in tr.boundary_edges:
        for pos, end in enumerate(sides.get(edge.incidences[0], ()), start=1):
            ends[end] = len(ends)
            states.append(link.boundary_states[(edge.id, pos)])

    # per-edge tables of nonzero biangle amplitudes, keyed by the edge's
    # block of the state list, states[slots[edge]]
    edge_tables = []
    slots = []
    for edge in tr.internal_edges:
        left, right = _profiles(sides, edge)
        diagram = BiangleDiagram(n, left, link.slices.get(edge.id, ()))
        table = {}
        for ls in iter_product(range(1, n + 1), repeat=len(left)):
            for rs in iter_product(range(1, n + 1), repeat=len(right)):
                value = biangle_trace(diagram, BiangleState(ls, rs))
                if not value.is_zero():
                    table[ls + rs] = value
        edge_tables.append(table)
        first = len(ends)
        for incidence in edge.incidences:
            for end in sides.get(incidence, ()):
                ends[end] = len(ends)
        slots.append(slice(first, len(ends)))
    states += [None] * (len(ends) - len(states))
    index = range(len(ends))
    owner = {i: k for k, block in enumerate(slots) for i in index[block]}

    tri_arcs = {}
    for arc in sorted(link.arcs, key=lambda a: a.height):
        tri_arcs.setdefault(arc.triangle, []).append(arc)

    tri_spec = surface.tri.spec

    # A factor reads the states of some internal edges from the flat
    # state list and gives (exponent, coefficient) pairs whose exponents
    # join the blocks of its triangles, in their order (a triangle without
    # arcs gives the zero block).  Factors of different triangles commute
    # in the block-diagonal tensor torus, so multiplying two terms joins
    # their blocks.
    def triangle_factor(t):
        arcs = tri_arcs.get(t, ())
        arc_ends = [(ends[(arc, "entry")], ends[(arc, "exit")]) for arc in arcs]
        edges = tuple(sorted({owner[i] for end in arc_ends for i in end if i in owner}))
        cache = {}

        def read(states):
            """The height-ordered product of the triangle's arc entries,
            in the triangle's own torus, computed once for each tuple of
            (entry, exit) state pairs."""
            pairs = tuple((states[i], states[j]) for i, j in arc_ends)
            if pairs not in cache:
                elem = TorusElement.one(tri_spec)
                for arc, (s_in, s_out) in zip(arcs, pairs):
                    entry = arc_quantum_matrix(surface.tri, arc.entry, arc.turn)[s_in - 1, s_out - 1]
                    if entry.is_zero():
                        elem = TorusElement.zero(tri_spec)
                        break
                    elem = normal_product(elem, entry)
                cache[pairs] = list(elem.terms.items())
            return cache[pairs]

        return _Factor(edges, (t,), read)

    def table_factor(edges, tris, table):
        places = [i for k in edges for i in index[slots[k]]]
        return _Factor(tuple(edges), tris, lambda states: table.get(tuple(states[i] for i in places), ()))

    def times(terms, factors):
        for factor in factors:
            terms = [(e + f, c * d) for e, c in terms for f, d in factor.read(states)]
            if not terms:
                break
        return terms

    factors = [triangle_factor(t) for t in range(tr.n_triangles)]
    alive = set(range(len(edge_tables)))
    while alive:
        buckets = {v: sorted({v}.union(*(f.edges for f in factors if v in f.edges))) for v in alive}
        v = min(alive, key=lambda u: (prod(len(edge_tables[k]) for k in buckets[u]), u))
        if len(buckets[v]) == len(alive):
            break
        # Sum out v: for each state of the bucket's other edges, the
        # product of the factors that read v, summed over v's states.
        rest = [k for k in buckets[v] if k != v]
        inside = sorted((f for f in factors if v in f.edges), key=lambda f: f.tris)
        table = {}
        for combo in iter_product(*(edge_tables[k] for k in rest)):
            for k, key in zip(rest, combo):
                states[slots[k]] = key
            sums = {}
            for key, amp in edge_tables[v].items():
                states[slots[v]] = key
                for e, c in times([((), amp)], inside):
                    sums[e] = sums[e] + c if e in sums else c
            terms = [(e, c) for e, c in sums.items() if not c.is_zero()]
            if terms:
                table[sum(combo, ())] = terms
        factors = [f for f in factors if v not in f.edges]
        factors.append(table_factor(rest, sum((f.tris for f in inside), ()), table))
        alive.remove(v)

    # The last bucket spans every edge left: stream it.  The factors that
    # read no edge are multiplied together once, first.
    edges = sorted(alive)
    factors.sort(key=lambda f: (bool(f.edges), f.tris))
    order = sum((f.tris for f in factors), ())
    start = times([((), ONE)], [f for f in factors if not f.edges])
    factors = [f for f in factors if f.edges]
    reorder = None
    if order != tuple(range(tr.n_triangles)):
        Nt, block = tri_spec.N, {t: k for k, t in enumerate(order)}
        reorder = itemgetter(*(block[t] * Nt + i for t in range(tr.n_triangles) for i in range(Nt)))

    def state_terms():
        for combo in iter_product(*(edge_tables[k].items() for k in edges)):
            amp = ONE
            for k, (key, value) in zip(edges, combo):
                states[slots[k]] = key
                amp = amp * value
            terms = times([(e, c * amp) for e, c in start], factors)
            yield from terms if reorder is None else ((reorder(e), c) for e, c in terms)

    return TracePolynomial(tensor=TorusElement(surface.tensor_spec, state_terms()), surface=surface)


def project_to_glued(p, surface: SurfaceTorusSpec) -> TorusElement:
    """Rewrite a tensor-algebra element over the glued surface torus.

    Each monomial must carry equal exponents on the two triangle copies
    of every internal edge dot; the common value becomes the exponent
    of the glued generator.  The Weyl-symmetric monomial bases are
    matched, which multiplies each coefficient by the ratio of the two
    normal-ordering factors.
    """
    elem = p.tensor if isinstance(p, TracePolynomial) else p
    if elem.spec is not surface.tensor_spec and elem.spec != surface.tensor_spec:
        raise ValueError("element does not live in this surface's tensor algebra")
    tri_spec = surface.tri.spec
    tensor, glued = elem.spec, surface.glued_spec
    NG = glued.N

    def glued_pairs():
        for e, coeff in elem.terms.items():
            glued_e = [None] * NG
            for off, g in zip(surface.tri_offset, surface.local_to_glued):
                for i in range(tri_spec.N):
                    value = e[off + i]
                    target = g[i]
                    if glued_e[target] is None:
                        glued_e[target] = value
                    elif glued_e[target] != value:
                        raise ValueError(
                            "monomial does not glue: generator "
                            f"{surface.glued_ids[target]!r} pairs exponents "
                            f"{glued_e[target]} and {value}"
                        )
            glued_e = tuple(0 if v is None else v for v in glued_e)
            yield glued_e, coeff * RootScalar({glued.ordering(glued_e, glued_e) - tensor.ordering(e, e): 1})

    return TorusElement(glued, glued_pairs())


# ---------------------------------------------------------------------------
# the move suite


def _q3(num: int) -> RootScalar:
    """q^(num/3) at n = 3."""
    return q_power(3, num, 3)


def opposite_product(A: TorusMatrix, B: TorusMatrix, C: TorusMatrix) -> TorusMatrix:
    """Matrix product A B C with the entrywise multiplications taken in
    the opposite ring (rightmost factor's entries first)."""
    return mat_mul(mat_mul(C.transpose(), B.transpose()), A.transpose()).transpose()


def five_tuple_matrix(kind: str, tri: TriangleCoordinates, W, Z, Wp, Zp, X) -> TorusMatrix:
    """Quantum left/right matrix as a function of the ordered dot
    5-tuple (W, Z, W', Z', X)."""
    if kind == "L":
        return quantum_turn_matrix("left", tri, (W, Z), (Zp, Wp), interior=lambda a, b, c: X)
    if kind == "R":
        return quantum_turn_matrix("right", tri, (Wp, Zp), (Z, W), interior=lambda a, b, c: X)
    raise ValueError(f"kind must be 'L' or 'R', got {kind!r}")


def verify_moves(n: int = 3) -> dict:
    """Exact checks of the good position move identities at n = 3.

    Each displayed matrix identity is verified coefficient by
    coefficient: the left-hand state-sum product, the displayed
    intermediate matrix, and the right-hand side must all agree.  The
    remaining oriented variants reduce to these plus crossing and
    U-turn cancellations, checked under the same keys.
    """
    if n != 3:
        raise ValueError("the move suite is pinned at n = 3")
    tri = triangle_poisson(3)
    spec = tri.spec
    idx = {name: i for i, name in enumerate(spec.names)}
    X = idx["X111"]
    W2, Z2 = idx["Z1"], idx["Z2"]
    W3, Z3 = idx["Zp2"], idx["Zp1"]
    W1, Z1 = idx["Zpp2"], idx["Zpp1"]

    L1 = five_tuple_matrix("L", tri, W2, Z2, W3, Z3, X)
    R1 = five_tuple_matrix("R", tri, W2, Z2, W3, Z3, X)
    L2 = five_tuple_matrix("L", tri, W3, Z3, W1, Z1, X)
    R2 = five_tuple_matrix("R", tri, W3, Z3, W1, Z1, X)
    L3 = five_tuple_matrix("L", tri, W1, Z1, W2, Z2, X)
    R3 = five_tuple_matrix("R", tri, W1, Z1, W2, Z2, X)

    U_dec_cw = uturn_matrix("dec_cw", 3)
    U_dec_ccw = uturn_matrix("dec_ccw", 3)
    U_inc_ccw = uturn_matrix("inc_ccw", 3)
    U_inc_cw = uturn_matrix("inc_cw", 3)

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

    def sc(value):
        return TorusElement.scalar(spec, value)

    def mono(coeff_num, *factors):
        out = sc(_q3(coeff_num))
        for x in factors:
            out = normal_product(out, x)
        return out

    def matrix(rows):
        return TorusMatrix(spec, rows)

    report = {}

    # Move (I): decreasing clockwise U-turn slides across the triangle.
    # The lower-to-higher rule reverses the entry multiplication order.
    display_i = matrix([
        [
            mono(-1, A1, c1) - mono(-4, D1, b1) + mono(-7, G1, a1),
            -mono(-4, E1, b1) + mono(-7, H1, a1),
            mono(-7, I1, a1),
        ],
        [mono(-1, A1, f1) - mono(-4, D1, e1), -mono(-4, E1, e1), zero],
        [mono(-1, A1, i1), zero, zero],
    ])
    lhs_i = opposite_product(L1, U_dec_cw, R1)
    report["move_i"] = lhs_i == display_i and lhs_i == U_dec_cw

    # Move (I.b): increasing counterclockwise U-turn, direct order.
    display_ib = matrix([
        [
            mono(-7, c1, A1) - mono(-4, b1, D1) + mono(-1, a1, G1),
            -mono(-4, b1, E1) + mono(-1, a1, H1),
            mono(-1, a1, I1),
        ],
        [mono(-7, f1, A1) - mono(-4, e1, D1), -mono(-4, e1, E1), zero],
        [mono(-7, i1, A1), zero, zero],
    ])
    lhs_ib = mat_mul(mat_mul(L1, U_inc_ccw), R1)
    report["move_i_b"] = lhs_ib == display_ib and lhs_ib == U_inc_ccw

    # Move (I.c): decreasing counterclockwise U-turn, reversed order.
    display_ic = matrix([
        [zero, zero, mono(1, i1, A1)],
        [zero, -mono(4, e1, E1), -mono(4, f1, E1) + mono(1, i1, D1)],
        [
            mono(7, a1, I1),
            mono(7, b1, I1) - mono(4, e1, H1),
            mono(7, c1, I1) - mono(4, f1, H1) + mono(1, i1, G1),
        ],
    ])
    lhs_ic = opposite_product(R1, U_dec_ccw, L1)
    report["move_i_c"] = lhs_ic == display_ic and lhs_ic == U_dec_ccw

    # Move (I.d): increasing clockwise U-turn, direct order.
    display_id = matrix([
        [zero, zero, mono(7, A1, i1)],
        [zero, -mono(4, E1, e1), -mono(4, E1, f1) + mono(7, D1, i1)],
        [
            mono(1, I1, a1),
            mono(1, I1, b1) - mono(4, H1, e1),
            mono(1, I1, c1) - mono(4, H1, f1) + mono(7, G1, i1),
        ],
    ])
    lhs_id = mat_mul(mat_mul(R1, U_inc_cw), L1)
    report["move_i_d"] = lhs_id == display_id and lhs_id == U_inc_cw

    # Move (II): two right turns and an increasing counterclockwise
    # U-turn compose to the left turn.
    display_ii = matrix([
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
    lhs_ii = mat_mul(mat_mul(R2, U_inc_ccw), R1)
    report["move_ii"] = lhs_ii == display_ii and lhs_ii == L3

    # Move (II.b): two left turns and a decreasing clockwise U-turn
    # compose to the right turn (reversed order).
    display_iib = matrix([
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
    lhs_iib = opposite_product(L1, U_dec_cw, L2)
    report["move_ii_b"] = lhs_iib == display_iib and lhs_iib == R3

    # Move (III): a same-direction crossing slides across two parallel
    # left-turning arcs.  Both strands run against the matrix index
    # direction, so the state-sum matrix picks up the entries of L1 at
    # transposed positions.
    T3 = kron(L1.transpose(), L1.transpose())
    pm = normal_product

    one = sc(ONE)
    qq = _q3(3)
    qi = _q3(-3)
    d_ = qq - qi  # q - q^-1
    u_ = ONE - _q3(6)  # 1 - q^2
    v_ = ONE - _q3(-6)  # 1 - q^-2
    w_ = RootScalar({0: 2}) - _q3(6) - _q3(-6)  # -q^2 + 2 - q^-2

    def lc(*pairs):
        return torus_sum(spec, (sc(coeff) * pm(x, y) for coeff, x, y in pairs))

    display_iii = matrix([
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
    C_same = crossing_matrix("pos_same_to_lower", 3)
    C_same_inv = crossing_matrix("neg_same_to_lower", 3)
    report["move_iii"] = (
        T3 == display_iii
        and mat_mul(mat_mul(C_same, T3), C_same_inv) == display_iii
        and mat_mul(mat_mul(C_same_inv, T3), C_same) == display_iii
    )

    # Move (IV): a same-direction crossing slides across a stacked left
    # turn and right turn pair, acquiring the factor q^(1/3).  Entries of
    # the stacked pair multiply lower arc first.
    T4 = kron(L3, R2)
    di = qi - qq  # q^-1 - q
    display_iv_rows = [
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
    display_iv = matrix(
        [[sc(_q3(1)) * x for x in row] for row in display_iv_rows]
    )
    report["move_iv"] = T4 == display_iv

    # Remaining oriented variants reduce to the moves above together
    # with crossing cancellation and U-turn wave identities.
    I9 = TorusMatrix.identity(None, 9)
    C_opp = crossing_matrix("neg_opp_to_lower", 3)
    C_opp_inv = crossing_matrix("pos_opp_to_lower", 3)
    crossings_cancel = (
        mat_mul(C_same, C_same_inv) == I9
        and mat_mul(C_same_inv, C_same) == I9
        and mat_mul(C_opp, C_opp_inv) == I9
        and mat_mul(C_opp_inv, C_opp) == I9
    )
    report["move_iii_b"] = report["move_iii"] and crossings_cancel
    report["move_iii_c"] = report["move_iii"] and crossings_cancel
    report["move_iii_d"] = report["move_iii"] and crossings_cancel

    # Auxiliary move (I'): a U-turn slides across the split edge, which
    # at the matrix level is the cancellation of a cup-cap wave.
    wave_a = BiangleDiagram(3, ("l",), (Slice("dec_cw", 1), Slice("dec_ccw", 2)))
    wave_b = BiangleDiagram(3, ("r",), (Slice("inc_ccw", 1), Slice("inc_cw", 2)))
    waves_cancel = True
    for s1 in range(1, 4):
        for s2 in range(1, 4):
            expect = ONE if s1 == s2 else ZERO
            if biangle_trace(wave_a, BiangleState((s1,), (s2,))) != expect:
                waves_cancel = False
            if biangle_trace(wave_b, BiangleState((s1,), (s2,))) != expect:
                waves_cancel = False
    report["move_i_prime"] = waves_cancel and report["move_i"] and report["move_ii"]

    report["move_iv_b"] = report["move_iv"] and crossings_cancel and report["move_i_prime"]
    report["move_iv_c"] = report["move_iv"] and crossings_cancel and report["move_i_prime"]
    report["move_iv_d"] = report["move_iv"] and crossings_cancel and report["move_i_prime"]

    # Move (V): a kink at the triangle corner equals the framing factor.
    curl_pos = BiangleDiagram(
        3, ("r",),
        (Slice("inc_ccw", 2), Slice("pos_same_to_lower", 1), Slice("dec_ccw", 2)),
    )
    curl_neg = BiangleDiagram(
        3, ("r",),
        (Slice("inc_ccw", 2), Slice("neg_same_to_lower", 1), Slice("dec_ccw", 2)),
    )
    move_v = True
    for s1 in range(1, 4):
        for s2 in range(1, 4):
            state = BiangleState((s1,), (s2,))
            pos_expect = kink_scalar(3, 1) if s1 == s2 else ZERO
            neg_expect = kink_scalar(3, -1) if s1 == s2 else ZERO
            if biangle_trace(curl_pos, state) != pos_expect:
                move_v = False
            if biangle_trace(curl_neg, state) != neg_expect:
                move_v = False
    report["move_v"] = move_v and kink_scalar(3, 1) * kink_scalar(3, -1) == ONE

    return report
