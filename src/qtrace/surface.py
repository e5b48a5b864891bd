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

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import product as iter_product
from math import prod
from operator import itemgetter, mul
from typing import Callable, NamedTuple

from .qtorus import (
    ONE,
    RootScalar,
    QuantumTorusSpec,
    TorusElement,
    TorusMatrix,
    _pack,
    _packer,
    _unpack,
    kron,
    mat_mul,
    normal_product,
)
from .fock_goncharov import (
    TriangleCoordinates,
    quantum_turn_matrix,
    triangle_poisson,
    triangle_vertices,
)
from .biangle import (
    BiangleDiagram,
    Slice,
    amplitude_table,
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

    triangulation: IdealTriangulation
    tri: TriangleCoordinates
    tensor_spec: QuantumTorusSpec  # triangle t's block starts at index t * tri.spec.N
    glued_spec: QuantumTorusSpec  # its names are the stable string ids of the glued generators
    tensor_to_glued: tuple  # the glued index of each tensor generator
    # the (a, b, c), a < b, with glued_spec.ordering(g, g) minus tensor_spec.ordering(e, e)
    # = sum c g_a g_b for the lift e_i = g[tensor_to_glued[i]] of g: the Weyl correction of gluing
    weyl_correction: tuple


def build_surface(triangulation: IdealTriangulation, n: int) -> SurfaceTorusSpec:
    """Assemble the tensor and glued quantum tori of a triangulation."""
    tri = triangle_poisson(n)
    Nt = tri.spec.N
    m = triangulation.n_triangles

    # tensor spec: block diagonal over triangle copies, block t the triangle's lower rows shifted by t * Nt
    lower = tuple(tuple((i + t * Nt, p) for i, p in row) for t in range(m) for row in tri.spec.lower)
    tensor_spec = QuantumTorusSpec(n, m * Nt, lower, tuple(f"T{t}.{name}" for t in range(m) for name in tri.spec.names))

    # glued generators: edge dots (edges in declaration order), then
    # triangle interior dots (triangles in order, vertices lex)
    glued_ids = []
    to_glued = [None] * (m * Nt)
    for e in triangulation.edges:
        dots = [[t * Nt + i for i in inward_sequence(tri, s)] for t, s in e.incidences]
        # the second incidence sees the edge's dots reversed
        for k, pair in enumerate(zip(dots[0], *(seq[::-1] for seq in dots[1:])), start=1):
            for i in pair:
                to_glued[i] = len(glued_ids)
            glued_ids.append(f"{e.id}.{k}")
    interior_verts = [v for v in triangle_vertices(n) if all(x > 0 for x in v)]
    for t in range(m):
        for v in interior_verts:
            to_glued[t * Nt + tri.index[v]] = len(glued_ids)
            glued_ids.append(f"T{t}.{tri.spec.names[tri.index[v]]}")

    # A tensor entry p at (j, i), i < j, with a, b = to_glued[j], to_glued[i], adds p g_a g_b to the
    # tensor ordering of a lift.  The glued form holds it as p at (a, b) when a > b, adding p g_a g_b to
    # the glued ordering, and as -p at (b, a) when a < b, adding -p g_a g_b; so the correction gains -2p
    # at (a, b) exactly when a < b.  Never a = b: two generators of one triangle share no glued image,
    # since IdealTriangulation rejects a self-folded triangle.
    rows = [{} for _ in glued_ids]
    correction = {}
    for j, row in enumerate(tensor_spec.lower):
        a = to_glued[j]
        for i, p in row:
            b = to_glued[i]
            if a > b:
                rows[a][b] = rows[a].get(b, 0) + p
            else:
                rows[b][a] = rows[b].get(a, 0) - p
                correction[a, b] = correction.get((a, b), 0) - 2 * p
    glued_lower = tuple(tuple(sorted((b, p) for b, p in row.items() if p)) for row in rows)

    return SurfaceTorusSpec(
        triangulation=triangulation,
        tri=tri,
        tensor_spec=tensor_spec,
        glued_spec=QuantumTorusSpec(n, len(glued_ids), glued_lower, tuple(glued_ids)),
        tensor_to_glued=tuple(to_glued),
        weyl_correction=tuple((a, b, c) for (a, b), c in correction.items() if c),
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


def _edge_ends(arcs, triangulation) -> list:
    """Per edge, in declaration order, the arc ends on its first
    incidence and on its second (none on a boundary edge's), bottom to
    top, as (arc, role) pairs with role 'entry' or 'exit'.  An arc never
    enters and exits through one side, so every pair is one arc end."""
    where = {inc: (k, i) for k, e in enumerate(triangulation.edges) for i, inc in enumerate(e.incidences)}
    ends = [([], []) for _ in triangulation.edges]
    for arc in sorted(arcs, key=lambda a: a.height):
        for role, side in (("entry", arc.entry), ("exit", arc.exit)):
            k, i = where[arc.triangle, side]
            ends[k][i].append((arc, role))
    return ends


def _profile(ends, toward: str) -> tuple:
    """The orientations at one side of a biangle forced by the arc ends
    there: 'r' for an end whose role is toward ('exit' on the left side,
    'entry' on the right), else 'l'."""
    return tuple("r" if role == toward else "l" for _, role in ends)


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

    strands = {}
    for edge, (left, right) in zip(tr.edges, _edge_ends(link.arcs, tr)):
        if edge.is_boundary:
            strands[edge.id] = len(left)
            continue
        left, right = _profile(left, "exit"), _profile(right, "entry")
        try:
            diagram = BiangleDiagram(surface.tri.n, left, link.slices.get(edge.id, ()))
        except ValueError as err:
            problems.append(f"biangle {edge.id!r}: {err}")
            continue
        if diagram.right != right:
            problems.append(
                f"biangle {edge.id!r}: right boundary {diagram.right} does not match "
                f"the adjacent triangle arcs {right}"
            )

    for eid, count in strands.items():
        for pos in range(1, count + 1):
            if (eid, pos) not in link.boundary_states:
                problems.append(f"missing boundary state for edge {eid!r} position {pos}")
    for (eid, pos), value in link.boundary_states.items():
        if eid not in strands:
            problems.append(f"boundary state given for non-boundary edge {eid!r}")
        elif not 1 <= pos <= strands[eid]:
            problems.append(f"boundary state at edge {eid!r} position {pos} has no strand")
        elif not 1 <= value <= surface.tri.n:
            problems.append(f"boundary state at edge {eid!r} position {pos} out of range")
    return problems


def _require_good_position(link: GoodPositionLink, surface: SurfaceTorusSpec):
    problems = validate_good_position(link, surface)
    if problems:
        raise ValueError("link is not in good position:\n" + "\n".join(problems))


# ---------------------------------------------------------------------------
# per-triangle arc matrices

@lru_cache(maxsize=None)
def arc_quantum_matrix(tri: TriangleCoordinates, entry: int, turn: str, normalized: bool = True) -> TorusMatrix:
    """Quantum turn matrix of a flat arc entering through a given side,
    in the triangle's own torus; an exiting arc reads its exit side's
    inward sequence reversed.  The trace and both verify suites read
    turn matrices only from here; normalized=False gives the matrix
    without its normalizing prefactors, the negative control.  Each
    matrix is built once per triangle torus, and triangle_poisson gives
    one torus per rank."""
    exit_vec = inward_sequence(tri, turn_exit_side(entry, turn))[::-1]

    def interior(a, b, c):
        return tri.index[rotate_vertex((a, b, c), entry)]

    return quantum_turn_matrix(turn, tri, inward_sequence(tri, entry), exit_vec, interior, normalized)


# ---------------------------------------------------------------------------
# the state-sum trace


class _Factor(NamedTuple):
    """A factor of the state sum: the summed edges it reads and its
    reader of the per-edge state keys (see _state_sum)."""

    edges: tuple
    read: Callable


@dataclass
class TracePolynomial:
    """Quantum trace in the tensor algebra."""

    tensor: TorusElement


def _edge_tables(link: GoodPositionLink, surface: SurfaceTorusSpec) -> list:
    """Per edge, in declaration order, its amplitudes keyed by its states
    bottom to top.  A boundary edge has one entry, its given states, of
    amplitude 1; an internal edge's keys are its left states then its
    right, the diagram's amplitude_table flattened, each nonzero entry
    read through biangle_trace, the one reader of an amplitude."""
    tables = []
    for edge, (left, _) in zip(surface.triangulation.edges, _edge_ends(link.arcs, surface.triangulation)):
        if edge.is_boundary:
            tables.append({tuple(link.boundary_states[(edge.id, pos)] for pos in range(1, len(left) + 1)): ONE})
            continue
        diagram = BiangleDiagram(surface.tri.n, _profile(left, "exit"), link.slices.get(edge.id, ()))
        table = amplitude_table(diagram)
        tables.append({ls + rs: biangle_trace(diagram, ls, rs) for ls, row in table.items() for rs in row})
    return tables


def quantum_trace(link: GoodPositionLink, surface: SurfaceTorusSpec) -> TracePolynomial:
    """State-sum quantum trace of a link in good position.

    Every internal interface state is summed over; each biangle
    contributes a scalar amplitude, each triangle the height-ordered
    (lowest first) product of its arcs' turn matrix entries.
    """
    _require_good_position(link, surface)
    return TracePolynomial(tensor=_state_sum(link.arcs, surface, _edge_tables(link, surface)))


def _state_sum(arcs, surface: SurfaceTorusSpec, edge_tables: list) -> TorusElement:
    """The state sum of a valid link's arcs over its edge tables (keyed as
    in _edge_tables), in the tensor torus.  Every term carries its tensor
    exponent packed into one int until the output unpacks it once.

    The sum is a tensor network whose indices are the edges' states.  An
    edge whose table has one entry is fixed: never summed, its amplitude
    scales the output.  One loop contracts the rest: each step sums out
    the edge whose bucket (the factors that read it, and the edges those
    read) has the fewest state combinations; once the bucket spans every
    edge left, the step sums out all of them, and the one table left is
    the trace.
    """
    # states[k] holds edge k's current key in its table, its left ends'
    # states then its right ends'; an arc end reads position p of its
    # edge's key, ends[(arc, role)] = (k, p).
    edge_ends = _edge_ends(arcs, surface.triangulation)
    ends = {end: (k, p) for k, (left, right) in enumerate(edge_ends) for p, end in enumerate(left + right)}
    states, alive, scale = [None] * len(edge_tables), set(), ONE
    for k, table in enumerate(edge_tables):
        if len(table) == 1:
            ((states[k], amp),) = table.items()
            scale = scale if amp == ONE else scale * amp
        else:
            alive.add(k)

    tri_arcs = {}
    for arc in sorted(arcs, key=lambda a: a.height):
        tri_arcs.setdefault(arc.triangle, []).append(arc)

    tri_spec = surface.tri.spec
    tri_fields, tri_bias = _packer(tri_spec.N)
    # one unit for every triangle, so that it packs its left form once
    one = TorusElement.one(tri_spec)

    # A factor reads the edges' current keys and gives (exponent,
    # coefficient) pairs, each exponent a whole tensor exponent packed
    # into one int, a 64-bit field per generator (qtorus._packer).
    # Factors of different triangles commute in the block-diagonal tensor
    # torus, so multiplying two terms adds their packed exponents.  This
    # is exact: a product takes one triangle factor per triangle, so each
    # field receives one triangle's entry, which normal_product has
    # bounded below 2^63 (it checks its inputs below 2^62), and no field
    # carries into the next.  A triangle without arcs is the unit and has
    # no factor.
    def triangle_factor(t):
        arcs = tri_arcs[t]
        arc_ends = [(ends[(arc, "entry")], ends[(arc, "exit")]) for arc in arcs]
        matrices = [arc_quantum_matrix(surface.tri, arc.entry, arc.turn) for arc in arcs]
        edges = tuple(sorted({k for end in arc_ends for k, _ in end} & alive))
        shift = 64 * t * tri_spec.N
        cache = {}

        def read(states):
            """The height-ordered product of the triangle's arc entries,
            computed once in the triangle's own torus for each tuple of
            (entry, exit) state pairs and shifted to its tensor block."""
            pairs = tuple((states[a][i], states[b][j]) for (a, i), (b, j) in arc_ends)
            if pairs not in cache:
                entries = [m[i - 1, j - 1] for m, (i, j) in zip(matrices, pairs)]
                terms = () if any(x.is_zero() for x in entries) else reduce(normal_product, entries, one).terms.items()
                cache[pairs] = [(_pack(tri_fields.pack(*e), tri_bias) << shift, c) for e, c in terms]
            return cache[pairs]

        return _Factor(edges, read)

    def table_factor(edges, table):
        return _Factor(tuple(edges), lambda states: table.get(tuple(states[k] for k in edges), ()))

    def times(factors, amp=None):
        """The factors' product at the current states, times amp."""
        if not factors:
            return [(0, ONE if amp is None else amp)]
        terms = factors[0].read(states)
        if amp is not None:
            terms = [(e, c * amp) for e, c in terms]
        for factor in factors[1:]:
            if not terms:
                break
            terms = [(e + f, c * d) for e, c in terms for f, d in factor.read(states)]
        return terms

    factors = [triangle_factor(t) for t in sorted(tri_arcs)]
    while alive:
        buckets = {v: sorted({v}.union(*(f.edges for f in factors if v in f.edges))) for v in alive}
        v = min(alive, key=lambda u: (prod(len(edge_tables[k]) for k in buckets[u]), u))
        # Sum out v: for each state of the bucket's other edges, the
        # product of the factors that read v, summed over v's states.  The
        # last step sums out every edge left over every factor left; the
        # factors that read no edge go first, while the terms are few.
        last = len(buckets[v]) == len(alive)
        summed = buckets[v] if last else [v]
        rest = [k for k in buckets[v] if k not in summed]
        inside = sorted(factors, key=lambda f: bool(f.edges)) if last else [f for f in factors if v in f.edges]
        table = {}
        for combo in iter_product(*(edge_tables[k] for k in rest)):
            for k, key in zip(rest, combo):
                states[k] = key
            sums = {}
            for cut in iter_product(*(edge_tables[k].items() for k in summed)):
                for k, (key, _) in zip(summed, cut):
                    states[k] = key
                for e, c in times(inside, reduce(mul, (amp for _, amp in cut))):
                    sums[e] = sums[e] + c if e in sums else c
            terms = [(e, c) for e, c in sums.items() if not c.is_zero()]
            if terms:
                table[combo] = terms
        factors = [f for f in factors if f not in inside] + [table_factor(rest, table)]
        alive.difference_update(summed)

    # Unpack each output term once, in place: with the last step's sums and inputs
    # dropped, the list alone holds the packed exponents, each freed as its tuple is made.
    sums = inside = None
    terms = times(factors, None if scale == ONE else scale)
    fields, bias = _packer(surface.tensor_spec.N)
    for k, (e, c) in enumerate(terms):
        terms[k] = _unpack(e + bias, fields, bias), c
    return TorusElement(surface.tensor_spec, terms)


def project_to_glued(elem: TorusElement, surface: SurfaceTorusSpec) -> TorusElement:
    """Rewrite a tensor-algebra element over the glued surface torus.

    Each monomial must carry equal exponents on the two triangle copies
    of every internal edge dot; the common value becomes the exponent
    of the glued generator.  The Weyl-symmetric monomial bases are
    matched, which multiplies each coefficient by the ratio of the two
    normal-ordering factors, h^(sum c g_a g_b) over the surface's sparse
    weyl_correction.  A term is checked and read by index lookups: the
    paired tensor indices, and each glued generator's first tensor index.
    """
    if elem.spec is not surface.tensor_spec and elem.spec != surface.tensor_spec:
        raise ValueError("element does not live in this surface's tensor algebra")
    first = {target: i for i, target in reversed(tuple(enumerate(surface.tensor_to_glued)))}
    pairs = [(first[target], i) for i, target in enumerate(surface.tensor_to_glued) if first[target] != i]
    # index 0 pads both sides, so that each getter returns a tuple
    below, above = itemgetter(0, *(i for i, _ in pairs)), itemgetter(0, *(j for _, j in pairs))
    read = itemgetter(*map(first.get, range(surface.glued_spec.N)))

    def glued_pairs():
        for e, coeff in elem.terms.items():
            if below(e) != above(e):
                i, j = next((i, j) for i, j in pairs if e[i] != e[j])
                raise ValueError(
                    "monomial does not glue: generator "
                    f"{surface.glued_spec.names[surface.tensor_to_glued[j]]!r} pairs exponents {e[i]} and {e[j]}"
                )
            g = read(e)
            k = sum([c * g[a] * g[b] for a, b, c in surface.weyl_correction])
            yield g, coeff * RootScalar({k: 1}) if k else coeff

    return TorusElement(surface.glued_spec, glued_pairs())


def _split(table: dict, left: list, right: list, h: int):
    """An edge table cut in two above height h, or None.

    Keys hold the states of the ends at heights left, then right, both
    ascending; the lower table reads those at heights <= h.  A table
    whose ends all lie on one side of h goes whole to that side (below,
    if it has no ends).  Otherwise it splits when table[x + y] =
    lower[x] * upper[y] exactly, on supp lower x supp upper and nowhere
    else; both are read off the first entry that is a unit +-h^k.
    """
    a, b, la = bisect_right(left, h), bisect_right(right, h), len(left)
    if (a, b) == (la, len(right)):
        return table, {(): ONE}
    if a == b == 0:
        return {(): ONE}, table
    parts = [(key[:a] + key[la : la + b], key[a:la] + key[la + b :], value) for key, value in table.items()]
    pivot = next(((x, y, v.inverse()) for x, y, v in parts if list(v.terms.values()) in ([1], [-1])), None)
    if pivot is None:
        return None
    x0, y0, inverse = pivot
    lower = {x: value * inverse for x, y, value in parts if y == y0}
    upper = {y: value for x, y, value in parts if x == x0}
    if len(lower) * len(upper) == len(parts) and all(
        x in lower and y in upper and lower[x] * upper[y] == value for x, y, value in parts
    ):
        return lower, upper
    return None


def _layers(link: GoodPositionLink, surface: SurfaceTorusSpec):
    """The maximal height layers of a valid link, lowest first, each as
    its arcs and its part of the edge tables.

    A cut above height h is valid when every edge's table splits there
    (see _split), so that the state sum is the product of the sums below
    and above h.  A boundary edge has ends on one side only, and its one
    entry always splits.  Cuts are taken lowest first, each splitting what
    the cuts below it left."""
    # the heights of each edge's left ends, then right ends (a boundary edge has none)
    ends = [[[a.height for a, _ in side] for side in pair] for pair in _edge_ends(link.arcs, surface.triangulation)]
    heights = sorted({arc.height for arc in link.arcs})
    rest = _edge_tables(link, surface)
    cuts, tables = [], []
    for h in heights[:-1]:
        splits = [_split(table, left, right, h) for table, (left, right) in zip(rest, ends)]
        if None not in splits:
            cuts.append(h)
            tables.append([lower for lower, _ in splits])
            rest = [upper for _, upper in splits]
            ends = [[side[bisect_right(side, h) :] for side in pair] for pair in ends]
    layers = [()] * (len(cuts) + 1)
    for arc in link.arcs:
        layers[bisect_left(cuts, arc.height)] += (arc,)
    return list(zip(layers, tables + [rest]))


def glued_trace(link: GoodPositionLink, surface: SurfaceTorusSpec) -> TorusElement:
    """The quantum trace of a link in the glued torus.

    The trace is an algebra homomorphism, so a link stacked in height
    layers traces to the lower-first product of the layers' traces; a
    layer's state sum reads only its own strands and its share of the
    tables, the boundary states among them.  Layers that agree in their
    arcs up to height and in their tables are traced once per call.
    """
    _require_good_position(link, surface)
    keys, traces = [], []
    for arcs, tables in _layers(link, surface):
        heights = sorted({arc.height for arc in arcs})
        key = (sorted((bisect_left(heights, a.height), a.triangle, a.entry, a.turn) for a in arcs), tables)
        if key in keys:
            traces.append(traces[keys.index(key)])
        else:
            traces.append(project_to_glued(_state_sum(arcs, surface, tables), surface))
        keys.append(key)
    return reduce(normal_product, traces)


# ---------------------------------------------------------------------------
# the move suite


def opposite_product(A: TorusMatrix, B: TorusMatrix, C: TorusMatrix) -> TorusMatrix:
    """Matrix product A B C with the entrywise multiplications taken in
    the opposite ring (rightmost factor's entries first)."""
    return mat_mul(mat_mul(C.transpose(), B.transpose()), A.transpose()).transpose()


def verify_moves(n: int = 3) -> dict:
    """Exact checks of the good position move identities at rank n.

    Each key compares the two sides of its move coefficient by
    coefficient.  Both sides are built from the pieces the trace itself
    reads (the arc matrices, the U-turns, the crossings and the biangle
    amplitude tables), so each side is the state sum of its tangle over
    all boundary states at once.  The remaining oriented variants reduce
    to these plus crossing and U-turn cancellations, checked under the
    same keys.
    """
    tri = triangle_poisson(n)
    # The paper's dots: (W_s, Z_s) are side s's inward sequence, with
    # sides 2, 3, 1 the triangle's sides 0, 1, 2.
    L1 = arc_quantum_matrix(tri, 0, "left")  # L(W2, Z2, W3, Z3, X)
    R1 = arc_quantum_matrix(tri, 1, "right")  # R(W2, Z2, W3, Z3, X)
    L2 = arc_quantum_matrix(tri, 1, "left")  # L(W3, Z3, W1, Z1, X)
    R2 = arc_quantum_matrix(tri, 2, "right")  # R(W3, Z3, W1, Z1, X)
    L3 = arc_quantum_matrix(tri, 2, "left")  # L(W1, Z1, W2, Z2, X)
    R3 = arc_quantum_matrix(tri, 0, "right")  # R(W1, Z1, W2, Z2, X)
    U_dec_cw, U_dec_ccw, U_inc_ccw, U_inc_cw = (
        uturn_matrix(kind, n) for kind in ("dec_cw", "dec_ccw", "inc_ccw", "inc_cw")
    )
    C = crossing_matrix("pos_same_to_lower", n)
    report = {}

    # Move (I): a U-turn slides across the triangle.  The decreasing
    # U-turns read the entries lower arc first, in the opposite ring.
    report["move_i"] = opposite_product(L1, U_dec_cw, R1) == U_dec_cw
    report["move_i_b"] = mat_mul(mat_mul(L1, U_inc_ccw), R1) == U_inc_ccw
    report["move_i_c"] = opposite_product(R1, U_dec_ccw, L1) == U_dec_ccw
    report["move_i_d"] = mat_mul(mat_mul(R1, U_inc_cw), L1) == U_inc_cw

    # Move (II): two right turns and an increasing counterclockwise
    # U-turn compose to the left turn, and two left turns and a
    # decreasing clockwise U-turn to the right turn.
    report["move_ii"] = mat_mul(mat_mul(R2, U_inc_ccw), R1) == L3
    report["move_ii_b"] = opposite_product(L1, U_dec_cw, L2) == R3

    # Move (III): a same-direction crossing slides across two parallel
    # left-turning arcs.  Both strands run against the matrix index
    # direction, so the pair reads the entries of L1 at transposed
    # positions.
    T3 = kron(L1.transpose(), L1.transpose())
    report["move_iii"] = mat_mul(C, T3) == mat_mul(T3, C)

    # Move (IV): a same-direction crossing slides across a stacked left
    # turn and right turn pair, which exchange strands on the way.  The
    # exchange reindexes the columns of the pair (i, j) -> (j, i).
    T4 = kron(L3, R2).entries
    swap = [k % n * n + k // n for k in range(n * n)]
    report["move_iv"] = TorusMatrix(tri.spec, [[row[k] for k in swap] for row in T4]) == mat_mul(C, kron(R2, L3))

    # Remaining oriented variants reduce to the moves above together
    # with crossing cancellation and U-turn wave identities, each checked
    # as the equality of two amplitude tables.
    def isotopic(left, word, other=()):
        table = lambda w: amplitude_table(BiangleDiagram(n, left, tuple(Slice(*s) for s in w)))
        return table(word) == table(other)

    crossings_cancel = all(
        isotopic(left, ((a, 1), (b, 1))) and isotopic(left, ((b, 1), (a, 1)))
        for left, a, b in (
            (("r", "r"), "pos_same_to_lower", "neg_same_to_lower"),
            (("r", "l"), "neg_opp_to_lower", "pos_opp_to_lower"),
        )
    )
    report["move_iii_b"] = report["move_iii"] and crossings_cancel
    report["move_iii_c"] = report["move_iii"] and crossings_cancel
    report["move_iii_d"] = report["move_iii"] and crossings_cancel

    # Auxiliary move (I'): a U-turn slides across the split edge, which
    # is the cancellation of a cup-cap wave.
    waves_cancel = all(
        isotopic(left, ((cup, 1), (cap, 2)))
        for left, cup, cap in ((("l",), "dec_cw", "dec_ccw"), (("r",), "inc_ccw", "inc_cw"))
    )
    report["move_i_prime"] = waves_cancel and report["move_i"] and report["move_ii"]

    report["move_iv_b"] = report["move_iv"] and crossings_cancel and report["move_i_prime"]
    report["move_iv_c"] = report["move_iv"] and crossings_cancel and report["move_i_prime"]
    report["move_iv_d"] = report["move_iv"] and crossings_cancel and report["move_i_prime"]

    # Move (V): a kink at the triangle corner equals the framing factor.
    curls = all(
        isotopic(("r",), (("inc_ccw", 2), (crossing, 1), ("dec_ccw", 2)), ((kink, 1),))
        for crossing, kink in (("pos_same_to_lower", "kink_pos"), ("neg_same_to_lower", "kink_neg"))
    )
    report["move_v"] = curls and kink_scalar(n, 1) * kink_scalar(n, -1) == ONE

    return report
