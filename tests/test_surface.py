"""Triangulated surfaces: glued quantum tori, the state-sum quantum
trace, the elementary-move verification suite, and the classical and
multiplicative consistency properties."""

import random
import time
import tracemalloc
from dataclasses import replace
from functools import lru_cache, reduce
from itertools import permutations, product as iter_product

import pytest
from hypothesis import example, given, settings, strategies as st

from qtrace.qtorus import (
    ZERO,
    RootScalar,
    TorusElement,
    TorusMatrix,
    kron,
    mat_mul,
    normal_product,
    q_power,
)
from qtrace.biangle import CROSSING_KINDS, Slice, crossing_matrix, kink_scalar, unknot_value, uturn_matrix
from qtrace.fock_goncharov import is_mnq_point, is_slnq_point, quantum_determinant, triangle_poisson
from qtrace.surface import (
    Edge,
    GoodPositionLink,
    IdealTriangulation,
    TriangleArc,
    arc_quantum_matrix,
    build_surface,
    glued_trace,
    opposite_product,
    project_to_glued,
    quantum_trace,
    validate_good_position,
    verify_moves,
)

import qtrace.fock_goncharov as fock_goncharov
import qtrace.surface as surface_module
import oracles
from oracles import CurveStep, classical_trace_polynomial
from triangulations import fan_edges, glued_square, once_punctured_torus, single_triangle


@pytest.fixture(scope="module")
def torus():
    return build_surface(once_punctured_torus(), 3)


# one arc through each triangle of the glued square, from edge q to edge v
SQUARE_ARCS = (TriangleArc(0, 2, "left", 1), TriangleArc(1, 2, "right", 1))


def unsplit_trace(link, surface):
    """The quantum trace of a link, projected to the glued torus, from
    one state sum over the whole link (no height layers)."""
    return project_to_glued(quantum_trace(link, surface).tensor, surface)


def link_a():
    return GoodPositionLink(
        arcs=(TriangleArc(1, 0, "right", 1), TriangleArc(0, 0, "left", 1))
    )


def link_b():
    return GoodPositionLink(
        arcs=(TriangleArc(0, 2, "left", 1), TriangleArc(1, 2, "right", 1))
    )


STEPS_A = [CurveStep("r", 1, "right"), CurveStep("d", 0, "left")]
STEPS_B = [CurveStep("b", 0, "left"), CurveStep("d", 1, "right")]


class TestTriangulation:
    def test_fixtures_are_valid(self):
        assert len(once_punctured_torus().internal_edges) == 3
        assert sum(e.is_boundary for e in glued_square().edges) == 4
        assert sum(e.is_boundary for e in single_triangle().edges) == 3

    def test_duplicate_edge_id_rejected(self):
        with pytest.raises(ValueError):
            IdealTriangulation(
                1, (Edge("a", ((0, 0),)), Edge("a", ((0, 1),)), Edge("b", ((0, 2),)))
            )

    def test_self_folded_triangle_rejected(self):
        with pytest.raises(ValueError):
            IdealTriangulation(1, (Edge("a", ((0, 0), (0, 1))), Edge("b", ((0, 2),))))

    def test_side_claimed_twice_rejected(self):
        with pytest.raises(ValueError):
            IdealTriangulation(
                1, (Edge("a", ((0, 0),)), Edge("b", ((0, 0),)), Edge("c", ((0, 1),)))
            )

    def test_unglued_side_rejected(self):
        with pytest.raises(ValueError):
            IdealTriangulation(1, (Edge("a", ((0, 0),)), Edge("b", ((0, 1),))))

    def test_missing_triangle_rejected(self):
        with pytest.raises(ValueError):
            IdealTriangulation(1, (Edge("a", ((0, 0), (7, 1))), Edge("b", ((0, 2),))))


class TestBuildSurface:
    def test_glued_generator_count(self, torus):
        # 3 internal edges x 2 shared dots + 2 triangle interior dots
        assert torus.glued_spec.N == 8
        assert torus.glued_spec.names == (
            "d.1", "d.2", "r.1", "r.2", "b.1", "b.2", "T0.X111", "T1.X111",
        )

    def test_glued_form_antisymmetric(self, torus):
        P = oracles.dense_form(torus.glued_spec)
        for i in range(torus.glued_spec.N):
            for j in range(torus.glued_spec.N):
                assert P[i][j] == -P[j][i]

    def test_internal_edge_dots_identified_in_reverse(self, torus):
        # the two triangles enumerate a shared edge's dots in opposite
        # orders, so the glued index sequences are reverses
        for edge in torus.triangulation.internal_edges:
            t0 = edge.incidences[0][0]
            t1 = edge.incidences[1][0]
            seq0 = oracles.edge_dot_indices(torus, edge.id, t0)
            seq1 = oracles.edge_dot_indices(torus, edge.id, t1)
            assert seq0 == tuple(reversed(seq1))


class TestGoodPositionValidation:
    def test_mismatched_directions_rejected(self, torus):
        bad = GoodPositionLink(
            arcs=(TriangleArc(1, 0, "right", 1), TriangleArc(0, 0, "right", 1))
        )
        assert validate_good_position(bad, torus)
        with pytest.raises(ValueError):
            quantum_trace(bad, torus)

    def test_unknown_turn_rejected(self, torus):
        bad = GoodPositionLink(arcs=(TriangleArc(0, 0, "uturn", 1),))
        assert validate_good_position(bad, torus)

    @pytest.mark.parametrize(
        "where,link,message",
        [
            ("torus", GoodPositionLink(arcs=(TriangleArc(0, 0, "uturn", 1),)),
             "arc in triangle 0: unknown turn 'uturn'"),
            ("torus", GoodPositionLink(arcs=(TriangleArc(5, 0, "left", 1),)),
             "arc refers to missing triangle 5"),
            ("torus", GoodPositionLink(arcs=(TriangleArc(0, 3, "left", 1),)),
             "arc in triangle 0: bad entry side 3"),
            ("torus", GoodPositionLink(arcs=(TriangleArc(0, 0, "left", 1), TriangleArc(0, 1, "left", 1))),
             "triangle 0: duplicate height 1"),
            ("torus", GoodPositionLink(slices={"zz": ()}),
             "slices given for unknown edge 'zz'"),
            ("square", GoodPositionLink(slices={"p": ()}),
             "edge 'p' is a boundary edge and has no biangle"),
            ("torus", GoodPositionLink(arcs=link_a().arcs, slices={"d": (Slice("inc_ccw", 3),)}),
             "biangle 'd': inc_ccw position 3 out of range"),
            ("torus", GoodPositionLink(arcs=(TriangleArc(1, 0, "right", 1), TriangleArc(0, 0, "right", 1))),
             "biangle 'r': right boundary () does not match the adjacent triangle arcs ('r',)"),
            ("square", GoodPositionLink(arcs=SQUARE_ARCS, boundary_states={("q", 1): 1}),
             "missing boundary state for edge 'v' position 1"),
            ("square", GoodPositionLink(arcs=SQUARE_ARCS, boundary_states={("q", 1): 1, ("v", 1): 2, ("q", 2): 1}),
             "boundary state at edge 'q' position 2 has no strand"),
            ("square", GoodPositionLink(arcs=SQUARE_ARCS, boundary_states={("q", 1): 4, ("v", 1): 2}),
             "boundary state at edge 'q' position 1 out of range"),
            ("square", GoodPositionLink(arcs=SQUARE_ARCS, boundary_states={("q", 1): 1, ("v", 1): 2, ("d", 1): 1}),
             "boundary state given for non-boundary edge 'd'"),
        ],
        ids=[
            "unknown_turn", "missing_triangle", "bad_entry_side", "duplicate_height",
            "slices_unknown_edge", "slices_boundary_edge", "biangle_error", "right_boundary",
            "missing_state", "state_without_strand", "state_out_of_range", "state_internal_edge",
        ],
    )
    def test_each_diagnostic(self, torus, where, link, message):
        surface = torus if where == "torus" else square_at(3)
        assert message in validate_good_position(link, surface)


class TestMoveSuite:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_all_moves_hold(self, n):
        start = time.time()
        report = verify_moves(n)
        assert report == {key: True for key in report}
        assert time.time() - start < 60

    def test_products_equal_the_paper_displays_at_n3(self):
        tri = triangle_poisson(3)
        arc = lambda entry, turn: arc_quantum_matrix(tri, entry, turn)
        L1, R1, L2, R2, L3 = arc(0, "left"), arc(1, "right"), arc(1, "left"), arc(2, "right"), arc(2, "left")
        U = lambda kind: uturn_matrix(kind, 3)
        C, C_inv = crossing_matrix("pos_same_to_lower", 3), crossing_matrix("neg_same_to_lower", 3)
        T3 = kron(L1.transpose(), L1.transpose())
        products = {
            "move_i": [opposite_product(L1, U("dec_cw"), R1)],
            "move_i_b": [mat_mul(mat_mul(L1, U("inc_ccw")), R1)],
            "move_i_c": [opposite_product(R1, U("dec_ccw"), L1)],
            "move_i_d": [mat_mul(mat_mul(R1, U("inc_cw")), L1)],
            "move_ii": [mat_mul(mat_mul(R2, U("inc_ccw")), R1)],
            "move_ii_b": [opposite_product(L1, U("dec_cw"), L2)],
            "move_iii": [T3, mat_mul(mat_mul(C, T3), C_inv), mat_mul(mat_mul(C_inv, T3), C)],
            "move_iv": [kron(L3, R2)],
        }
        displays = oracles.paper_move_displays(tri)
        assert list(displays) == list(products)
        assert [key for key in displays if any(p != displays[key] for p in products[key])] == []

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize(
        "name, broken, failing",
        [
            (
                "arc_quantum_matrix",
                lambda tri, entry, turn: arc_quantum_matrix(tri, entry, turn, normalized=False),
                ["move_i", "move_iii"],
            ),
            (
                "crossing_matrix",
                lambda kind, n: crossing_matrix("neg_same_to_lower" if kind == "pos_same_to_lower" else kind, n),
                ["move_iv"],
            ),
        ],
        ids=["unnormalized_arcs", "inverse_crossing"],
    )
    def test_a_broken_piece_fails_its_moves(self, n, name, broken, failing, monkeypatch):
        monkeypatch.setattr(surface_module, name, broken)
        report = verify_moves(n)
        assert [key for key in failing if report[key]] == []


class TestQuantumTrace:
    def test_unknot_in_biangle(self, torus):
        link = GoodPositionLink(
            slices={"d": (Slice("inc_ccw", 1), Slice("dec_ccw", 1))}
        )
        g = quantum_trace(link, torus)
        assert g.tensor == TorusElement.scalar(torus.tensor_spec, unknot_value(3))

    def test_two_good_positions_agree(self, torus):
        # slide one strand of the first fixture curve across an edge:
        # the state sums agree term by term before any projection
        moved = GoodPositionLink(
            arcs=(
                TriangleArc(1, 0, "right", 1),
                TriangleArc(0, 0, "right", 2),
                TriangleArc(0, 2, "right", 1),
            ),
            slices={"b": (Slice("inc_cw", 1),)},
        )
        assert quantum_trace(moved, torus).tensor == quantum_trace(link_a(), torus).tensor

    def test_negative_kink_gives_inverse_ribbon_factor(self, torus):
        kinked = GoodPositionLink(
            arcs=(
                TriangleArc(1, 0, "right", 1),
                TriangleArc(0, 0, "right", 1),
                TriangleArc(0, 2, "right", 2),
            ),
            slices={"b": (Slice("dec_ccw", 1),)},
        )
        base = quantum_trace(link_a(), torus).tensor
        scaled = TorusElement.scalar(torus.tensor_spec, kink_scalar(3, -1)) * base
        assert quantum_trace(kinked, torus).tensor == scaled

    @pytest.mark.parametrize("fixture", ["a", "b"])
    def test_even_h_exponents_on_closed_curves(self, torus, fixture):
        link = link_a() if fixture == "a" else link_b()
        glued = unsplit_trace(link, torus)
        assert glued.terms
        for coeff in glued.terms.values():
            assert all(k % 2 == 0 for k in coeff.terms)

    def test_even_h_exponents_on_union_and_unknot(self, torus):
        union = GoodPositionLink(
            arcs=link_a().arcs
            + tuple(TriangleArc(x.triangle, x.entry, x.turn, 2) for x in link_b().arcs)
        )
        unknot = GoodPositionLink(
            slices={"d": (Slice("inc_ccw", 1), Slice("dec_ccw", 1))}
        )
        for link in (union, unknot):
            glued = unsplit_trace(link, torus)
            for coeff in glued.terms.values():
                assert all(k % 2 == 0 for k in coeff.terms)


@lru_cache(maxsize=None)
def torus_at(n):
    return build_surface(once_punctured_torus(), n)


@lru_cache(maxsize=None)
def fan_at(n, order):
    """A fan whose chain runs through the triangles in order."""
    return build_surface(IdealTriangulation(len(order), fan_edges(order)), n)


def strip_at(n, m):
    """A fan of m triangles, T(i-1) side 1 glued to Ti side 0."""
    return fan_at(n, tuple(range(m)))


def boundary_slots(arcs, surface):
    """(boundary edge id, position) of every arc end on a boundary edge."""
    where = {e.incidences[0]: e.id for e in surface.triangulation.edges if e.is_boundary}
    count = {}
    for arc in arcs:
        for side in (arc.entry, arc.exit):
            edge = where.get((arc.triangle, side))
            if edge:
                count[edge] = count.get(edge, 0) + 1
    return [(edge, pos) for edge, c in count.items() for pos in range(1, c + 1)]


def fan_arcs(order, strands):
    """Arcs of strands along a fan's chain, the first strand lowest.  A
    strand (a, b, from_e0, to_e1) runs through the chain positions a..b:
    it enters through e0 or the side edge of position a, turns left
    along the chain, and leaves through e1 or, by a right turn, through
    the side edge of position b."""
    arcs = []
    for h, (a, b, from_e0, to_e1) in enumerate(strands, start=1):
        for k in range(a, b + 1):
            entry = 0 if k > a or from_e0 else 2
            exit_side = 1 if k < b or to_e1 else 2
            arcs.append(TriangleArc(order[k], entry, "left" if (entry, exit_side) == (0, 1) else "right", h))
    return arcs


# Zig-zags that straighten on the bottom strand of curve a's biangles.
ZIGZAGS = {"d": (Slice("inc_ccw", 2), Slice("inc_cw", 1)), "r": (Slice("inc_ccw", 1), Slice("inc_cw", 2))}
SAME_KINDS = [kind for kind in CROSSING_KINDS if "_same_" in kind]


@st.composite
def braided_bundles(draw, max_n=3, zigzags=True):
    """k parallel copies of curve a at rank n = 2..max_n with random words
    of crossings, kinks and (when zigzags) zig-zags in the biangles d and
    r."""
    n, k = draw(st.integers(2, max_n)), draw(st.integers(1, 2))
    arcs = []
    for h in range(1, k + 1):
        arcs += [TriangleArc(1, 0, "right", h), TriangleArc(0, 0, "left", h)]
    letters = ("crossing",) * (k > 1) + ("kink",) + ("zigzag",) * zigzags
    slices = {}
    for edge in ("d", "r"):
        word = []
        for _ in range(draw(st.integers(0, 4))):
            letter = draw(st.sampled_from(letters))
            if letter == "crossing":
                word.append(Slice(draw(st.sampled_from(SAME_KINDS)), draw(st.integers(1, k - 1))))
            elif letter == "kink":
                word.append(Slice(draw(st.sampled_from(("kink_pos", "kink_neg"))), draw(st.integers(1, k))))
            else:
                word += ZIGZAGS[edge]
        slices[edge] = tuple(word)
    return GoodPositionLink(arcs=arcs, slices=slices), torus_at(n)


@st.composite
def strips(draw):
    """One left-turning arc through a fan of m triangles, with random
    boundary states."""
    n, m = draw(st.integers(2, 3)), draw(st.integers(1, 5))
    states = {("e0", 1): draw(st.integers(1, n)), ("e1", 1): draw(st.integers(1, n))}
    arcs = [TriangleArc(i, 0, "left", 1) for i in range(m)]
    return GoodPositionLink(arcs=arcs, boundary_states=states), strip_at(n, m)


@lru_cache(maxsize=None)
def square_at(n):
    return build_surface(glued_square(), n)


@st.composite
def squares(draw):
    """k strands across the glued square's diagonal, each entering T0
    through p or q and leaving T1 through u or v, listed in random order
    with random boundary states; several strands can share one boundary
    edge.  A random word of crossings in the diagonal's biangle gives,
    at k = 3, amplitudes that change when left and right are swapped."""
    n, k = draw(st.integers(2, 3)), draw(st.integers(1, 3))
    arcs = []
    for h in range(1, k + 1):
        entry, turn = draw(st.sampled_from(((2, "left"), (1, "right"))))
        arcs += [TriangleArc(0, entry, turn, h), TriangleArc(1, 2, draw(st.sampled_from(("right", "left"))), h)]
    arcs = draw(st.permutations(arcs))
    states = {slot: draw(st.integers(1, n)) for slot in boundary_slots(arcs, square_at(n))}
    word = [Slice(draw(st.sampled_from(SAME_KINDS)), draw(st.integers(1, k - 1))) for _ in range(draw(st.integers(0, 3)))] if k > 1 else []
    return GoodPositionLink(arcs=arcs, slices={"d": tuple(word)}, boundary_states=states), square_at(n)


# Three strands from q to v under a crossing word whose amplitude table
# is not symmetric in left and right: a state sum that read the
# biangle's left states on T1 and its right states on T0 would differ.
ASYMMETRIC_SQUARE = GoodPositionLink(
    arcs=[TriangleArc(0, 2, "left", h) for h in (1, 2, 3)] + [TriangleArc(1, 2, "right", h) for h in (1, 2, 3)],
    slices={"d": (Slice("pos_same_to_lower", 1), Slice("pos_same_to_lower", 2))},
    boundary_states={("q", 1): 1, ("q", 2): 2, ("q", 3): 3, ("v", 1): 3, ("v", 2): 2, ("v", 3): 1},
)


@st.composite
def fans(draw):
    """One or two strands along a fan of m triangles numbered by a random
    permutation (see fan_arcs), with random boundary states and random
    words of same-direction crossings in the internal biangles.  The
    edge tables carry amplitudes other than 1, and a contraction that
    follows the chain visits the triangles out of their order."""
    n, m = draw(st.integers(2, 3)), draw(st.integers(1, 4))
    order = tuple(draw(st.permutations(range(m))))
    strands = []
    lo, hi = m - 1, 0
    for _ in range(draw(st.integers(1, 2))):
        # a second strand spans the first one, so that both cross the
        # same biangles
        a = draw(st.integers(0, lo))
        b = draw(st.integers(max(a, hi), m - 1))
        from_e0 = a == 0 and draw(st.booleans())
        to_e1 = b == m - 1 and draw(st.booleans())
        if a == b and not (from_e0 or to_e1):
            # no arc enters and leaves a triangle through its side edge
            b, to_e1 = (b + 1, False) if b < m - 1 else (b, True)
        strands.append((a, b, from_e0, to_e1))
        lo, hi = a, b
    slices = {}
    for k in range(1, m):
        if sum(a < k <= b for a, b, _, _ in strands) > 1:
            word = [Slice(draw(st.sampled_from(SAME_KINDS)), 1) for _ in range(draw(st.integers(0, 3)))]
            slices[f"i{k}"] = tuple(word)
    surface = fan_at(n, order)
    arcs = fan_arcs(order, strands)
    states = {slot: draw(st.integers(1, n)) for slot in boundary_slots(arcs, surface)}
    return GoodPositionLink(arcs=arcs, slices=slices, boundary_states=states), surface


def stated(arcs, slices, surface):
    """A link of the arcs with every boundary state set to 1 + (position
    mod n), and its surface."""
    states = {(edge, pos): 1 + pos % surface.tri.n for edge, pos in boundary_slots(arcs, surface)}
    return GoodPositionLink(arcs=arcs, slices=slices, boundary_states=states), surface


def fan_case(n, order, strands, slices=None):
    """A stated link of strands along fan_at(n, order)."""
    return stated(fan_arcs(order, strands), slices or {}, fan_at(n, order))


# Two crossing strands through a fan whose chain visits T2, T0, T3, T1,
# and a kink on the one strand through i3: the contraction sums out i3
# first, with amplitudes other than 1, and joins the triangles' blocks
# out of their order.
SHUFFLED_FAN = fan_case(
    3,
    (2, 0, 3, 1),
    [(0, 3, True, True), (0, 2, False, False)],
    {
        "i1": (Slice("pos_same_to_lower", 1),),
        "i2": (Slice("neg_same_to_higher", 1), Slice("pos_same_to_lower", 1)),
        "i3": (Slice("kink_neg", 1),),
    },
)


def two_fans():
    """Two fans with no edge in common, their triangles interleaved."""
    orders = ((0, 2), (3, 1))
    surface = build_surface(IdealTriangulation(4, fan_edges(orders[0]) + fan_edges(orders[1], "b")), 3)
    arcs = [*fan_arcs(orders[0], [(0, 1, True, False)]), *fan_arcs(orders[1], [(0, 1, True, True), (0, 1, False, True)])]
    return stated(arcs, {"bi1": (Slice("neg_same_to_lower", 1),)}, surface)


def arcless_middle():
    """A fan of three triangles whose middle one carries no arc, between
    two biangles that each hold a U-turn: the strand through e0 turns
    back into s0 at i1, and the strand from s2 turns back into e1 at i2."""
    arcs = [
        TriangleArc(1, 0, "left", 1), TriangleArc(1, 1, "left", 2),
        TriangleArc(0, 2, "left", 1), TriangleArc(0, 0, "left", 2),
    ]
    return stated(arcs, {"i1": (Slice("dec_ccw", 1),), "i2": (Slice("dec_cw", 1),)}, fan_at(3, (1, 2, 0)))


EDGE_CASES = {
    # a strand from e0 that leaves by s1: i2 is crossed by nothing and
    # the last triangle of the chain carries no arc
    "uncrossed_edge": fan_case(3, (1, 2, 0), [(0, 1, True, False)]),
    "arcless_triangle_between_crossed_edges": arcless_middle(),
    "disconnected_pieces": two_fans(),
}

UNKNOT = (Slice("inc_ccw", 1), Slice("dec_ccw", 1))

# (link, surface, trace or None for the oracle's): curve a leaves the edge b
# uncrossed, and the last two cases fix every edge, so the trace is a scalar
ONE_ENTRY_CASES = {
    "curve_a": (link_a(), torus_at(3), None),
    "uncrossed_edge": (*EDGE_CASES["uncrossed_edge"], None),
    "arcless_strip": (GoodPositionLink(), strip_at(3, 4), TorusElement.one(strip_at(3, 4).tensor_spec)),
    "unknots_only": (
        GoodPositionLink(slices={"r": UNKNOT, "b": UNKNOT * 2}),
        torus_at(3),
        TorusElement.scalar(torus_at(3).tensor_spec, unknot_value(3) * unknot_value(3) * unknot_value(3)),
    ),
}

# Kinks that cancel; the empty-table case below makes every amplitude of
# a biangle holding them zero.
ZERO_MARK = (Slice("kink_pos", 1), Slice("kink_neg", 1))


class TestStateSumEngine:
    @given(case=st.one_of(braided_bundles(), strips(), squares(), fans()))
    @example(case=(ASYMMETRIC_SQUARE, square_at(3)))
    @example(case=SHUFFLED_FAN)
    @settings(max_examples=200, deadline=None)
    def test_matches_enumeration_in_the_tensor_torus(self, case):
        link, surface = case
        assert quantum_trace(link, surface).tensor == oracles.enumerated_trace(link, surface)

    @pytest.mark.parametrize("name", sorted(EDGE_CASES))
    def test_edge_case_matches_enumeration(self, name):
        link, surface = EDGE_CASES[name]
        assert not validate_good_position(link, surface)
        expected = oracles.enumerated_trace(link, surface)
        assert not expected.is_zero()
        assert quantum_trace(link, surface).tensor == expected

    def test_empty_edge_table_gives_zero(self, monkeypatch):
        amplitude = surface_module.biangle_trace

        def trace(diagram, left, right):
            return ZERO if diagram.slices == ZERO_MARK else amplitude(diagram, left, right)

        monkeypatch.setattr(surface_module, "biangle_trace", trace)
        monkeypatch.setattr(oracles, "biangle_trace", trace)
        link, surface = fan_case(3, (2, 0, 1), [(0, 2, True, True)], {"i2": ZERO_MARK})
        assert quantum_trace(link, surface).tensor.is_zero()
        assert oracles.enumerated_trace(link, surface).is_zero()

    @given(case=st.one_of(strips(), squares(), fans()))
    @settings(max_examples=60, deadline=None)
    def test_boundary_states_are_read_only_from_the_tables(self, case):
        # the link's arcs alone, its boundary states and slices dropped,
        # trace as the whole link over the whole link's edge tables
        link, surface = case
        tables = surface_module._edge_tables(link, surface)
        assert surface_module._state_sum(link.arcs, surface, tables) == quantum_trace(link, surface).tensor

    @pytest.mark.parametrize("name", sorted(ONE_ENTRY_CASES))
    def test_one_entry_tables_are_never_summed(self, name, monkeypatch):
        # an edge whose table has one entry is fixed; the contraction loop
        # hands iter_product the tables of the edges it keeps or sums out,
        # and never runs when every edge is fixed
        link, surface, scalar = ONE_ENTRY_CASES[name]
        expected = oracles.enumerated_trace(link, surface) if scalar is None else scalar
        widths, real = [], surface_module.iter_product

        def recorded(*tables):
            widths.append([len(table) for table in tables])
            return real(*tables)

        monkeypatch.setattr(surface_module, "iter_product", recorded)
        assert quantum_trace(link, surface).tensor == expected
        assert all(1 not in row for row in widths)
        assert bool(widths) == (scalar is None)

    # The product table builds a triangle's product arc by arc, sharing
    # each prefix across the state tuples and triangles that agree on it.

    @pytest.mark.parametrize("kind", ["pos_same_to_lower", "neg_same_to_higher"])
    def test_prefixes_shared_by_three_arcs_match_enumeration(self, kind):
        # three copies of curve a: each triangle's three arcs share their
        # kind, and its products differ only in the later arcs' states
        arcs = [arc for h in (1, 2, 3) for arc in (TriangleArc(1, 0, "right", h), TriangleArc(0, 0, "left", h))]
        link = GoodPositionLink(arcs=arcs, slices={"d": (Slice(kind, 1), Slice(kind, 2))})
        assert not validate_good_position(link, torus_at(2))
        assert quantum_trace(link, torus_at(2)).tensor == oracles.enumerated_trace(link, torus_at(2))

    @pytest.mark.parametrize("index", range(6))
    def test_puncture_loop_matches_enumeration(self, index):
        link = puncture_loops()[index]
        assert quantum_trace(link, torus_at(2)).tensor == oracles.enumerated_trace(link, torus_at(2))

    def test_fan_triangles_with_equal_arc_kinds_and_different_boundary_states(self):
        # two strands from e0 to e1: every triangle's arcs are two left
        # turns from side 0, and the end triangles read different states
        surface = strip_at(3, 3)
        states = {("e0", 1): 1, ("e0", 2): 2, ("e1", 1): 2, ("e1", 2): 3}
        link = GoodPositionLink(
            arcs=fan_arcs((0, 1, 2), [(0, 2, True, True)] * 2),
            slices={"i1": (Slice("pos_same_to_lower", 1),)},
            boundary_states=states,
        )
        expected = oracles.enumerated_trace(link, surface)
        assert not expected.is_zero()
        assert quantum_trace(link, surface).tensor == expected

    @staticmethod
    def products_made(monkeypatch, trace, link, surface):
        """The number of normal_product calls the state sum makes."""
        calls, real = [], surface_module.normal_product
        monkeypatch.setattr(surface_module, "normal_product", lambda a, b: calls.append(1) or real(a, b))
        trace(link, surface)
        monkeypatch.setattr(surface_module, "normal_product", real)
        return len(calls)

    def test_strips_make_one_product_per_nonzero_entry(self, monkeypatch):
        # every triangle of a strip turns left from side 0: each nonzero
        # entry of that turn matrix is one product, whatever the length
        def made(m):
            link = GoodPositionLink(
                arcs=[TriangleArc(i, 0, "left", 1) for i in range(m)], boundary_states={("e0", 1): 1, ("e1", 1): 3}
            )
            return self.products_made(monkeypatch, glued_trace, link, strip_at(3, m))

        entries = arc_quantum_matrix(torus_at(3).tri, 0, "left").entries
        assert made(5) == made(8) == sum(not x.is_zero() for row in entries for x in row)

    def test_one_copy_of_curve_a_makes_a_product(self, monkeypatch):
        # the unit seeds each triangle's first arc, so a one-arc triangle
        # still makes a product that a normal_product tracer sees
        assert self.products_made(monkeypatch, quantum_trace, link_a(), torus_at(3)) >= 1


def weyl_ordered(elem):
    """elem's Weyl-ordered coefficients, c h^-ordering(e, e) per term."""
    return {e: c * RootScalar({-elem.spec.ordering(e, e): 1}) for e, c in elem.terms.items()}


def named_weyl_ordered(elem):
    """weyl_ordered(elem) keyed by the generator names and exponents of
    each term's nonzero entries."""
    names = elem.spec.names
    return {tuple(sorted((name, x) for name, x in zip(names, e) if x)): c for e, c in weyl_ordered(elem).items()}


class TestEdgeDeclarationOrder:
    """The state sum keys its states by edge, in the order the
    triangulation declares its edges; the trace must not depend on it."""

    @given(case=st.one_of(braided_bundles(), strips(), squares(), fans()), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_trace_does_not_depend_on_edge_order(self, case, data):
        link, surface = case
        tr = surface.triangulation
        edges = data.draw(st.permutations(tr.edges))
        permuted = build_surface(IdealTriangulation(tr.n_triangles, edges), surface.tri.n)
        assert quantum_trace(link, permuted).tensor == quantum_trace(link, surface).tensor
        # the glued torus numbers its generators edge by edge, so compare
        # the Weyl-ordered coefficients by generator name
        assert named_weyl_ordered(glued_trace(link, permuted)) == named_weyl_ordered(glued_trace(link, surface))


def lone_edge_dot(surface):
    """T0.Zpp1 alone: a dot on one triangle copy of the internal edge b,
    which has no well defined image in the glued torus."""
    e = [0] * surface.tensor_spec.N
    e[0] = 1
    return TorusElement.monomial(surface.tensor_spec, tuple(e))


NO_GLUE = r"monomial does not glue: generator 'b\.2' pairs exponents 1 and 0"


class TestProjection:
    def test_unpaired_edge_exponents_rejected(self, torus):
        lone = lone_edge_dot(torus)
        with pytest.raises(ValueError, match=NO_GLUE):
            project_to_glued(lone, torus)

    def test_layered_trace_keeps_the_diagnostic(self, torus, monkeypatch):
        # the lower layer of two stacked copies of curve a traces to a
        # term that does not glue
        traced = []
        engine = surface_module._state_sum

        def trace(arcs, surface, tables):
            traced.append(arcs)
            if len(traced) == 1:
                return lone_edge_dot(surface)
            return engine(arcs, surface, tables)

        monkeypatch.setattr(surface_module, "_state_sum", trace)
        with pytest.raises(ValueError, match=NO_GLUE):
            glued_trace(copies("a", 2), torus)
        assert traced == [link_a().arcs]

    def test_interior_monomial_projects(self, torus):
        idx = torus.tensor_spec.names.index("T0.X111")
        e = [0] * torus.tensor_spec.N
        e[idx] = 2
        image = project_to_glued(TorusElement.monomial(torus.tensor_spec, tuple(e)), torus)
        gidx = torus.glued_spec.names.index("T0.X111")
        assert set(image.terms) == {
            tuple(2 if i == gidx else 0 for i in range(torus.glued_spec.N))
        }

    @pytest.mark.parametrize(
        "surface",
        [torus_at(3), strip_at(3, 5), fan_at(3, (2, 0, 1)), fan_at(2, (1, 0)), build_surface(glued_square(), 4)],
        ids=["torus", "strip", "fan-201", "fan-10-n2", "square"],
    )
    def test_first_unglued_pair_is_named(self, surface):
        # a lifted monomial broken at two or more pairs (the one pair of the
        # n = 2 fan): the tensor indices are scanned in order, and the first
        # whose exponent differs from its glued generator's earlier index is
        # named with both exponents
        rng = random.Random(7)
        to_glued = surface.tensor_to_glued
        paired = [i for i, target in enumerate(to_glued) if to_glued.index(target) < i]
        for _ in range(20):
            g = [rng.randint(-9, 9) for _ in range(surface.glued_spec.N)]
            e = [g[target] for target in to_glued]
            for i in rng.sample(paired, rng.randint(min(2, len(paired)), len(paired))):
                e[rng.choice((i, to_glued.index(to_glued[i])))] += rng.choice((-3, -1, 1, 2))
            seen = {}
            i = next(i for i, target in enumerate(to_glued) if seen.setdefault(target, e[i]) != e[i])
            target = to_glued[i]
            expected = f"generator {surface.glued_spec.names[target]!r} pairs exponents {seen[target]} and {e[i]}"
            with pytest.raises(ValueError) as err:
                project_to_glued(TorusElement.monomial(surface.tensor_spec, e), surface)
            assert str(err.value) == "monomial does not glue: " + expected

    @pytest.mark.parametrize("entry", [1 << 62, -(1 << 62), 1 << 64])
    @pytest.mark.parametrize("k", [1, 2])
    def test_huge_turn_matrix_exponent_raises_value_error(self, torus, monkeypatch, entry, k):
        # packed state-sum exponents rest on normal_product's entry bound,
        # so a huge entry must end in its ValueError, not in struct.error
        real = surface_module.arc_quantum_matrix

        def huge(tri, entry_side, turn, normalized=True):
            big = (entry,) + (0,) * (tri.spec.N - 1)
            return real(tri, entry_side, turn, normalized).map(
                lambda x: x if x.is_zero() else TorusElement.monomial(tri.spec, big)
            )

        monkeypatch.setattr(surface_module, "arc_quantum_matrix", huge)
        with pytest.raises(ValueError, match=r"reaches 2\^62"):
            glued_trace(copies("a", k), torus)


def torus_declared(order, n):
    """The once-punctured torus with its edges declared in the given
    order of their ids."""
    edges = {e.id: e for e in once_punctured_torus().edges}
    return build_surface(IdealTriangulation(2, tuple(edges[i] for i in order)), n)


def sample_surfaces():
    """(id, surface maker) pairs: the torus at n = 2..6, strips of 2..12
    triangles at n = 3, the other fixture triangulations at n = 2..4, the
    torus with its edges declared in each order at n = 2..4, and more fans
    at n = 2, 3.  Each declaration order and fan inverts other pairs of
    glued indices against the tensor order."""
    cases = [(f"torus-n{n}", lambda n=n: torus_at(n)) for n in range(2, 7)]
    cases += [(f"strip-m{m}", lambda m=m: strip_at(3, m)) for m in range(2, 13)]
    for name, make in (("square", glued_square), ("triangle", single_triangle)):
        cases += [(f"{name}-n{n}", lambda make=make, n=n: build_surface(make(), n)) for n in (2, 3, 4)]
    cases += [(f"fan-201-n{n}", lambda n=n: fan_at(n, (2, 0, 1))) for n in (2, 3, 4)]
    for order in permutations("drb"):
        cases += [(f"torus-{''.join(order)}-n{n}", lambda order=order, n=n: torus_declared(order, n)) for n in (2, 3, 4)]
    for order in ((3, 1, 0, 2), (1, 3, 2, 0), (4, 0, 3, 1, 2)):
        cases += [(f"fan-{''.join(map(str, order))}-n{n}", lambda order=order, n=n: fan_at(n, order)) for n in (2, 3)]
    return cases


class TestWeylCorrection:
    @pytest.mark.parametrize("make", [make for _, make in sample_surfaces()], ids=[name for name, _ in sample_surfaces()])
    def test_sparse_correction_matches_both_orderings(self, make):
        # and projecting the lift of g gives g with that correction
        surface = make()
        tensor, glued, n = surface.tensor_spec, surface.glued_spec, surface.tri.n
        assert all(a < b and c for a, b, c in surface.weyl_correction)
        rng = random.Random(surface.tensor_spec.N)
        for _ in range(25):
            g = tuple(rng.randint(-3 * n, 3 * n) for _ in range(glued.N))
            e = [g[target] for target in surface.tensor_to_glued]
            expected = glued.ordering(g, g) - tensor.ordering(e, e)
            assert sum(c * g[a] * g[b] for a, b, c in surface.weyl_correction) == expected
            coeff = RootScalar({1: 2, -3: -1})
            image = project_to_glued(TorusElement.monomial(tensor, e, coeff), surface)
            assert image == TorusElement.monomial(glued, g, coeff * RootScalar({expected: 1}))

    @pytest.mark.parametrize(
        "surface,size", [(torus_at(4), 16), (torus_at(10), 58), (strip_at(3, 8), 50)], ids=["torus-n4", "torus-n10", "strip-m8"]
    )
    def test_correction_is_sparse(self, surface, size):
        forms = sum(map(len, surface.glued_spec.lower)) + sum(map(len, surface.tensor_spec.lower))
        assert len(surface.weyl_correction) == size < forms / 3


def assert_dense_forms_agree(surface):
    """Both sparse specs of a surface equal the specs of the oracle's dense
    tensor and glued matrices, entry for entry and name for name."""
    n = surface.tri.n
    TP, GP = oracles.dense_surface_forms(surface)
    assert surface.tensor_spec == oracles.make_spec(n, TP, surface.tensor_spec.names)
    assert surface.glued_spec == oracles.make_spec(n, GP, surface.glued_spec.names)


class TestSparseForms:
    @pytest.mark.parametrize("make", [make for _, make in sample_surfaces()], ids=[name for name, _ in sample_surfaces()])
    def test_forms_match_the_dense_oracle(self, make):
        assert_dense_forms_agree(make())

    def test_strip_forms_match_the_dense_oracle(self):
        for m in range(2, 61):
            assert_dense_forms_agree(build_surface(IdealTriangulation(m, fan_edges(tuple(range(m)))), 3))

    def test_long_strip_builds_in_little_memory(self):
        # both forms are built from lower entries: 60 triangles at n = 3
        # give 420 tensor generators, and the dense tensor and glued
        # matrices of that size would take about 4.5 MB
        triangulation = IdealTriangulation(60, fan_edges(tuple(range(60))))
        triangle_poisson(3)  # the cached torus of the rank, outside the measurement
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            surface = build_surface(triangulation, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert surface.tensor_spec.N == 420
        assert peak < 1 << 20


class TestClassicalProperty:
    @pytest.mark.parametrize(
        "make_link,steps",
        [(link_a, STEPS_A), (link_b, STEPS_B)],
        ids=["curve_a", "curve_b"],
    )
    def test_commutative_limit_matches_classical(self, torus, make_link, steps):
        glued = unsplit_trace(make_link(), torus)
        assert glued.at_one() == classical_trace_polynomial(steps, torus)

    @pytest.mark.parametrize(
        "make_link,steps",
        [(link_a, STEPS_A), (link_b, STEPS_B)],
        ids=["curve_a", "curve_b"],
    )
    def test_numeric_oracle_agreement(self, torus, make_link, steps):
        poly = unsplit_trace(make_link(), torus).at_one()
        rng = random.Random(20260823)
        for _ in range(5):
            values = [rng.uniform(0.2, 3.0) for _ in range(torus.glued_spec.N)]
            expected = oracles.numeric_curve_trace(3, steps, torus, values)
            got = oracles.evaluate_classical(3, poly, values)
            assert abs(got - expected) <= 1e-9 * max(1.0, abs(expected))


class TestMultiplication:
    def test_stacked_union_is_ordered_product(self, torus):
        ga = unsplit_trace(link_a(), torus)
        gb = unsplit_trace(link_b(), torus)
        raise_h = lambda link: tuple(
            TriangleArc(x.triangle, x.entry, x.turn, 2) for x in link.arcs
        )
        union_ab = unsplit_trace(
            GoodPositionLink(arcs=link_a().arcs + raise_h(link_b())), torus
        )
        union_ba = unsplit_trace(
            GoodPositionLink(arcs=link_b().arcs + raise_h(link_a())), torus
        )
        assert union_ab == normal_product(ga, gb)
        assert union_ba == normal_product(gb, ga)
        assert union_ab != union_ba

    def test_height_swap_commutation_factors(self, torus):
        # swapping the heights reorders the product; each monomial pair
        # commutes up to h^(2 <e, Pf>) with the pairing recomputed here
        # directly from the glued form
        ga = unsplit_trace(link_a(), torus)
        gb = unsplit_trace(link_b(), torus)
        spec = torus.glued_spec
        P = oracles.dense_form(spec)
        for e in ga.terms:
            for f in gb.terms:
                pairing = sum(
                    e[i] * P[i][j] * f[j]
                    for i in range(spec.N)
                    for j in range(spec.N)
                )
                lhs = normal_product(
                    TorusElement.monomial(spec, e), TorusElement.monomial(spec, f)
                )
                rhs = TorusElement.scalar(
                    spec, RootScalar({2 * pairing: 1})
                ) * normal_product(
                    TorusElement.monomial(spec, f), TorusElement.monomial(spec, e)
                )
                assert lhs == rhs


CURVES = {"a": link_a().arcs, "b": link_b().arcs}
# the edge that only copies of the curve cross; both cross d
PRIVATE_EDGE = {"a": "r", "b": "b"}


def copies(curve, k, heights=None):
    """k parallel copies of a fixture curve, the i-th at heights[i]
    (default 1..k) in both triangles."""
    heights = heights or range(1, k + 1)
    return GoodPositionLink(arcs=[TriangleArc(a.triangle, a.entry, a.turn, h) for h in heights for a in CURVES[curve]])


def braided_positions(word):
    """The crossing positions a word of same-direction crossings, kinks
    and zig-zags still braids across: kinks are scalars and zig-zags
    straighten, and a crossing cancels its inverse at the same position
    when only crossings two or more positions away lie between them."""
    def cancel(letters):
        for i, (pos, sign) in enumerate(letters):
            for j in range(i + 1, len(letters)):
                if letters[j] == (pos, not sign):
                    return letters[:i] + letters[i + 1 : j] + letters[j + 1 :]
                if abs(letters[j][0] - pos) < 2:
                    break
        return None

    letters = [(s.pos, s.kind.startswith("pos")) for s in word if s.kind in CROSSING_KINDS]
    while (shorter := cancel(letters)) is not None:
        letters = shorter
    return {pos for pos, _ in letters}


def cut_count(link):
    """The layers of a link whose every sliced biangle is crossed by all
    of its strands, bottom to top in height order: one per height, less
    one for each cut that a biangle's word still braids across."""
    blocked = set().union(*map(braided_positions, link.slices.values()))
    return len({a.height for a in link.arcs}) - len(blocked)


@st.composite
def torus_stacks(draw):
    """Runs of parallel copies of curves a and b stacked on the torus at
    shared heights with gaps.  The edge private to a curve that only one
    run uses may carry kinks and crossings; the cuts that its word still
    braids across tie copies of the run together, and every other copy
    is a layer of its own.  Gives (link, surface, layer count)."""
    n = draw(st.integers(2, 5))
    letters = draw(st.lists(st.sampled_from("ab"), min_size=1, max_size={2: 4, 3: 3}.get(n, 2)))
    heights = sorted(draw(st.sets(st.integers(1, 30), min_size=len(letters), max_size=len(letters))))
    runs = []
    for letter in letters:
        if runs and runs[-1][0] == letter:
            runs[-1][1] += 1
        else:
            runs.append([letter, 1])
    arcs, slices, layers = [], {}, 0
    for h, letter in zip(heights, letters):
        arcs += copies(letter, 1, [h]).arcs
    for letter, size in runs:
        word = []
        if sum(r[0] == letter for r in runs) == 1:
            for _ in range(draw(st.integers(0, 3))):
                if size > 1 and draw(st.booleans()):
                    word.append(Slice(draw(st.sampled_from(SAME_KINDS)), draw(st.integers(1, size - 1))))
                else:
                    word.append(Slice(draw(st.sampled_from(("kink_pos", "kink_neg"))), draw(st.integers(1, size))))
            slices[PRIVATE_EDGE[letter]] = tuple(word)
        layers += size - len(braided_positions(word))
    return GoodPositionLink(arcs=arcs, slices=slices), torus_at(n), layers


@st.composite
def stated_strips(draw):
    """Parallel left-turning arcs through a strip, one per height, with
    random boundary states: each arc is a layer."""
    n = draw(st.integers(2, 5))
    m, k = draw(st.integers(1, {4: 3, 5: 2}.get(n, 4))), draw(st.integers(1, 3 if n < 4 else 2))
    arcs = [TriangleArc(i, 0, "left", h) for h in range(1, k + 1) for i in range(m)]
    states = {(e, pos): draw(st.integers(1, n)) for e in ("e0", "e1") for pos in range(1, k + 1)}
    return GoodPositionLink(arcs=arcs, boundary_states=states), strip_at(n, m), k


@st.composite
def unknots_next_to_arcs(draw):
    """The biangle unknot of the fixture files next to copies of curve b:
    on edge r, which no arc crosses, it joins the first layer; on edge d,
    between the strands, it ties them into one layer."""
    n, k = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    link = copies("b", k)
    edge = draw(st.sampled_from(("r", "d")))
    pos = 1 if edge == "r" else draw(st.integers(1, k + 1))
    link.slices[edge] = (Slice("inc_ccw", pos), Slice("dec_ccw", pos))
    return link, torus_at(n), k if edge == "r" else 1


def with_cut_count(case):
    return (*case, cut_count(case[0]))


class TestLayeredTrace:
    @given(case=st.one_of(
        torus_stacks(),
        stated_strips(),
        unknots_next_to_arcs(),
        fans().map(with_cut_count),
        squares().map(with_cut_count),
        braided_bundles().map(with_cut_count),
    ))
    @example(case=(copies("a", 3), torus_at(3), 3))
    @example(case=(copies("b", 2, [2, 7]), torus_at(5), 2))
    @example(case=(
        GoodPositionLink(
            arcs=[TriangleArc(i, 0, "left", h) for h in (1, 2) for i in range(3)],
            boundary_states={("e0", 1): 1, ("e0", 2): 4, ("e1", 1): 4, ("e1", 2): 2},
        ),
        strip_at(4, 3),
        2,
    ))
    @example(case=(ASYMMETRIC_SQUARE, square_at(3), 1))
    @settings(max_examples=120, deadline=None)
    def test_matches_unsplit_engine(self, case):
        link, surface, layers = case
        assert len(surface_module._layers(link, surface)) == layers
        assert glued_trace(link, surface) == unsplit_trace(link, surface)

    @pytest.mark.parametrize("name", sorted(EDGE_CASES))
    def test_edge_case_matches_unsplit_engine(self, name):
        link, surface = EDGE_CASES[name]
        assert glued_trace(link, surface) == unsplit_trace(link, surface)

    @given(curve=st.sampled_from("ab"), n=st.integers(2, 5), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_stacked_copies_are_powers(self, curve, n, data):
        k = data.draw(st.integers(1, {4: 3, 5: 2}.get(n, 4)))
        heights = sorted(data.draw(st.sets(st.integers(1, 30), min_size=k, max_size=k)))
        one = unsplit_trace(copies(curve, 1), torus_at(n))
        assert glued_trace(copies(curve, k, heights), torus_at(n)) == reduce(normal_product, [one] * k)

    def test_uncut_link_is_its_own_layer(self, torus):
        link = GoodPositionLink(arcs=copies("a", 2).arcs, slices={"d": (Slice("pos_same_to_lower", 1),)})
        assert [arcs for arcs, _ in surface_module._layers(link, torus)] == [link.arcs]

    def test_crossing_blocks_only_the_cut_it_braids_across(self, torus):
        link = GoodPositionLink(arcs=copies("a", 3).arcs, slices={"d": (Slice("pos_same_to_lower", 1),)})
        layers = surface_module._layers(link, torus)
        assert [{arc.height for arc in arcs} for arcs, _ in layers] == [{1, 2}, {3}]
        assert glued_trace(link, torus) == unsplit_trace(link, torus)

    @pytest.mark.parametrize("n,k", [(2, 3), (3, 3), (2, 4)])
    def test_word_times_its_inverse_cuts_at_every_height(self, n, k):
        word = [Slice("pos_same_to_lower", 1 + i % (k - 1)) for i in range(3)] + [Slice("neg_same_to_higher", k - 1)]
        inverse = [Slice(("neg" if s.kind.startswith("pos") else "pos") + s.kind[3:], s.pos) for s in reversed(word)]
        link = GoodPositionLink(arcs=copies("a", k).arcs, slices={"d": (*word, *inverse), "r": ZIGZAGS["r"]})
        assert len(surface_module._layers(link, torus_at(n))) == k
        assert glued_trace(link, torus_at(n)) == unsplit_trace(link, torus_at(n))

    def test_unknot_in_an_edge_without_ends_still_cuts(self, torus):
        link = copies("b", 2)
        link.slices["r"] = (Slice("inc_ccw", 1), Slice("dec_ccw", 1))
        layers = surface_module._layers(link, torus)
        assert [{arc.height for arc in arcs} for arcs, _ in layers] == [{1}, {2}]
        assert glued_trace(link, torus) == unsplit_trace(link, torus)

    @pytest.mark.parametrize("curves", ["aab", "baa"])
    def test_biangle_without_a_unit_amplitude_on_one_side_does_not_block(self, torus, curves):
        # the unknot between the copies of a on r has no unit amplitude
        link = GoodPositionLink(arcs=[arc for h, c in enumerate(curves, start=1) for arc in copies(c, 1, [h]).arcs])
        link.slices["r"] = (Slice("inc_ccw", 2), Slice("dec_ccw", 2))
        layers = surface_module._layers(link, torus)
        assert len(layers) == 2
        assert glued_trace(link, torus) == unsplit_trace(link, torus)

    def test_split_needs_the_whole_product_support(self):
        # every entry is a product of its row and column entries through
        # the pivot, but the entry at (2, 2) is missing
        one = RootScalar({0: 1})
        table = {(1, 1): one, (1, 2): one, (2, 1): one}
        assert surface_module._split(table, [1], [2], 1) is None
        assert surface_module._split({**table, (2, 2): one}, [1], [2], 1) == ({(1,): one, (2,): one}, {(1,): one, (2,): one})

    @pytest.mark.parametrize("k", [1, 3])
    def test_validates_once_per_trace(self, torus, monkeypatch, k):
        calls = []
        validate = surface_module.validate_good_position

        def counted(link, surface):
            calls.append(link)
            return validate(link, surface)

        monkeypatch.setattr(surface_module, "validate_good_position", counted)
        link = copies("a", k)
        assert len(surface_module._layers(link, torus)) == k
        calls.clear()
        glued_trace(link, torus)
        assert calls == [link]

    def test_layers_with_equal_arcs_but_different_tables_are_traced_apart(self, torus):
        # the kink's scalar lands in the upper layer's table of d
        link = GoodPositionLink(arcs=copies("a", 2).arcs, slices={"d": (Slice("kink_pos", 1),)})
        (lower, lower_tables), (upper, upper_tables) = surface_module._layers(link, torus)
        assert [(a.triangle, a.entry, a.turn) for a in lower] == [(a.triangle, a.entry, a.turn) for a in upper]
        assert lower_tables != upper_tables
        assert glued_trace(link, torus) == unsplit_trace(link, torus)

    def test_identical_layers_are_traced_once_per_call(self, torus, monkeypatch):
        calls = []
        for name in ("_state_sum", "project_to_glued"):
            def counted(*args, f=getattr(surface_module, name), name=name):
                calls.append(name)
                return f(*args)

            monkeypatch.setattr(surface_module, name, counted)
        link = copies("a", 3)
        assert len(surface_module._layers(link, torus)) == 3
        for _ in range(2):
            calls.clear()
            glued_trace(link, torus)
            assert sorted(calls) == ["_state_sum", "project_to_glued"]

    def test_identical_layers_are_traced_once_whatever_their_arc_order(self, torus, monkeypatch):
        # three copies of curve a, every copy listing its arcs T1, T0, or
        # the middle copy T0, T1: the same link either way
        calls = []
        state_sum = surface_module._state_sum
        monkeypatch.setattr(surface_module, "_state_sum", lambda *args: calls.append(args) or state_sum(*args))
        listed = CURVES["a"]
        assert [a.triangle for a in listed] == [1, 0]

        def stacked(orders):
            arcs = [TriangleArc(a.triangle, a.entry, a.turn, h) for h, order in enumerate(orders, start=1) for a in order]
            return GoodPositionLink(arcs=arcs)

        traces = []
        for orders in ([listed] * 3, [listed, listed[::-1], listed]):
            calls.clear()
            traces.append(glued_trace(stacked(orders), torus))
            assert len(calls) == 1
        assert traces[0] == traces[1] and len(traces[0].terms) == 112


def block_matrix(surf, M, t):
    """A triangle-torus matrix with its entries moved to triangle t's
    block of the surface's tensor torus."""
    mapping = {i: t * surf.tri.spec.N + i for i in range(surf.tri.spec.N)}
    rows = [
        [oracles.map_exponents(x, surf.tensor_spec, mapping) for x in row]
        for row in M.entries
    ]
    return TorusMatrix(surf.tensor_spec, rows)


class TestGluedSquare:
    def test_state_sum_equals_direct_contraction(self):
        surf = build_surface(glued_square(), 3)
        M0 = arc_quantum_matrix(surf.tri, 2, "left")
        M1 = arc_quantum_matrix(surf.tri, 2, "right")

        prod = mat_mul(block_matrix(surf, M0, 0), block_matrix(surf, M1, 1))
        for s1 in range(1, 4):
            for s2 in range(1, 4):
                link = GoodPositionLink(
                    arcs=(TriangleArc(0, 2, "left", 1), TriangleArc(1, 2, "right", 1)),
                    boundary_states={("q", 1): s1, ("v", 1): s2},
                )
                g = quantum_trace(link, surf)
                assert g.tensor == prod[s1 - 1, s2 - 1]

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_turn_matrix_products_are_quantum_sln_points(self, n):
        # Manin: two SL_n^q points whose entries commute multiply to one,
        # and the determinant is multiplicative; the two triangles' blocks
        # commute.  Control: with the weight (-q)^inv of Manin's
        # uninverted relations, det(AB) = 1 exactly when A and B turn the
        # same way.
        surf = square_at(n)
        one = TorusElement.one(surf.tensor_spec)
        turns = [(entry, turn) for entry in range(3) for turn in ("left", "right")]
        held = set()
        for a, b in iter_product(turns, repeat=2):
            A, B = (block_matrix(surf, arc_quantum_matrix(surf.tri, *x), t) for t, x in enumerate((a, b)))
            AB = mat_mul(A, B)
            assert quantum_determinant(AB) == quantum_determinant(A) * quantum_determinant(B) == one
            assert is_slnq_point(AB)
            if permutation_determinant(AB, 1) == one:
                held.add((a, b))
        assert held == {(a, b) for a, b in iter_product(turns, repeat=2) if a[1] == b[1]}
        assert len(held) == 18


# curve c resolves the one crossing of a stacked on b (Le-Yu's L0)
CURVE_C = (TriangleArc(0, 2, "right", 1), TriangleArc(1, 0, "left", 1))


def top_exponents(elem):
    """The exponents of elem that are componentwise at least every other."""
    terms = elem.terms
    return [e for e in terms if all(all(x >= y for x, y in zip(e, f)) for f in terms)]


class TestTraceIdentities:
    """Identities of closed-curve traces on the once-punctured torus:
    the oriented skein relation and the highest term."""

    @staticmethod
    def traces(n):
        return [glued_trace(GoodPositionLink(arcs=arcs), torus_at(n)) for arcs in (CURVES["a"], CURVES["b"], CURVE_C)]

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_oriented_skein_relation(self, n):
        # q^(1/n) Tr(a)Tr(b) - q^(-1/n) Tr(b)Tr(a) = (q - q^-1) Tr(c): a and
        # b cross once, and c is the resolution of that crossing
        ta, tb, tc = self.traces(n)
        ab, ba = normal_product(ta, tb), normal_product(tb, ta)
        rhs = tc * (q_power(n, 1) - q_power(n, -1))
        assert ab * q_power(n, 1, n) - ba * q_power(n, -1, n) == rhs
        # negative control: the identity fails with the two powers swapped
        assert ab * q_power(n, -1, n) - ba * q_power(n, 1, n) != rhs

    @staticmethod
    def assert_highest_term(elem, n):
        """elem has one componentwise-largest exponent e, with coefficient
        the Weyl normalization h^ordering(e, e), and every exponent agrees
        with e mod n entry by entry; returns e."""
        tops = top_exponents(elem)
        assert len(tops) == 1
        e = tops[0]
        assert elem.terms[e] == RootScalar({elem.spec.ordering(e, e): 1})
        assert all((x - y) % n == 0 for f in elem.terms for x, y in zip(f, e))
        return e

    @staticmethod
    def crossings(arcs):
        """How often a curve crosses each torus edge, in the order d, r,
        b: its arc ends on the edge's first incidence."""
        ends = [(arc.triangle, side) for arc in arcs for side in (arc.entry, arc.exit)]
        return tuple(ends.count(edge.incidences[0]) for edge in once_punctured_torus().edges)

    def test_highest_term_reads_the_intersection_numbers(self):
        # at n = 2 each edge has one dot and a triangle none inside, so the
        # top exponent is the curve's intersection numbers with d, r and b
        curves = (CURVES["a"], CURVES["b"], CURVE_C)
        assert [self.crossings(arcs) for arcs in curves] == [(1, 1, 0), (1, 0, 1), (0, 1, 1)]
        assert torus_at(2).glued_spec.names == ("d.1", "r.1", "b.1")
        for arcs, trace in zip(curves, self.traces(2)):
            assert self.assert_highest_term(trace, 2) == self.crossings(arcs)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_highest_term_on_the_dots_of_an_edge(self, n):
        # an edge the curve misses reads 0 on each dot, and an edge it
        # crosses once reads 1, ..., n - 1 along its dots, either way round
        names = torus_at(n).glued_spec.names
        once = (tuple(range(1, n)), tuple(range(n - 1, 0, -1)))
        for arcs, trace in zip((CURVES["a"], CURVES["b"], CURVE_C), self.traces(n)):
            top = dict(zip(names, self.assert_highest_term(trace, n)))
            for edge, count in zip("drb", self.crossings(arcs)):
                dots = tuple(top[f"{edge}.{k}"] for k in range(1, n))
                if count == 0:
                    assert dots == (0,) * (n - 1)
                else:
                    assert count == 1 and dots in once

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_closed_curves_have_one_highest_term(self, n):
        for trace in self.traces(n):
            self.assert_highest_term(trace, n)

    @pytest.mark.parametrize("n,k", [(2, 3), (3, 2), (3, 3), (4, 2)])
    @pytest.mark.parametrize("curve", ["a", "b"])
    def test_stacked_copies_multiply_the_highest_term(self, curve, n, k):
        surface = torus_at(n)
        e = self.assert_highest_term(glued_trace(copies(curve, 1), surface), n)
        top = self.assert_highest_term(glued_trace(copies(curve, k), surface), n)
        assert top == tuple(k * x for x in e)


def negated_correction(surface):
    """The surface with every coefficient of its Weyl correction negated."""
    return replace(surface, weyl_correction=tuple((a, b, -c) for a, b, c in surface.weyl_correction))


def stated_table(surface, arcs, start, end):
    """The n x n table of glued traces of one strand's arcs: entry (i, j)
    has state i on the boundary edge start and j on the boundary edge end."""
    states = range(1, surface.tri.n + 1)

    def entry(i, j):
        return glued_trace(GoodPositionLink(arcs=arcs, boundary_states={(start, 1): i, (end, 1): j}), surface)

    return TorusMatrix(surface.glued_spec, [[entry(i, j) for j in states] for i in states])


def stated_arc_table(surface, m):
    """The stated table of the left-turning arc through a strip of m
    triangles, from e0 to e1."""
    return stated_table(surface, [TriangleArc(t, 0, "left", 1) for t in range(m)], "e0", "e1")


# One strand across the glued square per pair of boundary edges it joins,
# as its arcs, start and end; it turns in T0, then in T1.
SQUARE_STRANDS = {
    "q-u": ((TriangleArc(0, 2, "left", 1), TriangleArc(1, 2, "left", 1)), "q", "u"),
    "p-v": ((TriangleArc(0, 1, "right", 1), TriangleArc(1, 2, "right", 1)), "p", "v"),
    "q-v": (SQUARE_ARCS, "q", "v"),
    "p-u": ((TriangleArc(0, 1, "right", 1), TriangleArc(1, 2, "left", 1)), "p", "u"),
}


def permutation_determinant(M, sign):
    """Sum over permutations s of (-q)^(sign*inv(s)) * M[0][s(0)] * ... *
    M[m-1][s(m-1)], one normal product at a time."""
    total, rows = TorusElement.zero(M.spec), range(M.rows)
    for perm in permutations(rows):
        inv = sum(perm[i] > perm[j] for i in rows for j in rows if i < j)
        entries = [row[j] for row, j in zip(M.entries, perm)]
        total = total + reduce(normal_product, entries) * q_power(M.spec.n, sign * inv, coeff=(-1) ** inv)
    return total


def fan_strand(m, kind):
    """The strand along a fan of m triangles from e0 to s(m-1), turning
    left and then right, or from s0 to e1, turning right and then left:
    as its arcs, start and end."""
    order = tuple(range(m))
    if kind == "e0-s":
        return fan_arcs(order, [(0, m - 1, True, False)]), "e0", f"s{m - 1}"
    return fan_arcs(order, [(0, m - 1, False, True)]), "s0", "e1"


class TestStatedTables:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_stated_table_of_an_arc_is_a_quantum_sln_point(self, n, m):
        assert is_slnq_point(stated_arc_table(strip_at(n, m), m))

    @pytest.mark.parametrize("m", [2, 3])
    def test_negated_correction_breaks_the_point(self, m):
        assert not is_slnq_point(stated_arc_table(negated_correction(strip_at(3, m)), m))

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("name", ["q-u", "p-v"])
    def test_square_strand_turning_one_way_is_a_quantum_sln_point(self, name, n):
        assert is_slnq_point(stated_table(square_at(n), *SQUARE_STRANDS[name]))

    @pytest.mark.parametrize("name,n", [("q-u", 2), ("q-u", 3), ("q-u", 4), ("p-v", 3), ("p-v", 4)])
    def test_negated_correction_breaks_the_square_point(self, name, n):
        # at n = 2 the strand p-v still passes with the correction negated
        assert not is_slnq_point(stated_table(negated_correction(square_at(n)), *SQUARE_STRANDS[name]))

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("name", ["q-v", "p-u"])
    def test_square_strand_changing_its_turn_is_a_quantum_matrix_point(self, name, n):
        assert is_mnq_point(stated_table(square_at(n), *SQUARE_STRANDS[name]))

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("kind", ["e0-s", "s0-e1"])
    def test_fan_strand_changing_its_turn_is_a_quantum_matrix_point(self, kind, m, n):
        assert is_mnq_point(stated_table(strip_at(n, m), *fan_strand(m, kind)))

    def test_fan_strand_changing_its_turn_has_quantum_determinant_one(self):
        surface = strip_at(2, 2)
        table = stated_table(surface, *fan_strand(2, "e0-s"))
        assert quantum_determinant(table) == TorusElement.one(surface.glued_spec)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("strand", ["fan2-e0-s", "fan2-s0-e1", "fan3-e0-s", "fan3-s0-e1", "q-v", "p-u"])
    def test_strand_changing_its_turn_is_a_quantum_sln_point(self, strand, n, monkeypatch):
        # the determinant follows the relations is_mnq_point checks; with
        # the weight (-q)^inv of Manin's uninverted relations it fails
        if strand.startswith("fan"):
            m = int(strand[3])
            table = stated_table(strip_at(n, m), *fan_strand(m, strand[5:]))
        else:
            table = stated_table(square_at(n), *SQUARE_STRANDS[strand])
        assert quantum_determinant(table) == permutation_determinant(table, -1)
        assert is_slnq_point(table)
        monkeypatch.setattr(fock_goncharov, "quantum_determinant", lambda M: permutation_determinant(M, 1))
        assert not is_slnq_point(table)


# The once-punctured torus's fixture links, cut along each of its edges.
CUT_LINKS = {
    "a": GoodPositionLink(arcs=CURVES["a"]),
    "b": GoodPositionLink(arcs=CURVES["b"]),
    "c": GoodPositionLink(arcs=CURVE_C),
    "aa": copies("a", 2),
    "aa-pos": GoodPositionLink(arcs=copies("a", 2).arcs, slices={"d": (Slice("pos_same_to_lower", 1),)}),
    "aa-neg": GoodPositionLink(arcs=copies("a", 2).arcs, slices={"d": (Slice("neg_same_to_lower", 1),)}),
}
CUT_CASES = [(name, edge, n) for name in CUT_LINKS for edge in "drb" for n in (2, 3, 4)]


@lru_cache(maxsize=None)
def cut_pieces(name, edge_id, n):
    """The link CUT_LINKS[name] on the torus at rank n cut along an edge e,
    as the cut surface and, per entry (s + t) of e's edge table, its
    amplitude and the glued trace on the cut surface of the link's arcs
    and its slices but e's, with states s on e0 and t on e1 bottom to top."""
    link, surface = CUT_LINKS[name], torus_at(n)
    tr = surface.triangulation
    k = [e.id for e in tr.edges].index(edge_id)
    cut = build_surface(oracles.cut_along(tr, edge_id), n)
    left = len(oracles.side_arcs(link, *tr.edges[k].incidences[0]))
    slices = {e: word for e, word in link.slices.items() if e != edge_id}
    pieces = []
    for key, amp in surface_module._edge_tables(link, surface)[k].items():
        states = {(f"{edge_id}0", pos): x for pos, x in enumerate(key[:left], start=1)}
        states.update({(f"{edge_id}1", pos): x for pos, x in enumerate(key[left:], start=1)})
        pieces.append((amp, glued_trace(GoodPositionLink(link.arcs, slices, states), cut)))
    return cut, pieces


def glued_from_cut(name, edge_id, n, lift=oracles.lift_to_tensor):
    """The sum of the cut pieces, each lifted to the tensor torus, times
    its amplitude, and glued on the uncut torus."""
    cut, pieces = cut_pieces(name, edge_id, n)
    total = TorusElement.zero(cut.tensor_spec)
    for amp, piece in pieces:
        total = total + lift(piece, cut) * amp
    return project_to_glued(total, torus_at(n))


class TestCutAndGlue:
    """The trace commutes with cutting (Le-Yu, arXiv 2012.15272): the
    trace of a link is the gluing of the cut surface's stated traces,
    summed over the states on the cut with the cut edge's amplitudes.
    The cut surface has the uncut one's tensor torus, and each term is
    lifted to it through the cut surface's own Weyl correction."""

    @pytest.mark.parametrize("name,edge_id,n", CUT_CASES)
    def test_trace_is_the_gluing_of_the_cut_traces(self, name, edge_id, n):
        assert glued_from_cut(name, edge_id, n) == glued_trace(CUT_LINKS[name], torus_at(n))

    def test_dropped_correction_breaks_most_cases(self):
        # at n = 2 the correction never weighs on curve a and its copies
        def bare(elem, surface):
            return oracles.lift_to_tensor(elem, replace(surface, weyl_correction=()))

        held = {(name, edge_id, n) for name, edge_id, n in CUT_CASES
                if glued_from_cut(name, edge_id, n, lift=bare) == glued_trace(CUT_LINKS[name], torus_at(n))}
        assert held == {(name, edge, 2) for name in ("a", "aa", "aa-pos", "aa-neg") for edge in "drb"}
        assert len(CUT_CASES) - len(held) == 42


# The loop around the puncture of the once-punctured torus: it turns left
# through all six corners and crosses every edge twice.
PUNCTURE_WORD = [CurveStep(e, t, "left") for e, t in (("d", 0), ("r", 1), ("b", 0), ("d", 1), ("r", 0), ("b", 1))]


def puncture_loops():
    """The puncture loop at every assignment of heights 1..3 to each
    triangle's three arcs that puts it in good position with no biangle
    slice."""
    surface = torus_at(3)
    side_of = {(t, e.id): s for e in surface.triangulation.edges for t, s in e.incidences}
    corners = [(step.triangle, side_of[step.triangle, step.edge]) for step in PUNCTURE_WORD]
    loops = []
    for h0, h1 in iter_product(permutations((1, 2, 3)), repeat=2):
        heights = (iter(h0), iter(h1))
        link = GoodPositionLink(arcs=[TriangleArc(t, side, "left", next(heights[t])) for t, side in corners])
        if not validate_good_position(link, surface):
            loops.append(link)
    return loops


@lru_cache(maxsize=None)
def puncture_trace(n):
    """The puncture loop's trace in the tensor torus at rank n."""
    return quantum_trace(puncture_loops()[0], torus_at(n)).tensor


def weyl_coefficients_are_one(elem):
    return all(c == RootScalar({elem.spec.ordering(e, e): 1}) for e, c in elem.terms.items())


class TestPunctureLoop:
    def test_six_height_assignments_need_no_slice(self):
        loops = puncture_loops()
        assert len(loops) == 6
        traces = [glued_trace(loop, torus_at(3)) for loop in loops]
        assert all(trace == traces[0] for trace in traces)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_traces_to_n_central_weyl_ordered_terms(self, n):
        surface = torus_at(n)
        trace = project_to_glued(puncture_trace(n), surface)
        assert len(trace.terms) == n
        # each exponent pairs to zero with every generator under the glued form
        P, N = oracles.dense_form(surface.glued_spec), surface.glued_spec.N
        assert all(sum(e[i] * P[i][j] for i in range(N)) == 0 for e in trace.terms for j in range(N))
        assert all(sum(column) == 0 for column in zip(*trace.terms))
        assert weyl_coefficients_are_one(trace)
        assert trace.at_one() == classical_trace_polynomial(PUNCTURE_WORD, surface)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_negated_correction_breaks_the_coefficients(self, n):
        assert not weyl_coefficients_are_one(project_to_glued(puncture_trace(n), negated_correction(torus_at(n))))


class TestSimpleLoops:
    """Curves a, b and c cross each edge of the torus at most once, and
    every Weyl-ordered coefficient of their traces is 1."""

    @pytest.mark.parametrize("n,terms", [(2, 3), (3, 8), (4, 21), (5, 55)])
    @pytest.mark.parametrize("curve", ["a", "b", "c"])
    def test_weyl_coefficients_are_one(self, curve, n, terms):
        link = GoodPositionLink(arcs=CURVE_C if curve == "c" else CURVES[curve])
        trace = glued_trace(link, torus_at(n))
        assert len(trace.terms) == terms
        assert weyl_coefficients_are_one(trace)
        # control: with the correction negated they are other powers of h,
        # except on curve a at n = 2
        negated = glued_trace(link, negated_correction(torus_at(n)))
        assert weyl_coefficients_are_one(negated) == (curve == "a" and n == 2)


def mirror(link, flip=True):
    """The mirror of copies of curve a with crossings and kinks: heights h
    go to k + 1 - h, a crossing at p to k - p and a kink at p to k + 1 - p,
    each of the opposite sign unless flip is False."""
    k = max(arc.height for arc in link.arcs)
    sign = {"pos": "neg", "neg": "pos"} if flip else {"pos": "pos", "neg": "neg"}

    def image(s):
        if s.kind.startswith("kink"):
            return Slice("kink_" + sign[s.kind[5:]], k + 1 - s.pos)
        return Slice(sign[s.kind[:3]] + s.kind[3:], k - s.pos)

    return GoodPositionLink(
        arcs=[TriangleArc(a.triangle, a.entry, a.turn, k + 1 - a.height) for a in link.arcs],
        slices={edge: tuple(map(image, word)) for edge, word in link.slices.items()},
    )


def mirror_holds(link, surface, flip=True):
    """Tr(mirror K) = bar Tr(K) in the Weyl basis: each Weyl-ordered
    coefficient of the mirror's trace is K's with h inverted."""
    trace = weyl_ordered(glued_trace(link, surface))
    expected = {e: RootScalar({-k: c for k, c in coeff.terms.items()}) for e, coeff in trace.items()}
    return weyl_ordered(glued_trace(mirror(link, flip), surface)) == expected


def crossed_copies(slices, k=2):
    """k copies of curve a with the given biangle words."""
    return GoodPositionLink(arcs=copies("a", k).arcs, slices=slices)


class TestMirror:
    """Mirror symmetry of crossings and kinks (no U-turns) on copies of
    curve a."""

    @given(case=braided_bundles(max_n=4, zigzags=False))
    @settings(max_examples=15, deadline=None)
    def test_mirror_inverts_h_in_the_weyl_basis(self, case):
        assert mirror_holds(*case)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("kind", SAME_KINDS)
    def test_mirror_of_one_crossing(self, kind, n):
        assert mirror_holds(crossed_copies({"d": (Slice(kind, 1),)}), torus_at(n))

    @pytest.mark.parametrize("n", [2, 3])
    def test_mirror_of_three_copies_with_two_crossings_and_a_kink(self, n):
        word = (Slice("pos_same_to_lower", 1), Slice("neg_same_to_higher", 2))
        link = crossed_copies({"d": word, "r": (Slice("kink_pos", 3),)}, 3)
        assert mirror_holds(link, torus_at(n))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_unflipped_signs_and_negated_correction_break_it(self, n):
        # unflipped signs break the identity at every rank; the negated
        # correction breaks it from n = 3, and at n = 2 it never weighs on
        # copies of curve a
        link = crossed_copies({"d": (Slice("pos_same_to_lower", 1),)})
        assert not mirror_holds(link, torus_at(n), flip=False)
        assert mirror_holds(link, negated_correction(torus_at(n))) == (n == 2)
