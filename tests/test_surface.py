"""Triangulated surfaces: glued quantum tori, the state-sum quantum
trace, the elementary-move verification suite, and the classical and
multiplicative consistency properties."""

import random
import time
from functools import lru_cache, reduce

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
)
from qtrace.biangle import CROSSING_KINDS, Slice, crossing_matrix, kink_scalar, unknot_value, uturn_matrix
from qtrace.fock_goncharov import triangle_poisson
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
        assert len(glued_square().boundary_edges) == 4
        assert len(single_triangle().boundary_edges) == 3

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
        assert torus.glued_ids == (
            "d.1", "d.2", "r.1", "r.2", "b.1", "b.2", "T0.X111", "T1.X111",
        )

    def test_glued_form_antisymmetric(self, torus):
        P = torus.glued_spec.P
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
    where = {e.incidences[0]: e.id for e in surface.triangulation.boundary_edges}
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
def braided_bundles(draw):
    """k parallel copies of curve a with random words of crossings, kinks
    and zig-zags in the biangles d and r."""
    n, k = draw(st.integers(2, 3)), draw(st.integers(1, 2))
    arcs = []
    for h in range(1, k + 1):
        arcs += [TriangleArc(1, 0, "right", h), TriangleArc(0, 0, "left", h)]
    slices = {}
    for edge in ("d", "r"):
        word = []
        for _ in range(draw(st.integers(0, 4))):
            letter = draw(st.sampled_from(("crossing", "kink", "zigzag") if k > 1 else ("kink", "zigzag")))
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
    states = {(edge, pos): 1 + pos % surface.n for edge, pos in boundary_slots(arcs, surface)}
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

        def trace(link, surface, tables):
            traced.append(link)
            if len(traced) == 1:
                return lone_edge_dot(surface)
            return engine(link, surface, tables)

        monkeypatch.setattr(surface_module, "_state_sum", trace)
        with pytest.raises(ValueError, match=NO_GLUE):
            glued_trace(copies("a", 2), torus)
        assert [link.arcs for link in traced] == [link_a().arcs]

    def test_interior_monomial_projects(self, torus):
        idx = torus.tensor_spec.names.index("T0.X111")
        e = [0] * torus.tensor_spec.N
        e[idx] = 2
        image = project_to_glued(TorusElement.monomial(torus.tensor_spec, tuple(e)), torus)
        gidx = torus.glued_ids.index("T0.X111")
        assert set(image.terms) == {
            tuple(2 if i == gidx else 0 for i in range(torus.glued_spec.N))
        }


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
        for e in ga.terms:
            for f in gb.terms:
                pairing = sum(
                    e[i] * spec.P[i][j] * f[j]
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
        assert [layer.arcs for layer, _ in surface_module._layers(link, torus)] == [link.arcs]

    def test_crossing_blocks_only_the_cut_it_braids_across(self, torus):
        link = GoodPositionLink(arcs=copies("a", 3).arcs, slices={"d": (Slice("pos_same_to_lower", 1),)})
        layers = surface_module._layers(link, torus)
        assert [{arc.height for arc in layer.arcs} for layer, _ in layers] == [{1, 2}, {3}]
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
        assert [{arc.height for arc in layer.arcs} for layer, _ in layers] == [{1}, {2}]
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
        assert [(a.triangle, a.entry, a.turn) for a in lower.arcs] == [(a.triangle, a.entry, a.turn) for a in upper.arcs]
        assert lower.boundary_states == upper.boundary_states
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


class TestGluedSquare:
    def test_state_sum_equals_direct_contraction(self):
        surf = build_surface(glued_square(), 3)
        M0 = arc_quantum_matrix(surf.tri, 2, "left")
        M1 = arc_quantum_matrix(surf.tri, 2, "right")

        def embed(M, t):
            mapping = {i: surf.tri_offset[t] + i for i in range(surf.tri.spec.N)}
            rows = [
                [oracles.map_exponents(x, surf.tensor_spec, mapping) for x in row]
                for row in M.entries
            ]
            return TorusMatrix(surf.tensor_spec, rows)

        prod = mat_mul(embed(M0, 0), embed(M1, 1))
        for s1 in range(1, 4):
            for s2 in range(1, 4):
                link = GoodPositionLink(
                    arcs=(TriangleArc(0, 2, "left", 1), TriangleArc(1, 2, "right", 1)),
                    boundary_states={("q", 1): s1, ("v", 1): s2},
                )
                g = quantum_trace(link, surf)
                assert g.tensor == prod[s1 - 1, s2 - 1]
