"""Biangle scalars: U-turns, crossings, skein relations, duality."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from qtrace.qtorus import (
    ONE,
    ZERO,
    RootScalar,
    TorusMatrix,
    mat_mul,
    q_power,
)
from qtrace.biangle import (
    CROSSING_KINDS,
    BiangleDiagram,
    SLICE_KINDS,
    Slice,
    amplitude_table,
    biangle_trace,
    coribbon,
    crossing_matrix,
    duality_lemma_check,
    duality_parameter,
    kink_scalar,
    quantum_integer,
    skein_checks,
    unknot_value,
    uturn_matrix,
    yang_baxter_holds,
)
from oracles import crossing_constructions, dense_word_matrix, oracle_crossing_matrix


def q3(num, coeff=1):
    return q_power(3, num, 3, coeff)


# words of up to six same-direction crossings on three strands
braid_words = st.lists(
    st.tuples(st.sampled_from([k for k in CROSSING_KINDS if "_same_" in k]), st.integers(1, 2)),
    max_size=6,
)


@st.composite
def diagrams(draw):
    """A random well-formed diagram at n = 2 on up to four strands or at
    n = 3 on up to three: of a list of random slices, each one is kept
    when BiangleDiagram accepts it after the slices kept before it and
    the strand count stays in bounds."""
    n, most = draw(st.sampled_from([(2, 4), (3, 3)]))
    left = tuple(draw(st.lists(st.sampled_from("rl"), max_size=most)))
    slices = ()
    for kind, pos in draw(st.lists(st.tuples(st.sampled_from(SLICE_KINDS), st.integers(1, most)), min_size=8, max_size=24)):
        try:
            diagram = BiangleDiagram(n, left, slices + (Slice(kind, pos),))
        except ValueError:
            continue
        if len(diagram.right) <= most:
            slices = diagram.slices
    return BiangleDiagram(n, left, slices)


class TestRibbonScalars:
    def test_coribbon_rank3_value(self):
        # the rank-3 coribbon scalar is q^(-8/3), its inverse q^(+8/3)
        assert coribbon(3) == q3(-8)
        assert coribbon(3).inverse() == q3(8) == RootScalar({48: 1})

    def test_coribbon_general_form(self):
        for n in (2, 3, 4, 5):
            assert coribbon(n) == RootScalar({2 * n * (1 - n * n): (-1) ** (n - 1)})

    def test_unknot_value(self):
        for n in (2, 3, 4):
            assert unknot_value(n) == RootScalar({0: (-1) ** (n - 1)}) * quantum_integer(n)


class TestUturnMatrices:
    def test_dec_cw_rank3_display(self):
        # q^(-4/3) * antidiag(q^(-1), -1, q)
        expected = TorusMatrix(None, [
            [ZERO, ZERO, q3(-7)],
            [ZERO, q3(-4, -1), ZERO],
            [q3(-1), ZERO, ZERO],
        ])
        assert uturn_matrix("dec_cw", 3) == expected

    def test_kind_relations(self):
        for n in (2, 3, 4):
            U = uturn_matrix("dec_cw", n)
            zinv = coribbon(n).inverse()
            scale = lambda M: M.map(lambda x: zinv * x)
            assert uturn_matrix("inc_ccw", n) == U.transpose()
            assert uturn_matrix("dec_ccw", n) == scale(U)
            assert uturn_matrix("inc_cw", n) == scale(U.transpose())

    def test_rank_below_two_rejected(self):
        with pytest.raises(ValueError, match="n must be at least 2"):
            uturn_matrix("dec_cw", 1)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_single_turn_traces_its_matrix_entry(self, n):
        # a dec_* matrix is indexed (top, bottom), an inc_* one (bottom, top)
        cups = {"dec_cw": ("l", "r"), "inc_ccw": ("r", "l")}
        caps = {"dec_ccw": ("r", "l"), "inc_cw": ("l", "r")}
        for kind in (*cups, *caps):
            U = uturn_matrix(kind, n)
            if kind in cups:
                diagram = BiangleDiagram(n, (), (Slice(kind, 1),))
            else:
                diagram = BiangleDiagram(n, caps[kind], (Slice(kind, 1),))
            for bottom in range(1, n + 1):
                for top in range(1, n + 1):
                    pair = (bottom, top)
                    state = ((), pair) if kind in cups else (pair, ())
                    expected = U[top - 1, bottom - 1] if kind.startswith("dec") else U[bottom - 1, top - 1]
                    assert biangle_trace(diagram, *state) == expected

    def test_zigzag_waves_are_identity(self):
        for n in (2, 3):
            wave_a = BiangleDiagram(n, ("l",), (Slice("dec_cw", 1), Slice("dec_ccw", 2)))
            wave_b = BiangleDiagram(n, ("r",), (Slice("inc_ccw", 1), Slice("inc_cw", 2)))
            for diagram in (wave_a, wave_b):
                for s1 in range(1, n + 1):
                    for s2 in range(1, n + 1):
                        expected = ONE if s1 == s2 else ZERO
                        assert biangle_trace(diagram, (s1,), (s2,)) == expected


class TestCrossingMatrices:
    def test_same_direction_rank3_display(self):
        d = q3(-3) - q3(3)  # q^-1 - q
        rows = [[ZERO] * 9 for _ in range(9)]
        rows[0][0] = q3(-3)
        rows[1][1] = d
        rows[1][3] = ONE
        rows[2][2] = d
        rows[2][6] = ONE
        rows[3][1] = ONE
        rows[4][4] = q3(-3)
        rows[5][5] = d
        rows[5][7] = ONE
        rows[6][2] = ONE
        rows[7][5] = ONE
        rows[8][8] = q3(-3)
        expected = TorusMatrix(None, rows).map(lambda x: q3(1) * x)
        assert crossing_matrix("pos_same_to_lower", 3) == expected

    def test_opposite_direction_rank3_display(self):
        d = q3(-3) - q3(3)
        rows = [[ZERO] * 9 for _ in range(9)]
        rows[0][0] = q3(-3)
        rows[1][3] = q3(-3)
        rows[2][2] = q3(6) - ONE
        rows[2][4] = d
        rows[2][6] = ONE
        rows[3][1] = q3(-3)
        rows[4][2] = d
        rows[4][4] = ONE
        rows[5][7] = q3(-3)
        rows[6][2] = ONE
        rows[7][5] = q3(-3)
        rows[8][8] = q3(-3)
        expected = TorusMatrix(None, rows).map(lambda x: q3(2) * x)
        assert crossing_matrix("neg_opp_to_lower", 3) == expected

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_inverse_kinds(self, n):
        I = TorusMatrix.identity(None, n * n)
        pairs = [
            ("pos_same_to_lower", "neg_same_to_lower"),
            ("pos_same_to_higher", "neg_same_to_higher"),
            ("neg_opp_to_lower", "pos_opp_to_lower"),
            ("neg_opp_to_higher", "pos_opp_to_higher"),
        ]
        for a, b in pairs:
            assert mat_mul(crossing_matrix(a, n), crossing_matrix(b, n)) == I

    def test_over_to_lower_equals_over_to_higher(self):
        for n in (2, 3):
            assert crossing_matrix("pos_same_to_lower", n) == crossing_matrix(
                "pos_same_to_higher", n
            )
            assert crossing_matrix("neg_opp_to_lower", n) == crossing_matrix(
                "neg_opp_to_higher", n
            )

    def test_rank2_same_equals_opp_for_all_q(self):
        # at rank 2 the same- and opposite-direction positive crossings
        # coincide exactly, not only in the commutative limit
        assert crossing_matrix("pos_same_to_lower", 2) == crossing_matrix(
            "neg_opp_to_lower", 2
        )

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_same_equals_opp_at_h_one(self, n):
        same = crossing_matrix("pos_same_to_lower", n)
        opp = crossing_matrix("pos_opp_to_lower", n)
        flat = lambda M: [[x.at_one() for x in row] for row in M.entries]
        assert flat(same) == flat(opp)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_crossings_equal_the_standard_basis_oracle(self, n):
        for kind in CROSSING_KINDS:
            assert crossing_matrix(kind, n) == oracle_crossing_matrix(kind, n), kind

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_oracle_constructions_agree(self, n):
        # the same-direction crossing from the defining and the dual
        # braidings, the opposite-direction one from both mixed orders
        built = crossing_constructions(n)
        assert built["vv"] == built["dd"]
        assert built["dv"] == built["vd"]
        I = TorusMatrix.identity(None, n * n)
        for a, b in (("pos_same_to_lower", "neg_same_to_lower"), ("neg_opp_to_lower", "pos_opp_to_lower")):
            assert mat_mul(oracle_crossing_matrix(a, n), oracle_crossing_matrix(b, n)) == I

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_opposite_crossing_is_the_same_crossing_rotated(self, n):
        # turning the same-direction crossing through a cup and a cap is an
        # isotopy; the ("l", "r") side uses the inc_* U-turns, which the
        # construction of the opposite-direction matrices does not
        for kind in CROSSING_KINDS:
            if "_opp_" not in kind:
                continue
            same = kind.replace("_opp_", "_same_")
            for left, cup, cap in ((("r", "l"), "dec_cw", "dec_ccw"), (("l", "r"), "inc_ccw", "inc_cw")):
                lone = BiangleDiagram(n, left, (Slice(kind, 1),))
                turned = BiangleDiagram(n, left, (Slice(cup, 1), Slice(same, 2), Slice(cap, 3)))
                assert turned.right == lone.right
                for states in itertools.product(range(1, n + 1), repeat=2):
                    assert amplitude_table(turned)[states] == amplitude_table(lone)[states], (kind, left, states)

    @pytest.mark.parametrize("n", [2, 3])
    def test_yang_baxter(self, n):
        assert yang_baxter_holds(n)

    @pytest.mark.parametrize("n", [2, 3])
    def test_dense_yang_baxter(self, n):
        braid = lambda *positions: dense_word_matrix(n, 3, [("pos_same_to_lower", p) for p in positions])
        assert braid(1, 2, 1) == braid(2, 1, 2)

    @given(n=st.sampled_from([2, 3]), word=braid_words)
    @settings(max_examples=40, deadline=None)
    def test_braid_word_table_equals_the_dense_product(self, n, word):
        # the sweep over slice tables against kron(I, C, I) products
        table = amplitude_table(BiangleDiagram(n, ("r",) * 3, tuple(Slice(*s) for s in word)))
        dense = dense_word_matrix(n, 3, word)
        triples = list(itertools.product(range(1, n + 1), repeat=3))
        assert list(table) == triples
        for i, left in enumerate(triples):
            for j, right in enumerate(triples):
                assert table[left].get(right, ZERO) == dense[i, j], (word, left, right)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_single_crossing_traces_its_matrix_entry(self, n):
        # rows of a crossing matrix index the incoming pair (a, b), columns
        # the outgoing pair (c, d), with the top strand's state fastest
        flat = lambda i, j: (i - 1) * n + (j - 1)
        states = range(1, n + 1)
        for kind in CROSSING_KINDS:
            C = crossing_matrix(kind, n)
            for oa in "rl":
                for ob in "rl":
                    if (oa == ob) != ("_same_" in kind):
                        continue
                    diagram = BiangleDiagram(n, (oa, ob), (Slice(kind, 1),))
                    assert diagram.right == (ob, oa)
                    for a, b, c, d in itertools.product(states, repeat=4):
                        value = biangle_trace(diagram, (a, b), (c, d))
                        assert value == C[flat(a, b), flat(c, d)]
        for kind, sign in (("kink_pos", 1), ("kink_neg", -1)):
            for o in "rl":
                diagram = BiangleDiagram(n, (o,), (Slice(kind, 1),))
                for s1 in states:
                    for s2 in states:
                        expected = kink_scalar(n, sign) if s1 == s2 else ZERO
                        assert biangle_trace(diagram, (s1,), (s2,)) == expected


class TestSkein:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_skein_identities(self, n):
        report = skein_checks(n)
        assert report == {key: True for key in report}

    def test_kink_values(self):
        assert kink_scalar(3, 1) == coribbon(3)
        assert kink_scalar(3, -1) == coribbon(3).inverse()
        assert kink_scalar(3, 1) * kink_scalar(3, -1) == ONE

    def test_curl_diagrams_reduce_to_kink_factors(self):
        for kind, sign in (("pos_same_to_lower", 1), ("neg_same_to_lower", -1)):
            curl = BiangleDiagram(
                3, ("r",),
                (Slice("inc_ccw", 2), Slice(kind, 1), Slice("dec_ccw", 2)),
            )
            for s1 in range(1, 4):
                for s2 in range(1, 4):
                    expected = kink_scalar(3, sign) if s1 == s2 else ZERO
                    assert biangle_trace(curl, (s1,), (s2,)) == expected


class TestBiangleEngine:
    @given(diagram=diagrams())
    @settings(max_examples=100, deadline=None)
    def test_random_diagram_table_equals_the_dense_product(self, diagram):
        # cups, caps, kinks and all eight crossings, against the product of
        # their public matrices as kron(I, S, I) factors
        n = diagram.n
        table = amplitude_table(diagram)
        dense = dense_word_matrix(n, len(diagram.left), [(s.kind, s.pos) for s in diagram.slices])
        lefts = list(itertools.product(range(1, n + 1), repeat=len(diagram.left)))
        rights = list(itertools.product(range(1, n + 1), repeat=len(diagram.right)))
        assert list(table) == lefts
        for i, left in enumerate(lefts):
            for j, right in enumerate(rights):
                assert table[left].get(right, ZERO) == dense[i, j], (diagram, left, right)

    def test_trivial_diagram_is_identity(self):
        diagram = BiangleDiagram(3, ("r", "l"), ())
        for s1 in range(1, 4):
            for s2 in range(1, 4):
                for t1 in range(1, 4):
                    for t2 in range(1, 4):
                        value = biangle_trace(
                            diagram, (s1, s2), (t1, t2)
                        )
                        expected = ONE if (s1, s2) == (t1, t2) else ZERO
                        assert value == expected

    def test_far_apart_slices_commute(self):
        base = ("r", "r", "r", "r")
        d1 = BiangleDiagram(
            3, base, (Slice("pos_same_to_lower", 1), Slice("pos_same_to_lower", 3))
        )
        d2 = BiangleDiagram(
            3, base, (Slice("pos_same_to_lower", 3), Slice("pos_same_to_lower", 1))
        )
        state = ((1, 2, 2, 3), (2, 1, 3, 2))
        assert biangle_trace(d1, *state) == biangle_trace(d2, *state)

    # Two strands with a crossing word, a kink and a zig-zag.
    BRAIDED = (
        Slice("pos_same_to_lower", 1),
        Slice("kink_pos", 2),
        Slice("inc_ccw", 2),
        Slice("inc_cw", 1),
        Slice("neg_same_to_higher", 1),
        Slice("pos_same_to_higher", 1),
    )

    def test_swept_amplitudes_match_fresh_diagrams(self):
        diagram = BiangleDiagram(3, ("l", "l"), self.BRAIDED)
        states = list(itertools.product(range(1, 4), repeat=2))
        pairs = list(itertools.product(states, states))
        random.Random(3).shuffle(pairs)
        nonzero = 0
        for ls, rs in pairs:
            fresh = BiangleDiagram(3, ("l", "l"), self.BRAIDED)
            value = biangle_trace(diagram, ls, rs)
            assert value == biangle_trace(fresh, ls, rs)
            nonzero += not value.is_zero()
        # more than the 9 entries of the identity: the word mixes states
        assert nonzero > 9

    def test_swept_diagram_still_checks_states(self):
        diagram = BiangleDiagram(3, ("l", "l"), self.BRAIDED)
        biangle_trace(diagram, (1, 2), (2, 1))
        for ls, rs in [((1,), (2, 1)), ((1, 2, 3), (2, 1)), ((1, 2), (2,)), ((1, 2), (2, 4)), ((1, 2), (0, 1))]:
            with pytest.raises(ValueError):
                biangle_trace(diagram, ls, rs)

    def test_swept_diagram_equals_a_fresh_one(self):
        swept = BiangleDiagram(3, ("l", "l"), self.BRAIDED)
        for ls in itertools.product(range(1, 4), repeat=2):
            biangle_trace(swept, ls, (1, 1))
        fresh = BiangleDiagram(3, ("l", "l"), self.BRAIDED)
        assert swept == fresh and hash(swept) == hash(fresh) and repr(swept) == repr(fresh)
        assert swept != BiangleDiagram(3, ("l", "l"), self.BRAIDED[:-1])

    def test_malformed_slices_rejected(self):
        for left, kind, pos in [
            (("l", "r"), "pos_same_to_lower", 1),
            (("r",), "dec_ccw", 1),
            (("r", "r"), "pos_same_to_lower", 0),  # crossing at pos 0
            (("r", "l"), "dec_ccw", 2),  # cap on the top strand
            (("r",), "dec_cw", 3),  # cup at pos len + 2
            ((), "kink_pos", 1),  # kink on an empty diagram
            (("r", "l"), "neg_same_to_higher", 1),  # same-direction crossing, opposite strands
            (("r", "r"), "twist", 1),  # unknown kind
        ]:
            with pytest.raises(ValueError):
                BiangleDiagram(3, left, (Slice(kind, pos),))


class TestDuality:
    def test_lemma_at_canonical_parameters(self):
        for sign in (1, -1):
            report = duality_lemma_check(3, duality_parameter(3, sign))
            assert report == {key: True for key in report}

    def test_lemma_fails_at_one(self):
        report = duality_lemma_check(3, ONE)
        assert not all(report.values())
