"""Acceptance suite: one test and one printed PASS/FAIL line per
headline claim.  Each test delegates to the exact checks implemented in
the library and the focused test modules."""

import random
import time

import pytest

import test_fock_goncharov as tfg
import test_surface as tsf
import oracles
from triangulations import once_punctured_torus

from qtrace.qtorus import ONE, RootScalar, TorusElement, TorusMatrix, mat_mul, normal_product
from qtrace.fock_goncharov import (
    is_mnq_point,
    is_slnq_point,
    left_quantum_matrix,
    quantum_turn_matrix,
    right_quantum_matrix,
    triangle_poisson,
)
from qtrace.biangle import (
    Slice,
    crossing_matrix,
    duality_lemma_check,
    duality_parameter,
    skein_checks,
    yang_baxter_holds,
)
from qtrace.surface import (
    GoodPositionLink,
    TriangleArc,
    build_surface,
    verify_moves,
)
from qtrace.cli import main


def report(number, label, ok):
    print(("PASS" if ok else "FAIL") + f" criterion {number}: {label}")
    assert ok, f"criterion {number}: {label}"


@pytest.fixture(scope="module")
def torus():
    return build_surface(once_punctured_torus(), 3)


def test_criterion_01_quantum_matrix_theorem():
    start = time.time()
    ok = True
    for n in (2, 3, 4):
        tri = triangle_poisson(n)
        ok = ok and is_slnq_point(left_quantum_matrix(tri))
        ok = ok and is_slnq_point(right_quantum_matrix(tri))
    tri3 = triangle_poisson(3)
    raw = quantum_turn_matrix(
        "left", tri3, tri3.edge_vector(0), tri3.edge_vector(1), normalized=False
    )
    ok = ok and not is_mnq_point(raw)
    ok = ok and time.time() - start < 30
    report(1, "left/right matrices are quantum SL(n) points, n=2,3,4", ok)


def test_criterion_02_regression_pins():
    ok = True
    try:
        pins3 = tfg.TestRank3RegressionPins()
        pins3.test_left_entries()
        pins3.test_right_entries()
        pins4 = tfg.TestRank4RegressionPins()
        pins4.test_left_submatrix()
        pins4.test_right_submatrix()
    except AssertionError:
        ok = False
    report(2, "rank-3 entries and rank-4 submatrices match the displayed forms", ok)


def test_criterion_03_move_suite():
    start = time.time()
    results = verify_moves(3)
    ok = all(results.values()) and len(results) == 16 and time.time() - start < 60
    report(3, "all elementary and derived move identities hold at n=3", ok)


def test_criterion_04_skein_relations():
    ok = all(all(skein_checks(n).values()) for n in (2, 3, 4))
    report(4, "HOMFLYPT relation, unknot value, and kink cancellation, n=2,3,4", ok)


def test_criterion_05_r_matrix_structure():
    ok = True
    for n in (2, 3, 4):
        I = TorusMatrix.identity(None, n * n)
        for a, b in (
            ("pos_same_to_lower", "neg_same_to_lower"),
            ("neg_opp_to_lower", "pos_opp_to_lower"),
        ):
            ok = ok and mat_mul(crossing_matrix(a, n), crossing_matrix(b, n)) == I
        same = crossing_matrix("pos_same_to_lower", n)
        opp = crossing_matrix("pos_opp_to_lower", n)
        flat = lambda M: [[x.at_one() for x in row] for row in M.entries]
        ok = ok and flat(same) == flat(opp)
    ok = ok and yang_baxter_holds(2) and yang_baxter_holds(3)
    report(5, "crossing inverses, Yang-Baxter, and the commutative coincidence", ok)


def test_criterion_06_duality_lemma():
    ok = all(duality_lemma_check(3, duality_parameter(3, 1)).values())
    ok = ok and all(duality_lemma_check(3, duality_parameter(3, -1)).values())
    ok = ok and not all(duality_lemma_check(3, ONE).values())
    report(6, "duality lemma holds exactly at the two canonical parameters only", ok)


def test_criterion_07_classical_trace_property(torus):
    ok = True
    rng = random.Random(7)
    for make_link, steps in ((tsf.link_a, tsf.STEPS_A), (tsf.link_b, tsf.STEPS_B)):
        poly = tsf.glued_trace(make_link(), torus).at_one()
        ok = ok and poly == oracles.classical_trace_polynomial(steps, torus)
        for _ in range(5):
            values = [rng.uniform(0.2, 3.0) for _ in range(torus.glued_spec.N)]
            expected = oracles.numeric_curve_trace(3, steps, torus, values)
            got = oracles.evaluate_classical(3, poly, values)
            ok = ok and abs(got - expected) <= 1e-9 * max(1.0, abs(expected))
    report(7, "h=1 specialization equals the classical trace and numeric oracle", ok)


def test_criterion_08_state_sum_and_multiplication(torus):
    ok = True
    try:
        tsf.TestGluedSquare().test_state_sum_equals_direct_contraction()
    except AssertionError:
        ok = False
    ga = tsf.glued_trace(tsf.link_a(), torus)
    gb = tsf.glued_trace(tsf.link_b(), torus)
    raised = tuple(
        TriangleArc(x.triangle, x.entry, x.turn, 2) for x in tsf.link_b().arcs
    )
    union = tsf.glued_trace(
        GoodPositionLink(arcs=tsf.link_a().arcs + raised), torus
    )
    ok = ok and union == normal_product(ga, gb)
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
            ok = ok and lhs == rhs
    report(8, "state-sum contraction, stacking product, and height-swap factor", ok)


def test_criterion_09_even_h_exponents(torus):
    links = [
        tsf.link_a(),
        tsf.link_b(),
        GoodPositionLink(
            arcs=tsf.link_a().arcs
            + tuple(
                TriangleArc(x.triangle, x.entry, x.turn, 2) for x in tsf.link_b().arcs
            )
        ),
        GoodPositionLink(slices={"d": (Slice("inc_ccw", 1), Slice("dec_ccw", 1))}),
    ]
    ok = True
    for link in links:
        glued = tsf.glued_trace(link, torus)
        ok = ok and bool(glued.terms)
        for coeff in glued.terms.values():
            ok = ok and all(k % 2 == 0 for k in coeff.terms)
    report(9, "closed-link outputs only involve even powers of the root", ok)


def test_criterion_10_byte_identical_good_positions(tmp_path):
    surface = tmp_path / "torus.surface"
    surface.write_text(
        "n 3\ntriangles 2\nedge d T0.0 T1.2\nedge r T0.1 T1.0\nedge b T0.2 T1.1\n"
    )
    fixtures = {
        "knot_a": (
            "arc T1 0 right 1\narc T0 0 left 1\n",
            "arc T1 0 right 1\narc T0 0 right 2\narc T0 2 right 1\nslice b inc_cw 1\n",
        ),
        "knot_b": (
            "arc T0 2 left 1\narc T1 2 right 1\n",
            "arc T0 2 left 1\narc T1 2 left 2\narc T1 0 left 1\nslice r inc_ccw 1\n",
        ),
    }
    ok = True
    for name, positions in fixtures.items():
        outputs = []
        for i, content in enumerate(positions):
            link = tmp_path / f"{name}_{i}.link"
            link.write_text(content)
            out = tmp_path / f"{name}_{i}.poly"
            ok = ok and main(["trace", str(surface), str(link), "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        ok = ok and outputs[0] == outputs[1]
    report(10, "two good positions of each fixture knot emit identical files", ok)
