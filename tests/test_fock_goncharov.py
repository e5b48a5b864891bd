"""Triangle coordinates, quantum left/right matrices, and the
quantum-matrix relations, with regression pins for the displayed
closed forms at ranks 3 and 4."""

import time

import pytest

from qtrace.qtorus import (
    RootScalar,
    TorusElement,
    TorusMatrix,
    normal_product,
    q_power,
    weyl_monomial,
)
from qtrace.fock_goncharov import (
    is_mnq_point,
    is_slnq_point,
    quantum_determinant,
    quantum_turn_matrix,
    triangle_poisson,
    triangle_vertices,
)
from qtrace.surface import arc_quantum_matrix, build_surface, inward_sequence, rotate_vertex, turn_exit_side

from oracles import (
    CurveStep,
    classical_trace_polynomial,
    classical_uturn,
    commutative_spec,
    elementary_turn_matrix,
)
from triangulations import once_punctured_torus


def name_index(tri):
    return {name: i for i, name in enumerate(tri.spec.names)}


def unnormalized_left(tri):
    """The left matrix without its normalizing prefactors: the negative control."""
    return quantum_turn_matrix(
        "left", tri, inward_sequence(tri, 0), inward_sequence(tri, 1)[::-1],
        lambda a, b, c: tri.index[(a, b, c)], normalized=False,
    )


def wm(tri, **exponents):
    """Weyl monomial from generator names, exponents in 1/n units."""
    idx = name_index(tri)
    e = [0] * tri.spec.N
    for name, value in exponents.items():
        e[idx[name]] = value
    return weyl_monomial(tri.spec, tuple(e))


class TestQuiver:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_antisymmetric(self, n):
        P = triangle_poisson(n).spec.P
        for i in range(len(P)):
            for j in range(len(P)):
                assert P[i][j] == -P[j][i]

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_rotation_invariance(self, n):
        tri = triangle_poisson(n)
        P = tri.spec.P
        verts = triangle_vertices(n)
        rot = {tri.index[v]: tri.index[rotate_vertex(v, 1)] for v in verts}
        for v in verts:
            for w in verts:
                i, j = tri.index[v], tri.index[w]
                assert P[i][j] == P[rot[i]][rot[j]]

    def test_weight_range(self):
        P = triangle_poisson(4).spec.P
        values = {abs(x) for row in P for x in row}
        assert values <= {0, 1, 2}

    def test_sample_commutations_rank3(self):
        # with the displayed labels: W = Z1, Z = Z2, Z' = Zp1, W' = Zp2
        tri = triangle_poisson(3)
        idx = name_index(tri)

        def q_commutes(a, b, exponent):
            A = TorusElement.generator(tri.spec, idx[a])
            B = TorusElement.generator(tri.spec, idx[b])
            scale = TorusElement.scalar(tri.spec, q_power(3, exponent))
            return normal_product(A, B) == scale * normal_product(B, A)

        assert q_commutes("X111", "Zp1", 2)
        assert q_commutes("X111", "Zp2", -2)
        assert q_commutes("Z2", "Z1", 1)
        assert q_commutes("Z2", "Zp2", 2)

    def test_sample_commutations_rank4(self):
        tri = triangle_poisson(4)
        idx = name_index(tri)

        def q_commutes(a, b, exponent):
            A = TorusElement.generator(tri.spec, idx[a])
            B = TorusElement.generator(tri.spec, idx[b])
            scale = TorusElement.scalar(tri.spec, q_power(4, exponent))
            return normal_product(A, B) == scale * normal_product(B, A)

        # displayed labels X_1 = X112, X_2 = X211, X_3 = X121
        assert q_commutes("X121", "Zpp2", 2)
        assert q_commutes("X121", "X112", -2)
        assert q_commutes("Z3", "Z2", 1)
        assert q_commutes("Z3", "Zp3", 2)


def m2q_by_submatrix(M):
    """The quantum matrix relations checked on each 2x2 submatrix
    [[a, b], [c, d]] in turn: the definition is_mnq_point must equal."""
    n = M.spec.n
    q, qinv = RootScalar({2 * n * n: 1}), RootScalar({-2 * n * n: 1})
    for i in range(M.rows):
        for j in range(i + 1, M.rows):
            for k in range(M.cols):
                for l in range(k + 1, M.cols):
                    a, b, c, d = M[i, k], M[i, l], M[j, k], M[j, l]
                    if not (
                        b * a == q * (a * b)
                        and d * c == q * (c * d)
                        and c * a == q * (a * c)
                        and d * b == q * (b * d)
                        and b * c == c * b
                        and d * a - a * d == (q - qinv) * (b * c)
                    ):
                        return False
    return True


def scaled_entry(M, i, j, factor):
    rows = [list(row) for row in M.entries]
    rows[i][j] = factor * rows[i][j]
    return TorusMatrix(M.spec, rows)


class TestQuantumMatrixTheorem:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_left_and_right_are_slnq_points(self, n):
        # every (entry side, turn) pair the state sum multiplies
        start = time.time()
        tri = triangle_poisson(n)
        for entry in (0, 1, 2):
            for turn in ("left", "right"):
                assert is_slnq_point(arc_quantum_matrix(tri, entry, turn)), (entry, turn)
        assert time.time() - start < 30

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_point_check_matches_the_submatrix_definition(self, n):
        tri = triangle_poisson(n)
        for entry in (0, 1, 2):
            for turn in ("left", "right"):
                M = arc_quantum_matrix(tri, entry, turn)
                assert is_mnq_point(M) and m2q_by_submatrix(M), (entry, turn)

    def test_point_check_matches_the_definition_on_every_scaled_entry(self):
        # at n = 2 each relation of a triangular matrix is homogeneous in
        # every entry, so no scaled entry fails; n = 3 has failing ones
        tri = triangle_poisson(3)
        perturbed = scaled_entry(arc_quantum_matrix(tri, 0, "left"), 0, 1, q_power(3, 1))
        assert not m2q_by_submatrix(perturbed)
        assert not is_mnq_point(perturbed)
        for entry in (0, 1, 2):
            for turn in ("left", "right"):
                M = arc_quantum_matrix(tri, entry, turn)
                for i in range(3):
                    for j in range(3):
                        P = scaled_entry(M, i, j, q_power(3, 1))
                        assert is_mnq_point(P) == m2q_by_submatrix(P), (entry, turn, i, j)

    @pytest.mark.parametrize(
        "rows", [[[1, 1], [0, 0]], [[1, 0], [1, 0]], [[0, 1], [1, 0]]], ids=["row", "column", "cross"]
    )
    def test_point_check_reads_each_kind_of_relation(self, rows):
        # each matrix breaks only the same-row, the same-column or the
        # cross relations
        M = TorusMatrix(triangle_poisson(2).spec, rows)
        assert not m2q_by_submatrix(M)
        assert not is_mnq_point(M)

    @pytest.mark.parametrize("n", [2, 3])
    def test_one_triangle_torus_per_rank(self, n):
        # two surfaces of one rank share their triangle torus, so every
        # arc matrix entry carries the caller's spec object itself
        assert triangle_poisson(n) is triangle_poisson(n)
        for surface in (build_surface(once_punctured_torus(), n), build_surface(once_punctured_torus(), n)):
            for entry in (0, 1, 2):
                for turn in ("left", "right"):
                    M = arc_quantum_matrix(surface.tri, entry, turn)
                    assert M.spec is surface.tri.spec, (entry, turn)
                    assert all(x.spec is surface.tri.spec for row in M.entries for x in row), (entry, turn)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_unnormalized_arc_matrix_is_the_hand_wired_one(self, n):
        # the negative control reads arc_quantum_matrix, cached per
        # (triangle torus, entry, turn, normalized)
        tri = triangle_poisson(n)
        raw = arc_quantum_matrix(tri, 0, "left", normalized=False)
        assert raw == unnormalized_left(tri)
        assert raw != arc_quantum_matrix(tri, 0, "left")
        assert arc_quantum_matrix(tri, 0, "left", normalized=False) is raw

    def test_unnormalized_left_fails_negative_control(self):
        tri = triangle_poisson(3)
        raw = unnormalized_left(tri)
        assert not is_mnq_point(raw)

    def test_determinant_of_unnormalized_is_not_one(self):
        tri = triangle_poisson(3)
        raw = unnormalized_left(tri)
        assert quantum_determinant(raw) != TorusElement.one(tri.spec)

    def test_determinant_signs_and_q_powers_follow_inversions(self):
        # the turn matrices are triangular, so every permutation but the
        # identity meets a zero entry there; these matrices reach others
        spec = triangle_poisson(3).spec
        a, b, c, d = (TorusElement.generator(spec, i) for i in range(4))
        q = q_power(3, 1)
        assert quantum_determinant(TorusMatrix(spec, [[a, b], [c, d]])) == normal_product(a, d) - normal_product(b, c) * q
        antidiagonal = TorusMatrix(spec, [[0, 0, 1], [0, 1, 0], [1, 0, 0]])
        assert quantum_determinant(antidiagonal) == -q_power(3, 3)

    def test_five_tuple_matrices_are_arc_matrices(self):
        # The move identities' L(W, Z, W', Z', X) and R(W, Z, W', Z', X)
        # built from the displayed dot labels.
        tri = triangle_poisson(3)
        idx = name_index(tri)
        X = idx["X111"]
        W1, Z1 = idx["Zpp2"], idx["Zpp1"]
        W2, Z2 = idx["Z1"], idx["Z2"]
        W3, Z3 = idx["Zp2"], idx["Zp1"]

        def L(W, Z, Wp, Zp):
            return quantum_turn_matrix("left", tri, (W, Z), (Zp, Wp), lambda a, b, c: X)

        def R(W, Z, Wp, Zp):
            return quantum_turn_matrix("right", tri, (Wp, Zp), (Z, W), lambda a, b, c: X)

        assert L(W2, Z2, W3, Z3) == arc_quantum_matrix(tri, 0, "left")
        assert R(W2, Z2, W3, Z3) == arc_quantum_matrix(tri, 1, "right")
        assert L(W3, Z3, W1, Z1) == arc_quantum_matrix(tri, 1, "left")
        assert R(W3, Z3, W1, Z1) == arc_quantum_matrix(tri, 2, "right")
        assert L(W1, Z1, W2, Z2) == arc_quantum_matrix(tri, 2, "left")
        assert R(W1, Z1, W2, Z2) == arc_quantum_matrix(tri, 0, "right")


class TestTurnMatrixConstruction:
    """quantum_turn_matrix applies the elementary factors as column
    operations; the oracle multiplies the elementary matrices out."""

    @pytest.mark.parametrize("n", range(2, 8))
    def test_arc_matrices_equal_the_elementary_product(self, n):
        tri = triangle_poisson(n)
        for entry in (0, 1, 2):

            def interior(a, b, c):
                return tri.index[rotate_vertex((a, b, c), entry)]

            for turn in ("left", "right"):
                edges = inward_sequence(tri, entry), inward_sequence(tri, turn_exit_side(entry, turn))[::-1]
                for normalized in (True, False):
                    expected = elementary_turn_matrix(turn, tri, *edges, interior, normalized)
                    assert arc_quantum_matrix(tri, entry, turn, normalized) == expected, (entry, turn, normalized)

    def test_input_checks(self):
        tri = triangle_poisson(3)
        edge = inward_sequence(tri, 0)
        interior = lambda a, b, c: tri.index[(a, b, c)]
        for entry_edge, exit_edge in ((edge[:1], edge), (edge, edge + edge[:1]), ((), ())):
            with pytest.raises(ValueError, match="n-1 entries"):
                quantum_turn_matrix("left", tri, entry_edge, exit_edge, interior)
        for kind in ("up", "uturn_cw", "Left"):
            with pytest.raises(ValueError, match="left or right"):
                quantum_turn_matrix(kind, tri, edge, edge, interior)


class TestRank3RegressionPins:
    """The full displayed entries of the rank-3 left and right quantum
    matrices, as Weyl monomial sums; exponents in 1/3 units."""

    def test_left_entries(self):
        tri = triangle_poisson(3)
        L = arc_quantum_matrix(tri, 0, "left")
        assert L[0, 0] == wm(tri, Z1=2, Z2=1, X111=2, Zp1=2, Zp2=1)
        assert L[0, 1] == wm(tri, Z1=2, Z2=1, X111=2, Zp1=-1, Zp2=1) + wm(
            tri, Z1=2, Z2=1, X111=-1, Zp1=-1, Zp2=1
        )
        assert L[0, 2] == wm(tri, Z1=2, Z2=1, X111=-1, Zp1=-1, Zp2=-2)
        assert L[1, 1] == wm(tri, Z1=-1, Z2=1, X111=-1, Zp1=-1, Zp2=1)
        assert L[1, 2] == wm(tri, Z1=-1, Z2=1, X111=-1, Zp1=-1, Zp2=-2)
        assert L[2, 2] == wm(tri, Z1=-1, Z2=-2, X111=-1, Zp1=-1, Zp2=-2)
        assert L[1, 0].is_zero() and L[2, 0].is_zero() and L[2, 1].is_zero()

    def test_right_entries(self):
        # in the right matrix the entry edge plays the primed role:
        # W' = Z1, Z' = Z2, Z = Zpp1, W = Zpp2
        tri = triangle_poisson(3)
        R = arc_quantum_matrix(tri, 0, "right")
        assert R[0, 0] == wm(tri, Z1=2, Z2=1, X111=1, Zpp1=2, Zpp2=1)
        assert R[1, 0] == wm(tri, Z1=-1, Z2=1, X111=1, Zpp1=2, Zpp2=1)
        assert R[1, 1] == wm(tri, Z1=-1, Z2=1, X111=1, Zpp1=-1, Zpp2=1)
        assert R[2, 0] == wm(tri, Z1=-1, Z2=-2, X111=1, Zpp1=2, Zpp2=1)
        assert R[2, 1] == wm(tri, Z1=-1, Z2=-2, X111=1, Zpp1=-1, Zpp2=1) + wm(
            tri, Z1=-1, Z2=-2, X111=-2, Zpp1=-1, Zpp2=1
        )
        assert R[2, 2] == wm(tri, Z1=-1, Z2=-2, X111=-2, Zpp1=-1, Zpp2=-2)
        assert R[0, 1].is_zero() and R[0, 2].is_zero() and R[1, 2].is_zero()


class TestRank4RegressionPins:
    """The quoted 2x2 submatrices of the rank-4 matrices; displayed
    labels X_1 = X112, X_2 = X211, X_3 = X121, exponents in 1/4 units."""

    def test_left_submatrix(self):
        tri = triangle_poisson(4)
        L = arc_quantum_matrix(tri, 0, "left")

        def m(z, zp, x):
            kw = {f"Z{j}": v for j, v in enumerate(z, 1)}
            kw.update({f"Zp{j}": v for j, v in enumerate(zp, 1)})
            kw.update(dict(zip(("X112", "X211", "X121"), x)))
            return wm(tri, **kw)

        a = (
            m((3, 2, 1), (-1, -2, 1), (-1, -2, -1))
            + m((3, 2, 1), (-1, -2, 1), (-1, 2, -1))
            + m((3, 2, 1), (-1, -2, 1), (3, 2, -1))
        )
        b = m((3, 2, 1), (-1, -2, -3), (-1, -2, -1))
        c = m((-1, 2, 1), (-1, -2, 1), (-1, -2, -1)) + m(
            (-1, 2, 1), (-1, -2, 1), (-1, 2, -1)
        )
        d = m((-1, 2, 1), (-1, -2, -3), (-1, -2, -1))
        assert L[0, 2] == a and L[0, 3] == b and L[1, 2] == c and L[1, 3] == d

    def test_right_submatrix(self):
        tri = triangle_poisson(4)
        R = arc_quantum_matrix(tri, 0, "right")

        def m(z, zpp, x):
            kw = {f"Z{j}": v for j, v in enumerate(z, 1)}
            kw.update({f"Zpp{j}": v for j, v in enumerate(zpp, 1)})
            kw.update(dict(zip(("X112", "X211", "X121"), x)))
            return wm(tri, **kw)

        a = m((-1, -2, 1), (3, 2, 1), (2, 1, 1))
        b = m((-1, -2, 1), (-1, 2, 1), (-2, 1, 1)) + m(
            (-1, -2, 1), (-1, 2, 1), (2, 1, 1)
        )
        c = m((-1, -2, -3), (3, 2, 1), (2, 1, 1))
        d = (
            m((-1, -2, -3), (-1, 2, 1), (-2, -3, 1))
            + m((-1, -2, -3), (-1, 2, 1), (-2, 1, 1))
            + m((-1, -2, -3), (-1, 2, 1), (2, 1, 1))
        )
        assert R[2, 0] == a and R[2, 1] == b and R[3, 0] == c and R[3, 1] == d


class TestClassical:
    def test_classical_uturn_is_antidiagonal(self):
        spec = commutative_spec(triangle_poisson(3).spec)
        U = classical_uturn(spec, ccw=False)
        for i in range(3):
            for j in range(3):
                if i + j == 2:
                    assert not U[i, j].is_zero()
                else:
                    assert U[i, j].is_zero()

    def test_inconsistent_curve_raises(self):
        surf = build_surface(once_punctured_torus(), 3)
        steps = [CurveStep("r", 1, "right"), CurveStep("b", 0, "left")]
        with pytest.raises(ValueError):
            classical_trace_polynomial(steps, surf)

    def test_closed_curve_polynomial_has_unit_coefficients(self):
        surf = build_surface(once_punctured_torus(), 3)
        steps = [CurveStep("r", 1, "right"), CurveStep("d", 0, "left")]
        poly = classical_trace_polynomial(steps, surf)
        assert len(poly) == 8
        assert all(c == 1 for c in poly.values())
