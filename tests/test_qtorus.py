"""Quantum torus arithmetic: scalars, canonical forms, Weyl ordering."""

import random
from functools import reduce
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from qtrace.qtorus import (
    ONE,
    ZERO,
    RootScalar,
    TorusElement,
    TorusMatrix,
    kron,
    make_spec,
    mat_mul,
    normal_product,
    q_power,
    torus_sum,
    weyl_monomial,
)

from oracles import evaluate_element, evaluate_scalar, map_exponents, weyl_order


def small_antisymmetric(n_gens, rng):
    P = [[0] * n_gens for _ in range(n_gens)]
    for i in range(n_gens):
        for j in range(i + 1, n_gens):
            P[i][j] = rng.randint(-2, 2)
            P[j][i] = -P[i][j]
    return P


@pytest.fixture
def spec3():
    rng = random.Random(11)
    return make_spec(3, small_antisymmetric(4, rng))


def plain_sum(x, y, sign):
    """x + sign * y over plain {h-exponent: coefficient} dicts, zeros dropped."""
    out = dict(x)
    for k, c in y.items():
        out[k] = out.get(k, 0) + sign * c
    return {k: c for k, c in out.items() if c}


def plain_product(x, y):
    out = {}
    for k1, c1 in x.items():
        for k2, c2 in y.items():
            out[k1 + k2] = out.get(k1 + k2, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


# sparse Laurent polynomials as plain dicts, zero coefficients allowed
laurent = st.dictionaries(st.integers(-6, 6), st.integers(-3, 3), max_size=5)
scalar_pairs = st.one_of(
    st.tuples(laurent, laurent),
    # x and -x: every term of a sum cancels
    laurent.map(lambda x: (x, {k: -c for k, c in x.items()})),
    # (h^a - h^b)(h^a + h^b): the cross terms of the product cancel
    st.tuples(st.integers(-6, 6), st.integers(-6, 6)).map(lambda ab: ({ab[0]: 1, ab[1]: -1}, {ab[0]: 1, ab[1]: 1})),
)


class TestRootScalar:
    def test_ring_axioms_on_samples(self):
        a = RootScalar({3: 1}) + RootScalar({-2: -4})
        b = RootScalar({1: 2}) - ONE
        c = RootScalar({0: 5})
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert a - a == ZERO

    def test_monomial_inverse(self):
        a = RootScalar({7: -1})
        assert not (a * a.inverse() - ONE).terms

    def test_non_unit_coefficient_not_invertible(self):
        with pytest.raises(ValueError):
            RootScalar({7: -3}).inverse()

    def test_inverse_requires_monomial(self):
        with pytest.raises(ValueError):
            (ONE + RootScalar({2: 1})).inverse()

    def test_q_power_units(self):
        # q = h^(2 n^2); a 1/n-th power of q is h^(2n)
        assert q_power(3, 1) == RootScalar({18: 1})
        assert q_power(3, 1, 3) == RootScalar({6: 1})
        assert q_power(3, -8, 3) == RootScalar({-48: 1})

    @given(pair=scalar_pairs)
    @settings(max_examples=200, deadline=None)
    def test_arithmetic_matches_plain_dicts(self, pair):
        x, y = pair
        a, b = RootScalar(x), RootScalar(y)
        for result, expected in [
            (a, plain_sum(x, {}, 1)),
            (-a, plain_sum({}, x, -1)),
            (a + b, plain_sum(x, y, 1)),
            (a - b, plain_sum(x, y, -1)),
            (a * b, plain_product(x, y)),
            (a + 2, plain_sum(x, {0: 2}, 1)),
            (2 - a, plain_sum({0: 2}, x, -1)),
            (-3 * a, plain_product({0: -3}, x)),
        ]:
            assert result.terms == expected
            assert 0 not in result.terms.values()
            assert result.is_zero() == (not expected)

    def test_at_one_and_evaluate(self):
        a = RootScalar({4: 2}) + RootScalar({-1: 3})
        assert a.at_one() == 5
        assert abs(evaluate_scalar(a, 1.1) - (2 * 1.1**4 + 3 / 1.1)) < 1e-12


exponents = st.tuples(*(st.integers(-4, 4) for _ in range(4)))


def antisymmetric_from_upper(upper):
    """The 4 x 4 antisymmetric matrix with the six given entries above the
    diagonal, row by row."""
    P = [[0] * 4 for _ in range(4)]
    entries = iter(upper)
    for i in range(4):
        for j in range(i + 1, 4):
            P[i][j] = next(entries)
            P[j][i] = -P[i][j]
    return P


forms = st.one_of(
    st.lists(st.integers(-2, 2), min_size=6, max_size=6).map(antisymmetric_from_upper),
    st.just([[0] * 4 for _ in range(4)]),
    # one 3 x 3 block and a generator that commutes with everything
    st.just([[0, 1, -2, 0], [-1, 0, 3, 0], [2, -3, 0, 0], [0, 0, 0, 0]]),
)


class TestWeylBasis:
    @given(P=forms, e=exponents, f=exponents)
    @settings(max_examples=80, deadline=None)
    def test_ordering_form_matches_dense_oracle(self, P, e, f):
        # B(e, f) = sum_{i<j} P[j][i] e_j f_i, computed here with a dense loop
        def B(x, y):
            return sum(P[j][i] * x[j] * y[i] for j in range(4) for i in range(j))

        spec = make_spec(3, P)

        def monomial(x, k=0):
            return TorusElement.monomial(spec, x, RootScalar({k: 1}))

        e_plus_f = tuple(x + y for x, y in zip(e, f))
        assert normal_product(monomial(e), monomial(f)) == monomial(e_plus_f, 2 * B(e, f))
        assert weyl_monomial(spec, e) == monomial(e, B(e, e))
        assert monomial(tuple(-x for x in e), 2 * B(e, e)) * monomial(e) == 1
        same = make_spec(3, P)
        assert spec == same and hash(spec) == hash(same)

    @given(e=exponents, f=exponents)
    @settings(max_examples=60, deadline=None)
    def test_structure_constants_depend_only_on_form(self, e, f):
        # [e][f] = h^<e, Pf> [e+f]
        rng = random.Random(5)
        spec = make_spec(3, small_antisymmetric(4, rng))
        pairing = sum(
            e[i] * spec.P[i][j] * f[j] for i in range(4) for j in range(4)
        )
        lhs = normal_product(weyl_monomial(spec, e), weyl_monomial(spec, f))
        rhs = TorusElement.scalar(spec, RootScalar({pairing: 1})) * weyl_monomial(
            spec, tuple(x + y for x, y in zip(e, f))
        )
        assert lhs == rhs

    @given(e=exponents, f=exponents)
    @settings(max_examples=40, deadline=None)
    def test_weyl_commutation(self, e, f):
        # X^e X^f = h^(2 <e, Pf>) X^f X^e
        rng = random.Random(6)
        spec = make_spec(3, small_antisymmetric(4, rng))
        pairing = sum(
            e[i] * spec.P[i][j] * f[j] for i in range(4) for j in range(4)
        )
        a = TorusElement.monomial(spec, e)
        b = TorusElement.monomial(spec, f)
        lhs = normal_product(a, b)
        rhs = TorusElement.scalar(spec, RootScalar({2 * pairing: 1})) * normal_product(b, a)
        assert lhs == rhs

    def test_weyl_order_reversal_symmetry(self, spec3):
        # the Weyl ordering of a word equals that of the reversed word
        word = [(0, 3), (2, -2), (1, 1), (0, 2)]
        assert weyl_order(word, spec3) == weyl_order(list(reversed(word)), spec3)

    @given(e=exponents)
    @settings(max_examples=30, deadline=None)
    def test_weyl_monomial_inverse(self, e):
        rng = random.Random(7)
        spec = make_spec(3, small_antisymmetric(4, rng))
        # [e][-e] = h^<e, P(-e)> = 1, as P is antisymmetric
        m = weyl_monomial(spec, e)
        assert normal_product(m, weyl_monomial(spec, tuple(-x for x in e))) == 1


class TestElements:
    @given(e=exponents, f=exponents, g=exponents)
    @settings(max_examples=30, deadline=None)
    def test_associativity(self, e, f, g):
        rng = random.Random(8)
        spec = make_spec(3, small_antisymmetric(4, rng))
        a = TorusElement.monomial(spec, e) + TorusElement.one(spec)
        b = TorusElement.monomial(spec, f, RootScalar({1: -2}))
        c = TorusElement.monomial(spec, g) - TorusElement.one(spec)
        lhs = normal_product(normal_product(a, b), c)
        assert lhs == normal_product(a, normal_product(b, c))

    def test_map_exponents_embedding(self, spec3):
        big = make_spec(3, [list(row) + [0, 0] for row in spec3.P] + [[0] * 6, [0] * 6])
        a = weyl_monomial(spec3, (1, -2, 0, 3))
        image = map_exponents(a, big, {i: i for i in range(4)})
        assert set(image.terms) == {(1, -2, 0, 3, 0, 0)}

    def test_cancelling_pairs_sum_to_zero(self, spec3):
        e = (1, -2, 0, 3)
        assert TorusElement(spec3, [(e, ONE), (e, -ONE)]).is_zero()
        x = weyl_monomial(spec3, e)
        assert TorusElement(spec3, [(e, x.terms[e]), (e, -x.terms[e])]) == TorusElement.zero(spec3)

    def test_repeated_exponents_add_up(self, spec3):
        e, f = (1, 0, 0, 0), (0, 2, 0, -1)
        a = TorusElement(spec3, [(e, RootScalar({2: 1})), (f, RootScalar({0: 3})), (e, RootScalar({2: 4})), (e, ONE)])
        assert a.terms == {e: RootScalar({2: 5, 0: 1}), f: RootScalar({0: 3})}

    def test_wrong_exponent_length_raises(self, spec3):
        with pytest.raises(ValueError, match="length"):
            TorusElement(spec3, [((1, 0, 0), ONE)])
        with pytest.raises(ValueError, match="length"):
            TorusElement(spec3, [((1, 0), ONE), ((1, 0), RootScalar({3: 1}))])
        # checked before the zero sums are dropped
        with pytest.raises(ValueError, match="length"):
            TorusElement(spec3, [((1, 0), ONE), ((1, 0), -ONE)])

    @given(
        data=st.lists(
            st.tuples(
                st.lists(st.tuples(exponents, st.integers(-6, 6), st.integers(-2, 2)), max_size=4),
                st.booleans(),
            ),
            max_size=6,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_torus_sum_equals_left_fold(self, data):
        spec = make_spec(3, small_antisymmetric(4, random.Random(9)))
        xs = []
        for terms, cancel in data:
            x = TorusElement(spec, [(e, RootScalar({k: c})) for e, k, c in terms])
            xs += [x, -x] if cancel else [x]
        total = torus_sum(spec, iter(xs))
        assert total == reduce(add, xs, TorusElement.zero(spec))
        # the sum, coefficient by coefficient, with plain integer dictionaries
        expected = {}
        for x in xs:
            for e, c in x.terms.items():
                acc = expected.setdefault(e, {})
                for k, v in c.terms.items():
                    acc[k] = acc.get(k, 0) + v
        expected = {e: {k: v for k, v in acc.items() if v} for e, acc in expected.items()}
        assert {e: c.terms for e, c in total.terms.items()} == {e: acc for e, acc in expected.items() if acc}

    def test_torus_sum_rejects_a_foreign_spec(self, spec3):
        other = make_spec(3, [[0] * 4 for _ in range(4)])
        with pytest.raises(ValueError, match="spec mismatch"):
            torus_sum(spec3, [TorusElement.one(spec3), TorusElement.one(other)])

    def test_evaluate_matches_at_one(self, spec3):
        a = weyl_monomial(spec3, (3, -3, 6, 0)) + TorusElement.one(spec3)
        gens = [1.0, 1.0, 1.0, 1.0]
        total = sum(coeff for coeff in a.at_one().values())
        assert abs(evaluate_element(a, 1.0, gens) - total) < 1e-12


class TestMatrices:
    def test_identity_and_product(self, spec3):
        A = TorusMatrix(
            spec3,
            [
                [TorusElement.monomial(spec3, (1, 0, 0, 0)), TorusElement.zero(spec3)],
                [TorusElement.one(spec3), TorusElement.monomial(spec3, (0, 0, 1, 0))],
            ],
        )
        I = TorusMatrix.identity(spec3, 2)
        assert mat_mul(A, I) == A
        assert mat_mul(I, A) == A

    def test_transpose_involution(self, spec3):
        A = TorusMatrix(
            spec3,
            [
                [TorusElement.one(spec3), TorusElement.monomial(spec3, (0, 1, 0, 0))],
                [TorusElement.zero(spec3), TorusElement.one(spec3)],
            ],
        )
        assert A.transpose().transpose() == A

    def test_scalar_matrices_mix_with_torus_matrices(self, spec3):
        # spec=None holds plain scalars; products and equality cross rings
        S = TorusMatrix(None, [[RootScalar({2: 1}), 0], [3, RootScalar({-1: -1})]])
        embedded = TorusMatrix(spec3, S.entries)
        A = TorusMatrix(
            spec3,
            [
                [TorusElement.monomial(spec3, (1, 0, 0, 0)), TorusElement.one(spec3)],
                [TorusElement.zero(spec3), TorusElement.monomial(spec3, (0, 0, 1, 0))],
            ],
        )
        assert S == embedded and embedded == S
        assert mat_mul(S, A) == mat_mul(embedded, A)
        assert mat_mul(A, S) == mat_mul(A, embedded)
        assert kron(S, A) == kron(embedded, A)
        assert mat_mul(S, S) == mat_mul(embedded, embedded)
        assert mat_mul(S, TorusMatrix.identity(None, 2)) == S
        other = make_spec(3, [[0, 1], [-1, 0]])
        with pytest.raises(ValueError):
            mat_mul(A, TorusMatrix.identity(other, 2))
