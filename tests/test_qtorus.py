"""Quantum torus arithmetic: scalars, canonical forms, Weyl ordering."""

import random
from functools import reduce
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from qtrace.qtorus import (
    ONE,
    ZERO,
    QuantumTorusSpec,
    RootScalar,
    TorusElement,
    TorusMatrix,
    kron,
    mat_mul,
    normal_product,
    product_sum,
    q_power,
    torus_sum,
    weyl_monomial,
)
from qtrace.biangle import CROSSING_KINDS, crossing_matrix, duality_map_matrix, duality_parameter, uturn_matrix
from qtrace.fock_goncharov import triangle_poisson
from qtrace.surface import arc_quantum_matrix

import oracles
from oracles import evaluate_element, evaluate_scalar, make_spec, map_exponents, plain_normal_product, weyl_order


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


def dense_form(P, x, y):
    """B(x, y) = sum_{i<j} P[j][i] x_j y_i, computed with a dense loop."""
    return sum(P[j][i] * x[j] * y[i] for j in range(4) for i in range(j))


class TestSpec:
    """A spec is its lower form; the constructor checks each entry once."""

    @pytest.mark.parametrize(
        "lower,message",
        [
            (((), ((1, 2),), ()), "row 1"),  # i = j
            (((), ((0, 1),), ((3, 1),)), "row 2"),  # i > j
            (((), (), ((1, 1), (0, 2))), "row 2"),  # i out of order
            (((), (), ((0, 1), (0, 2))), "row 2"),  # i repeated
            (((), (), ((-1, 1),)), "row 2"),  # i negative
            (((), ((0, 0),), ()), "row 1"),  # a zero entry
            (((), ((0, 1.0),), ()), "row 1"),  # a float entry
            (((), ((0, "1"),), ()), "row 1"),  # a string entry
            (((), (), ((0, True),)), "row 2"),  # a bool entry
            (((), ((0.0, 1),), ()), "row 1"),  # a float index
            (((), ((0, 1),)), "N rows"),  # a row short
        ],
    )
    def test_malformed_lower_rows_are_rejected(self, lower, message):
        with pytest.raises(ValueError, match=message):
            QuantumTorusSpec(n=3, N=3, lower=lower)

    @pytest.mark.parametrize("names", [("a", "b"), ("a", "b", "c", "d")])
    def test_names_of_the_wrong_length_are_rejected(self, names):
        with pytest.raises(ValueError, match="names"):
            QuantumTorusSpec(n=3, N=3, lower=((), ((0, 1),), ()), names=names)

    def test_root_order_below_two_is_rejected(self):
        with pytest.raises(ValueError, match="root order"):
            QuantumTorusSpec(n=1, N=1, lower=((),))

    @given(P=st.lists(st.integers(-2, 2), min_size=6, max_size=6).map(antisymmetric_from_upper))
    @settings(max_examples=40, deadline=None)
    def test_dense_round_trip(self, P):
        spec = make_spec(3, P, "abcd")
        assert oracles.dense_form(spec) == P
        assert spec == QuantumTorusSpec(3, 4, spec.lower, tuple("abcd"))
        assert all(p for row in spec.lower for _, p in row)

    @pytest.mark.parametrize(
        "P,message",
        [
            ([[0, 1], [-1, 0], [0, 0]], "N x N"),
            ([[0, 1, 0], [-1, 0]], "N x N"),
            ([[1, 0], [0, 0]], "zero diagonal"),
            ([[0, 1], [1, 0]], "antisymmetric"),
        ],
    )
    def test_dense_oracle_checks_its_matrix(self, P, message):
        with pytest.raises(ValueError, match=message):
            make_spec(3, P)


class TestWeylBasis:
    @given(P=forms, e=exponents, f=exponents)
    @settings(max_examples=80, deadline=None)
    def test_ordering_form_matches_dense_oracle(self, P, e, f):
        def B(x, y):
            return dense_form(P, x, y)

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
        P = oracles.dense_form(spec)
        pairing = sum(
            e[i] * P[i][j] * f[j] for i in range(4) for j in range(4)
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
        P = oracles.dense_form(spec)
        pairing = sum(
            e[i] * P[i][j] * f[j] for i in range(4) for j in range(4)
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


# up to four (exponent, Laurent coefficient) pairs on a small exponent grid,
# so that several pairs of a product land on one exponent
small_exponents = st.tuples(*(st.integers(-1, 1) for _ in range(4)))
factors = st.one_of(
    st.lists(st.tuples(small_exponents, laurent), max_size=4),
    # each pair and its negative: coefficients that cancel to the zero element
    st.lists(st.tuples(small_exponents, laurent), min_size=1, max_size=2).map(
        lambda pairs: pairs + [(e, {k: -c for k, c in x.items()}) for e, x in pairs]
    ),
)


# exponents base + d for one drawn base vector and offsets d on a small
# grid, so that the exponents of a product of two such factors collide
grid = st.tuples(*(st.integers(-2, 2) for _ in range(4)))
coefficients = st.one_of(
    st.tuples(st.integers(-6, 6), st.sampled_from([1, -1, 3])).map(lambda kc: {kc[0]: kc[1]}),
    st.dictionaries(st.integers(-6, 6), st.integers(-3, 3).filter(bool), min_size=2, max_size=4),
)


def big_vectors(bits):
    return st.tuples(*(st.integers(-(1 << bits), 1 << bits) for _ in range(4)))


@st.composite
def packed_factors(draw, bits, max_terms):
    base = draw(big_vectors(bits))
    size = draw(st.integers(1, max_terms))
    offsets = draw(st.lists(grid, min_size=size, max_size=size, unique=True))
    return [(tuple(map(add, base, d)), draw(coefficients)) for d in offsets]


class TestElements:
    @given(P=forms, data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_normal_product_matches_plain_dict_oracle(self, P, data):
        if data.draw(st.booleans()):
            x, y = data.draw(factors), data.draw(factors)
        else:
            # (X^e - X^f)(h^k X^e + X^f) with k = 2B(e, f) - 2B(f, e): the
            # two pairs that land on e + f cancel
            e, f = data.draw(small_exponents), data.draw(small_exponents)
            k = 2 * dense_form(P, e, f) - 2 * dense_form(P, f, e)
            x, y = [(e, {0: 1}), (f, {0: -1})], [(e, {k: 1}), (f, {0: 1})]
        # X^e X^f = h^(2 B(e, f)) X^(e+f), summed over plain dictionaries
        expected = {}
        for e, c in x:
            for f, d in y:
                acc = expected.setdefault(tuple(map(add, e, f)), {})
                for k, v in plain_product(c, d).items():
                    k += 2 * dense_form(P, e, f)
                    acc[k] = acc.get(k, 0) + v
        expected = {e: {k: v for k, v in acc.items() if v} for e, acc in expected.items()}
        spec = make_spec(3, P)
        a = TorusElement(spec, [(e, RootScalar(c)) for e, c in x])
        b = TorusElement(spec, [(f, RootScalar(d)) for f, d in y])
        product = normal_product(a, b)
        assert {e: c.terms for e, c in product.terms.items()} == {e: acc for e, acc in expected.items() if acc}

    @given(P=forms, data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_packed_product_at_scale_matches_plain_dict_oracle(self, P, data):
        # Exponents up to 2^40 against ones up to 2^18, or both up to 2^29:
        # every ordering stays below 12 * 2^58, inside its 63 bits.  The
        # right factors span up to 70 fields per packed column.
        bits_a, bits_b = data.draw(st.sampled_from([(40, 18), (18, 40), (29, 29), (0, 0)]))
        cancelled = None
        if data.draw(st.booleans()):
            x, y = data.draw(packed_factors(bits_a, 6)), data.draw(packed_factors(bits_b, 70))
        else:
            # (X^e - X^f)(h^k X^e + X^f) with k = 2B(e, f) - 2B(f, e): the
            # two pairs that land on e + f cancel
            bits_a = bits_b = min(bits_a, bits_b)
            base = data.draw(big_vectors(bits_a))
            e, f = (tuple(map(add, base, data.draw(grid))) for _ in range(2))
            k = 2 * dense_form(P, e, f) - 2 * dense_form(P, f, e)
            x, y = [(e, {0: 1}), (f, {0: -1})], [(e, {k: 1}), (f, {0: 1})]
            cancelled = tuple(map(add, e, f)) if e != f else None
        spec = make_spec(3, P)
        a = TorusElement(spec, [(e, RootScalar(c)) for e, c in x])
        b = TorusElement(spec, [(f, RootScalar(d)) for f, d in y])
        expected = plain_normal_product(a, b)
        assert cancelled not in expected.terms
        # the second product reads the packed forms the first one kept
        assert normal_product(a, b) == expected
        assert normal_product(a, b) == expected
        assert normal_product(b, a) == plain_normal_product(b, a)
        if bits_a == bits_b:
            assert normal_product(a, a) == plain_normal_product(a, a)

    def test_zero_factor_gives_zero(self, spec3):
        a = TorusElement.monomial(spec3, (1, -2, 0, 3), RootScalar({1: 2}))
        zero = TorusElement.zero(spec3)
        for x, y in [(a, zero), (zero, a), (zero, zero)]:
            product = normal_product(x, y)
            assert product.is_zero() and product.spec is spec3
        assert normal_product(a, a - a).is_zero()

    def test_exponent_at_2_62_raises(self, spec3):
        one = TorusElement.one(spec3)
        for v in (1 << 62, -(1 << 62)):
            big = TorusElement.monomial(spec3, (0, v, 0, 0))
            for x, y in [(big, one), (one, big)]:
                with pytest.raises(ValueError, match="2\\^62"):
                    normal_product(x, y)
        below = TorusElement.monomial(spec3, (0, (1 << 62) - 1, 0, 0))
        assert normal_product(below, one) == below and normal_product(one, below) == below

    def test_ordering_beyond_63_bits_raises(self):
        # X_1^(s/3) X_0^(t/3) = h^(-2 s t) X_0^(t/3) X_1^(s/3)
        spec = make_spec(3, [[0, 1], [-1, 0]])

        def product(s, t):
            return normal_product(TorusElement.monomial(spec, (0, s)), TorusElement.monomial(spec, (t, 0)))

        assert product(1 << 31, 1 << 31) == TorusElement.monomial(spec, (1 << 31, 1 << 31), RootScalar({-(1 << 63): 1}))
        # orderings of -2^64, 2^64 and -2^80 would wrap to 0 in a 64-bit field
        for s, t in [(1 << 33, 1 << 31), (-(1 << 32), 1 << 32), (1 << 40, 1 << 40)]:
            with pytest.raises(ValueError, match="63 bits"):
                product(s, t)

    @given(P=forms, data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_product_sum_equals_the_fold_of_plain_products(self, P, data):
        # factors may be zero, scalars the unit, zero or anything, and each
        # cancelled triple (s, a, b) comes with (-s, a, b)
        spec = make_spec(3, P)
        elements = factors.map(lambda x: TorusElement(spec, [(e, RootScalar(c)) for e, c in x]))
        triple = st.tuples(st.one_of(st.just(ONE), laurent.map(RootScalar)), elements, elements)
        kept = data.draw(st.lists(triple, max_size=4))
        cancelled = [t for s, a, b in data.draw(st.lists(triple, min_size=1, max_size=3)) for t in [(s, a, b), (-s, a, b)]]
        assert product_sum(spec, iter(cancelled)).is_zero()
        triples = data.draw(st.permutations(kept + cancelled))
        total = product_sum(spec, iter(triples))
        assert total.spec is spec
        assert total == reduce(add, (plain_normal_product(a, b) * s for s, a, b in kept), TorusElement.zero(spec))

    def test_product_sum_checks_what_normal_product_checks(self, spec3):
        other = make_spec(3, [[0] * 4 for _ in range(4)])
        one, zero = TorusElement.one(spec3), TorusElement.zero(spec3)
        # a foreign factor raises even where the other factor is zero
        for foreign in (TorusElement.one(other), TorusElement.zero(other)):
            for pair in [(zero, foreign), (foreign, one)]:
                with pytest.raises(ValueError, match="spec mismatch"):
                    normal_product(*pair)
                with pytest.raises(ValueError, match="spec mismatch"):
                    product_sum(spec3, [(ONE, one, one), (ONE, *pair)])
        spec = make_spec(3, [[0, 1], [-1, 0]])
        x, y = TorusElement.monomial(spec, (0, 1 << 33)), TorusElement.monomial(spec, (1 << 31, 0))
        for scale in (ONE, RootScalar({1: 2, 0: -1})):
            with pytest.raises(ValueError, match="63 bits"):
                product_sum(spec, [(ONE, y, x), (scale, x, y)])
        big = TorusElement.monomial(spec3, (0, 1 << 62, 0, 0))
        with pytest.raises(ValueError, match="2\\^62"):
            product_sum(spec3, [(ONE, one, big)])

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
        big = make_spec(3, [row + [0, 0] for row in oracles.dense_form(spec3)] + [[0] * 6, [0] * 6])
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


def sparse_matrices(spec, torus, rows, cols):
    """Matrices over spec (torus) or the scalars, about half of whose
    entries are zero; a drawn torus entry may also sum to zero."""
    if torus:
        nonzero = st.lists(st.tuples(exponents, st.integers(-4, 4), st.integers(-2, 2)), min_size=1, max_size=2).map(
            lambda terms: TorusElement(spec, [(e, RootScalar({k: c})) for e, k, c in terms])
        )
    else:
        nonzero = laurent.map(RootScalar)
    entry = st.one_of(st.just(TorusElement.zero(spec) if torus else ZERO), nonzero)
    row = st.lists(entry, min_size=cols, max_size=cols)
    return st.lists(row, min_size=rows, max_size=rows).map(lambda m: TorusMatrix(spec if torus else None, m))


def in_ring(M, spec):
    """M is over spec, and holds RootScalars when spec is None and
    TorusElements over spec otherwise."""
    if M.spec != spec:
        return False
    entries = [x for row in M.entries for x in row]
    if spec is None:
        return all(type(x) is RootScalar for x in entries)
    return all(type(x) is TorusElement and x.spec == spec for x in entries)


class TestMatrices:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_every_operation_keeps_its_ring(self, data):
        # the constructor stores what it is given, so each operation must
        # build its entries in the ring of its result
        spec = make_spec(3, small_antisymmetric(4, random.Random(9)))
        rows, inner, cols = (data.draw(st.integers(1, 3)) for _ in range(3))
        torus_a, torus_b = data.draw(st.booleans()), data.draw(st.booleans())
        ring_a, ring = (spec if torus_a else None), (spec if torus_a or torus_b else None)
        A, A2 = (data.draw(sparse_matrices(spec, torus_a, rows, inner)) for _ in range(2))
        B = data.draw(sparse_matrices(spec, torus_b, inner, cols))
        B2 = data.draw(sparse_matrices(spec, torus_b, rows, inner))
        c = data.draw(st.one_of(st.integers(-3, 3), laurent.map(RootScalar)))
        assert in_ring(A, ring_a) and in_ring(B, spec if torus_b else None)
        results = {
            "mat_mul": (mat_mul(A, B), ring),
            "kron": (kron(A, B), ring),
            "transpose": (A.transpose(), ring_a),
            "map": (A.map(lambda x: -x), ring_a),
            "+": (A + A2, ring_a),
            "-": (A - A2, ring_a),
            "mixed +": (A + B2, ring),
            "mixed -": (B2 - A, ring),
            "* scalar": (A * c, ring_a),
            "identity": (TorusMatrix.identity(ring_a, rows), ring_a),
        }
        for name, (M, expected) in results.items():
            assert in_ring(M, expected), name

    def test_a_scalar_matrix_adds_as_constant_elements(self, spec3):
        S, T = TorusMatrix.identity(None, 2), TorusMatrix.identity(spec3, 2)
        x = TorusElement.monomial(spec3, (1, -2, 0, 3))
        U = TorusMatrix(spec3, [[x, TorusElement.zero(spec3)], [TorusElement.one(spec3), -x]])
        one = TorusElement.one(spec3)
        assert S + T == T + S == T * 2
        assert S + U == U + S == TorusMatrix(spec3, [[x + one, U[0, 1]], [U[1, 0], one - x]])
        assert S - U == (U - S) * -1 and in_ring(S - U, spec3)

    def test_a_torus_factor_does_not_scale_a_matrix(self, spec3):
        # it would leave torus entries in a scalar matrix
        with pytest.raises(TypeError):
            TorusMatrix.identity(None, 2) * TorusElement.one(spec3)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_the_matrix_builders_build_in_their_ring(self, n):
        lam = duality_parameter(n)
        scalar = [uturn_matrix(kind, n) for kind in ("dec_cw", "dec_ccw", "inc_ccw", "inc_cw")]
        scalar += [crossing_matrix(kind, n) for kind in CROSSING_KINDS]
        scalar += [duality_map_matrix(n, which, lam) for which in ("b", "d", "bp", "dp")]
        assert len(scalar) == 16 and all(in_ring(M, None) for M in scalar)
        tri = triangle_poisson(n)
        for entry in (0, 1, 2):
            for turn in ("left", "right"):
                assert in_ring(arc_quantum_matrix(tri, entry, turn), tri.spec), (entry, turn)

    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_product_matches_entrywise_definition(self, data):
        spec = make_spec(3, small_antisymmetric(4, random.Random(9)))
        rows, inner, cols = (data.draw(st.integers(1, 4)) for _ in range(3))
        torus_a, torus_b = data.draw(st.booleans()), data.draw(st.booleans())
        A = data.draw(sparse_matrices(spec, torus_a, rows, inner))
        B = data.draw(sparse_matrices(spec, torus_b, inner, cols))
        ring = spec if torus_a or torus_b else None
        zero = ZERO if ring is None else TorusElement.zero(spec)
        expected = [
            [reduce(add, (A[i, k] * B[k, j] for k in range(inner)), zero) for j in range(cols)]
            for i in range(rows)
        ]
        product = mat_mul(A, B)
        assert product.spec is ring
        assert product == TorusMatrix(ring, expected)

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
        S = TorusMatrix(None, [[RootScalar({2: 1}), ZERO], [RootScalar({0: 3}), RootScalar({-1: -1})]])
        embedded = TorusMatrix(spec3, [[TorusElement.scalar(spec3, x) for x in row] for row in S.entries])
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
