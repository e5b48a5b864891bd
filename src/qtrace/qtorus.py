"""Exact arithmetic in quantum tori with n-th root generators.

Scalars are integer-coefficient Laurent polynomials in a formal variable h,
where h^(2*n^2) plays the role of q, h^(2*n) of q^(1/n), and h^2 of omega.
Every constant that appears in the constructions downstream is an integer
power of h, so all arithmetic is exact.

Torus elements are finite sums of normal-ordered monomials in generators
X_i^(1/n) that omega-commute according to an antisymmetric integer matrix P:

    X_i^(a/n) X_j^(b/n) = omega^(P[i][j]*a*b) X_j^(b/n) X_i^(a/n)

Monomial exponents are stored as integers in units of 1/n.  The canonical
form of an element is the increasing-index normal order, which makes
equality a dictionary comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from operator import mul
from struct import Struct
from typing import Iterable, Mapping


class RootScalar:
    """Laurent polynomial in h with integer coefficients.

    ``RootScalar({k: c, ...})`` is sum c h^k.  The constructor is the one
    place that drops zero coefficients; the operators accumulate and
    construct.
    """

    __slots__ = ("_t",)

    def __init__(self, terms: Mapping[int, int] | None = None):
        self._t = {k: c for k, c in terms.items() if c} if terms else {}

    @property
    def terms(self) -> dict[int, int]:
        return dict(self._t)

    def is_zero(self) -> bool:
        return not self._t

    def __add__(self, other):
        other = _as_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        t = dict(self._t)
        for k, c in other._t.items():
            t[k] = t.get(k, 0) + c
        return RootScalar(t)

    __radd__ = __add__

    def __neg__(self):
        return RootScalar({k: -c for k, c in self._t.items()})

    def __sub__(self, other):
        other = _as_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _as_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        t: dict[int, int] = {}
        for k1, c1 in self._t.items():
            for k2, c2 in other._t.items():
                k = k1 + k2
                t[k] = t.get(k, 0) + c1 * c2
        return RootScalar(t)

    __rmul__ = __mul__

    def inverse(self) -> "RootScalar":
        """Inverse, defined only for monomials with unit coefficient."""
        if len(self._t) != 1:
            raise ValueError("only h-monomials are invertible")
        ((k, c),) = self._t.items()
        if c not in (1, -1):
            raise ValueError("only unit coefficients are invertible")
        return RootScalar({-k: c})

    def __eq__(self, other):
        other = _as_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        return self._t == other._t

    def at_one(self) -> int:
        """Evaluate at h = 1."""
        return sum(self._t.values())

    def __repr__(self):
        if not self._t:
            return "0"
        parts = []
        for k in sorted(self._t):
            c = self._t[k]
            if k == 0:
                parts.append(str(c))
            elif c == 1:
                parts.append(f"h^{k}")
            elif c == -1:
                parts.append(f"-h^{k}")
            else:
                parts.append(f"{c}*h^{k}")
        return " + ".join(parts).replace("+ -", "- ")


def _as_scalar(x) -> RootScalar:
    if isinstance(x, RootScalar):
        return x
    if isinstance(x, int):
        return RootScalar({0: x})
    return NotImplemented


ZERO = RootScalar()
ONE = RootScalar({0: 1})


def q_power(n: int, num: int, den: int = 1, coeff: int = 1) -> RootScalar:
    """q^(num/den) as an exact power of h, for q = h^(2*n^2).

    Raises if the exponent 2*n^2*num/den is not an integer.
    """
    k2 = 2 * n * n * num
    if k2 % den:
        raise ValueError(f"q^({num}/{den}) is not an integer power of h")
    return RootScalar({k2 // den: coeff})


@dataclass(frozen=True)
class QuantumTorusSpec:
    """Root order n, generator count N and an antisymmetric N x N matrix
    P by its lower entries: lower[j] lists the pairs (i, P[j][i]) with
    P[j][i] != 0 and i < j, i increasing; the rest of P is their mirror."""

    n: int
    N: int
    lower: tuple
    names: tuple[str, ...] = ()

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("root order must be >= 2")
        if len(self.lower) != self.N:
            raise ValueError("lower must have N rows")
        for j, row in enumerate(self.lower):
            last = -1
            for i, p in row:
                if type(i) is not int or not last < i < j or type(p) is not int or not p:
                    raise ValueError(f"row {j} of lower must hold nonzero ints at increasing indices below {j}")
                last = i
        if self.names and len(self.names) != self.N:
            raise ValueError("names must match generator count")

    def name(self, i: int) -> str:
        return self.names[i] if self.names else f"X{i}"

    def ordering(self, e, f) -> int:
        """sum_{i<j} P[j][i] e_j f_i.

        Moving X_j^(e_j/n) right past X_i^(f_i/n) for i < j costs
        omega^(P[j][i] e_j f_i) = h^(2 P[j][i] e_j f_i), so X^e X^f =
        h^(2 ordering(e, f)) X^(e+f) in normal order, and the Weyl-ordered
        monomial [X^e] is h^ordering(e, e) X^e.
        """
        k = 0
        for ej, row in zip(e, self.lower):
            if ej:
                for i, p in row:
                    k += p * ej * f[i]
        return k


class TorusElement:
    """Sum of normal-ordered monomials with RootScalar coefficients.

    A monomial key e (length-N integer tuple) denotes
    X_0^(e[0]/n) X_1^(e[1]/n) ... multiplied in increasing index order.

    ``terms`` is a mapping or an iterable of (exponent tuple, RootScalar)
    pairs.  The constructor canonicalises: it adds up the coefficients of
    a repeated exponent, checks the length of each distinct exponent once
    and drops the zero sums.  It converts nothing.  ``product_sum``
    builds its result's terms canonical and sets them itself.

    Elements are immutable, so the packed forms that ``product_sum``
    reads (``_left_form``, ``_right_form`` and ``_column_form``) are built
    on first use and kept.
    """

    __slots__ = ("spec", "_terms", "_left", "_right", "_columns")

    def __init__(self, spec: QuantumTorusSpec, terms: Mapping[tuple, RootScalar] | Iterable[tuple] = ()):
        self.spec = spec
        sums: dict[tuple, RootScalar] = {}
        for e, c in terms.items() if hasattr(terms, "items") else terms:
            sums[e] = sums[e] + c if e in sums else c
        if any(len(e) != spec.N for e in sums):
            raise ValueError("monomial length mismatch")
        self._terms = {e: c for e, c in sums.items() if c._t}
        self._left = self._right = self._columns = None

    @property
    def terms(self) -> dict[tuple, RootScalar]:
        return dict(self._terms)

    @staticmethod
    def zero(spec) -> "TorusElement":
        return TorusElement(spec)

    @staticmethod
    def scalar(spec, c: RootScalar) -> "TorusElement":
        return TorusElement(spec, {(0,) * spec.N: c})

    @staticmethod
    def one(spec) -> "TorusElement":
        return TorusElement.scalar(spec, ONE)

    @staticmethod
    def monomial(spec, e, coeff: RootScalar = ONE) -> "TorusElement":
        return TorusElement(spec, {tuple(e): coeff})

    @staticmethod
    def generator(spec, i: int, num: int = None) -> "TorusElement":
        """X_i^(num/n); num defaults to n (a whole power)."""
        if num is None:
            num = spec.n
        e = [0] * spec.N
        e[i] = num
        return TorusElement.monomial(spec, e)

    def is_zero(self) -> bool:
        return not self._terms

    def _left_form(self):
        """(rows, largest ||u||_1) with one row (packed e, u, coefficient
        pairs) per term, where u_i = sum over j > i of P[j][i] e_j, so
        that spec.ordering(e, f) = u.f."""
        if self._left is None:
            N, lower = self.spec.N, self.spec.lower
            _largest_entry(self._terms)
            fields, bias = _packer(N)
            rows, norm = [], 0
            for e, c in self._terms.items():
                u = [0] * N
                for ej, row in zip(e, lower):
                    if ej:
                        for i, p in row:
                            u[i] += p * ej
                norm = max(norm, sum(map(abs, u)))
                rows.append((_pack(fields.pack(*e), bias), tuple(u), tuple(c._t.items())))
            self._left = (tuple(rows), norm)
        return self._left

    def _right_form(self):
        """(packed exponents, coefficient pairs, largest |f_i|), term by
        term."""
        if self._right is None:
            fs = tuple(self._terms)
            fmax = _largest_entry(fs)
            fields, bias = _packer(self.spec.N)
            packed = tuple(_pack(fields.pack(*f), bias) for f in fs)
            self._right = (packed, tuple(tuple(c._t.items()) for c in self._terms.values()), fmax)
        return self._right

    def _column_form(self):
        """One packed column per generator: column i holds every term's
        f_i, one field per term, in the order of ``_right_form``."""
        if self._columns is None:
            fs = tuple(self._terms)
            width, bias = 8 * len(fs), _packer(len(fs))[1]
            # the entries generator by generator, each over every term
            flat = Struct(f"<{len(fs) * self.spec.N}q").pack(*chain.from_iterable(zip(*fs)))
            self._columns = tuple([_pack(flat[k : k + width], bias) for k in range(0, len(flat), width)])
        return self._columns

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return TorusElement(self.spec, chain(self._terms.items(), other._terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return TorusElement(self.spec, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, RootScalar)):
            return TorusElement(self.spec, {e: c * other for e, c in self._terms.items()})
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return normal_product(self, other)

    __rmul__ = __mul__  # only scalars, which are central, reach it

    def _coerce(self, other):
        if isinstance(other, TorusElement):
            if other.spec is not self.spec and other.spec != self.spec:
                raise ValueError("torus spec mismatch")
            return other
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, (int, RootScalar)):
            other = TorusElement.scalar(self.spec, _as_scalar(other))
        if not isinstance(other, TorusElement):
            return NotImplemented
        return self.spec == other.spec and self._terms == other._terms

    def at_one(self) -> dict[tuple, int]:
        """Specialization h = 1: commutative monomial -> integer coefficient."""
        out = {}
        for e, c in self._terms.items():
            v = c.at_one()
            if v:
                out[e] = v
        return out

    def __repr__(self):
        if not self._terms:
            return "0"
        n = self.spec.n
        parts = []
        for e in sorted(self._terms):
            c = self._terms[e]
            factors = []
            for i, ei in enumerate(e):
                if ei:
                    factors.append(f"{self.spec.name(i)}^({ei}/{n})")
            body = "*".join(factors) if factors else "1"
            parts.append(f"({c!r})*{body}")
        return " + ".join(parts)


def torus_sum(spec: QuantumTorusSpec, elements: Iterable[TorusElement]) -> TorusElement:
    """Sum of torus elements over spec, built in one construction."""

    def items():
        for x in elements:
            if x.spec is not spec and x.spec != spec:
                raise ValueError("torus spec mismatch")
            yield from x._terms.items()

    return TorusElement(spec, items())


@lru_cache(maxsize=256)
def _packer(count):
    """The struct of count signed little-endian 64-bit fields, and the
    bias with 2^63 in every field.

    A packed vector is the one integer sum of v_i 2^(64 i), so packed
    vectors add fieldwise while every field stays inside its 64 bits."""
    return Struct(f"<{count}q"), int.from_bytes((b"\0" * 7 + b"\x80") * count, "little")


def _pack(data: bytes, bias: int) -> int:
    """The packed vector of the signed fields in data."""
    return (int.from_bytes(data, "little") ^ bias) - bias


def _unpack(biased: int, fields: Struct, bias: int) -> tuple:
    """The fields of a packed vector given plus the bias, under which
    every field is nonnegative and so borrows nothing from the next."""
    return fields.unpack((biased ^ bias).to_bytes(fields.size, "little"))


def _largest_entry(vectors) -> int:
    """The largest |v_i| over the vectors.  An exponent entry must stay
    below 2^62, so that the sum of two exponents fits its field."""
    m = max(map(abs, chain.from_iterable(vectors)), default=0)
    if m >= 1 << 62:
        raise ValueError(f"exponent entry {m} reaches 2^62")
    return m


def normal_product(a: TorusElement, b: TorusElement) -> TorusElement:
    """Product in the quantum torus, returned in canonical normal order:
    ``product_sum`` of the one pair (ONE, a, b), but a zero factor is
    returned as it is."""
    if a.spec is not b.spec and a.spec != b.spec:
        raise ValueError("torus spec mismatch")
    if not a._terms or not b._terms:
        return b if a._terms else a
    return product_sum(a.spec, ((ONE, a, b),))


def product_sum(spec: QuantumTorusSpec, triples: Iterable[tuple]) -> TorusElement:
    """The sum of s a b over the triples (s, a, b), s a RootScalar and a,
    b TorusElements over spec, built as one element.

    X^e X^f = h^(2 u.f) X^(e+f) with u the ordering row of e.  One
    big-integer pass K = sum_i u_i column_i over b's packed columns gives
    a left term's orderings against every right term at once; a product
    exponent is the sum of two packed exponents.  Every pair adds into
    one {packed exponent: {h: int}} table, whose keys are distinct, so a
    sum that cancels is dropped before any exponent is unpacked and the
    terms are canonical as built.  A factor over another spec, or an
    ordering that might not fit in 63 bits, raises ValueError."""
    sums: dict[int, dict[int, int]] = {}
    for s, a, b in triples:
        if a.spec is not spec and a.spec != spec or b.spec is not spec and b.spec != spec:
            raise ValueError("torus spec mismatch")
        if not a._terms or not b._terms:
            continue
        rows, norm = a._left_form()
        fs, cfs, fmax = b._right_form()
        if norm * fmax >= 1 << 63:
            raise ValueError(f"ordering bound {norm} * {fmax} does not fit in 63 bits")
        if s._t != ONE._t:
            rows = [(pe, u, tuple((h1 + h, c1 * c) for h1, c1 in ce for h, c in s._t.items())) for pe, u, ce in rows]
        # all orderings are 0 when every left row u is, as for the unit
        columns = b._column_form() if norm else ()
        fields, bias = _packer(len(fs))
        for pe, u, ce in rows:
            for pf, cf, k in zip(fs, cfs, _unpack(sum(map(mul, u, columns), bias), fields, bias)):
                key = pe + pf
                acc = sums.get(key)
                if acc is None:
                    acc = sums[key] = {}
                k *= 2
                for h1, c1 in ce:
                    h1 += k
                    for h2, c2 in cf:
                        acc[h1 + h2] = acc.get(h1 + h2, 0) + c1 * c2
    fields, bias = _packer(spec.N)
    out = TorusElement(spec)
    out._terms = {_unpack(key + bias, fields, bias): c for key, t in sums.items() if (c := RootScalar(t))._t}
    return out


def weyl_monomial(spec: QuantumTorusSpec, e: tuple, coeff: RootScalar = ONE) -> TorusElement:
    """Weyl ordering of the commutative monomial X^e, times coeff."""
    return TorusElement(spec, {e: coeff * RootScalar({spec.ordering(e, e): 1})})


def weyl_lift(commutative_terms: Mapping[tuple, int], spec: QuantumTorusSpec) -> TorusElement:
    """Weyl-lift a commutative polynomial term by term."""
    return torus_sum(spec, (weyl_monomial(spec, e, RootScalar({0: c})) for e, c in commutative_terms.items()))


class TorusMatrix:
    """Rectangular matrix, left-to-right products, over one of two rings.

    With spec=None the entries are RootScalars in Z[h, h^-1]; otherwise
    they are TorusElements over spec.  Sums, products, Kronecker products
    and equality work across the two rings: a scalar entry adds as a
    constant element, and multiplies and compares with a torus entry
    directly.  Entries are stored as given, so every builder and
    operation makes them in the matrix's ring.
    """

    __slots__ = ("spec", "rows", "cols", "entries")

    def __init__(self, spec: QuantumTorusSpec | None, entries):
        self.spec = spec
        self.entries = tuple(map(tuple, entries))
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.entries else 0
        if any(len(r) != self.cols for r in self.entries):
            raise ValueError("ragged matrix")

    @staticmethod
    def identity(spec, size: int) -> "TorusMatrix":
        one, zero = (ONE, ZERO) if spec is None else (TorusElement.one(spec), TorusElement.zero(spec))
        return TorusMatrix(spec, [[one if i == j else zero for j in range(size)] for i in range(size)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __mul__(self, other):
        if isinstance(other, (int, RootScalar)):
            return self.map(lambda x: x * other)
        return NotImplemented

    def __add__(self, other):
        if not isinstance(other, TorusMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        spec = _common_spec(self, other)
        embed = lambda M: M.entries if M.spec == spec else [[TorusElement.scalar(spec, x) for x in row] for row in M.entries]
        return TorusMatrix(spec, [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(embed(self), embed(other))])

    def __sub__(self, other):
        return self + other.map(lambda x: -x)

    def map(self, f) -> "TorusMatrix":
        return TorusMatrix(self.spec, [[f(x) for x in row] for row in self.entries])

    def transpose(self) -> "TorusMatrix":
        return TorusMatrix(self.spec, [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)])

    def __eq__(self, other):
        if not isinstance(other, TorusMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and self.entries == other.entries

    __hash__ = None  # equal matrices over the two rings hold entries of different types

    def __repr__(self):
        return "TorusMatrix([\n" + "\n".join("  [" + ", ".join(repr(x) for x in row) + "]," for row in self.entries) + "\n])"


def _common_spec(A: TorusMatrix, B: TorusMatrix) -> QuantumTorusSpec | None:
    """The ring of a product or sum: the torus if either factor has one."""
    if A.spec is None:
        return B.spec
    if B.spec is not None and B.spec != A.spec:
        raise ValueError("torus spec mismatch")
    return A.spec


def mat_mul(A: TorusMatrix, B: TorusMatrix) -> TorusMatrix:
    """Noncommutative matrix product, factor order A then B.  A torus entry
    is built once: a ``product_sum`` over k when both factors are torus
    matrices, the scaled terms when one is a scalar matrix."""
    spec = _common_spec(A, B)
    if A.cols != B.rows:
        raise ValueError("dimension mismatch")

    def entry(row, col):
        if spec is None:
            return sum((a * b for a, b in zip(row, col) if a._t and b._t), ZERO)
        if A.spec is not None and B.spec is not None:
            return product_sum(spec, [(ONE, a, b) for a, b in zip(row, col)])
        pairs = zip(row, col) if A.spec is None else zip(col, row)  # (scalar, element)
        return TorusElement(spec, ((e, c * s) for s, x in pairs if s._t for e, c in x._terms.items()))

    b_cols = tuple(zip(*B.entries))
    return TorusMatrix(spec, [[entry(row, col) for col in b_cols] for row in A.entries])


def kron(A: TorusMatrix, B: TorusMatrix) -> TorusMatrix:
    """Kronecker product; pair indices ordered with the second factor fastest."""
    spec = _common_spec(A, B)
    out = []
    for i1 in range(A.rows):
        for i2 in range(B.rows):
            row = []
            for j1 in range(A.cols):
                a = A.entries[i1][j1]
                for j2 in range(B.cols):
                    row.append(a * B.entries[i2][j2])
            out.append(row)
    return TorusMatrix(spec, out)
