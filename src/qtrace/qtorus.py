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

from dataclasses import dataclass, field
from itertools import chain
from operator import add, mul
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
    """Root order n, generator count N, antisymmetric N x N matrix P."""

    n: int
    N: int
    P: tuple[tuple[int, ...], ...]
    names: tuple[str, ...] = ()
    # lower[j] lists the pairs (i, P[j][i]) with i < j and P[j][i] != 0
    lower: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("root order must be >= 2")
        if len(self.P) != self.N or any(len(row) != self.N for row in self.P):
            raise ValueError("P must be N x N")
        for i in range(self.N):
            if self.P[i][i] != 0:
                raise ValueError("P must have zero diagonal")
            for j in range(i):
                if self.P[i][j] != -self.P[j][i]:
                    raise ValueError("P must be antisymmetric")
        if self.names and len(self.names) != self.N:
            raise ValueError("names must match generator count")
        lower = tuple(tuple((i, p) for i, p in enumerate(row[:j]) if p) for j, row in enumerate(self.P))
        object.__setattr__(self, "lower", lower)

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


def make_spec(n: int, P: Iterable[Iterable[int]], names: Iterable[str] = ()) -> QuantumTorusSpec:
    P = tuple(tuple(int(x) for x in row) for row in P)
    return QuantumTorusSpec(n=n, N=len(P), P=P, names=tuple(names))


class TorusElement:
    """Sum of normal-ordered monomials with RootScalar coefficients.

    A monomial key e (length-N integer tuple) denotes
    X_0^(e[0]/n) X_1^(e[1]/n) ... multiplied in increasing index order.

    ``terms`` is a mapping or an iterable of (exponent tuple, RootScalar)
    pairs.  The constructor is the one place that canonicalises: it adds
    up the coefficients of a repeated exponent, checks the length of each
    distinct exponent once and drops the zero sums.  It converts nothing.
    """

    __slots__ = ("spec", "_terms")

    def __init__(self, spec: QuantumTorusSpec, terms: Mapping[tuple, RootScalar] | Iterable[tuple] = ()):
        self.spec = spec
        sums: dict[tuple, RootScalar] = {}
        for e, c in terms.items() if hasattr(terms, "items") else terms:
            sums[e] = sums[e] + c if e in sums else c
        if any(len(e) != spec.N for e in sums):
            raise ValueError("monomial length mismatch")
        self._terms = {e: c for e, c in sums.items() if c._t}

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


def normal_product(a: TorusElement, b: TorusElement) -> TorusElement:
    """Product in the quantum torus, returned in canonical normal order.
    Each product exponent sums its coefficient in one plain {h: int} dict."""
    if a.spec is not b.spec and a.spec != b.spec:
        raise ValueError("torus spec mismatch")
    spec = a.spec
    right = [(f, cf._t.items()) for f, cf in b._terms.items()]
    sums: dict[tuple, dict[int, int]] = {}
    for e, ce in a._terms.items():
        # spec.ordering(e, f) == sum(map(mul, u, f)) for every f
        u = [0] * spec.N
        for ej, row in zip(e, spec.lower):
            if ej:
                for i, p in row:
                    u[i] += p * ej
        left = ce._t.items()
        for f, cf in right:
            k = 2 * sum(map(mul, u, f))
            acc = sums.setdefault(tuple(map(add, e, f)), {})
            for h1, c1 in left:
                h1 += k
                for h2, c2 in cf:
                    acc[h1 + h2] = acc.get(h1 + h2, 0) + c1 * c2
    return TorusElement(spec, {e: RootScalar(t) for e, t in sums.items()})


def weyl_monomial(spec: QuantumTorusSpec, e: tuple, coeff: RootScalar = ONE) -> TorusElement:
    """Weyl ordering of the commutative monomial X^e, times coeff."""
    return TorusElement(spec, {e: coeff * RootScalar({spec.ordering(e, e): 1})})


def weyl_lift(commutative_terms: Mapping[tuple, int], spec: QuantumTorusSpec) -> TorusElement:
    """Weyl-lift a commutative polynomial term by term."""
    return torus_sum(spec, (weyl_monomial(spec, e, RootScalar({0: c})) for e, c in commutative_terms.items()))


class TorusMatrix:
    """Rectangular matrix, left-to-right products, over one of two rings.

    With spec=None the entries are RootScalars in Z[h, h^-1]; otherwise
    they are TorusElements over spec.  Products, Kronecker products and
    equality work across the two rings: a scalar entry multiplies and
    compares with a torus entry directly.
    """

    __slots__ = ("spec", "rows", "cols", "entries")

    def __init__(self, spec: QuantumTorusSpec | None, entries):
        rows = []
        for row in entries:
            r = []
            for x in row:
                if isinstance(x, int):
                    x = RootScalar({0: x})
                if spec is None:
                    if not isinstance(x, RootScalar):
                        raise ValueError("scalar matrix entries must be scalars")
                elif isinstance(x, RootScalar):
                    x = TorusElement.scalar(spec, x)
                elif x.spec is not spec and x.spec != spec:
                    raise ValueError("entry spec mismatch")
                r.append(x)
            rows.append(tuple(r))
        self.spec = spec
        self.entries = tuple(rows)
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.entries else 0
        if any(len(r) != self.cols for r in self.entries):
            raise ValueError("ragged matrix")

    @staticmethod
    def identity(spec, size: int) -> "TorusMatrix":
        return TorusMatrix(spec, [[ONE if i == j else ZERO for j in range(size)] for i in range(size)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __mul__(self, other):
        if isinstance(other, (int, RootScalar, TorusElement)):
            return self.map(lambda x: x * other)
        return NotImplemented

    def __add__(self, other):
        if not isinstance(other, TorusMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return TorusMatrix(
            _common_spec(self, other),
            [[self.entries[i][j] + other.entries[i][j] for j in range(self.cols)] for i in range(self.rows)],
        )

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
    """Noncommutative matrix product, factor order A then B."""
    spec = _common_spec(A, B)
    if A.cols != B.rows:
        raise ValueError("dimension mismatch")
    zero = ZERO if spec is None else TorusElement.zero(spec)
    b_rows = [[(j, b) for j, b in enumerate(row) if not b.is_zero()] for row in B.entries]
    out = []
    for a_row in A.entries:
        row = [zero] * B.cols
        for a, b_row in zip(a_row, b_rows):
            if a.is_zero():
                continue
            for j, b in b_row:
                row[j] = row[j] + a * b
        out.append(row)
    return TorusMatrix(spec, out)


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
