"""Scalar matrices and state sums for tangles in a thickened biangle.

A biangle is the square region inserted between two triangles when an
ideal edge of the triangulation is split.  For a link in good position
all crossings, U-turns and kinks live inside thickened biangles, where
they evaluate to scalars (Laurent polynomials in the root variable h)
through explicit U-turn and crossing matrices.

Matrix display convention: lower indices label the incoming (left)
boundary of the biangle and index rows; index pairs are ordered
(bottom strand, top strand) with the top index varying fastest.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from math import gcd, prod

from .qtorus import ONE, ZERO, RootScalar, TorusMatrix, q_power


CROSSING_KINDS = tuple(
    "%s_%s_to_%s" % (sign, direction, over)
    for sign in ("pos", "neg")
    for direction in ("same", "opp")
    for over in ("lower", "higher")
)


def coribbon(n: int) -> RootScalar:
    """The scalar controlling kinks and U-turn variants.

    Equals (-1)^(n-1) q^((1-n^2)/n), an integer power of h.
    """
    return q_power(n, 1 - n * n, n, (-1) ** (n - 1))


def quantum_integer(n: int) -> RootScalar:
    """[n]_q = (q^n - q^-n)/(q - q^-1) = sum_{k=1..n} q^(2k-n-1)."""
    return sum((q_power(n, 2 * k - n - 1) for k in range(1, n + 1)), ZERO)


def unknot_value(n: int) -> RootScalar:
    """Value of a contractible untwisted unknot: (-1)^(n-1) [n]_q."""
    return RootScalar({0: (-1) ** (n - 1)}) * quantum_integer(n)


def duality_parameter(n: int, sign: int = 1) -> RootScalar:
    """The duality scale q^((1-n)/2n) = sqrt-coribbon * q^((n-1)/2)."""
    return q_power(n, 1 - n, 2 * n, sign)


def uturn_core(n: int, lam: RootScalar | None = None) -> TorusMatrix:
    """The n x n antidiagonal U-turn matrix with scale lam.

    Entry (i, j) (1-based) is lam * (-q)^(i-n) when i = n - j + 1,
    so adjacent antidiagonal entries differ by a ratio of -q, ending
    with +lam * q^... at the bottom-left.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if lam is None:
        lam = duality_parameter(n)
    rows = [[ZERO] * n for _ in range(n)]
    for i in range(1, n + 1):
        rows[i - 1][n - i] = lam * q_power(n, i - n, coeff=(-1) ** ((i - n) % 2))
    return TorusMatrix(None, rows)


def uturn_matrix(kind: str, n: int) -> TorusMatrix:
    """The four biangle U-turn matrices.

    dec_cw -> U, dec_ccw -> coribbon^-1 U, inc_ccw -> U^T,
    inc_cw -> coribbon^-1 U^T.  A dec_* matrix is indexed by the
    (top, bottom) strand states of the turn, an inc_* one by
    (bottom, top).
    """
    base = uturn_core(n)
    zinv = coribbon(n).inverse()
    if kind == "dec_cw":
        return base
    if kind == "dec_ccw":
        return base * zinv
    if kind == "inc_ccw":
        return base.transpose()
    if kind == "inc_cw":
        return base.transpose() * zinv
    raise ValueError("unknown U-turn kind: %r" % (kind,))


def _flat(n: int, i: int, j: int) -> int:
    """Pair index (i, j), 1-based entries, second index fastest."""
    return (i - 1) * n + (j - 1)


def _braiding(n: int) -> TorusMatrix:
    """C_same, the inverse braiding on two defining factors, rows =
    incoming pair: q^(1/n) times q^-1 on (i,i) -> (i,i); for i < j,
    (q^-1 - q) on (i,j) -> (i,j) and 1 on (i,j) -> (j,i); for i > j, 1 on
    (i,j) -> (j,i).  The matrix is symmetric."""
    M = [[ZERO] * (n * n) for _ in range(n * n)]
    scale = q_power(n, 1, n)
    for i, j in product(range(1, n + 1), repeat=2):
        if i == j:
            M[_flat(n, i, i)][_flat(n, i, i)] = scale * q_power(n, -1)
            continue
        M[_flat(n, i, j)][_flat(n, j, i)] = scale
        if i < j:
            M[_flat(n, i, j)][_flat(n, i, j)] = scale * (q_power(n, -1) - q_power(n, 1))
    return TorusMatrix(None, M)


def _closed_form_inverse(n: int, M: TorusMatrix) -> TorusMatrix:
    """Pi . Mbar . Pi: every h-exponent negated and the two strands of
    each pair index swapped."""
    swap = [_flat(n, j, i) for i in range(1, n + 1) for j in range(1, n + 1)]

    def bar(x: RootScalar) -> RootScalar:
        return RootScalar({-k: c for k, c in x.terms.items()})

    return TorusMatrix(None, [[bar(M[r, c]) for c in swap] for r in swap])


def _rotated(n: int, C: TorusMatrix) -> TorusMatrix:
    """The opposite-direction crossing that is the same-direction
    crossing C turned through a cup and a cap: on strands oriented
    ("r", "l") the lone slice equals dec_cw 1, C at 2, dec_ccw 3, so

        C_opp[(a,b),(c,d)] = U_dec_cw[x-1,c-1] C[(x,a),(d,z)] U_dec_ccw[b-1,z-1].

    Both U-turns are antidiagonal, so x = n+1-c and z = n+1-b: a
    reindexing with no sum."""
    cup, cap = uturn_matrix("dec_cw", n), uturn_matrix("dec_ccw", n)
    rows = [[ZERO] * (n * n) for _ in range(n * n)]
    for a, b, c, d in product(range(1, n + 1), repeat=4):
        x, z = n + 1 - c, n + 1 - b
        turned = C[_flat(n, x, a), _flat(n, d, z)]
        rows[_flat(n, a, b)][_flat(n, c, d)] = cup[x - 1, c - 1] * turned * cap[b - 1, z - 1]
    return TorusMatrix(None, rows)


@lru_cache(maxsize=None)
def _crossing_core(n: int):
    """(C_same, C_same^-1, C_pos_opp, C_neg_opp) in the preferred bases,
    rows = incoming pair.

    C_same is the one braiding formula, C_same^-1 its closed-form
    inverse, and each opposite-direction matrix is a same-direction one
    rotated through the U-turns (_rotated).
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    same = _braiding(n)
    same_inv = _closed_form_inverse(n, same)
    return same, same_inv, _rotated(n, same), _rotated(n, same_inv)


def crossing_matrix(kind: str, n: int) -> TorusMatrix:
    """The n^2 x n^2 matrix of one of the eight oriented crossings.

    Positive same-direction crossings get C_same, the one braiding
    formula, and negative ones its inverse.  An opposite-direction
    crossing is the same-direction crossing of its sign turned through
    a cup and a cap, an isotopy of the thickened biangle, so its matrix
    is that rotation of C_same or C_same^-1.  The over-strand direction
    does not change the matrix, only which picture the kind names.

    Inverses use the closed form R^-1(q) = R_21(q^-1) of the standard
    R-matrix (Le-Yu): C^-1 is C with h -> h^-1 in every entry and the
    two strands of every pair index swapped.  They are deliberately not
    derived from the Hecke relation q^(-1/n) C - q^(1/n) C^-1 =
    (q^-1 - q) I, so the HOMFLYPT check in skein_checks and the
    C C^-1 = I checks stay independent identities.
    """
    if kind not in CROSSING_KINDS:
        raise ValueError("unknown crossing kind: %r" % (kind,))
    same, same_inv, pos_opp, neg_opp = _crossing_core(n)
    sign, direction, _ = kind.split("_", 2)
    if direction == "same":
        return same if sign == "pos" else same_inv
    return pos_opp if sign == "pos" else neg_opp


# ---------------------------------------------------------------------------
# Duality maps and their preferred-basis matrices.
# ---------------------------------------------------------------------------


def duality_map_matrix(n: int, which: str, lam: RootScalar) -> TorusMatrix:
    """Preferred-basis n x n coefficient matrix of one duality map.

    which is "b" (unit into defining (x) dual), "d" (counit on
    dual (x) defining), "bp" (unit into dual (x) defining), or "dp"
    (counit on defining (x) dual).  For the units, entry (i, j) is the
    coefficient of the preferred basis vector with labels (i, j); for
    the counits it is the value taken on that basis vector.
    """
    M = [[ZERO] * n for _ in range(n)]
    lam_inv = lam.inverse()
    qp = lambda num, coeff=1: q_power(n, num, 1, coeff)
    neg_qp = lambda k: qp(k, (-1) ** (k % 2))  # (-q)^k
    sign = (-1) ** (n - 1)
    for k in range(1, n + 1):
        if which == "b":
            # lam * sum_k e^k (x) dual_k ; dual_k = (-q)^(1-k) f_{n-k+1}
            M[k - 1][n - k] = lam * neg_qp(1 - k)
        elif which == "bp":
            # (-1)^(n-1) lam * sum_k q^(2k-n-1) dual_k (x) e^k
            M[n - k][k - 1] = lam * neg_qp(1 - k) * qp(2 * k - n - 1, sign)
        elif which == "d":
            # value on f_i (x) e^j: (-q)^(n-i) lam^-1 delta_{n-i+1,j}
            i = n - k + 1
            M[i - 1][k - 1] = lam_inv * neg_qp(n - i)
        elif which == "dp":
            # value on e^i (x) f_j: (-q)^(n-j) (-1)^(n-1) lam^-1 q^(n-2i+1)
            # at i = n-j+1
            i = k
            j = n - i + 1
            M[i - 1][j - 1] = lam_inv * neg_qp(n - j) * qp(n - 2 * i + 1, sign)
        else:
            raise ValueError("unknown duality map: %r" % (which,))
    return TorusMatrix(None, M)


def duality_lemma_check(n: int, lam: RootScalar) -> dict:
    """Check the four coefficient identities tying duality maps to
    U-turn matrices at scale lam.  Returns a name -> bool report."""
    U = uturn_core(n, lam)
    Ut = U.transpose()
    zinv = coribbon(n).inverse()
    return {
        # The first two identities carry transposed indices: the tails of
        # the corresponding U-turns attach to the second tensor factor.
        "bp_equals_uturn": duality_map_matrix(n, "bp", lam) == Ut,
        "dp_equals_scaled_uturn": duality_map_matrix(n, "dp", lam) == Ut * zinv,
        "b_equals_transposed_uturn": duality_map_matrix(n, "b", lam) == Ut,
        "d_equals_scaled_transpose": duality_map_matrix(n, "d", lam) == Ut * zinv,
    }


# ---------------------------------------------------------------------------
# Bridge-position diagrams and the biangle state sum.
# ---------------------------------------------------------------------------


# Orientations: "r" = travelling toward the right boundary (defining
# space), "l" = travelling toward the left boundary (dual space).  For
# each slice kind: {orientations of the strands in its window before the
# slice: orientations after}.  A cup (dec_cw, inc_ccw) opens two strands
# in an empty window, a cap (dec_ccw, inc_cw) closes two, a crossing
# swaps two and a kink keeps one.
_RULES = {
    "dec_cw": {(): ("l", "r")},
    "inc_ccw": {(): ("r", "l")},
    "dec_ccw": {("r", "l"): ()},
    "inc_cw": {("l", "r"): ()},
    **{
        kind: {(a, b): (b, a) for a in "rl" for b in "rl" if (a == b) == ("_same_" in kind)}
        for kind in CROSSING_KINDS
    },
    "kink_pos": {(a,): (a,) for a in "rl"},
    "kink_neg": {(a,): (a,) for a in "rl"},
}
SLICE_KINDS = tuple(_RULES)
_WIDTH = {kind: len(next(iter(rule))) for kind, rule in _RULES.items()}


@dataclass(frozen=True)
class Slice:
    """One elementary feature, acting at 1-based strand position pos
    (and pos+1 for two-strand features)."""

    kind: str
    pos: int


@dataclass(frozen=True)
class BiangleDiagram:
    """A tangle in bridge position inside one thickened biangle.

    left lists the orientations of the strands meeting the left
    boundary, bottom to top; slices apply left to right.  Construction
    checks each slice against its rule and sets right, the orientations
    at the right boundary.
    """

    n: int
    left: tuple
    slices: tuple
    right: tuple = field(init=False, compare=False)
    # amplitude_table's sweep: left states -> {right states: nonzero amplitude}
    _amplitudes: dict = field(init=False, compare=False, repr=False, default_factory=dict)

    def __post_init__(self):
        current = tuple(self.left)
        object.__setattr__(self, "left", current)
        object.__setattr__(self, "slices", tuple(self.slices))
        if not all(o in ("r", "l") for o in current):
            raise ValueError("orientations must be 'r' or 'l'")
        for s in self.slices:
            rule = _RULES.get(s.kind)
            if rule is None:
                raise ValueError("unknown slice kind: %r" % (s.kind,))
            p, w = s.pos - 1, _WIDTH[s.kind]
            if not 0 <= p <= len(current) - w:
                raise ValueError("%s position %d out of range" % (s.kind, s.pos))
            window = current[p : p + w]
            if window not in rule:
                raise ValueError("%s cannot act on strands oriented %s" % (s.kind, window))
            current = current[:p] + rule[window] + current[p + w :]
        object.__setattr__(self, "right", current)


def kink_scalar(n: int, sign: int) -> RootScalar:
    """Framing factor of one kink: coribbon^sign."""
    return coribbon(n) if sign > 0 else coribbon(n).inverse()


@lru_cache(maxsize=None)
def _slice_tables(n: int, bits: int = 32) -> tuple:
    """(unit, {slice kind: (norm, lowest exponent, {states in the window
    before the slice: [(states after, amplitude), ...]})}) at rank n, over
    the nonzero entries of each slice's matrix, so the state sum uses the
    matrices that the move and duality checks verify.  An amplitude is one
    int whose field j, bits wide, holds the coefficient of h^(lowest +
    unit*j), unit being the gcd of every exponent; a kind's norm is its
    largest column L1 norm, the most by which one such slice multiplies the
    sum of |coefficient|s reaching a state.  A rank and width is built once."""
    states = range(1, n + 1)
    nonzero, unit, tables = {}, 0, {}
    for kind in SLICE_KINDS:
        if kind in CROSSING_KINDS:
            C = crossing_matrix(kind, n)
            entries = [((a, b), (c, d), C[_flat(n, a, b), _flat(n, c, d)]) for a, b, c, d in product(states, repeat=4)]
        elif kind in ("kink_pos", "kink_neg"):
            amp = kink_scalar(n, 1 if kind == "kink_pos" else -1)
            entries = [((s,), (s,), amp) for s in states]
        else:
            # a dec_* matrix is indexed (top, bottom), an inc_* one (bottom, top)
            U = uturn_matrix(kind, n)
            U = U.transpose() if kind.startswith("dec") else U
            pairs = [((b, t), U[b - 1, t - 1]) for b, t in product(states, repeat=2)]
            entries = [((), pair, amp) if _WIDTH[kind] == 0 else (pair, (), amp) for pair, amp in pairs]
        nonzero[kind] = [(before, after, amp.terms) for before, after, amp in entries if not amp.is_zero()]
        unit = gcd(unit, *(k for *_, terms in nonzero[kind] for k in terms))
    for kind, entries in nonzero.items():
        low, table, into = min(k for *_, terms in entries for k in terms), {}, {}
        for before, after, terms in entries:
            table.setdefault(before, []).append((after, sum(c << bits * ((k - low) // unit) for k, c in terms.items())))
            into[after] = into.get(after, 0) + sum(map(abs, terms.values()))
        tables[kind] = max(into.values()), low, table
    return unit, tables


def _terms(amp: int, bits: int, low: int, unit: int) -> dict:
    """{h exponent: nonzero coefficient} of a packed amplitude whose field j,
    bits wide, holds the coefficient of h^(low + unit*j): its balanced
    base-2^bits digits, each run of zero fields shifted out in one step."""
    mask, half, terms = (1 << bits) - 1, 1 << bits - 1, {}
    while amp:
        if not amp & mask:
            skip = ((amp & -amp).bit_length() - 1) // bits
            amp, low = amp >> bits * skip, low + unit * skip
        c, amp = amp & mask, amp >> bits
        if c >= half:
            c, amp = c - (1 << bits), amp + 1
        terms[low], low = c, low + unit
    return terms


def amplitude_table(diagram: BiangleDiagram) -> dict:
    """{left states: {right states: nonzero amplitude}} over every tuple
    of left states: the whole state sum of the diagram, so two tangles
    have equal state sums exactly when their tables are equal.

    One sweep through the slices carries every left tuple at once, keyed
    by the current states, each holding {left states: amplitude}.  An
    amplitude is one packed int (_slice_tables) whose fields, a multiple
    of 32 bits wide, hold 2 bits more than the product of the slices'
    norms, which bounds every coefficient.  The diagram keeps the table,
    so later calls are lookups.
    """
    table = diagram._amplitudes
    if not table:
        n, lefts = diagram.n, list(product(range(1, diagram.n + 1), repeat=len(diagram.left)))
        # a diagram without slices builds no slice tables
        unit, tables = _slice_tables(n) if diagram.slices else (1, {})
        bits = (prod(tables[s.kind][0] for s in diagram.slices).bit_length() + 33) // 32 * 32
        unit, tables = _slice_tables(n, bits) if bits > 32 else (unit, tables)
        # zero amplitudes stay in the sweep until decoding drops them
        sweep, low = {left: {left: 1} for left in lefts}, 0
        for s in diagram.slices:
            _, shift, slice_table = tables[s.kind]
            p, w, low = s.pos - 1, _WIDTH[s.kind], low + shift
            updated = {}
            for states, amps in sweep.items():
                for after, extra in slice_table.get(states[p : p + w], ()):
                    acc = updated.setdefault(states[:p] + after + states[p + w :], {})
                    for left, amp in amps.items():
                        if amp:
                            acc[left] = acc.get(left, 0) + amp * extra
            sweep = updated
        table.update((left, {}) for left in lefts)
        for right, amps in sweep.items():
            for left, amp in amps.items():
                if amp:
                    table[left][right] = RootScalar(_terms(amp, bits, low, unit))
    return table


def biangle_trace(diagram: BiangleDiagram, left: tuple, right: tuple) -> RootScalar:
    """State sum over compatible internal states of the products of
    slice matrix entries, for states in 1..n on the left and right
    boundary strands, bottom to top: a lookup into amplitude_table."""
    left, right = tuple(left), tuple(right)
    if len(left) != len(diagram.left) or len(right) != len(diagram.right):
        raise ValueError("state arity does not match the diagram boundary")
    for value in left + right:
        if not 1 <= value <= diagram.n:
            raise ValueError("states must lie in 1..%d" % diagram.n)
    return amplitude_table(diagram)[left].get(right, ZERO)


def skein_checks(n: int) -> dict:
    """Report on the three skein-level identities at rank n."""
    report = {}
    same, same_inv, _, _ = _crossing_core(n)
    lhs = same * q_power(n, -1, n) - same_inv * q_power(n, 1, n)
    rhs = TorusMatrix.identity(None, n * n) * (q_power(n, -1) - q_power(n, 1))
    report["homflypt"] = lhs == rhs

    loop = BiangleDiagram(n, (), (Slice("inc_ccw", 1), Slice("dec_ccw", 1)))
    report["unknot"] = amplitude_table(loop) == {(): {(): unknot_value(n)}}

    cancel = kink_scalar(n, 1) * kink_scalar(n, -1)
    report["kink_cancellation"] = cancel == ONE
    return report


def yang_baxter_holds(n: int) -> bool:
    """Braid relation s1 s2 s1 = s2 s1 s2 for the same-direction crossing
    on three strands, compared as amplitude tables."""
    def braid(*positions):
        slices = tuple(Slice("pos_same_to_lower", p) for p in positions)
        return amplitude_table(BiangleDiagram(n, ("r",) * 3, slices))

    return braid(1, 2, 1) == braid(2, 1, 2)
