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

from .qtorus import (
    ONE,
    ZERO,
    RootScalar,
    TorusMatrix,
    kron,
    mat_mul,
    q_power,
)


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
    return RootScalar({2 * n * (1 - n * n): (-1) ** (n - 1)})


def quantum_integer(n: int) -> RootScalar:
    """[n]_q = (q^n - q^-n)/(q - q^-1) = sum_{k=1..n} q^(2k-n-1)."""
    return RootScalar({2 * n * n * (2 * k - n - 1): 1 for k in range(1, n + 1)})


def unknot_value(n: int) -> RootScalar:
    """Value of a contractible untwisted unknot: (-1)^(n-1) [n]_q."""
    return RootScalar({0: (-1) ** (n - 1)}) * quantum_integer(n)


def duality_parameter(n: int, sign: int = 1) -> RootScalar:
    """The duality scale q^((1-n)/2n) = sqrt-coribbon * q^((n-1)/2)."""
    return RootScalar({n * (1 - n): sign})


def _neg_q_pow(n: int, k: int) -> RootScalar:
    """(-q)^k as an exact scalar."""
    return RootScalar({2 * n * n * k: (-1) ** (k % 2)})


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
        rows[i - 1][n - i] = lam * _neg_q_pow(n, i - n)
    return TorusMatrix(None, rows)


def uturn_matrix(kind: str, n: int) -> TorusMatrix:
    """The four biangle U-turn matrices.

    dec_cw -> U, dec_ccw -> coribbon^-1 U, inc_ccw -> U^T,
    inc_cw -> coribbon^-1 U^T.  A dec_* matrix is indexed by the
    (top, bottom) strand states of the turn, an inc_* one by
    (bottom, top).
    """
    if n < 2:
        raise ValueError("n must be at least 2")
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


def _braiding_std(n: int, pair: str) -> TorusMatrix:
    """Standard-basis matrix (rows = output, cols = input) of the inverse
    braiding on the four two-factor spaces.

    pair is one of "vv", "dd", "dv", "vd" where "v" is the defining
    n-dimensional space and "d" its dual.
    """
    size = n * n
    M = [[ZERO] * size for _ in range(size)]
    qp = lambda num, den=1: q_power(n, num, den)

    def add(out_i, out_j, in_i, in_j, value):
        M[_flat(n, out_i, out_j)][_flat(n, in_i, in_j)] += value

    if pair == "vv":
        # q^(1/n) { q^-1 (i,i) ; (q^-1 - q)(i,j) + (j,i) for i<j ; (j,i) for i>j }
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    add(i, i, i, i, qp(1, n) * qp(-1))
                elif i < j:
                    add(i, j, i, j, qp(1, n) * (qp(-1) - qp(1)))
                    add(j, i, i, j, qp(1, n))
                else:
                    add(j, i, i, j, qp(1, n))
    elif pair == "dd":
        # Same with the i<j and i>j cases swapped.
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    add(i, i, i, i, qp(1, n) * qp(-1))
                elif i > j:
                    add(i, j, i, j, qp(1, n) * (qp(-1) - qp(1)))
                    add(j, i, i, j, qp(1, n))
                else:
                    add(j, i, i, j, qp(1, n))
    elif pair == "dv":
        # dual (x) defining -> defining (x) dual
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    add(i, i, i, i, qp(-1, n) * qp(1))
                    for k in range(1, i):
                        add(k, k, i, i, qp(-1, n) * (qp(1) - qp(-1)))
                else:
                    add(j, i, i, j, qp(-1, n))
    elif pair == "vd":
        # defining (x) dual -> dual (x) defining
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    add(i, i, i, i, qp(-1, n) * qp(1))
                    for k in range(i + 1, n + 1):
                        add(k, k, i, i, qp(-1, n) * (qp(1) - qp(-1)) * qp(2 * (k - i)))
                else:
                    add(j, i, i, j, qp(-1, n))
    else:
        raise ValueError("unknown factor pair: %r" % (pair,))
    return TorusMatrix(None, M)


def _dual_basis_matrix(n: int) -> TorusMatrix:
    """Change of basis on the dual factor.

    The preferred dual basis vector with label i is (-q)^(n-i) times the
    standard dual vector with label n-i+1; columns hold the standard
    coordinates of the preferred vectors.
    """
    M = [[ZERO] * n for _ in range(n)]
    for i in range(1, n + 1):
        M[n - i][i - 1] = _neg_q_pow(n, n - i)
    return TorusMatrix(None, M)


def _dual_basis_inverse(n: int) -> TorusMatrix:
    M = [[ZERO] * n for _ in range(n)]
    for i in range(1, n + 1):
        M[i - 1][n - i] = _neg_q_pow(n, i - n)
    return TorusMatrix(None, M)


def _closed_form_inverse(n: int, M: TorusMatrix) -> TorusMatrix:
    """Pi . Mbar . Pi: every h-exponent negated and the two strands of
    each pair index swapped."""
    swap = [_flat(n, j, i) for i in range(1, n + 1) for j in range(1, n + 1)]

    def bar(x: RootScalar) -> RootScalar:
        return RootScalar({-k: c for k, c in x.terms.items()})

    return TorusMatrix(None, [[bar(M[r, c]) for c in swap] for r in swap])


@lru_cache(maxsize=None)
def _crossing_core(n: int):
    """Build (C_same, C_same^-1, C_opp, C_opp^-1) in the preferred bases,
    rows = incoming pair.

    C_same is computed from both the vv and dd braidings and C_opp from
    both the dv and vd braidings; the two computations must agree.  The
    inverses come from R^-1(q) = R_21(q^-1), see crossing_matrix.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    B = _dual_basis_matrix(n)
    Binv = _dual_basis_inverse(n)
    I = TorusMatrix.identity(None, n)

    def in_basis(std, out_change_inv, in_change):
        return mat_mul(mat_mul(out_change_inv, std), in_change)

    same_vv = _braiding_std(n, "vv")
    same_dd = in_basis(_braiding_std(n, "dd"), kron(Binv, Binv), kron(B, B))
    if same_vv != same_dd:
        raise AssertionError("crossing matrices from vv and dd disagree")
    opp_dv = in_basis(_braiding_std(n, "dv"), kron(I, Binv), kron(B, I))
    opp_vd = in_basis(_braiding_std(n, "vd"), kron(Binv, I), kron(I, B))
    if opp_dv != opp_vd:
        raise AssertionError("crossing matrices from dv and vd disagree")
    # Rows should index the incoming pair; the matrices are built with
    # rows = output, so transpose.  (Both happen to be symmetric.)
    same, opp = same_vv.transpose(), opp_dv.transpose()
    return same, _closed_form_inverse(n, same), opp, _closed_form_inverse(n, opp)


def crossing_matrix(kind: str, n: int) -> TorusMatrix:
    """The n^2 x n^2 matrix of one of the eight oriented crossings.

    Positive same-direction crossings get C_same and negative ones its
    inverse; negative opposite-direction crossings get C_opp and
    positive ones its inverse.  The over-strand direction does not
    change the matrix, only which picture the kind names.

    Inverses use the closed form R^-1(q) = R_21(q^-1) of the standard
    R-matrix (Le-Yu): C^-1 is C with h -> h^-1 in every entry and the
    two strands of every pair index swapped.  They are deliberately not
    derived from the Hecke relation q^(-1/n) C - q^(1/n) C^-1 =
    (q^-1 - q) I, so the HOMFLYPT check in skein_checks and the
    C C^-1 = I checks stay independent identities.
    """
    if kind not in CROSSING_KINDS:
        raise ValueError("unknown crossing kind: %r" % (kind,))
    same, same_inv, opp, opp_inv = _crossing_core(n)
    sign, direction, _ = kind.split("_", 2)
    if direction == "same":
        return same if sign == "pos" else same_inv
    return opp if sign == "neg" else opp_inv


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
    sign = (-1) ** (n - 1)
    for k in range(1, n + 1):
        if which == "b":
            # lam * sum_k e^k (x) dual_k ; dual_k = (-q)^(1-k) f_{n-k+1}
            M[k - 1][n - k] = lam * _neg_q_pow(n, 1 - k)
        elif which == "bp":
            # (-1)^(n-1) lam * sum_k q^(2k-n-1) dual_k (x) e^k
            M[n - k][k - 1] = lam * _neg_q_pow(n, 1 - k) * qp(2 * k - n - 1, sign)
        elif which == "d":
            # value on f_i (x) e^j: (-q)^(n-i) lam^-1 delta_{n-i+1,j}
            i = n - k + 1
            M[i - 1][k - 1] = lam_inv * _neg_q_pow(n, n - i)
        elif which == "dp":
            # value on e^i (x) f_j: (-q)^(n-j) (-1)^(n-1) lam^-1 q^(n-2i+1)
            # at i = n-j+1
            i = k
            j = n - i + 1
            M[i - 1][j - 1] = lam_inv * _neg_q_pow(n, n - j) * qp(n - 2 * i + 1, sign)
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
    # biangle_trace's sweeps: left states -> {right states: nonzero amplitude}
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


@dataclass(frozen=True)
class BiangleState:
    """States in 1..n on the left and right boundary strands, bottom
    to top."""

    left: tuple
    right: tuple


def kink_scalar(n: int, sign: int) -> RootScalar:
    """Framing factor of one kink: coribbon^sign."""
    return coribbon(n) if sign > 0 else coribbon(n).inverse()


def _slice_table(kind: str, n: int) -> dict:
    """{states in the window before the slice: [(states after,
    amplitude), ...]} over the nonzero entries of the slice's matrix, so
    the state sum uses the matrices that the move and duality checks
    verify."""
    table = {}
    states = range(1, n + 1)
    if kind in CROSSING_KINDS:
        C = crossing_matrix(kind, n)
        for a, b, c, d in product(states, repeat=4):
            amp = C[_flat(n, a, b), _flat(n, c, d)]
            if not amp.is_zero():
                table.setdefault((a, b), []).append(((c, d), amp))
    elif kind in ("kink_pos", "kink_neg"):
        amp = kink_scalar(n, 1 if kind == "kink_pos" else -1)
        table = {(s,): [((s,), amp)] for s in states}
    else:
        U = uturn_matrix(kind, n)
        for bottom, top in product(states, repeat=2):
            # a dec_* matrix is indexed (top, bottom), an inc_* one (bottom, top)
            amp = U[top - 1, bottom - 1] if kind.startswith("dec") else U[bottom - 1, top - 1]
            if not amp.is_zero():
                before, after = ((), (bottom, top)) if _WIDTH[kind] == 0 else ((bottom, top), ())
                table.setdefault(before, []).append((after, amp))
    return table


@lru_cache(maxsize=None)
def _slice_tables(n: int) -> dict:
    """The tables of every slice kind at rank n, built together: the
    first state sum with a slice at a rank builds them all, and no later
    one builds any."""
    return {kind: _slice_table(kind, n) for kind in SLICE_KINDS}


def biangle_trace(diagram: BiangleDiagram, state: BiangleState) -> RootScalar:
    """State sum over compatible internal states of the products of
    slice matrix entries.

    One sweep from a left state gives the amplitudes of every right
    state at once; the first call for a left state makes that sweep and
    keeps its result on the diagram, and later calls look it up.
    """
    n = diagram.n
    left = tuple(state.left)
    right = tuple(state.right)
    if len(left) != len(diagram.left) or len(right) != len(diagram.right):
        raise ValueError("state arity does not match the diagram boundary")
    for value in left + right:
        if not 1 <= value <= n:
            raise ValueError("states must lie in 1..%d" % n)

    amplitudes = diagram._amplitudes.get(left)
    if amplitudes is None:
        amplitudes = {left: ONE}
        for s in diagram.slices:
            p, w, table = s.pos - 1, _WIDTH[s.kind], _slice_tables(n)[s.kind]
            updated = {}
            for states, amp in amplitudes.items():
                for after, extra in table.get(states[p : p + w], ()):
                    key = states[:p] + after + states[p + w :]
                    value = amp * extra
                    old = updated.get(key)
                    updated[key] = value if old is None else old + value
            amplitudes = {k: v for k, v in updated.items() if not v.is_zero()}
        diagram._amplitudes[left] = amplitudes
    return amplitudes.get(right, ZERO)


def skein_checks(n: int) -> dict:
    """Report on the three skein-level identities at rank n."""
    report = {}
    same, same_inv, _, _ = _crossing_core(n)
    lhs = same * q_power(n, -1, n) - same_inv * q_power(n, 1, n)
    rhs = TorusMatrix.identity(None, n * n) * (q_power(n, -1) - q_power(n, 1))
    report["homflypt"] = lhs == rhs

    loop = BiangleDiagram(
        n, (), (Slice("inc_ccw", 1), Slice("dec_ccw", 1))
    )
    value = biangle_trace(loop, BiangleState((), ()))
    report["unknot"] = value == unknot_value(n)

    cancel = kink_scalar(n, 1) * kink_scalar(n, -1)
    report["kink_cancellation"] = cancel == ONE
    return report


def yang_baxter_holds(n: int) -> bool:
    """Braid relation for the same-direction crossing matrix on three
    strands."""
    same = _crossing_core(n)[0]
    I = TorusMatrix.identity(None, n)
    left = kron(same, I)
    right = kron(I, same)
    return mat_mul(mat_mul(left, right), left) == mat_mul(mat_mul(right, left), right)
