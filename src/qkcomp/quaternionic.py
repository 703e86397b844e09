"""Quaternionic structure I, J, K on R^{4n}: fundamental forms, the
degree-4 form Omega, the pointwise quaternionic-harmonicity identities,
and the refined Hessian (Kato-type) inequality algebra.

Every module uses one frame, fixed by n: quaternionic line s is the block
(e_{4s-3}, e_{4s-2}, e_{4s-1}, e_{4s}) = (e_s, I e_s, J e_s, K e_s)
(`line_indices`).  With the gradient along e_1, the vectors I e_1, J e_1,
K e_1 are the indices 2, 3, 4, i.e. ``line_indices(1)[1:]``.

I, J, K are read-only int64 `ExactArray` signed-permutation matrices, one
4 x 4 block per line, cached per n by `quaternionic_actions`; omega_a(X, Y)
= <I_a X, Y> is the 2-form of the transpose of I_a, and the omega_a and
Omega are cached per n by `fundamental_forms`.  `frame_dim` refuses n < 2.

A Hessian is a `forms.ExactArray` table (int64 numerators over one
denominator) whose side 4n fixes its n.  Both seeded streams are one
projection of the packed upper-triangle int16 rows of random symmetric
matrices (`_constrained_batch`): each run of `group` diagonal entries
loses its mean, all m of them for criterion 2's trace-free Hessians and
each line's four for criterion 8's quaternionic-harmonic ones.  A Hessian's
trace, line sums, norm and Kato slacks are guarded integer reductions
read out as `Fraction`s.  The Siu-Corlette defect form and both sides
of the star commutation are 4-forms linear in the Hessian: each operator
chain on Omega, like the model's nabla_X maps (`derivation_maps`), is a
cached sparse integer map of the Hessian numerators, built once per n by
index arithmetic on the form's term table (`_chain_map`) and applied to a
batch with one `np.add.reduceat`.  Criterion 2 counts the star
commutation's failures on chunks of the trace-free stream at a time.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .forms import ContractViolation, ExactArray, Form, contract, guard_int64, two_form, wedge


# The rows of I, J, K on one quaternionic line (a, b, c, d) = (e, Ie, Je, Ke),
# column j holding the image of the j-th vector:
#   I: a->b, b->-a, c->d,  d->-c
#   J: a->c, c->-a, b->-d, d->b
#   K: a->d, d->-a, b->c,  c->-b
_LINE_ACTIONS = (((0, -1, 0, 0), (1, 0, 0, 0), (0, 0, 0, -1), (0, 0, 1, 0)),
                 ((0, 0, -1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, -1, 0, 0)),
                 ((0, 0, 0, -1), (0, 0, -1, 0), (0, 1, 0, 0), (1, 0, 0, 0)))


def frame_dim(n: int) -> int:
    """4n, refusing n < 2 before any table is built or any draw made."""
    if n < 2:
        raise ContractViolation(f"quaternionic frames need n >= 2, got n={n}")
    return 4 * n


@lru_cache(maxsize=None)
def quaternionic_actions(n: int) -> tuple[ExactArray, ExactArray, ExactArray]:
    """I, J, K on R^{4n}: read-only int64 signed-permutation matrices,
    one 4 x 4 block of _LINE_ACTIONS per line down the diagonal, whose
    column i is the image of e_{i+1}, so that I^2 = J^2 = K^2 = -1 and
    IJ = K, JK = I, KI = J."""
    eye = np.eye(frame_dim(n) // 4, dtype=np.int64)
    return tuple(ExactArray(np.kron(eye, np.array(block, dtype=np.int64)))
                 for block in _LINE_ACTIONS)


def line_indices(s: int) -> tuple[int, int, int, int]:
    """Indices (e_s, I e_s, J e_s, K e_s) of line s (1-based)."""
    return (4 * s - 3, 4 * s - 2, 4 * s - 1, 4 * s)


@lru_cache(maxsize=None)
def fundamental_forms(n: int) -> tuple[Form, Form, Form, Form]:
    """(omega_1, omega_2, omega_3, Omega): omega_a(X, Y) = <I_a X, Y>,
    whose matrix is the transpose of I_a, and
    Omega = omega_1 ^ omega_1 + omega_2 ^ omega_2 + omega_3 ^ omega_3."""
    omega1, omega2, omega3 = (two_form(4 * n, contract("ij->ji", A))
                              for A in quaternionic_actions(n))
    Omega = wedge(omega1, omega1) + wedge(omega2, omega2) + wedge(omega3, omega3)
    return omega1, omega2, omega3, Omega


class HessianMatrix:
    """4n x 4n symmetric matrix of exact rationals, n >= 2 read off its
    table: an `ExactArray` whose reductions are guarded integer sums, read
    out as `Fraction`s.

    Constraint flags express harmonicity (zero trace) and quaternionic
    harmonicity (each line's four diagonal entries sum to zero)."""

    __slots__ = ("table",)

    def __init__(self, table: ExactArray):
        shape = table.num.shape
        if len(shape) != 2 or shape[0] != shape[1] or shape[0] % 4 or shape[0] < 8:
            raise ContractViolation("expected a 4n x 4n matrix with n >= 2, got shape "
                                    + "x".join(map(str, shape)))
        asym = np.argwhere(np.triu(table.num != table.num.T))
        if len(asym):
            a, b = asym[0].tolist()
            raise ContractViolation(f"matrix not symmetric at ({a + 1},{b + 1})")
        self.table = table

    @property
    def dim(self) -> int:
        return len(self.table.num)

    @property
    def n(self) -> int:
        return self.dim // 4

    def diagonal(self) -> ExactArray:
        return contract("ii->i", self.table)

    def trace(self) -> Fraction:
        return contract("ii->", self.table).fraction()

    def is_harmonic(self) -> bool:
        return self.trace() == 0

    def line_sum(self, s: int) -> Fraction:
        first, *_, last = line_indices(s)
        return contract("i->", self.diagonal()[first - 1:last]).fraction()

    def is_quaternionic_harmonic(self) -> bool:
        return all(self.line_sum(s) == 0 for s in range(1, self.n + 1))

    def frobenius_sq(self) -> Fraction:
        return contract("ij,ij->", self.table, self.table).fraction()

    @classmethod
    def zero(cls, n: int) -> "HessianMatrix":
        return cls(ExactArray(np.zeros((4 * n, 4 * n), dtype=np.int64)))


@lru_cache(maxsize=None)
def _upper_triangle(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, diag) of the packed upper triangle of an m x m matrix:
    slot k holds entry (rows[k], cols[k]), row by row, and diag[i] is the
    slot of (i, i)."""
    rows, cols = np.triu_indices(m)
    diag = np.flatnonzero(rows == cols)
    for a in (rows, cols, diag):
        a.flags.writeable = False
    return rows, cols, diag


def _unpack(packed: np.ndarray, m: int) -> np.ndarray:
    """The symmetric m x m matrices of packed upper-triangle rows."""
    rows, cols, _ = _upper_triangle(m)
    nums = np.empty(packed.shape[:-1] + (m, m), dtype=np.int64)
    nums[..., rows, cols] = packed
    nums[..., cols, rows] = packed
    return nums


def _random_packed(m: int, count: int,
                   rng: random.Random) -> tuple[np.ndarray, np.ndarray]:
    """`count` random symmetric m x m matrices as int16 rows of their
    m(m+1)/2 packed upper-triangle numerators in [-9, 9] (see
    `_upper_triangle`), over one int64 denominator in [1, 9] per matrix.

    Each matrix takes 1 + ceil(m(m+1)/4) consecutive 32-bit words w of
    `rng`: w % 9 + 1 of the first is the denominator, and each of the
    others holds two 16-bit fields f, w & 0xFFFF then w >> 16, whose
    f % 19 - 9 are the upper triangle row by row; when m(m+1)/2 is odd
    the last high half is padding.  So one draw of k matrices equals k
    draws of one.  As 2^16 = 19 * 3449 + 5, the entries -9..-5 are
    3450/3449 times as likely as the others."""
    size = m * (m + 1) // 2
    width = 1 + (size + 1) // 2
    data = rng.getrandbits(32 * count * width).to_bytes(4 * count * width, "little")
    denominators = np.frombuffer(data, dtype="<u4")[::width] % 9 + 1
    fields = np.frombuffer(data, dtype="<u2").reshape(count, 2 * width)[:, 2:2 + size]
    # f % 19 as f - 19 (f // 19), in one new array: numpy divides by an
    # unsigned scalar several times faster than it takes the remainder
    entries = fields // np.uint16(19)
    entries *= np.uint16(19)
    np.subtract(fields, entries, out=entries)
    entries = entries.view(np.int16)  # 0..18 reads the same in either type
    entries -= 9
    return entries, denominators.astype(np.int64)


def _constrained_batch(m: int, group: int, count: int,
                       rng: random.Random) -> tuple[np.ndarray, np.ndarray]:
    """`count` random symmetric m x m Hessians h / (group q) whose diagonal
    runs of `group` entries each lose their mean: group m gives criterion
    2's trace-free Hessians, group 4 criterion 8's quaternionic-harmonic
    ones.  Returns `_random_packed`'s draw with its packed rows projected
    in place, h = group * packed off the diagonal and group * d - sum(d)
    on each run d (int16, not reduced: less than 18 group in size), and
    its q."""
    if 18 * group > np.iinfo(np.int16).max:
        raise ContractViolation(f"a run of {group} diagonal entries leaves the int16 range")
    h, q = _random_packed(m, count, rng)
    diag = _upper_triangle(m)[2]
    runs = h[:, diag].reshape(count, m // group, group)
    h *= group
    sums = runs.sum(axis=2, keepdims=True, dtype=np.int16)
    h[:, diag] = (group * runs - sums).reshape(count, m)
    return h, q


def random_traceless_hessian(n: int, rng: random.Random) -> HessianMatrix:
    """One Hessian of :func:`_constrained_batch`'s stream at group m = 4n,
    in lowest terms."""
    m = frame_dim(n)
    h, q = _constrained_batch(m, m, 1, rng)
    return HessianMatrix(ExactArray.of(_unpack(h[0], m), m * int(q[0])))


class _FormMap:
    """A linear map from the m x m Hessian numerators h to the numerators
    of forms of one degree: entry k adds num[k] * h.ravel()[ij[k]] to the
    coefficient of one mask, all over den.  The entries are sorted by mask,
    those of masks[s] starting at starts[s].  `weight`, the largest
    per-mask sum of |num|, times the Hessian's bound bounds every output
    numerator.  Equal and hashed by identity, as the values of lru_caches."""

    __slots__ = ("masks", "starts", "ij", "num", "den", "weight", "degree")

    def __init__(self, masks: tuple[int, ...], starts: np.ndarray, ij: np.ndarray,
                 num: np.ndarray, den: int, weight: int, degree: int):
        self.masks, self.starts, self.ij, self.num = masks, starts, ij, num
        self.den, self.weight, self.degree = den, weight, degree

    def apply(self, h: np.ndarray) -> np.ndarray:
        """The output numerators of the rows h of raveled Hessian numerators,
        one row per Hessian; exact while `weight` times max|h| stays in the
        int64 range, which callers guard."""
        return np.add.reduceat(self.num * h[:, self.ij], self.starts, axis=1)

    def __call__(self, H: HessianMatrix, sign: int) -> Form:
        """sign times the image of H."""
        T = H.table
        guard_int64(self.weight * T.bound, "Hessian 4-form map")
        acc = self.apply(T.num.reshape(1, -1))[0]
        terms = {k: sign * c for k, c in zip(self.masks, acc.tolist()) if c}
        return Form(H.dim, self.degree, terms, self.den * T.den)


def _below(bits: np.ndarray) -> np.ndarray:
    """Per position x of the 0/1 rows `bits`, the set bits below x, whose parity
    signs inserting bit x into the row's mask (theta^x ^ .) or removing it."""
    return np.cumsum(bits, axis=-1) - bits


def _chain_map(omega: Form, m: int, inner_first: bool) -> _FormMap:
    """The map h -> sum h_ij theta^i ^ iota(e_j) omega (inner_first) or
    h -> sum h_ij iota(e_i)(theta^j ^ omega), straight from omega's term
    table: step one removes (inserts) bit j of monomial k, step two inserts
    (removes) bit i of k ^ (1 << j), each signed by the `_below` count of its
    mask, which for k ^ (1 << j) is mod 2 that of k plus that of row j of the
    identity.  One source k per (mask, ij): the sorted entries are signed terms.
    The masks of R^m are int64, so Int64RangeError from m = 64 on."""
    guard_int64(1 << (m - 1), "monomial mask")
    keys, coeffs = np.array(list(omega._terms.items()), dtype=np.int64).T
    bits = keys[:, None] >> np.arange(m) & 1
    first = bits.astype(bool) == inner_first  # bit j may take the first step
    # the second step takes bit i back where the first left it, or bit j
    t, i, j = np.nonzero(first[:, None, :] & (~first[:, :, None] | np.eye(m, dtype=bool)))
    below = _below(bits)
    odd = (below[t, j] + below[t, i] + _below(np.eye(m, dtype=np.int64))[j, i]) & 1
    out, ij, num = keys[t] ^ (1 << i) ^ (1 << j), i * m + j, coeffs[t] * (1 - 2 * odd)
    order = np.lexsort((ij, out))
    masks, starts = np.unique(out[order], return_index=True)
    return _FormMap(tuple(masks.tolist()), starts, ij[order], num[order], omega.den,
                    int(np.add.reduceat(np.abs(num[order]), starts).max()), omega.degree)


@lru_cache(maxsize=None)
def derivation_maps(n: int) -> tuple[_FormMap, ...]:
    """h -> sum h_ij theta^i ^ iota(e_j) omega for omega = omega_1, omega_2,
    omega_3 and Omega (`_chain_map`): at h = -Gamma[x], nabla_{e_x} omega."""
    return tuple(_chain_map(w, 4 * n, True) for w in fundamental_forms(n))


@lru_cache(maxsize=None)
def _hessian_four_form_maps(n: int) -> tuple[_FormMap, _FormMap]:
    """The two operator chains on Omega as maps of the Hessian:
    h -> sum h_ij ell(e_i) eps(theta^j) Omega (left) and
    h -> sum h_ij eps(theta^i) ell(e_j) Omega (right, `derivation_maps`)."""
    return _chain_map(fundamental_forms(n)[3], 4 * n, False), derivation_maps(n)[3]


def siu_corlette_defect(H: HessianMatrix) -> Form:
    """The degree-4 form sum_{i,j} f_ij theta^i ^ (e_j -| Omega).

    For a harmonic Hessian its coefficient on each line's top monomial
    theta^i ^ I theta^i ^ J theta^i ^ K theta^i is 6 times that line's
    quaternionic-harmonicity defect."""
    if not H.is_harmonic():
        raise ContractViolation("defect form requires a trace-free (harmonic) Hessian")
    return _hessian_four_form_maps(H.n)[1](H, 1)


def _star_signs(m: int) -> tuple[int, int]:
    """The signs (-1)^{p(m-p-1)} and (-1)^{(p-1)(m-p)+m-1}, p = 4, of the
    left and right operator chains in the star commutation on M^m."""
    p = 4
    return (-1) ** (p * (m - p - 1)), (-1) ** ((p - 1) * (m - p) + m - 1)


def star_commutation_sides(H: HessianMatrix) -> tuple[Form, Form]:
    """Both sides of the pointwise identity
    *d*(df ^ Omega) = (-1)^{m-1} d*(df ^ *Omega) on M^m, m = 4n.

    The left side is evaluated as (-1)^{p(m-p-1)} sum f_ij ell(e_i) eps(theta_j) Omega,
    the right side as (-1)^{m-1} (-1)^{(p-1)(m-p)} sum f_ij eps(theta_i) ell(e_j) Omega,
    with p = 4; both are 4-forms, from independently built operator chains.
    The right chain is that of `siu_corlette_defect`, so for m = 4n the right
    side is minus the defect form."""
    if not H.is_harmonic():
        raise ContractViolation("star commutation requires a trace-free Hessian")
    left, right = _hessian_four_form_maps(H.n)
    sign_left, sign_right = _star_signs(H.dim)
    return left(H, sign_left), right(H, sign_right)


def verify_star_commutation(H: HessianMatrix) -> bool:
    lhs, rhs = star_commutation_sides(H)
    return lhs == rhs


def star_commutation_failures(n: int, samples: int, rng: random.Random) -> int:
    """How many of the next `samples` Hessians of
    :func:`random_traceless_hessian`'s stream from `rng` fail
    :func:`verify_star_commutation`, counted on chunks of int64 rows.

    Each side's numerators, scaled by its sign and the other map's den,
    lie on the union of both maps' masks; a row fails where the two sides
    differ, the Hessian's denominator cancelling.  A chunk holds at most
    _SCAN_ENTRIES map entries per side, and Int64RangeError is raised when
    a scaled side could leave the int64 range."""
    left, right = _hessian_four_form_maps(n)
    m = 4 * n
    sign_left, sign_right = _star_signs(m)
    masks = sorted(set(left.masks) | set(right.masks))
    at_left, at_right = (np.searchsorted(masks, f.masks) for f in (left, right))
    weight = max(left.weight * right.den, right.weight * left.den)
    chunk = max(1, _SCAN_ENTRIES // max(len(left.num), len(right.num)))
    bad = 0
    for start in range(0, samples, chunk):
        count = min(chunk, samples - start)
        h = _unpack(_constrained_batch(m, m, count, rng)[0], m).reshape(count, m * m)
        if h[:, ::m + 1].sum(axis=1).any():
            raise ContractViolation("star commutation requires a trace-free Hessian")
        guard_int64(weight * int(np.abs(h).max(initial=1)), "Hessian 4-form map")
        lhs = np.zeros((count, len(masks)), dtype=np.int64)
        rhs = np.zeros_like(lhs)
        lhs[:, at_left] = sign_left * right.den * left.apply(h)
        rhs[:, at_right] = sign_right * left.den * right.apply(h)
        bad += int((lhs != rhs).any(axis=1).sum())
    return bad


class KatoReport:
    """Refined Hessian inequality |H|^2 >= (4/3) |grad |grad f||^2, split into
    the three intermediate slacks of the chain (each nonnegative)."""

    __slots__ = ("gap", "slack_dropped_entries", "slack_cauchy_schwarz", "slack_row_factor")

    def __init__(self, gap: Fraction, slack_dropped_entries: Fraction,
                 slack_cauchy_schwarz: Fraction, slack_row_factor: Fraction):
        self.gap, self.slack_dropped_entries = gap, slack_dropped_entries
        self.slack_cauchy_schwarz, self.slack_row_factor = slack_cauchy_schwarz, slack_row_factor


@lru_cache(maxsize=None)
def _kato_weights(m: int) -> np.ndarray:
    """Per-slot int64 weights w of the packed upper triangle (see
    `_upper_triangle`) with 3|h|^2 - 4|h e_1|^2 = sum_k w_k h_k^2: an
    off-diagonal slot stands for two entries and row 0 holds h e_1, so
    w = 3 (1 if i == j else 2) - 4 [i == 0]: -1 at (0, 0), 2 on the rest
    of row 0, 3 on the other diagonal slots and 6 elsewhere."""
    rows, cols, _ = _upper_triangle(m)
    weights = 3 * np.where(rows == cols, 1, 2) - 4 * (rows == 0)
    weights.flags.writeable = False
    return weights


def scaled_kato_gap(h: np.ndarray) -> np.ndarray:
    """3|h|^2 - 4|h e_1|^2 of the packed upper-triangle rows h of integer
    numerators, one weighted sum of squares per row (`_kato_weights`),
    summed in int64: three times the refined Kato gap of the Hessian h
    with the gradient along e_1, where |grad |grad f|| = |h e_1|.  h is
    overwritten with its weighted squares, so the result is exact while
    each w_k h_k^2 stays in h's integer type and the sums in int64."""
    m = (math.isqrt(8 * h.shape[-1] + 1) - 1) // 2
    # squares and weights in place, and a sum, not a matmul: on the scan's
    # int16 rows this skips the int64 copies of the entries and two
    # temporaries per chunk, and an int64 matmul's first call faults in
    # 64 kB more of numpy's code, which criterion 8's peak memory carries
    np.multiply(h, h, out=h)
    np.multiply(h, _kato_weights(m).astype(h.dtype, copy=False), out=h)
    return h.sum(axis=-1, dtype=np.int64)


def refined_kato_gap(H: HessianMatrix) -> KatoReport:
    """Exact gap |H|^2 - (4/3) sum_A H[1,A]^2 of a quaternionic-harmonic
    Hessian with e_1 the gradient direction, and the three slacks of the
    chain, which must sum to it."""
    if not H.is_quaternionic_harmonic():
        raise ContractViolation("Hessian must carry the quaternionic-harmonic flag")
    m = H.dim
    T = H.table
    f11 = T.fraction(0, 0)
    iks = H.diagonal()[1:4]  # at I e1, J e1, K e1: line_indices(1)[1:]
    row = T[0, 1:]
    row_sq = contract("i,i->", row, row).fraction()
    iks_sq = contract("i,i->", iks, iks).fraction()

    slack1 = H.frobenius_sq() - (f11 * f11 + iks_sq + 2 * row_sq)
    s = contract("i->", iks).fraction()
    slack2 = iks_sq - s * s / 3
    slack3 = Fraction(2, 3) * row_sq

    guard_int64((3 * m * m + 4 * m) * T.bound ** 2, "Kato gap")
    rows, cols, _ = _upper_triangle(m)
    gap = Fraction(int(scaled_kato_gap(T.num[rows, cols])), 3 * T.den ** 2)
    if gap != slack1 + slack2 + slack3:
        raise RuntimeError(f"Kato slacks {slack1}, {slack2}, {slack3} do not "
                           f"sum to the gap {gap}")
    return KatoReport(gap, slack1, slack2, slack3)


# map entries per side in a chunk of star_commutation_failures: 58
# Hessians at n = 2
_SCAN_ENTRIES = 1 << 14

# matrix entries per chunk of the Kato scan, 1024 Hessians at n = 2 and
# 113 at n = 6.  The scan's rows are int16, so a chunk takes the bytes
# that 2^14 int64 entries took: over 1e5 samples at n = 2 the traced
# peak is 0.255 MB, against 0.288 MB with int64 rows at 2^14.  On a
# 2-vCPU x86-64 host (in process, medians of 8 fresh processes of 15
# scans each, sizes alternating), int64 rows at 2^14 entries read
# 0.078 s; int16 rows squared and weighted in place read 0.063 s at
# 2^14, 0.048 s at 2^15, 0.052 s at 2^16 and 0.049 s at 2^17, of which
# drawing the random words (getrandbits, to_bytes) is about 0.03 s
_KATO_SCAN_ENTRIES = 1 << 16


def kato_gap_scan(n: int, samples: int, seed: int) -> tuple[int, Fraction]:
    """Scan the refined Kato gap over `samples` quaternionic-harmonic
    Hessians, the stream of :func:`_constrained_batch` at group 4 from
    random.Random(seed), in chunks of int16 packed upper-triangle rows:
    one weighted sum of squares per Hessian (`scaled_kato_gap`) and, per
    denominator q in 1..9, the least scaled gap.  Returns (number of
    negative gaps, least gap), both exact.

    Every packed entry is at most 54 in size (36 off the diagonal, 3 * 9 +
    3 * 9 on it).  Each weighted square is formed in int16, so
    ContractViolation when 54^2 times the largest weight's size exceeds
    the int16 range; no gap exceeds 54^2 times the sum of the weights'
    sizes, so Int64RangeError when that bound leaves the int64 range.
    Both are refused before the first draw, as is n < 2."""
    m = frame_dim(n)
    if samples < 1:
        raise ContractViolation(f"need at least one sample, got {samples}")
    sizes = [abs(w) for w in _kato_weights(m).tolist()]
    guard_int64(54 ** 2 * sum(sizes), "Kato gap scan")
    square = 54 ** 2 * max(sizes)
    if square > np.iinfo(np.int16).max:
        raise ContractViolation(f"int16 rows out of range: Kato gap scan could reach "
                                f"{square} > {np.iinfo(np.int16).max}")
    rng = random.Random(seed)
    chunk = max(1, _KATO_SCAN_ENTRIES // m ** 2)
    negatives = 0
    unseen = np.iinfo(np.int64).max
    least = np.full(10, unseen, dtype=np.int64)  # denominator q -> least scaled gap
    for start in range(0, samples, chunk):
        h, q = _constrained_batch(m, 4, min(chunk, samples - start), rng)
        gaps = scaled_kato_gap(h)
        negatives += int((gaps < 0).sum())
        np.minimum.at(least, q, gaps)
    # the gap of h / (4q) is scaled_kato_gap(h) / (3 (4q)^2)
    return negatives, min(Fraction(g, 48 * d * d)
                          for d, g in enumerate(least.tolist()) if g != unseen)


def equality_case_hessian(n: int, mu: Fraction) -> HessianMatrix:
    """The equality-case shape: -3 mu at e_1, mu at I e_1, J e_1, K e_1 and
    zero elsewhere (one scalar function of the gradient direction)."""
    diag = np.zeros(frame_dim(n), dtype=np.int64)
    diag[:4] = (-3, 1, 1, 1)  # line_indices(1)
    return HessianMatrix(ExactArray.of(np.diag(diag)) * mu)


def busemann_hessian(n: int) -> HessianMatrix:
    """Equality-case Hessian of the Busemann function,
    diag(0, -2, -2, -2, -1, ..., -1): 0 at e_1, -2 at I e_1, J e_1, K e_1
    and -1 on the other lines.  Trace is -2(2n+1); the e_1 row vanishes."""
    diag = [0, -2, -2, -2] + [-1] * (frame_dim(n) - 4)
    return HessianMatrix(ExactArray.of(np.diag(diag)))
