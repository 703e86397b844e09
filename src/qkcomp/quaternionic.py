"""Quaternionic structure I, J, K on R^{4n}: fundamental forms, the
degree-4 form Omega, the pointwise quaternionic-harmonicity identities,
and the refined Hessian (Kato-type) inequality algebra.

Two index layouts are in common use and both appear across the
verifiers, so each is supported with an exact conversion:

* ``GROUPED``:      e_1..e_n, I e_1..I e_n, J e_1..J e_n, K e_1..K e_n
* ``INTERLEAVED``:  per line s the block (e_{4s-3}, e_{4s-2}, e_{4s-1},
  e_{4s}) = (e_s, I e_s, J e_s, K e_s)

Every cross-module call states its layout; ``layout_permutation`` is the
exact conversion.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .forms import ContractViolation, Form, InnerSpace, Vector, ext_mult, interior, wedge
from .kernel import accumulate_scaled


class Layout(enum.Enum):
    GROUPED = "grouped"
    INTERLEAVED = "interleaved"


@dataclass(frozen=True)
class SignedPermutation:
    """Signed permutation action A e_i = signs[i] * e_{targets[i]} (1-based)."""

    targets: tuple[int, ...]
    signs: tuple[int, ...]

    def apply(self, i: int) -> tuple[int, int]:
        """Image of basis index i as (target index, sign)."""
        return self.targets[i - 1], self.signs[i - 1]

    def compose(self, other: "SignedPermutation") -> "SignedPermutation":
        """self after other: (self*other) e_i = self(other(e_i))."""
        n = len(self.targets)
        targets = []
        signs = []
        for i in range(1, n + 1):
            j, s1 = other.apply(i)
            k, s2 = self.apply(j)
            targets.append(k)
            signs.append(s1 * s2)
        return SignedPermutation(tuple(targets), tuple(signs))

    def __neg__(self) -> "SignedPermutation":
        return SignedPermutation(self.targets, tuple(-s for s in self.signs))

    def apply_vector(self, v: Vector) -> Vector:
        comps = [Fraction(0)] * len(self.targets)
        for i, c in enumerate(v.components, start=1):
            if c:
                t, s = self.apply(i)
                comps[t - 1] += s * c
        return Vector(v.space, tuple(comps))


def _identity_perm(m: int) -> SignedPermutation:
    return SignedPermutation(tuple(range(1, m + 1)), (1,) * m)


@dataclass(frozen=True)
class QuaternionicFrame:
    """Canonical quaternionic actions on R^{4n} for a chosen layout."""

    n: int
    layout: Layout
    I: SignedPermutation
    J: SignedPermutation
    K: SignedPermutation

    @property
    def dim(self) -> int:
        return 4 * self.n

    @property
    def space(self) -> InnerSpace:
        return InnerSpace(self.dim)

    def line_base_indices(self) -> tuple[int, ...]:
        """Indices of the base vector e_s of each quaternionic line."""
        if self.layout is Layout.GROUPED:
            return tuple(range(1, self.n + 1))
        return tuple(4 * s - 3 for s in range(1, self.n + 1))

    def line_indices(self, s: int) -> tuple[int, int, int, int]:
        """Indices (e_s, I e_s, J e_s, K e_s) of line s (1-based)."""
        if self.layout is Layout.GROUPED:
            return (s, self.n + s, 2 * self.n + s, 3 * self.n + s)
        return (4 * s - 3, 4 * s - 2, 4 * s - 1, 4 * s)

    def actions(self) -> tuple[SignedPermutation, SignedPermutation, SignedPermutation]:
        return (self.I, self.J, self.K)


def build_frame(n: int, layout: Layout = Layout.INTERLEAVED) -> QuaternionicFrame:
    """Canonical signed-permutation realization of I, J, K.

    Within each quaternionic line (a, b, c, d) = (e, Ie, Je, Ke):
      I: a->b, b->-a, c->d,  d->-c
      J: a->c, c->-a, b->-d, d->b
      K: a->d, d->-a, b->c,  c->-b
    so that I^2 = J^2 = K^2 = -1 and IJ = K, JK = I, KI = J.
    """
    if n < 2:
        raise ContractViolation(f"quaternionic frames need n >= 2, got n={n}")
    m = 4 * n
    tI = [0] * m
    sI = [0] * m
    tJ = [0] * m
    sJ = [0] * m
    tK = [0] * m
    sK = [0] * m

    frame = QuaternionicFrame(n, layout,
                              _identity_perm(m), _identity_perm(m), _identity_perm(m))
    for s in range(1, n + 1):
        a, b, c, d = frame.line_indices(s)
        for idx, (t, sg) in zip((a, b, c, d),
                                ((b, 1), (a, -1), (d, 1), (c, -1))):
            tI[idx - 1], sI[idx - 1] = t, sg
        for idx, (t, sg) in zip((a, b, c, d),
                                ((c, 1), (d, -1), (a, -1), (b, 1))):
            tJ[idx - 1], sJ[idx - 1] = t, sg
        for idx, (t, sg) in zip((a, b, c, d),
                                ((d, 1), (c, 1), (b, -1), (a, -1))):
            tK[idx - 1], sK[idx - 1] = t, sg

    return QuaternionicFrame(
        n, layout,
        SignedPermutation(tuple(tI), tuple(sI)),
        SignedPermutation(tuple(tJ), tuple(sJ)),
        SignedPermutation(tuple(tK), tuple(sK)),
    )


def layout_permutation(n: int, src: Layout, dst: Layout) -> tuple[int, ...]:
    """perm[i-1] = index in dst layout of the vector indexed i in src layout."""
    if src is dst:
        return tuple(range(1, 4 * n + 1))
    grouped_to_inter = [0] * (4 * n)
    for s in range(1, n + 1):
        for block in range(4):
            grouped_to_inter[block * n + s - 1] = 4 * (s - 1) + block + 1
    if src is Layout.GROUPED:
        return tuple(grouped_to_inter)
    inter_to_grouped = [0] * (4 * n)
    for g, i in enumerate(grouped_to_inter, start=1):
        inter_to_grouped[i - 1] = g
    return tuple(inter_to_grouped)


def convert_layout(frame: QuaternionicFrame, dst: Layout) -> QuaternionicFrame:
    """Rebuild the canonical frame in the destination layout."""
    return build_frame(frame.n, dst)


@dataclass(frozen=True)
class FundamentalForms:
    """The three local 2-forms and the global 4-form they square to."""

    frame: QuaternionicFrame
    omega1: Form
    omega2: Form
    omega3: Form
    Omega: Form


def _act_on_covector(action: SignedPermutation, space: InnerSpace, i: int) -> Form:
    """A theta^i: dual basis transforms like the basis under isometries."""
    t, s = action.apply(i)
    return Form.basis(space, (t,), s)


@lru_cache(maxsize=None)
def build_fundamental_forms(frame: QuaternionicFrame) -> FundamentalForms:
    """omega_1 = sum_i (theta^i ^ I theta^i + J theta^i ^ K theta^i), the
    cyclic companions, and Omega = sum_a omega_a ^ omega_a."""
    space = frame.space
    I, J, K = frame.actions()
    omegas = []
    for first, second in ((I, (J, K)), (J, (K, I)), (K, (I, J))):
        acc = Form.zero(space, 2)
        for i in frame.line_base_indices():
            ti = Form.basis(space, (i,))
            acc = acc + wedge(ti, _act_on_covector(first, space, i))
            acc = acc + wedge(_act_on_covector(second[0], space, i),
                              _act_on_covector(second[1], space, i))
        omegas.append(acc)
    omega1, omega2, omega3 = omegas
    Omega = wedge(omega1, omega1) + wedge(omega2, omega2) + wedge(omega3, omega3)
    return FundamentalForms(frame, omega1, omega2, omega3, Omega)


class HessianMatrix:
    """4n x 4n symmetric matrix of exact rationals, tied to a frame.

    Constraint flags express harmonicity (zero trace) and quaternionic
    harmonicity (each line's four diagonal entries sum to zero)."""

    __slots__ = ("frame", "entries")

    def __init__(self, frame: QuaternionicFrame, entries):
        m = frame.dim
        rows = [tuple(Fraction(x) for x in row) for row in entries]
        if len(rows) != m or any(len(r) != m for r in rows):
            raise ContractViolation(f"expected a {m}x{m} matrix")
        for a in range(m):
            for b in range(a + 1, m):
                if rows[a][b] != rows[b][a]:
                    raise ContractViolation(
                        f"matrix not symmetric at ({a + 1},{b + 1})")
        self.frame = frame
        self.entries = tuple(rows)

    def scaled_entries(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """Entries as integer numerators over their least common
        denominator: ``(rows, den)``."""
        den = math.lcm(*(x.denominator for row in self.entries for x in row))
        return tuple(tuple(x.numerator * (den // x.denominator) for x in row)
                     for row in self.entries), den

    def __getitem__(self, ab: tuple[int, int]) -> Fraction:
        a, b = ab
        return self.entries[a - 1][b - 1]

    @property
    def dim(self) -> int:
        return self.frame.dim

    def trace(self) -> Fraction:
        return sum((self.entries[i][i] for i in range(self.dim)), Fraction(0))

    def is_harmonic(self) -> bool:
        return self.trace() == 0

    def line_sum(self, s: int) -> Fraction:
        idx = self.frame.line_indices(s)
        return sum((self.entries[i - 1][i - 1] for i in idx), Fraction(0))

    def is_quaternionic_harmonic(self) -> bool:
        return all(self.line_sum(s) == 0 for s in range(1, self.frame.n + 1))

    def frobenius_sq(self) -> Fraction:
        return sum((x * x for row in self.entries for x in row), Fraction(0))

    @classmethod
    def zero(cls, frame: QuaternionicFrame) -> "HessianMatrix":
        m = frame.dim
        return cls(frame, [[0] * m for _ in range(m)])


def random_symmetric(frame: QuaternionicFrame, rng: random.Random) -> list[list[Fraction]]:
    m = frame.dim
    h = [[Fraction(0)] * m for _ in range(m)]
    for a in range(m):
        for b in range(a, m):
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            h[a][b] = c
            h[b][a] = c
    return h


def random_traceless_hessian(frame: QuaternionicFrame,
                             rng: random.Random) -> HessianMatrix:
    """Random symmetric matrix projected onto trace zero."""
    h = random_symmetric(frame, rng)
    m = frame.dim
    shift = sum((h[i][i] for i in range(m)), Fraction(0)) / m
    for i in range(m):
        h[i][i] -= shift
    return HessianMatrix(frame, h)


def random_quaternionic_harmonic(frame: QuaternionicFrame,
                                 rng: random.Random) -> HessianMatrix:
    """Exact projection: subtract each line's mean of its four diagonal entries."""
    h = random_symmetric(frame, rng)
    for s in range(1, frame.n + 1):
        idx = frame.line_indices(s)
        mean = sum((h[i - 1][i - 1] for i in idx), Fraction(0)) / 4
        for i in idx:
            h[i - 1][i - 1] -= mean
    return HessianMatrix(frame, h)


def siu_corlette_defect(H: HessianMatrix) -> Form:
    """The degree-4 form sum_{A,B} f_AB theta^B ^ (e_A -| Omega).

    For a harmonic Hessian its coefficient on each line's top monomial
    theta^i ^ I theta^i ^ J theta^i ^ K theta^i is 6 times that line's
    quaternionic-harmonicity defect."""
    if not H.is_harmonic():
        raise ContractViolation("defect form requires a trace-free (harmonic) Hessian")
    frame = H.frame
    space = frame.space
    ff = build_fundamental_forms(frame)
    rows, den = H.scaled_entries()
    out = Form.zero(space, 4)
    for a, row in enumerate(rows, start=1):
        row_form = Form(space, 1, {1 << b: c for b, c in enumerate(row) if c}, den)
        if row_form.is_zero():
            continue
        out = out + wedge(row_form, interior(Vector.basis(space, a), ff.Omega))
    return out


def quaternionic_defects(H: HessianMatrix) -> list[Fraction]:
    """Per-line defect read off the Siu-Corlette form (coefficient / 6)."""
    form = siu_corlette_defect(H)
    out = []
    for s in range(1, H.frame.n + 1):
        idx = H.frame.line_indices(s)
        out.append(form.coefficient(idx) / 6)
    return out


@lru_cache(maxsize=None)
def _commutation_operator_forms(frame: QuaternionicFrame):
    """Precompute ell(e_i) eps(theta_j) Omega and eps(theta_i) ell(e_j) Omega."""
    space = frame.space
    Omega = build_fundamental_forms(frame).Omega
    m = frame.dim
    thetas = [Form.basis(space, (i,)) for i in range(1, m + 1)]
    vecs = [Vector.basis(space, i) for i in range(1, m + 1)]
    eps_then = [ext_mult(thetas[j], Omega) for j in range(m)]
    ell_then = [interior(vecs[j], Omega) for j in range(m)]
    left = [[interior(vecs[i], eps_then[j]) for j in range(m)] for i in range(m)]
    right = [[ext_mult(thetas[i], ell_then[j]) for j in range(m)] for i in range(m)]
    den = math.lcm(*(f.den for ops in (left, right) for row in ops for f in row))
    return left, right, den


def star_commutation_sides(H: HessianMatrix) -> tuple[Form, Form]:
    """Both sides of the pointwise identity
    *d*(df ^ Omega) = (-1)^{m-1} d*(df ^ *Omega) on M^m, m = 4n.

    The left side is evaluated as (-1)^{p(m-p-1)} sum f_ij ell(e_i) eps(theta_j) Omega,
    the right side as (-1)^{m-1} (-1)^{(p-1)(m-p)} sum f_ij eps(theta_i) ell(e_j) Omega,
    with p = 4; the two operator chains are computed independently."""
    if not H.is_harmonic():
        raise ContractViolation("star commutation requires a trace-free Hessian")
    frame = H.frame
    m = frame.dim
    p = 4
    left_ops, right_ops, op_den = _commutation_operator_forms(frame)
    sign_left = -1 if (p * (m - p - 1)) % 2 else 1
    sign_right = -1 if ((p - 1) * (m - p)) % 2 else 1
    sign_eq = -1 if (m - 1) % 2 else 1

    # integer numerators over den * op_den on both sides
    rows, den = H.scaled_entries()
    lhs_terms: dict = {}
    rhs_terms: dict = {}
    for i, row in enumerate(rows):
        for j, c in enumerate(row):
            if not c:
                continue
            left, right = left_ops[i][j], right_ops[i][j]
            accumulate_scaled(lhs_terms, left._terms,
                              c * sign_left * (op_den // left.den))
            accumulate_scaled(rhs_terms, right._terms,
                              c * sign_right * sign_eq * (op_den // right.den))
    space = frame.space
    return (Form(space, 5, lhs_terms, den * op_den),
            Form(space, 5, rhs_terms, den * op_den))


def verify_star_commutation(H: HessianMatrix) -> bool:
    lhs, rhs = star_commutation_sides(H)
    return lhs == rhs


@dataclass(frozen=True)
class KatoReport:
    """Refined Hessian inequality |H|^2 >= (4/3) |grad |grad f||^2, split into
    the three intermediate slacks of the chain (each nonnegative)."""

    gap: Fraction
    slack_dropped_entries: Fraction
    slack_cauchy_schwarz: Fraction
    slack_row_factor: Fraction

    @property
    def nonnegative(self) -> bool:
        return self.gap >= 0


def refined_kato_gap(H: HessianMatrix, gradient_direction: int = 1) -> KatoReport:
    """Exact gap |H|^2 - (4/3) sum_A H[1,A]^2 for a quaternionic-harmonic
    Hessian in the grouped layout with e_1 the gradient direction."""
    if H.frame.layout is not Layout.GROUPED:
        raise ContractViolation("refined Kato gap is stated in the grouped layout")
    if gradient_direction != 1:
        raise ContractViolation("gradient direction must be the first basis vector")
    if not H.is_quaternionic_harmonic():
        raise ContractViolation("Hessian must carry the quaternionic-harmonic flag")
    n = H.frame.n
    m = H.dim
    e = H.entries
    f11 = e[0][0]
    diag_iks = [e[i * n][i * n] for i in range(1, 4)]  # (in+1, in+1), i = 1..3
    row_sq = sum((e[0][a] * e[0][a] for a in range(1, m)), Fraction(0))

    frob = H.frobenius_sq()
    retained = f11 * f11 + sum((d * d for d in diag_iks), Fraction(0)) + 2 * row_sq
    slack1 = frob - retained

    s = sum(diag_iks, Fraction(0))
    slack2 = sum((d * d for d in diag_iks), Fraction(0)) - s * s / 3

    slack3 = Fraction(2, 3) * row_sq

    grad_sq = f11 * f11 + row_sq
    gap = frob - Fraction(4, 3) * grad_sq
    if gap != slack1 + slack2 + slack3:
        raise RuntimeError(f"Kato slacks {slack1}, {slack2}, {slack3} do not "
                           f"sum to the gap {gap}")
    return KatoReport(gap, slack1, slack2, slack3)


def kato_gap_scan(n: int, samples: int, seed: int) -> tuple[int, Fraction]:
    """Sample quaternionic-harmonic Hessians and scan the Kato gap.

    Runs the same formula as :func:`refined_kato_gap` with denominators
    cleared to integers, so large sample counts stay cheap while the
    arithmetic stays exact.  Returns (number of negative gaps, minimal
    gap seen)."""
    if samples < 1:
        raise ContractViolation(f"need at least one sample, got {samples}")
    rng = random.Random(seed)
    m = 4 * n
    negatives = 0
    min_gap: Fraction | None = None
    for _ in range(samples):
        # integer numerators over one common denominator q, scaled by 12
        # (4 for the line projection, 3 for the 4/3 factor)
        q = rng.randint(1, 9)
        h = [[0] * m for _ in range(m)]
        for a in range(m):
            for b in range(a, m):
                v = rng.randint(-9, 9) * 12
                h[a][b] = v
                h[b][a] = v
        for s in range(n):
            idx = (s, n + s, 2 * n + s, 3 * n + s)
            mean4 = sum(h[i][i] for i in idx) // 4  # entries are multiples of 12
            for i in idx:
                h[i][i] -= mean4
        frob3 = 3 * sum(h[a][b] * h[a][b] for a in range(m) for b in range(m))
        grad4 = 4 * sum(h[0][a] * h[0][a] for a in range(m))
        gap_scaled = frob3 - grad4  # = 3 * (12 q)^2 * gap
        if gap_scaled < 0:
            negatives += 1
        gap = Fraction(gap_scaled, 3 * (12 * q) ** 2)
        if min_gap is None or gap < min_gap:
            min_gap = gap
    return negatives, min_gap


def equality_case_hessian(frame: QuaternionicFrame, mu: Fraction) -> HessianMatrix:
    """The equality-case shape diag(-3 mu, 0, ..; mu, 0, ..; mu, 0, ..; mu, 0, ..)
    in the grouped layout (one scalar function of the gradient direction)."""
    if frame.layout is not Layout.GROUPED:
        raise ContractViolation("equality case is stated in the grouped layout")
    n = frame.n
    m = frame.dim
    h = [[Fraction(0)] * m for _ in range(m)]
    h[0][0] = -3 * Fraction(mu)
    for i in range(1, 4):
        h[i * n][i * n] = Fraction(mu)
    return HessianMatrix(frame, h)


def busemann_hessian(n: int) -> HessianMatrix:
    """Equality-case Hessian of the Busemann function, grouped layout:
    block diag(D1, D2, D2, D2) with D1 = diag(0, -1, .., -1) and
    D2 = diag(-2, -1, .., -1).  Trace is -2(2n+1); the e_1 row vanishes."""
    frame = build_frame(n, Layout.GROUPED)
    m = frame.dim
    h = [[Fraction(0)] * m for _ in range(m)]
    for i in range(2, n + 1):
        h[i - 1][i - 1] = Fraction(-1)
    for block in range(1, 4):
        base = block * n
        h[base][base] = Fraction(-2)
        for i in range(2, n + 1):
            h[base + i - 1][base + i - 1] = Fraction(-1)
    return HessianMatrix(frame, h)
