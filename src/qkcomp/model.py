"""Exact left-invariant solvable model of quaternionic hyperbolic space.

The algebra is s = span(e_1) + z + v over the quaternionic frame, with
z = span(e_2, e_3, e_4) the center directions (I e_1, J e_1, K e_1) and
v = span(e_5 .. e_{4n}).  Brackets:

    [e_1, z_p] = 2 z_p,   [e_1, v_a] = v_a,   [z, z] = [z, v] = 0,
    [u, w] = c ( <Iu,w> e_2 + <Ju,w> e_3 + <Ku,w> e_4 )  for u, w in v.

The center-bracket scale c is not assumed: it is derived by solving the
Einstein condition Ric = -4(n+2) id at n = 2 over a rational sweep, then
cross-checked against the curvature tables.  The Levi-Civita connection comes from the Koszul
formula for left-invariant orthonormal frames,

    2 Gamma^C_AB = C^C_AB - C^A_BC + C^B_CA,

and the curvature tensor follows the convention
R_ABCD = <R(e_A, e_B) e_D, e_C> with K(X, Y) = <R(X,Y)Y, X>.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .forms import ContractViolation, Form, Vector, form_inner, wedge
from .quaternionic import QuaternionicFrame, build_frame, build_fundamental_forms
from .report import Check, check_eq, check_true


class ModelConstructionError(RuntimeError):
    """No bracket scale satisfies the Einstein condition exactly."""


EINSTEIN_SWEEP = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3))


def _zeros3(m: int) -> list:
    return [[[Fraction(0)] * m for _ in range(m)] for _ in range(m)]


def _bracket_table(n: int, c: Fraction) -> list:
    """Dense structure constants C[A][B][D] with [e_A, e_B] = sum_D C[A][B][D] e_D."""
    m = 4 * n
    frame = build_frame(n)
    C = _zeros3(m)
    for p in range(1, m):  # 0-based targets: indices 2..4n
        scale = Fraction(2) if p <= 3 else Fraction(1)
        C[0][p][p] = scale
        C[p][0][p] = -scale
    actions = frame.actions()
    for a in range(4, m):
        for b in range(4, m):
            if a == b:
                continue
            for p, act in enumerate(actions, start=1):
                t, s = act.apply(a + 1)
                if t == b + 1:
                    C[a][b][p] += c * s
    return C


def bracket_nonzero(C) -> dict[tuple[int, int], list[tuple[int, Fraction]]]:
    m = len(C)
    out: dict = {}
    for a in range(m):
        for b in range(m):
            nz = [(d, C[a][b][d]) for d in range(m) if C[a][b][d]]
            if nz:
                out[(a, b)] = nz
    return out


def jacobi_violations(C) -> int:
    """Number of (A, B, D, component) slots where the Jacobi identity fails."""
    m = len(C)
    nz = bracket_nonzero(C)
    bad = 0
    for a in range(m):
        for b in range(a + 1, m):
            for d in range(b + 1, m):
                acc = [Fraction(0)] * m
                for (x, y, z) in ((a, b, d), (b, d, a), (d, a, b)):
                    for e, coeff in nz.get((x, y), ()):
                        for f, coeff2 in nz.get((e, z), ()):
                            acc[f] += coeff * coeff2
                bad += sum(1 for v in acc if v)
    return bad


@dataclass(frozen=True)
class StructureConstants:
    """Exact structure constants of the solvable model, with the derived
    center-bracket scale and a record of how it was derived."""

    n: int
    c: Fraction
    table: tuple  # C[A][B][D], dense nested tuples
    derivation: tuple  # ((candidate, einstein_ok), ...)

    @property
    def dim(self) -> int:
        return 4 * self.n

    def bracket(self, a: int, b: int) -> tuple[Fraction, ...]:
        """Components of [e_a, e_b] (1-based arguments)."""
        return self.table[a - 1][b - 1]


def levi_civita_table(C) -> list:
    """Koszul formula: Gamma[A][B][D] with nabla_{e_A} e_B = sum Gamma e_D."""
    m = len(C)
    G = _zeros3(m)
    half = Fraction(1, 2)
    for a in range(m):
        for b in range(m):
            for d in range(m):
                v = C[a][b][d] - C[b][d][a] + C[d][a][b]
                if v:
                    G[a][b][d] = half * v
    return G


@dataclass(frozen=True)
class ConnectionCoefficients:
    table: tuple  # Gamma[A][B][D]

    @property
    def dim(self) -> int:
        return len(self.table)

    def gamma(self, a: int, b: int, d: int) -> Fraction:
        """<nabla_{e_a} e_b, e_d> (1-based)."""
        return self.table[a - 1][b - 1][d - 1]


def curvature_table(C, G) -> list:
    """R[A][B][C][D] = <R(e_A, e_B) e_D, e_C>, dense.

    R(e_a, e_b) e_d = nabla_a nabla_b e_d - nabla_b nabla_a e_d
    - nabla_{[e_a, e_b]} e_d, everything contracted through Gamma."""
    m = len(C)
    nz_brackets = bracket_nonzero(C)
    R: list = [[None] * m for _ in range(m)]
    for a in range(m):
        R[a][a] = [[Fraction(0)] * m for _ in range(m)]
    for a in range(m):
        for b in range(a + 1, m):
            slab = [[Fraction(0)] * m for _ in range(m)]
            for d in range(m):
                for e in range(m):
                    v = G[b][d][e]
                    if v:
                        Ge = G[a][e]
                        for cc in range(m):
                            if Ge[cc]:
                                slab[cc][d] += v * Ge[cc]
                    v2 = G[a][d][e]
                    if v2:
                        Ge = G[b][e]
                        for cc in range(m):
                            if Ge[cc]:
                                slab[cc][d] -= v2 * Ge[cc]
                for e, coeff in nz_brackets.get((a, b), ()):
                    Ged = G[e][d]
                    for cc in range(m):
                        if Ged[cc]:
                            slab[cc][d] -= coeff * Ged[cc]
            R[a][b] = slab
            R[b][a] = [[-slab[cc][d] for d in range(m)] for cc in range(m)]
    return R


class CurvatureTensor:
    """Exact 4-index curvature array in the fixed convention."""

    __slots__ = ("n", "dim", "_R")

    def __init__(self, n: int, R):
        self.n = n
        self.dim = len(R)
        self._R = R

    def entry(self, a: int, b: int, c: int, d: int) -> Fraction:
        """R_{abcd} = <R(e_a, e_b) e_d, e_c> (1-based)."""
        return self._R[a - 1][b - 1][c - 1][d - 1]

    def operator(self, a: int, b: int):
        """Matrix of R(e_a, e_b): rows are output components."""
        return self._R[a - 1][b - 1]

    def sectional(self, a: int, b: int) -> Fraction:
        """K(e_a, e_b) = R_{abab}."""
        return self.entry(a, b, a, b)

    def ricci(self) -> list:
        m = self.dim
        R = self._R
        return [[sum((R[b][i][d][i] for i in range(m)), Fraction(0))
                 for d in range(m)] for b in range(m)]

    def scalar(self) -> Fraction:
        ric = self.ricci()
        return sum((ric[i][i] for i in range(self.dim)), Fraction(0))

    def symmetry_violations(self) -> int:
        """Slots violating the pair symmetries or the first Bianchi identity."""
        m = self.dim
        R = self._R
        bad = 0
        for a in range(m):
            for b in range(a, m):
                for c in range(m):
                    for d in range(c, m):
                        v = R[a][b][c][d]
                        if R[b][a][c][d] != -v:
                            bad += 1
                        if R[a][b][d][c] != -v:
                            bad += 1
                        if R[c][d][a][b] != v:
                            bad += 1
        for a in range(m):
            for b in range(a + 1, m):
                for c in range(b + 1, m):
                    for d in range(m):
                        # first Bianchi on the vector slots (a, b, c)
                        s = (R[a][b][d][c] + R[b][c][d][a] + R[c][a][d][b])
                        if s:
                            bad += 1
        return bad


@lru_cache(maxsize=None)
def _derive_bracket_scale() -> tuple[Fraction, tuple]:
    """Solve the one-parameter Einstein condition at n = 2: exactly one
    candidate of EINSTEIN_SWEEP must satisfy it."""
    n = 2
    target = Fraction(-4 * (n + 2))

    def einstein_ok(c: Fraction) -> bool:
        C = _bracket_table(n, c)
        G = levi_civita_table(C)
        R = CurvatureTensor(n, curvature_table(C, G))
        ric = R.ricci()
        m = 4 * n
        return all(ric[i][j] == (target if i == j else 0)
                   for i in range(m) for j in range(m))

    record = tuple((cand, einstein_ok(cand)) for cand in EINSTEIN_SWEEP)
    matches = [cand for cand, ok in record if ok]
    if len(matches) != 1:
        raise ModelConstructionError(f"need exactly one Einstein scale, found {matches}")
    return matches[0], record


def build_model(n: int) -> StructureConstants:
    """Construct the solvable model; the bracket scale is derived once."""
    if n < 2:
        raise ContractViolation(f"the model requires n >= 2, got n={n}")
    c, record = _derive_bracket_scale()
    C = _bracket_table(n, c)
    if jacobi_violations(C) != 0:
        raise ModelConstructionError("Jacobi identity fails for the bracket table")
    table = tuple(tuple(tuple(row) for row in slab) for slab in C)
    return StructureConstants(n, c, table, record)


def levi_civita(sc: StructureConstants) -> ConnectionCoefficients:
    G = levi_civita_table([list(map(list, slab)) for slab in sc.table])
    return ConnectionCoefficients(tuple(tuple(tuple(r) for r in slab) for slab in G))


def curvature(sc: StructureConstants,
              cc: ConnectionCoefficients | None = None) -> CurvatureTensor:
    C = [list(map(list, slab)) for slab in sc.table]
    if cc is None:
        G = levi_civita_table(C)
    else:
        G = [list(map(list, slab)) for slab in cc.table]
    return CurvatureTensor(sc.n, curvature_table(C, G))


@lru_cache(maxsize=None)
def model_curvature(n: int) -> CurvatureTensor:
    return curvature(build_model(n))


def verify_einstein(R: CurvatureTensor, n: int) -> list[Check]:
    """Ric = -4(n+2) id and scalar curvature -16 n (n+2), exactly."""
    ric = R.ricci()
    m = R.dim
    target = Fraction(-4 * (n + 2))
    diag_bad = sum(1 for i in range(m) if ric[i][i] != target)
    off_bad = sum(1 for i in range(m) for j in range(m)
                  if i != j and ric[i][j] != 0)
    return [
        check_eq("einstein diagonal entries equal -4(n+2)", 0, diag_bad),
        check_eq("einstein off-diagonal entries vanish", 0, off_bad),
        check_eq("scalar curvature", Fraction(-16 * n * (n + 2)), R.scalar()),
    ]


def verify_quaternionic_traces(R: CurvatureTensor,
                               frame: QuaternionicFrame) -> list[Check]:
    """Three-sum -12 and four-sum -4 trace identities on every admissible
    frame configuration (delta = -1 normalization).

    This is the pointwise form of the parallel-transport statement along
    geodesics; on the homogeneous model the two are equivalent."""
    m = frame.dim
    acts = frame.actions()

    def img(idx: int, k: int) -> int:
        return acts[k].apply(idx)[0]

    three_bad = 0
    for a in range(1, m + 1):
        s = sum((R.sectional(a, img(a, k)) for k in range(3)), Fraction(0))
        if s != -12:
            three_bad += 1

    four_bad = 0
    four_total = 0
    for a in range(1, m + 1):
        line = {a, img(a, 0), img(a, 1), img(a, 2)}
        for b in range(1, m + 1):
            if b in line:
                continue
            four_total += 1
            s = R.sectional(a, b) + sum(
                (R.sectional(a, img(b, k)) for k in range(3)), Fraction(0))
            if s != -4:
                four_bad += 1

    return [
        check_eq("three-sum K(X,IX)+K(X,JX)+K(X,KX) = -12, all frame X", 0, three_bad),
        Check("four-sum over quaternionic span = -4, all admissible pairs",
              f"0 of {four_total}", f"{four_bad} of {four_total}", four_bad == 0),
    ]


def _structure_matrix(perm, m: int) -> list:
    M = [[0] * m for _ in range(m)]
    for col in range(1, m + 1):
        t, s = perm.apply(col)
        M[t - 1][col - 1] = s
    return M


def _mat_commutator(A, perm, m: int):
    """[A, P] for the matrix P of a signed permutation, in O(m^2):
    (AP)[i][j] = s_j A[i][sigma(j)-1], (PA)[i][j] = s_k A[k][j] with sigma(k) = i."""
    inv = [0] * m
    for k in range(1, m + 1):
        t, _ = perm.apply(k)
        inv[t - 1] = k
    out = []
    for i in range(m):
        k = inv[i]
        _, sk = perm.apply(k)
        rowA = A[i]
        rowK = A[k - 1]
        row = []
        for j in range(m):
            t, sj = perm.apply(j + 1)
            row.append(sj * rowA[t - 1] - sk * rowK[j])
        out.append(row)
    return out


def _trace_inner(A, B, m: int) -> Fraction:
    return sum((A[i][j] * B[i][j] for i in range(m) for j in range(m)
                if A[i][j] and B[i][j]), Fraction(0))


@dataclass
class BergerData:
    """Curvature commutator 2-forms: alpha, beta, gamma as antisymmetric
    matrices over the frame."""

    alpha: list
    beta: list
    gamma: list
    checks: list[Check]


def verify_berger(R: CurvatureTensor, frame: QuaternionicFrame, n: int,
                  seed: int = 0, triple_samples: int = 60) -> BergerData:
    """Lemma-level commutator structure of R(X,Y) against I, J, K.

    For every frame pair, [R(X,Y), I] must equal gamma J - beta K (and
    cyclically), the extractions from different commutators must agree,
    and alpha(X, IY) = beta(X, JY) = gamma(X, KY) = -Ric(X,Y)/(n+2)
    = 4 <X, Y>.  Also spot-checks the three curvature-pair identities
    <R(X,Y)Z, IZ> + <R(X,Y)JZ, KZ> = alpha(X,Y) |Z|^2 on seeded frame triples."""
    m = frame.dim
    I, J, K = frame.actions()
    MI, MJ, MK = (_structure_matrix(p, m) for p in (I, J, K))
    ric = R.ricci()

    alpha = [[Fraction(0)] * m for _ in range(m)]
    beta = [[Fraction(0)] * m for _ in range(m)]
    gamma = [[Fraction(0)] * m for _ in range(m)]

    span_bad = 0
    cross_bad = 0

    def residual_ok(com, c1, P1, c2, P2) -> bool:
        for i in range(m):
            for j in range(m):
                if com[i][j] != c1 * P1[i][j] + c2 * P2[i][j]:
                    return False
        return True

    for a in range(m):
        for b in range(m):
            if a == b:
                continue
            Rop = R.operator(a + 1, b + 1)
            com_i = _mat_commutator(Rop, I, m)
            com_j = _mat_commutator(Rop, J, m)
            com_k = _mat_commutator(Rop, K, m)
            g1 = _trace_inner(com_i, MJ, m) / m
            b1 = -_trace_inner(com_i, MK, m) / m
            a1 = _trace_inner(com_j, MK, m) / m
            g2 = -_trace_inner(com_j, MI, m) / m
            b2 = _trace_inner(com_k, MI, m) / m
            a2 = -_trace_inner(com_k, MJ, m) / m
            if g1 != g2 or b1 != b2 or a1 != a2:
                cross_bad += 1
            if not (residual_ok(com_i, g1, MJ, -b1, MK)
                    and residual_ok(com_j, -g1, MI, a1, MK)
                    and residual_ok(com_k, b1, MI, -a1, MJ)):
                span_bad += 1
            alpha[a][b] = a1
            beta[a][b] = b1
            gamma[a][b] = g1

    eq1_bad = 0
    ric_bad = 0
    for a in range(m):
        for b in range(m):
            tI, sI = I.apply(b + 1)
            tJ, sJ = J.apply(b + 1)
            tK, sK = K.apply(b + 1)
            want = Fraction(4 if a == b else 0)
            if sI * alpha[a][tI - 1] != want:
                eq1_bad += 1
            if sJ * beta[a][tJ - 1] != want:
                eq1_bad += 1
            if sK * gamma[a][tK - 1] != want:
                eq1_bad += 1
            if sI * alpha[a][tI - 1] != -ric[a][b] / (n + 2):
                ric_bad += 1

    rng = random.Random(seed)
    triple_bad = 0
    for _ in range(triple_samples):
        a = rng.randrange(m)
        b = rng.randrange(m)
        if a == b:
            continue
        cidx = rng.randrange(m) + 1
        tI, sI = I.apply(cidx)
        tJ, sJ = J.apply(cidx)
        tK, sK = K.apply(cidx)
        lhs_a = sI * R.entry(a + 1, b + 1, tI, cidx) \
            + sJ * sK * R.entry(a + 1, b + 1, tK, tJ)
        lhs_b = sJ * R.entry(a + 1, b + 1, tJ, cidx) \
            + sK * sI * R.entry(a + 1, b + 1, tI, tK)
        lhs_g = sK * R.entry(a + 1, b + 1, tK, cidx) \
            + sI * sJ * R.entry(a + 1, b + 1, tJ, tI)
        if lhs_a != alpha[a][b] or lhs_b != beta[a][b] or lhs_g != gamma[a][b]:
            triple_bad += 1

    checks = [
        check_eq("[R(X,Y), I] lies in span{J, K} (and cyclic)", 0, span_bad),
        check_eq("commutator extractions consistent across I, J, K", 0, cross_bad),
        check_eq("alpha(X,IY) = beta(X,JY) = gamma(X,KY) = 4<X,Y>", 0, eq1_bad),
        check_eq("alpha(X,IY) = -Ric(X,Y)/(n+2)", 0, ric_bad),
        check_eq("curvature-pair identities on seeded frame triples", 0, triple_bad),
    ]
    return BergerData(alpha, beta, gamma, checks)


def expected_radial_slabs(n: int) -> dict[tuple[int, int, int, int], Fraction]:
    """The tabulated R_{1pAB} and R_{1aAB} families (all other slab-1
    entries vanish)."""
    t: dict[tuple[int, int, int, int], Fraction] = {}

    def put(a, b, c, d, v):
        t[(a, b, c, d)] = Fraction(v)
        t[(a, b, d, c)] = Fraction(-v)

    for p in (2, 3, 4):
        put(1, p, 1, p, -4)
    for al in range(5, 4 * n + 1):
        put(1, al, 1, al, -1)
    for s in range(2, n + 1):
        a4, b4, c4, d4 = 4 * s - 3, 4 * s - 2, 4 * s - 1, 4 * s
        put(1, 2, c4, d4, -2)
        put(1, 2, a4, b4, -2)
        put(1, 3, d4, b4, -2)
        put(1, 3, c4, a4, 2)
        put(1, 4, d4, a4, 2)
        put(1, 4, c4, b4, 2)
        # the transversal slabs, both members of each displayed pair
        put(1, d4, c4, 2, -1)
        put(1, c4, d4, 2, 1)
        put(1, d4, b4, 3, 1)
        put(1, b4, d4, 3, -1)
        put(1, d4, a4, 4, -1)
        put(1, a4, d4, 4, 1)
        put(1, c4, a4, 3, -1)
        put(1, a4, c4, 3, 1)
        put(1, c4, b4, 4, -1)
        put(1, b4, c4, 4, 1)
        put(1, b4, a4, 2, -1)
        put(1, a4, b4, 2, 1)
    return t


def verify_radial_slabs(R: CurvatureTensor, n: int) -> list[Check]:
    """Every R_{1BCD} entry against the tabulated families, including the
    '= 0 otherwise' clauses."""
    expected = expected_radial_slabs(n)
    m = R.dim
    bad = 0
    listed_bad = 0
    for b in range(2, m + 1):
        for c in range(1, m + 1):
            for d in range(1, m + 1):
                want = expected.get((1, b, c, d), Fraction(0))
                got = R.entry(1, b, c, d)
                if got != want:
                    bad += 1
                    if (1, b, c, d) in expected:
                        listed_bad += 1
    total = (m - 1) * m * m
    return [
        Check("radial curvature slabs R_{1BCD} match the tables",
              f"0 of {total}", f"{bad} of {total}", bad == 0),
        check_eq("tabulated nonzero radial entries", 0, listed_bad),
    ]


def exterior_derivative(sc: StructureConstants, omega: Form) -> Form:
    """d on left-invariant forms: d theta^C = -(1/2) C^C_AB theta^A ^ theta^B,
    extended as an antiderivation."""
    m = sc.dim
    space = omega.space
    d_one = []
    for cidx in range(1, m + 1):
        acc = Form.zero(space, 2)
        for a in range(1, m + 1):
            for b in range(a + 1, m + 1):
                coeff = sc.table[a - 1][b - 1][cidx - 1]
                if coeff:
                    acc = acc + Form.basis(space, (a, b), -coeff)
        d_one.append(acc)
    out = Form.zero(space, omega.degree + 1)
    for idx, coeff in omega.terms().items():
        for pos, i in enumerate(idx):
            rest = idx[:pos] + idx[pos + 1:]
            sign = -1 if pos % 2 else 1
            out = out + wedge(d_one[i - 1], Form.basis(space, rest, sign * coeff))
    return out


def covariant_derivative(cc: ConnectionCoefficients, a: int, omega: Form) -> Form:
    """nabla_{e_a} omega for a left-invariant form (1-based direction)."""
    m = cc.dim
    space = omega.space
    from .forms import ext_mult, interior

    out = Form.zero(space, omega.degree)
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            coeff = cc.gamma(a, i, j)
            if coeff:
                contracted = interior(Vector.basis(space, j), omega)
                out = out - ext_mult(Form.basis(space, (i,), coeff), contracted)
    return out


@dataclass
class Sp1Connection:
    """The local 1-forms a, b, c read off the connection's rotation of the
    fundamental 2-forms."""

    a: list
    b: list
    c: list
    checks: list[Check]


def verify_parallel_four_form(sc: StructureConstants,
                              frame: QuaternionicFrame,
                              berger: BergerData | None = None) -> Sp1Connection:
    """d Omega = 0, nabla Omega = 0, the sp(1) rotation of the omega_a, and
    the curvature relation alpha = da + b ^ c (with its cyclic companions)."""
    if frame.n != sc.n:
        raise ContractViolation("frame must be the model frame")
    cc = levi_civita(sc)
    ff = build_fundamental_forms(frame)
    space = frame.space
    m = sc.dim
    norm = Fraction(2 * frame.n)

    checks: list[Check] = []
    dOmega = exterior_derivative(sc, ff.Omega)
    checks.append(check_true("d Omega = 0", dOmega.is_zero()))

    a_coms = [Fraction(0)] * m
    b_coms = [Fraction(0)] * m
    c_coms = [Fraction(0)] * m
    rotation_bad = 0
    nabla_omega_bad = 0
    for x in range(1, m + 1):
        d1 = covariant_derivative(cc, x, ff.omega1)
        d2 = covariant_derivative(cc, x, ff.omega2)
        d3 = covariant_derivative(cc, x, ff.omega3)
        cx = form_inner(d1, ff.omega2) / norm
        bx = -form_inner(d1, ff.omega3) / norm
        ax = form_inner(d2, ff.omega3) / norm
        a_coms[x - 1], b_coms[x - 1], c_coms[x - 1] = ax, bx, cx
        if (d1 != cx * ff.omega2 - bx * ff.omega3
                or d2 != -cx * ff.omega1 + ax * ff.omega3
                or d3 != bx * ff.omega1 - ax * ff.omega2):
            rotation_bad += 1
        if not covariant_derivative(cc, x, ff.Omega).is_zero():
            nabla_omega_bad += 1
    checks.append(check_eq("nabla_X omega_a is the sp(1) rotation, all X",
                           0, rotation_bad))
    checks.append(check_eq("nabla_X Omega = 0, all X", 0, nabla_omega_bad))

    def one_form(coms) -> Form:
        return Form.from_terms(space, 1,
                               {(i,): coms[i - 1] for i in range(1, m + 1)
                                if coms[i - 1]})

    fa, fb, fc = one_form(a_coms), one_form(b_coms), one_form(c_coms)
    alpha_conn = exterior_derivative(sc, fa) + wedge(fb, fc)
    beta_conn = exterior_derivative(sc, fb) + wedge(fc, fa)
    gamma_conn = exterior_derivative(sc, fc) + wedge(fa, fb)

    if berger is not None:
        def two_form(mat) -> Form:
            terms = {}
            for i in range(1, m + 1):
                for j in range(i + 1, m + 1):
                    if mat[i - 1][j - 1]:
                        terms[(i, j)] = mat[i - 1][j - 1]
            return Form.from_terms(space, 2, terms)

        checks.append(check_true("alpha = da + b ^ c matches the curvature alpha",
                                 alpha_conn == two_form(berger.alpha)))
        checks.append(check_true("beta = db + c ^ a matches the curvature beta",
                                 beta_conn == two_form(berger.beta)))
        checks.append(check_true("gamma = dc + a ^ b matches the curvature gamma",
                                 gamma_conn == two_form(berger.gamma)))
    return Sp1Connection(a_coms, b_coms, c_coms, checks)
