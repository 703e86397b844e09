"""Exact left-invariant solvable model of quaternionic hyperbolic space.

The algebra is s = span(e_1) + z + v over the quaternionic frame, with
z = span(e_2, e_3, e_4) the center directions (I e_1, J e_1, K e_1) and
v = span(e_5 .. e_{4n}).  Brackets:

    [e_1, z_p] = 2 z_p,   [e_1, v_a] = v_a,   [z, z] = [z, v] = 0,
    [u, w] = c ( <Iu,w> e_2 + <Ju,w> e_3 + <Ku,w> e_4 )  for u, w in v.

The center-bracket scale c is not assumed: it is derived by solving the
Einstein condition Ric = -4(n+2) id at n = 2 over a rational sweep, then
cross-checked against the curvature tables (`bracket_scale`).  A model is
its bracket table C[A, B, D], built read-only and Jacobi-checked once per n
by `build_model(n)`; every verifier takes only the table it checks, reading
n off its dimension and I, J, K from `quaternionic_actions(n)`.  The
Levi-Civita connection Gamma = `levi_civita_table(C)` is the Koszul formula
for left-invariant orthonormal frames,

    2 Gamma^C_AB = C^C_AB - C^A_BC + C^B_CA,

and the curvature tensor is its table R[A, B, C, D] = `curvature(C)`,
0-based, in the convention R_ABCD = <R(e_A, e_B) e_D, e_C> with
K(X, Y) = <R(X,Y)Y, X>, read by `sectional`, `ricci` and
`symmetry_violations`.  `curvature` serves every bracket table: the
model's, each Einstein-sweep candidate's and each horosphere's.

On left-invariant forms d and nabla_X both run through one int64 map per
form, h -> sum h_ij theta^i ^ iota(e_j) omega (`quaternionic.derivation_maps`):
nabla_{e_x} omega is its image at h = -Gamma[x], for every x at once, and
d omega is -(1/2) sum_A theta^A ^ (its image at h = C[A]) (`exterior_derivative`).

Every table here and on the horospheres of `levelset` (C, Gamma, R) is a
`forms.ExactArray`: int64 numerators over one positive denominator.
Koszul, curvature and the identity batteries are `contract` (np.einsum)
reductions, gathers through the signed permutations I, J, K (the Berger
commutators) and elementwise comparisons of numerators, each refused with
Int64RangeError if they could pass 2^62; single entries are `Fraction`s.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .forms import ContractViolation, ExactArray, Form, contract, guard_int64
from .quaternionic import (_below, _FormMap, derivation_maps, frame_dim, fundamental_forms,
                           line_indices, quaternionic_actions)
from .report import Check, check_eq, check_true


class ModelConstructionError(RuntimeError):
    """No bracket scale satisfies the Einstein condition exactly, or a
    bracket table (of the model or of a horosphere) breaks the Jacobi
    identity: an internal failure, never bad input."""


EINSTEIN_SWEEP = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3))
# the largest n build_model accepts: the curvature tables hold (4n)^4 entries,
# 2^20 at n = 8
MAX_MODEL_N = 8


def _bracket_table(n: int, c: Fraction) -> ExactArray:
    """Structure constants C[A, B, D] with [e_A, e_B] = sum_D C[A, B, D] e_D
    (0-based axes)."""
    c = Fraction(c)
    m = 4 * n
    num = np.zeros((m, m, m), dtype=np.int64)
    targets = np.arange(1, m)
    radial = np.where(targets <= 3, 2, 1) * c.denominator
    num[0, targets, targets] = radial
    num[targets, 0, targets] = -radial
    # [v_a, v_b] = c sum_p <I_p v_a, v_b> e_p
    for p, A in enumerate(quaternionic_actions(n), start=1):
        num[4:, 4:, p] += c.numerator * A.num[4:, 4:].T
    return ExactArray.of(num, c.denominator)


def jacobi_violations(C: ExactArray) -> int:
    """Number of (A < B < D, component) slots where the Jacobi identity fails."""
    J = contract("abe,edf->abdf", C, C)  # [[e_a, e_b], e_d]
    cyclic = J + contract("bdaf->abdf", J) + contract("dabf->abdf", J)
    a, b, d = np.ogrid[:len(C.num), :len(C.num), :len(C.num)]
    return int(np.count_nonzero(cyclic.num[(a < b) & (b < d)]))


def levi_civita_table(C: ExactArray) -> ExactArray:
    """Koszul formula: Gamma[A, B, D] with nabla_{e_A} e_B = sum_D Gamma e_D,
    2 Gamma_ABD = C_ABD - C_BDA + C_DAB."""
    return (C - contract("bda->abd", C) + contract("dab->abd", C)) * Fraction(1, 2)


def curvature(C: ExactArray) -> ExactArray:
    """R[A, B, C, D] = <R(e_A, e_B) e_D, e_C>, 0-based, of any bracket table C
    (the model, an Einstein-sweep candidate, a horosphere) from
    R(e_a, e_b) e_d = nabla_a nabla_b e_d - nabla_b nabla_a e_d
    - nabla_{[e_a, e_b]} e_d, everything contracted through
    Gamma = `levi_civita_table(C)`."""
    G = levi_civita_table(C)
    return (contract("bde,aec->abcd", G, G) - contract("ade,bec->abcd", G, G)
            - contract("abe,edc->abcd", C, G))


def sectional(R: ExactArray) -> ExactArray:
    """K[A, B] = R_ABAB, 0-based."""
    return contract("abab->ab", R)


def ricci(R: ExactArray) -> ExactArray:
    """Ric[B, D] = sum_I R_BIDI, 0-based."""
    return contract("bidi->bd", R)


def symmetry_violations(R: ExactArray) -> int:
    """Slots violating the pair symmetries or the first Bianchi identity."""
    m = len(R.num)
    a, b, c, d = np.ogrid[:m, :m, :m, :m]
    pairs = (a <= b) & (c <= d)
    bad = sum(np.count_nonzero(pairs & R.ne(other))
              for other in (-contract("bacd->abcd", R), -contract("abdc->abcd", R),
                            contract("cdab->abcd", R)))
    # first Bianchi on the vector slots (a, b, c)
    bianchi = (contract("abdc->abcd", R) + contract("bcda->abcd", R)
               + contract("cadb->abcd", R))
    bad += np.count_nonzero(((a < b) & (b < c)) & (bianchi.num != 0))
    return int(bad)


def _einstein_violations(R: ExactArray) -> np.ndarray:
    """Where Ric differs from -4(n+2) id, n = dim / 4."""
    m = len(R.num)
    return ricci(R).ne(ExactArray.of(-4 * (m // 4 + 2) * np.eye(m, dtype=np.int64)))


@lru_cache(maxsize=None)
def bracket_scale() -> Fraction:
    """Solve the one-parameter Einstein condition at n = 2: exactly one
    candidate of EINSTEIN_SWEEP must satisfy it."""
    matches = [c for c in EINSTEIN_SWEEP
               if not _einstein_violations(curvature(_bracket_table(2, c))).any()]
    if len(matches) != 1:
        raise ModelConstructionError(f"need exactly one Einstein scale, found {matches}")
    return matches[0]


@lru_cache(maxsize=None)
def build_model(n: int) -> ExactArray:
    """The solvable model of dimension 4n: its read-only bracket table C,
    built and Jacobi-checked once per n; the bracket scale is derived once."""
    frame_dim(n)
    if n > MAX_MODEL_N:
        raise ContractViolation(f"the model tables hold (4n)^4 entries: "
                                f"need n <= {MAX_MODEL_N}, got n={n}")
    C = _bracket_table(n, bracket_scale())
    if jacobi_violations(C) != 0:
        raise ModelConstructionError("Jacobi identity fails for the bracket table")
    return C


@lru_cache(maxsize=None)
def model_curvature(n: int) -> ExactArray:
    return curvature(build_model(n))


def verify_einstein(R: ExactArray) -> list[Check]:
    """Ric = -4(n+2) id and scalar curvature -16 n (n+2), exactly."""
    n = len(R.num) // 4
    bad = _einstein_violations(R)
    diag_bad = int(np.count_nonzero(np.diagonal(bad)))
    return [
        check_eq("einstein diagonal entries equal -4(n+2)", 0, diag_bad),
        check_eq("einstein off-diagonal entries vanish", 0,
                 int(np.count_nonzero(bad)) - diag_bad),
        check_eq("scalar curvature", Fraction(-16 * n * (n + 2)),
                 contract("ii->", ricci(R)).fraction()),
    ]


def verify_quaternionic_traces(R: ExactArray) -> list[Check]:
    """Three-sum -12 and four-sum -4 trace identities on every admissible
    frame configuration (delta = -1 normalization).

    This is the pointwise form of the parallel-transport statement along
    geodesics; on the homogeneous model the two are equivalent."""
    m = len(R.num)
    sec = sectional(R)
    # images[t, b] = 1 where e_t = +-A e_b for A = I, J or K: the squared
    # entries of the three matrices
    images = ExactArray(sum(A.num * A.num for A in quaternionic_actions(m // 4)))
    three = contract("xt,tx->x", sec, images)
    three_bad = int(np.count_nonzero(three.ne(-12)))

    # four[a, b] = K(e_a, e_b) + K(e_a, I e_b) + K(e_a, J e_b) + K(e_a, K e_b),
    # admissible when e_b lies off the quaternionic line of e_a
    four = sec + contract("at,tb->ab", sec, images)
    x = np.arange(m)
    admissible = x[:, None] // 4 != x[None, :] // 4
    four_total = int(np.count_nonzero(admissible))
    four_bad = int(np.count_nonzero(admissible & four.ne(-4)))

    return [
        check_eq("three-sum K(X,IX)+K(X,JX)+K(X,KX) = -12, all frame X", 0, three_bad),
        Check("four-sum over quaternionic span = -4, all admissible pairs",
              f"0 of {four_total}", f"{four_bad} of {four_total}", four_bad == 0),
    ]


class BergerData:
    """Curvature commutator 2-forms: alpha, beta, gamma as antisymmetric
    matrices over the frame."""

    __slots__ = ("alpha", "beta", "gamma", "checks")

    def __init__(self, alpha: ExactArray, beta: ExactArray, gamma: ExactArray,
                 checks: list[Check]):
        self.alpha, self.beta, self.gamma, self.checks = alpha, beta, gamma, checks


def curvature_commutators(R: ExactArray, P: ExactArray) -> ExactArray:
    """[R(e_a, e_b), P] = R_ab P - P R_ab, R_ab = R[a, b], for every pair (a, b)
    and a signed permutation P (ContractViolation for any other): R_ab's columns
    gathered through P's permutation, its rows through the inverse, times P's signs."""
    m = R.num.shape[-1]
    if P.den != 1 or not np.isin(P.num, (-1, 0, 1)).all() \
            or not np.array_equal(np.einsum("ji,jk->ik", P.num, P.num), np.eye(m)):
        raise ContractViolation("a curvature commutator needs a signed permutation matrix")
    rows, inverse = np.abs(P.num).argmax(axis=0), np.abs(P.num).argmax(axis=1)
    signs = P.num[rows, np.arange(m)]  # column k of P is signs[k] e_{rows[k]}
    return (ExactArray(R.num[..., rows] * signs, R.den)
            - ExactArray(R.num[..., inverse, :] * signs[inverse, None], R.den))


# seeded frame triples drawn by verify_berger (draws with a == b are skipped)
TRIPLE_SAMPLES = 60


def verify_berger(R: ExactArray, seed: int = 0) -> BergerData:
    """Lemma-level commutator structure of R(X,Y) against I, J, K.

    For every frame pair, [R(X,Y), I] (`curvature_commutators`, O(m^4))
    must equal gamma J - beta K (and cyclically), the extractions agree,
    and alpha(X, IY) = beta(X, JY) = gamma(X, KY) = -Ric(X,Y)/(n+2)
    = 4 <X, Y>.  Also spot-checks the three curvature-pair identities
    <R(X,Y)Z, IZ> + <R(X,Y)JZ, KZ> = alpha(X,Y) |Z|^2 on seeded frame triples."""
    m = len(R.num)
    n = m // 4
    I, J, K = quaternionic_actions(n)

    def extract(com: ExactArray, P: ExactArray) -> ExactArray:
        """<com, P> / m: the coefficient of P in com, since the structure
        matrices are mutually orthogonal with <P, P> = m."""
        return contract("abij,ij->ab", com, P) * Fraction(1, m)

    def off_span(com, c1, P1, c2, P2) -> np.ndarray:
        """Pairs whose commutator is not c1 P1 + c2 P2."""
        span = contract("ab,ij->abij", c1, P1) + contract("ab,ij->abij", c2, P2)
        return com.ne(span).any(axis=(2, 3))

    com_i, com_j, com_k = (curvature_commutators(R, P) for P in (I, J, K))
    g1, b1, a1 = extract(com_i, J), -extract(com_i, K), extract(com_j, K)
    g2, b2, a2 = -extract(com_j, I), extract(com_k, I), -extract(com_k, J)
    pairs = ~np.eye(m, dtype=bool)
    cross_bad = int(np.count_nonzero(pairs & (g1.ne(g2) | b1.ne(b2) | a1.ne(a2))))
    span = (off_span(com_i, g1, J, -b1, K) | off_span(com_j, -g1, I, a1, K)
            | off_span(com_k, b1, I, -a1, J))
    span_bad = int(np.count_nonzero(pairs & span))

    four = ExactArray(4 * np.eye(m, dtype=np.int64))
    eq1_bad = sum(int(np.count_nonzero(contract("at,tb->ab", form, P).ne(four)))
                  for form, P in ((a1, I), (b1, J), (g1, K)))
    ric_bad = int(np.count_nonzero(
        contract("at,tb->ab", a1, I).ne(ricci(R) * Fraction(-1, n + 2))))

    # seeded frame triples (e_a, e_b, e_c), a != b, c drawn after its pair
    rng = random.Random(seed)
    draws = ((rng.randrange(m), rng.randrange(m)) for _ in range(TRIPLE_SAMPLES))
    triples = [(a, b, rng.randrange(m)) for a, b in draws if a != b]
    a, b, c = (np.array(x, dtype=np.int64) for x in zip(*triples))
    Rab = R[a, b]

    def pair(X: ExactArray, Y: ExactArray) -> ExactArray:
        """<R(e_a, e_b) Y, X> per triple."""
        return contract("ktu,kt,ku->k", Rab, X, Y)

    # <R(e_a,e_b) Z, IZ> + <R(e_a,e_b) JZ, KZ> = alpha(e_a, e_b) at Z = e_c,
    # and cyclically in (I, J, K) for beta and gamma
    Z = ExactArray(np.eye(m, dtype=np.int64)[c])
    images = [ExactArray(P.num[:, c].T) for P in (I, J, K)]  # per triple: I e_c, ...
    bad = np.zeros(len(c), dtype=bool)
    for p, form in enumerate((a1, b1, g1)):
        X, Y, W = images[p], images[(p + 1) % 3], images[(p + 2) % 3]
        bad |= (pair(X, Z) + pair(W, Y)).ne(form[a, b])
    triple_bad = int(np.count_nonzero(bad))

    checks = [
        check_eq("[R(X,Y), I] lies in span{J, K} (and cyclic)", 0, span_bad),
        check_eq("commutator extractions consistent across I, J, K", 0, cross_bad),
        check_eq("alpha(X,IY) = beta(X,JY) = gamma(X,KY) = 4<X,Y>", 0, eq1_bad),
        check_eq("alpha(X,IY) = -Ric(X,Y)/(n+2)", 0, ric_bad),
        check_eq("curvature-pair identities on seeded frame triples", 0, triple_bad),
    ]
    return BergerData(a1, b1, g1, checks)


def expected_radial_slabs(n: int) -> dict[tuple[int, int, int], int]:
    """The tabulated R_{1pAB} and R_{1aAB} families, R_{1BCD} keyed by
    (B, C, D) (all other slab-1 entries vanish)."""
    t: dict[tuple[int, int, int], int] = {}

    def put(b, c, d, v):
        t[(b, c, d)] = v
        t[(b, d, c)] = -v

    for p in (2, 3, 4):
        put(p, 1, p, -4)
    for al in range(5, 4 * n + 1):
        put(al, 1, al, -1)
    for s in range(2, n + 1):
        a4, b4, c4, d4 = line_indices(s)
        put(2, c4, d4, -2)
        put(2, a4, b4, -2)
        put(3, d4, b4, -2)
        put(3, c4, a4, 2)
        put(4, d4, a4, 2)
        put(4, c4, b4, 2)
        # the transversal slabs, both members of each displayed pair
        put(d4, c4, 2, -1)
        put(c4, d4, 2, 1)
        put(d4, b4, 3, 1)
        put(b4, d4, 3, -1)
        put(d4, a4, 4, -1)
        put(a4, d4, 4, 1)
        put(c4, a4, 3, -1)
        put(a4, c4, 3, 1)
        put(c4, b4, 4, -1)
        put(b4, c4, 4, 1)
        put(b4, a4, 2, -1)
        put(a4, b4, 2, 1)
    return t


def verify_radial_slabs(R: ExactArray) -> list[Check]:
    """Every R_{1BCD} entry against the tabulated families, including the
    '= 0 otherwise' clauses."""
    m = len(R.num)
    want = np.zeros((m, m, m), dtype=np.int64)
    listed = np.zeros((m, m, m), dtype=bool)
    for (b, c, d), v in expected_radial_slabs(m // 4).items():
        want[b - 1, c - 1, d - 1] = v
        listed[b - 1, c - 1, d - 1] = True
    bad = R[0, 1:].ne(ExactArray(want[1:]))
    total = (m - 1) * m * m
    count = int(np.count_nonzero(bad))
    return [
        Check("radial curvature slabs R_{1BCD} match the tables",
              f"0 of {total}", f"{count} of {total}", count == 0),
        check_eq("tabulated nonzero radial entries", 0,
                 int(np.count_nonzero(bad & listed[1:]))),
    ]


def exterior_derivative(C: ExactArray, f: _FormMap) -> Form:
    """d omega of the left-invariant form omega of the chain map f
    (`_chain_map(omega, m, True)`): as d theta^k = -(1/2) C^k_AB theta^A ^ theta^B,
    d omega = sum_k d theta^k ^ iota(e_k) omega = -(1/2) sum_A theta^A ^ f(C[A]),
    f applied to the rows C[A] at once, then bit A set in every mask that
    lacks it, signed by the parity of the mask's bits below A.
    Int64RangeError if the sum over A could pass 2^62."""
    m = len(C.num)
    guard_int64(m * f.weight * C.bound, "exterior derivative")
    images = f.apply(C.num.reshape(m, m * m))  # row A: f(C[A]) on f.masks
    masks = np.array(f.masks, dtype=np.int64)
    bits = masks[:, None] >> np.arange(m) & 1
    t, A = np.nonzero(bits == 0)
    out = masks[t] | (1 << A)
    keys = sorted(set(out.tolist()))
    acc = np.zeros(len(keys), dtype=np.int64)
    np.add.at(acc, np.searchsorted(keys, out), images[A, t] * (1 - 2 * (_below(bits)[t, A] & 1)))
    return Form(m, f.degree + 1, {k: -c for k, c in zip(keys, acc.tolist()) if c},
                2 * f.den * C.den)


def verify_parallel_four_form(C: ExactArray, berger: BergerData) -> list[Check]:
    """d Omega = 0, nabla Omega = 0, the sp(1) rotation of the omega_a, and
    the curvature relation alpha = da + b ^ c (with its cyclic companions).
    d Omega and nabla_X omega_a and nabla_X Omega, for every X, are
    applications of their maps of `derivation_maps`: to the rows C[A]
    (`exterior_derivative`) and to the rows h = -Gamma[x]."""
    m = len(C.num)
    n = m // 4
    omegas = fundamental_forms(n)[:3]
    G = levi_civita_table(C)
    rows = -G.num.reshape(m, m * m)
    maps = derivation_maps(n)
    guard_int64(max(f.weight for f in maps) * int(np.abs(rows).max(initial=1)), "nabla map")
    masks = sorted(set().union(*(f.masks for f in maps[:3]), *(w._terms for w in omegas)))

    def nabla(f) -> ExactArray:
        """nabla_X of f's form, row X, on the coefficients of `masks`."""
        out = np.zeros((m, len(masks)), dtype=np.int64)
        out[:, np.searchsorted(masks, f.masks)] = f.apply(rows)
        return ExactArray.of(out, f.den * G.den)

    def span(s, w, t, v) -> ExactArray:
        """s(X) w - t(X) v for every X."""
        return contract("x,u->xu", s, w) - contract("x,u->xu", t, v)

    d1, d2, d3 = (nabla(f) for f in maps[:3])
    w1, w2, w3 = (ExactArray.of([w._terms.get(k, 0) for k in masks], w.den) for w in omegas)
    per_norm = Fraction(1, 2 * n)  # 1 / |omega_a|^2
    c = contract("xu,u->x", d1, w2) * per_norm
    b = -contract("xu,u->x", d1, w3) * per_norm
    a = contract("xu,u->x", d2, w3) * per_norm
    rotation_bad = (d1.ne(span(c, w2, b, w3)) | d2.ne(span(a, w3, c, w1))
                    | d3.ne(span(b, w1, a, w2))).any(axis=1)
    checks = [
        check_true("d Omega = 0", exterior_derivative(C, maps[3]).is_zero()),
        check_eq("nabla_X omega_a is the sp(1) rotation, all X",
                 0, int(np.count_nonzero(rotation_bad))),
        check_eq("nabla_X Omega = 0, all X",
                 0, int(np.count_nonzero(maps[3].apply(rows).any(axis=1)))),
    ]

    # on the strict upper triangle, the entries of a 2-form's matrix: on a
    # 1-form f, df is -sum_k f_k C[:, :, k], and g ^ h is g h^T - h g^T
    for name, (f, g, h), curv in (
            ("alpha = da + b ^ c matches the curvature alpha", (a, b, c), berger.alpha),
            ("beta = db + c ^ a matches the curvature beta", (b, c, a), berger.beta),
            ("gamma = dc + a ^ b matches the curvature gamma", (c, a, b), berger.gamma)):
        conn = (contract("a,b->ab", g, h) - contract("a,b->ab", h, g)
                - contract("k,abk->ab", f, C))
        checks.append(check_true(name, not np.triu(conn.ne(curv), 1).any()))
    return checks
