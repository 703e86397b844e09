"""Solvable-model construction, connection, curvature tensor, and the
curvature identity batteries.

The dense nested-`Fraction` loops below are the reference the integer
tables of `qkcomp.model` and `qkcomp.levelset` are tested against; they
read I, J, K off the per-line tables of `test_quaternionic.reference_actions`."""

import random
from fractions import Fraction as F

import numpy as np
import pytest

import qkcomp.model
from qkcomp import forms, riccati
from qkcomp.forms import (ContractViolation, ExactArray, Form, Int64RangeError, contract, ext_mult,
                          form_inner, interior, two_form, wedge)
from qkcomp.identities import random_form
from qkcomp.levelset import _nilpotent_brackets, level_set_geometry
from qkcomp.model import (
    EINSTEIN_SWEEP,
    MAX_MODEL_N,
    TRIPLE_SAMPLES,
    ModelConstructionError,
    _bracket_table,
    bracket_scale,
    build_model,
    curvature,
    curvature_commutators,
    expected_radial_slabs,
    exterior_derivative,
    jacobi_violations,
    levi_civita_table,
    model_curvature,
    ricci,
    sectional,
    symmetry_violations,
    verify_berger,
    verify_einstein,
    verify_parallel_four_form,
    verify_quaternionic_traces,
    verify_radial_slabs,
)
from qkcomp.quaternionic import _chain_map, derivation_maps, fundamental_forms, quaternionic_actions
from qkcomp.riccati import rational_sqrt
from qkcomp.suite import level_set_battery, model_battery
from test_mutants import line_block_9_4, line_block_m4, patch_block
from test_quaternionic import reference_actions


def _zeros3(m):
    return [[[F(0)] * m for _ in range(m)] for _ in range(m)]


def reference_bracket_table(n, c):
    """Dense C[A][B][D] with [e_A, e_B] = sum_D C[A][B][D] e_D."""
    m = 4 * n
    C = _zeros3(m)
    for p in range(1, m):
        scale = F(2) if p <= 3 else F(1)
        C[0][p][p] = scale
        C[p][0][p] = -scale
    actions = reference_actions(n)
    for a in range(4, m):
        for b in range(4, m):
            if a == b:
                continue
            for p, (targets, signs) in enumerate(actions, start=1):
                t, s = targets[a], signs[a]
                if t == b + 1:
                    C[a][b][p] += c * s
    return C


def reference_nilpotent_brackets(C, scale):
    """The level-set brackets of the dense model table C at scale s."""
    root = rational_sqrt(scale)
    m2 = len(C) - 1
    w = [scale] * 3 + [root] * (m2 - 3)
    out = _zeros3(m2)
    for a in range(3, m2):
        for b in range(3, m2):
            for d in range(3):
                if C[a + 1][b + 1][d + 1]:
                    out[a][b][d] = C[a + 1][b + 1][d + 1] * w[a] * w[b] / w[d]
    return out


def reference_levi_civita(C):
    """Koszul formula, entry by entry."""
    m = len(C)
    G = _zeros3(m)
    for a in range(m):
        for b in range(m):
            for d in range(m):
                G[a][b][d] = F(1, 2) * (C[a][b][d] - C[b][d][a] + C[d][a][b])
    return G


def reference_curvature(C, G):
    """R[A][B][C][D] = <R(e_A, e_B) e_D, e_C> over the pairs a < b,
    antisymmetric in (A, B), skipping zero factors."""
    m = len(C)
    brackets = {(a, b): [(d, C[a][b][d]) for d in range(m) if C[a][b][d]]
                for a in range(m) for b in range(m)}
    R = [[None] * m for _ in range(m)]
    for a in range(m):
        R[a][a] = [[F(0)] * m for _ in range(m)]
    for a in range(m):
        for b in range(a + 1, m):
            slab = [[F(0)] * m for _ in range(m)]
            for d in range(m):
                for e in range(m):
                    v = G[b][d][e]
                    if v:
                        for cc in range(m):
                            slab[cc][d] += v * G[a][e][cc]
                    v2 = G[a][d][e]
                    if v2:
                        for cc in range(m):
                            slab[cc][d] -= v2 * G[b][e][cc]
                for e, coeff in brackets[(a, b)]:
                    for cc in range(m):
                        slab[cc][d] -= coeff * G[e][d][cc]
            R[a][b] = slab
            R[b][a] = [[-slab[cc][d] for d in range(m)] for cc in range(m)]
    return R


def reference_symmetry_violations(R):
    m = len(R)
    bad = 0
    for a in range(m):
        for b in range(a, m):
            for c in range(m):
                for d in range(c, m):
                    v = R[a][b][c][d]
                    bad += (R[b][a][c][d] != -v) + (R[a][b][d][c] != -v) \
                        + (R[c][d][a][b] != v)
    for a in range(m):
        for b in range(a + 1, m):
            for c in range(b + 1, m):
                for d in range(m):
                    bad += R[a][b][d][c] + R[b][c][d][a] + R[c][a][d][b] != 0
    return bad


def reference_exterior_derivative(C, omega):
    """d on left-invariant forms, term by term: d theta^C = -(1/2) C^C_AB
    theta^A ^ theta^B, extended as an antiderivation."""
    dim = omega.dim
    d_one = [Form.zero(dim, 2) for _ in range(dim)]
    for (a, b, cidx), coeff in C.items():
        if a < b:
            d_one[cidx] = d_one[cidx] + Form.basis(dim, (a + 1, b + 1), -coeff)
    out = Form.zero(dim, omega.degree + 1)
    for idx, coeff in omega.terms().items():
        for pos, i in enumerate(idx):
            rest = idx[:pos] + idx[pos + 1:]
            sign = -1 if pos % 2 else 1
            out = out + wedge(d_one[i - 1], Form.basis(dim, rest, sign * coeff))
    return out


def reference_covariant_derivative(G, a, omega):
    """nabla_{e_a} omega = -sum Gamma[a, i, j] theta^i ^ iota(e_j) omega
    (1-based direction), one connection coefficient at a time."""
    dim = omega.dim
    out = Form.zero(dim, omega.degree)
    for (i, j), coeff in G[a - 1].items():
        contracted = interior(Form.basis(dim, (j + 1,)), omega)
        out = out - ext_mult(Form.basis(dim, (i + 1,), coeff), contracted)
    return out


def reference_parallel_four_form(C, berger):
    """The six verdicts of verify_parallel_four_form through the reference
    derivatives."""
    m = len(C.num)
    omega1, omega2, omega3, Omega = fundamental_forms(m // 4)
    G = levi_civita_table(C)
    norm = F(m // 2)
    coms = [[F(0)] * m for _ in range(3)]
    rotation_bad = nabla_omega_bad = 0
    for x in range(1, m + 1):
        d1, d2, d3 = (reference_covariant_derivative(G, x, w)
                      for w in (omega1, omega2, omega3))
        cx = form_inner(d1, omega2) / norm
        bx = -form_inner(d1, omega3) / norm
        ax = form_inner(d2, omega3) / norm
        coms[0][x - 1], coms[1][x - 1], coms[2][x - 1] = ax, bx, cx
        rotation_bad += (d1 != cx * omega2 - bx * omega3
                         or d2 != -cx * omega1 + ax * omega3
                         or d3 != bx * omega1 - ax * omega2)
        nabla_omega_bad += not reference_covariant_derivative(G, x, Omega).is_zero()
    fa, fb, fc = (Form.from_terms(m, 1, {(i + 1,): v for i, v in enumerate(c) if v})
                  for c in coms)
    return [reference_exterior_derivative(C, Omega).is_zero(),
            rotation_bad == 0, nabla_omega_bad == 0,
            reference_exterior_derivative(C, fa) + wedge(fb, fc) == two_form(m, berger.alpha),
            reference_exterior_derivative(C, fb) + wedge(fc, fa) == two_form(m, berger.beta),
            reference_exterior_derivative(C, fc) + wedge(fa, fb) == two_form(m, berger.gamma)]


@pytest.fixture(scope="module")
def model2():
    C = build_model(2)
    return C, levi_civita_table(C), curvature(C)


@pytest.fixture(scope="module")
def model3():
    C = build_model(3)
    return C, levi_civita_table(C), curvature(C)


def test_bracket_scale_derived_by_einstein_sweep(model2):
    C, _, _ = model2
    assert bracket_scale() == 2
    assert C.fraction(4, 5, 1) == bracket_scale()  # [e5, e6] = c e2


@pytest.mark.parametrize("sweep", [(F(1), F(3)), (F(2), F(2))])
def test_bracket_scale_needs_exactly_one_match(monkeypatch, sweep):
    monkeypatch.setattr(qkcomp.model, "EINSTEIN_SWEEP", sweep)
    bracket_scale.cache_clear()
    try:
        with pytest.raises(ModelConstructionError):
            bracket_scale()
    finally:
        bracket_scale.cache_clear()


def test_jacobi_identity(model2, model3):
    for C, _, _ in (model2, model3):
        assert jacobi_violations(C) == 0


def test_ad_e1_eigenvalues(model2):
    C, _, _ = model2
    # [e1, z] = 2z on three directions, [e1, v] = v on 4(n-1)
    diag = [C.fraction(0, b, b) for b in range(1, len(C.num))]
    assert diag[:3] == [2, 2, 2]
    assert diag[3:] == [1] * (len(C.num) - 4)


def test_center_bracket(model2):
    C, _, _ = model2

    def bracket(a, b):  # components of [e_a, e_b]
        return tuple(C[a - 1, b - 1].fractions())

    # [e5, e6] = c e2 with the derived scale
    assert bracket(5, 6) == (0, F(2), 0, 0, 0, 0, 0, 0)
    assert bracket(6, 5) == (0, F(-2), 0, 0, 0, 0, 0, 0)
    # [e5, e7] = c e3, [e5, e8] = c e4
    assert bracket(5, 7)[2] == 2 and bracket(5, 8)[3] == 2
    # the center is abelian and does not bracket with v
    assert all(v == 0 for v in bracket(2, 3))
    assert all(v == 0 for v in bracket(2, 5))


def test_connection_radial_properties(model2):
    C, G, _ = model2
    m = len(C.num)
    assert all(G.fraction(0, 0, d - 1) == 0 for d in range(1, m + 1))
    for al in range(2, m + 1):
        expect = F(-2) if al <= 4 else F(-1)
        assert G.fraction(al - 1, 0, al - 1) == expect


def test_connection_metric_compatibility(model2):
    C, G, _ = model2
    m = len(C.num)
    for a in range(1, m + 1):
        for b in range(1, m + 1):
            for d in range(1, m + 1):
                assert G.fraction(a - 1, b - 1, d - 1) == -G.fraction(a - 1, d - 1, b - 1)


def test_connection_torsion_free(model2):
    C, G, _ = model2
    m = len(C.num)
    for a in range(1, m + 1):
        for b in range(1, m + 1):
            for d in range(1, m + 1):
                assert G.fraction(a - 1, b - 1, d - 1) - G.fraction(b - 1, a - 1, d - 1) == \
                    C.fraction(a - 1, b - 1, d - 1)


def test_curvature_symmetries(model2):
    _, _, R = model2
    assert symmetry_violations(R) == 0


def test_curvature_symmetries_n3(model3):
    _, _, R = model3
    assert symmetry_violations(R) == 0


def test_sectional_values(model2):
    _, _, R = model2
    K = sectional(R)
    for p in (2, 3, 4):
        assert K.fraction(0, p - 1) == -4
    for al in range(5, 9):
        assert K.fraction(0, al - 1) == -1
    assert K.fraction(4, 5) == -4
    assert K.fraction(1, 4) == -1
    assert K.fraction(4, 5) == R.fraction(4, 5, 4, 5)


def test_cross_line_component(model3):
    _, _, R = model3
    for s in (2, 3):
        assert R.fraction(0, 1, 4 * s - 2, 4 * s - 1) == -2
        assert R.fraction(0, 1, 4 * s - 1, 4 * s - 2) == 2


@pytest.mark.parametrize("n", [2, 3])
def test_einstein_and_scalar(n):
    R = model_curvature(n)
    checks = verify_einstein(R)
    assert all(c.passed for c in checks), [c.name for c in checks if not c.passed]
    assert contract("ii->", ricci(R)).fraction() == -16 * n * (n + 2)
    assert ricci(R).fraction(0, 0) == -4 * (n + 2)


def quaternionic_hyperbolic_numerators(n):
    """R_abcd of QH^n, the symmetric space, at holomorphic sectional
    curvature -4: -(d_bd d_ac - d_ad d_bc + sum_P (P_db P_ca - P_da P_cb
    - 2 P_ba P_cd)) over P = I, J, K, as dense integers."""
    d = np.eye(4 * n, dtype=np.int64)
    R = np.einsum("bd,ac->abcd", d, d) - np.einsum("ad,bc->abcd", d, d)
    for P in quaternionic_actions(n):
        p = P.num
        R += (np.einsum("db,ca->abcd", p, p) - np.einsum("da,cb->abcd", p, p)
              - 2 * np.einsum("ba,cd->abcd", p, p))
    return -R


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_model_curvature_is_that_of_quaternionic_hyperbolic_space(n):
    # the solvable model is QH^n: its table is the closed-form tensor, entry
    # for entry, and the tabulated radial slabs are that tensor's slab 1
    R = model_curvature(n)
    want = quaternionic_hyperbolic_numerators(n)
    assert R.den == 1
    assert np.array_equal(R.num, want)
    m = 4 * n
    slabs = np.zeros((m, m, m), dtype=np.int64)
    for (b, c, d), v in expected_radial_slabs(n).items():
        slabs[b - 1, c - 1, d - 1] = v
    assert np.array_equal(want[0, 1:], slabs[1:])
    # not vacuous: the negated tensor (curvature +4) is not the model's
    assert not np.array_equal(R.num, -want)


def riccati_jacobi_diagonal(n):
    """The Jacobi operator's diagonal that the Riccati blocks of criteria 3
    and 4 assume at delta = -1: 0 on e_1, then each block's K repeated its
    weight m times, the line block first and one transversal block per line
    2..n, read through the module as the suite reads them."""
    blocks = [riccati.line_block(-1)] + [riccati.transversal_block(-1)] * (n - 1)
    return [0] + [b.K for b in blocks for _ in range(int(b.m))]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_jacobi_operator_is_the_riccati_blocks(monkeypatch, n):
    # ROADMAP item 10, as a test: Y -> R(Y, e1) e1, the table R[:, 0, :, 0],
    # is diagonal with 0, -4 three times and -1 4n - 4 times, which are the
    # Riccati blocks.  The line-block mutants that criterion 3 passes (the
    # strict xfails of test_mutants) break the comparison
    R = model_curvature(n)
    jacobi = R.num[:, 0, :, 0]
    assert R.den == 1
    assert np.array_equal(jacobi, np.diag(np.diagonal(jacobi)))
    diagonal = np.diagonal(jacobi).tolist()
    assert diagonal == riccati_jacobi_diagonal(n) == [0] + [-4] * 3 + [-1] * (4 * n - 4)
    for mutant in (line_block_9_4, line_block_m4):
        with monkeypatch.context() as patched:
            patch_block(patched, "line", mutant)
            assert diagonal != riccati_jacobi_diagonal(n)


@pytest.mark.parametrize("n", [2, 3])
def test_radial_slab_tables(n):
    checks = verify_radial_slabs(model_curvature(n))
    assert all(c.passed for c in checks), [c.actual for c in checks]


@pytest.mark.parametrize("n", [2, 3])
def test_trace_identities(n):
    checks = verify_quaternionic_traces(model_curvature(n))
    assert all(c.passed for c in checks)


def test_trace_identity_random_vectors(model2):
    # Thm-level statement for non-frame vectors: contract the tensor with
    # a rational vector X and its I, J, K images
    C, _, R = model2
    m = len(C.num)
    import random

    from qkcomp.identities import random_vector

    rng = random.Random(21)

    def k_contract(xc, yc):
        total = F(0)
        for a in range(m):
            if not xc[a]:
                continue
            for b in range(m):
                if not yc[b]:
                    continue
                row = R[a, b].fractions()
                for c in range(m):
                    if not yc[c]:
                        continue
                    for d in range(m):
                        v = row[d][c]
                        if v:
                            total += xc[a] * yc[b] * yc[c] * xc[d] * v
        return total

    for _ in range(3):
        x = random_vector(m, rng)
        norm4 = form_inner(x, x) ** 2
        xc = [x.coefficient((i + 1,)) for i in range(m)]
        total = F(0)
        for A in quaternionic_actions(2):
            ax = [sum((A.num[i, j] * c for j, c in enumerate(xc)), F(0)) for i in range(m)]
            total += k_contract(xc, ax)
        assert total == -12 * norm4


@pytest.mark.parametrize("n", [2, 3])
def test_berger_commutators(n):
    data = verify_berger(model_curvature(n))
    assert all(c.passed for c in data.checks), \
        [(c.name, c.actual) for c in data.checks if not c.passed]
    assert data.alpha.fraction(0, 1) == 4  # alpha(e1, I e1)
    assert data.alpha.fraction(0, 4) == 0  # alpha(e1, e5)


def reference_commutators(R, P):
    """[R(e_a, e_b), P] for every pair by two O(m^5) einsums: the products
    that the signed-permutation gathers of `curvature_commutators`
    replaced, kept as their oracle."""
    return contract("abij,jk->abik", R, P) - contract("ij,abjk->abik", P, R)


def assert_same_table(got, want):
    assert got.den == want.den and got.num.dtype == want.num.dtype
    assert np.array_equal(got.num, want.num)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_curvature_commutators_match_the_einsum_oracle(n):
    R = model_curvature(n)
    for P in quaternionic_actions(n):
        assert_same_table(curvature_commutators(R, P), reference_commutators(R, P))
    # a table with none of the curvature symmetries, over a den, against a
    # seeded signed permutation that is neither antisymmetric nor I, J, K
    m = 4 * n
    rng = np.random.default_rng(36 + n)
    table = ExactArray.of(rng.integers(-9, 10, size=(m,) * 4), 6)
    P = np.zeros((m, m), dtype=np.int64)
    P[rng.permutation(m), np.arange(m)] = rng.choice((-1, 1), size=m)
    P = ExactArray(P)
    assert_same_table(curvature_commutators(table, P), reference_commutators(table, P))


def not_signed_permutations():
    I, J, _ = quaternionic_actions(2)
    repeated = np.eye(8, dtype=np.int64)
    repeated[:, 1] = repeated[:, 0]
    # int64 wraps: these two entries leave P^T P = 1 in int64 arithmetic
    wrapped = np.eye(8, dtype=np.int64)
    wrapped[1, 0] = wrapped[0, 1] = np.iinfo(np.int64).min
    return {"2I": I * 2, "I/2": I * F(1, 2), "I+J": I + J,
            "a repeated column": ExactArray(repeated), "zero": ExactArray.of(np.zeros((8, 8))),
            "another size": quaternionic_actions(3)[0], "wrapped": ExactArray(wrapped)}


@pytest.mark.parametrize("name", sorted(not_signed_permutations()))
def test_curvature_commutators_refuse_other_matrices(name):
    with pytest.raises(ContractViolation, match="needs a signed permutation matrix"):
        curvature_commutators(model_curvature(2), not_signed_permutations()[name])


def test_curvature_pair_identity_named_triple(model2):
    # <R(X,Y)Z, IZ> + <R(X,Y)JZ, KZ> = alpha(X,Y) |Z|^2 at (e1, e5, e6)
    _, _, R = model2
    data = verify_berger(R)
    (tI, sI), (tJ, sJ), (tK, sK) = ((t[5], s[5]) for t, s in reference_actions(2))
    a, b, c = 1, 5, 6
    lhs = (sI * R.fraction(a - 1, b - 1, tI - 1, c - 1)
           + sJ * sK * R.fraction(a - 1, b - 1, tK - 1, tJ - 1))
    assert lhs == data.alpha.fraction(a - 1, b - 1)


def reference_triple_violations(R, data, seed):
    """The curvature-pair identities on verify_berger's seeded frame
    triples, one entry of R at a time through the reference tables."""
    m = len(R.num)
    (tI_, sI_), (tJ_, sJ_), (tK_, sK_) = reference_actions(m // 4)
    rng = random.Random(seed)
    bad = 0
    for _ in range(TRIPLE_SAMPLES):
        a = rng.randrange(m)
        b = rng.randrange(m)
        if a == b:
            continue
        c = rng.randrange(m) + 1
        tI, sI, tJ, sJ, tK, sK = (x[c - 1] for x in (tI_, sI_, tJ_, sJ_, tK_, sK_))
        c -= 1
        tI, tJ, tK = tI - 1, tJ - 1, tK - 1
        lhs_a = sI * R.fraction(a, b, tI, c) + sJ * sK * R.fraction(a, b, tK, tJ)
        lhs_b = sJ * R.fraction(a, b, tJ, c) + sK * sI * R.fraction(a, b, tI, tK)
        lhs_g = sK * R.fraction(a, b, tK, c) + sI * sJ * R.fraction(a, b, tJ, tI)
        if lhs_a != data.alpha.fraction(a, b) or lhs_b != data.beta.fraction(a, b) \
                or lhs_g != data.gamma.fraction(a, b):
            bad += 1
    return bad


def triple_check(data):
    [check] = [c for c in data.checks if "seeded frame triples" in c.name]
    return check.actual


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_triple_check_matches_the_per_triple_loop(n, seed):
    R = model_curvature(n)
    data = verify_berger(R, seed)
    assert triple_check(data) == reference_triple_violations(R, data, seed) == 0
    # break R in one entry on the first seeded triple's slab, then in one
    # entry out of 20: the batched contraction and the loop count the same
    # bad triples
    m = len(R.num)
    rng = random.Random(seed)
    a, b = rng.randrange(m), rng.randrange(m)
    while a == b:
        a, b = rng.randrange(m), rng.randrange(m)
    one = R.num.copy()
    one[a, b, 0, 1] += 1
    rng = random.Random(40 + seed)
    many = R.num.copy()
    for _ in range(m ** 4 // 20):
        many[tuple(rng.randrange(m) for _ in range(4))] += rng.choice((-1, 1))
    for num in (one, many):
        broken = ExactArray.of(num, R.den)
        data = verify_berger(broken, seed)
        expected = reference_triple_violations(broken, data, seed)
        assert expected > 0
        assert triple_check(data) == expected


MUTANTS = 20


def test_parallel_four_form(model2):
    C, _, R = model2
    berger = verify_berger(R)
    checks = verify_parallel_four_form(C, berger)
    assert all(c.passed for c in checks), [c.name for c in checks if not c.passed]
    assert [c.passed for c in checks] == reference_parallel_four_form(C, berger)
    # the radial direction is annihilated by the connection: nabla_{e1} omega_a
    # = 0 for a = 1, 2, 3, so the sp(1) 1-forms a, b, c vanish on e1
    for n in (2, 3):
        G = levi_civita_table(build_model(n))
        assert all(nabla_through_map(G, f)[0].is_zero() for f in derivation_maps(n)[:3])


def nabla_through_map(G, f):
    """nabla_{e_x} of the form of the map f, for every x: f applied to the
    rows -Gamma[x], the path of verify_parallel_four_form."""
    m = len(G.num)
    return [Form(m, f.degree, {k: c for k, c in zip(f.masks, row) if c}, f.den * G.den)
            for row in f.apply(-G.num.reshape(m, m * m)).tolist()]


def test_exterior_derivative_matches_connection(model2):
    # torsion-free consistency: d omega = sum theta^A ^ nabla_A omega
    C, G, _ = model2
    m = len(C.num)
    for omega, f in zip(fundamental_forms(2)[:2], derivation_maps(2)):
        rhs = Form.zero(m, omega.degree + 1)
        for x, nabla in enumerate(nabla_through_map(G, f)):
            rhs = rhs + ext_mult(Form.basis(m, (x + 1,)), nabla)
        assert exterior_derivative(C, f) == rhs


@pytest.mark.parametrize("n", [2, 3])
def test_derivation_matches_the_term_by_term_references(n):
    # d and every nabla_X through the same maps, against the per-term
    # loops: on omega_a and Omega (the maps of derivation_maps) and on
    # seeded random 1- to 4-forms (_chain_map)
    C = build_model(n)
    m = len(C.num)
    G = levi_civita_table(C)
    rng = random.Random(30 + n)
    forms = list(fundamental_forms(n))
    maps = list(derivation_maps(n))
    for p in (1, 2, 3, 4):
        forms.append(random_form(m, p, rng))
        maps.append(_chain_map(forms[-1], m, True))
    for omega, f in zip(forms, maps):
        assert exterior_derivative(C, f) == reference_exterior_derivative(C, omega)
        assert nabla_through_map(G, f) == \
            [reference_covariant_derivative(G, x, omega) for x in range(1, m + 1)]


def perturbed_connection(monkeypatch, x, i, k, s):
    """levi_civita_table as verify_parallel_four_form reads it, with s added to
    Gamma[x, i, k]."""
    def perturbed(C):
        G = levi_civita_table(C)
        num = G.num.copy()
        num[x, i, k] += s * G.den
        return ExactArray.of(num, G.den)
    monkeypatch.setattr(qkcomp.model, "levi_civita_table", perturbed)
    return perturbed


@pytest.mark.parametrize("n", [2, 3])
def test_nabla_omega_fails_on_a_perturbed_connection(monkeypatch, n):
    # mutants: +-1 on one Gamma entry.  nabla_X Omega = 0 must fail in
    # direction x alone, as the term-by-term reference sees it
    C = build_model(n)
    m = len(C.num)
    berger = verify_berger(model_curvature(n))
    Omega = fundamental_forms(n)[3]
    rng = random.Random(60 + n)
    for _ in range(4):
        x, i, k = (rng.randrange(m) for _ in range(3))
        s = rng.choice((-1, 1))
        G = perturbed_connection(monkeypatch, x, i, k, s)(C)
        checks = {c.name: c for c in verify_parallel_four_form(C, berger)}
        bad = [d for d in range(1, m + 1)
               if not reference_covariant_derivative(G, d, Omega).is_zero()]
        assert bad == [x + 1], (x, i, k, s)
        assert checks["nabla_X Omega = 0, all X"].actual == 1, (x, i, k, s)


@pytest.mark.parametrize("n", [2, 3])
def test_parallel_four_form_fails_on_perturbed_brackets(n):
    # mutants: +-1 on one antisymmetric bracket pair [e_a, e_b], component d.
    # Each fails a check, and the verdicts are those of the reference loops
    C = build_model(n)
    berger = verify_berger(model_curvature(n))
    rng = random.Random(50 + n)
    for _ in range(MUTANTS):
        a, b = rng.sample(range(len(C.num)), 2)
        d, s = rng.randrange(len(C.num)), rng.choice((-1, 1))
        num = C.num.copy()
        num[a, b, d] += s * C.den
        num[b, a, d] -= s * C.den
        mutant = ExactArray.of(num, C.den)
        verdicts = [c.passed for c in verify_parallel_four_form(mutant, berger)]
        assert not all(verdicts), (a, b, d, s)
        assert verdicts == reference_parallel_four_form(mutant, berger), (a, b, d, s)


def test_build_model_validation():
    for n in (1, MAX_MODEL_N + 1):
        with pytest.raises(ContractViolation):
            build_model(n)


def test_build_model_is_cached_and_read_only():
    C = build_model(2)
    assert build_model(2) is C
    with pytest.raises(ValueError):
        C.num[0, 1, 1] = 0
    assert C.fraction(0, 1, 1) == 2


@pytest.mark.parametrize("n", [4, 5, 6])
def test_curvature_batteries_beyond_the_suite(n):
    # criteria 5 and 6 run n = 2, 3; the statements hold for every n
    checks = model_battery(n) + level_set_battery(n, F(1, 4))
    assert [(c.name, c.actual) for c in checks if not c.passed] == []


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("c", EINSTEIN_SWEEP)
def test_tables_match_fraction_reference(n, c):
    C = _bracket_table(n, c)
    G = levi_civita_table(C)
    R = curvature(C)
    ref_C = reference_bracket_table(n, c)
    ref_G = reference_levi_civita(ref_C)
    assert C.fractions() == ref_C
    assert G.fractions() == ref_G
    assert R.fractions() == reference_curvature(ref_C, ref_G)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("scale", [F(1), F(1, 4), F(4)])
def test_level_set_tables_match_fraction_reference(n, scale):
    C = _nilpotent_brackets(build_model(n), scale)
    ref_C = reference_nilpotent_brackets(reference_bracket_table(n, bracket_scale()), scale)
    ref_G = reference_levi_civita(ref_C)
    assert C.fractions() == ref_C
    assert levi_civita_table(C).fractions() == ref_G
    assert level_set_geometry(build_model(n), scale).fractions() == \
        reference_curvature(ref_C, ref_G)


def test_violation_counts_match_reference_on_a_perturbed_tensor():
    # the array counts are not vacuous: break the tensor in seeded slots and
    # count as the reference loops do
    R = model_curvature(2)
    rng = random.Random(5)
    num = R.num.copy()
    for _ in range(6):
        num[tuple(rng.randrange(8) for _ in range(4))] += rng.choice((-1, 1))
    broken = ExactArray.of(num, R.den)
    expected = reference_symmetry_violations(broken.fractions())
    assert expected > 0
    assert symmetry_violations(broken) == expected

    C = build_model(2)
    num = C.num.copy()
    num[4, 5, 1] += 1
    assert jacobi_violations(ExactArray.of(num, C.den)) > 0


NEAR_2_31 = (1 << 31) - 7


def test_products_refuse_to_leave_int64():
    # bad input, not an internal failure: the CLI exits 2 on it
    assert issubclass(Int64RangeError, ContractViolation)
    big = ExactArray.of(np.full((2, 2, 2), NEAR_2_31))
    # Koszul fits, the first Gamma . Gamma contraction would not
    with pytest.raises(Int64RangeError):
        curvature(big)
    with pytest.raises(Int64RangeError):
        contract("ij,jk->ik", big[0], big[0])
    # one product of two such entries fits; the sum of two may not
    assert contract("i,i->i", big[0, 0], big[0, 0]).num[0] == NEAR_2_31 ** 2
    with pytest.raises(Int64RangeError):
        big * 4 * NEAR_2_31
    # rescaling to a common denominator is a product too
    coprime = ExactArray.of([1], NEAR_2_31)
    with pytest.raises(Int64RangeError):
        ExactArray.of([1 << 33], (1 << 31) - 1) - coprime


@pytest.mark.parametrize("n", [2, 3])
def test_exterior_derivative_guards_its_int64_range(monkeypatch, n):
    # d Omega sums, per mask, at most m images f(C[A]), each bounded by the
    # map's weight times the largest bracket numerator
    C = build_model(n)
    f = derivation_maps(n)[3]
    bound = len(C.num) * f.weight * C.bound
    monkeypatch.setattr(forms, "INT_BOUND", bound)
    assert exterior_derivative(C, f).is_zero()
    monkeypatch.setattr(forms, "INT_BOUND", bound - 1)
    with pytest.raises(Int64RangeError, match="exterior derivative"):
        exterior_derivative(C, f)
