"""Solvable-model construction, connection, curvature tensor, and the
curvature identity batteries.

The dense nested-`Fraction` loops below are the reference the integer
tables of `qkcomp.model` and `qkcomp.levelset` are tested against; they
read I, J, K off the per-line tables of `test_quaternionic.reference_actions`."""

import dataclasses
import random
from fractions import Fraction as F

import numpy as np
import pytest

import qkcomp.model
from qkcomp.forms import (ContractViolation, ExactArray, Form, Int64RangeError, Vector, contract,
                          ext_mult, form_inner, interior, two_form, wedge)
from qkcomp.identities import random_form
from qkcomp.levelset import _nilpotent_brackets, level_set_geometry
from qkcomp.model import (
    EINSTEIN_SWEEP,
    MAX_MODEL_N,
    TRIPLE_SAMPLES,
    CurvatureTensor,
    ModelConstructionError,
    _bracket_table,
    _derive_bracket_scale,
    build_model,
    curvature,
    curvature_table,
    d_coframe,
    derivation,
    jacobi_violations,
    levi_civita_table,
    model_curvature,
    nabla_coframe,
    verify_berger,
    verify_einstein,
    verify_parallel_four_form,
    verify_quaternionic_traces,
    verify_radial_slabs,
)
from qkcomp.quaternionic import build_frame, build_fundamental_forms
from qkcomp.riccati import rational_sqrt
from qkcomp.suite import level_set_battery, model_battery
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
    space = omega.space
    d_one = [Form.zero(space, 2) for _ in range(space.dim)]
    for (a, b, cidx), coeff in C.items():
        if a < b:
            d_one[cidx] = d_one[cidx] + Form.basis(space, (a + 1, b + 1), -coeff)
    out = Form.zero(space, omega.degree + 1)
    for idx, coeff in omega.terms().items():
        for pos, i in enumerate(idx):
            rest = idx[:pos] + idx[pos + 1:]
            sign = -1 if pos % 2 else 1
            out = out + wedge(d_one[i - 1], Form.basis(space, rest, sign * coeff))
    return out


def reference_covariant_derivative(G, a, omega):
    """nabla_{e_a} omega = -sum Gamma[a, i, j] theta^i ^ iota(e_j) omega
    (1-based direction), one connection coefficient at a time."""
    space = omega.space
    out = Form.zero(space, omega.degree)
    for (i, j), coeff in G[a - 1].items():
        contracted = interior(Vector.basis(space, j + 1), omega)
        out = out - ext_mult(Form.basis(space, (i + 1,), coeff), contracted)
    return out


def reference_parallel_four_form(sc, berger):
    """The six verdicts of verify_parallel_four_form through the reference
    derivatives."""
    frame = build_frame(sc.n)
    ff = build_fundamental_forms(frame)
    space, m = frame.space, sc.dim
    G = levi_civita_table(sc.table)
    norm = F(2 * frame.n)
    coms = [[F(0)] * m for _ in range(3)]
    rotation_bad = nabla_omega_bad = 0
    for x in range(1, m + 1):
        d1, d2, d3 = (reference_covariant_derivative(G, x, w)
                      for w in (ff.omega1, ff.omega2, ff.omega3))
        cx = form_inner(d1, ff.omega2) / norm
        bx = -form_inner(d1, ff.omega3) / norm
        ax = form_inner(d2, ff.omega3) / norm
        coms[0][x - 1], coms[1][x - 1], coms[2][x - 1] = ax, bx, cx
        rotation_bad += (d1 != cx * ff.omega2 - bx * ff.omega3
                         or d2 != -cx * ff.omega1 + ax * ff.omega3
                         or d3 != bx * ff.omega1 - ax * ff.omega2)
        nabla_omega_bad += not reference_covariant_derivative(G, x, ff.Omega).is_zero()
    fa, fb, fc = (Form.from_terms(space, 1, {(i + 1,): v for i, v in enumerate(c) if v})
                  for c in coms)
    return [reference_exterior_derivative(sc.table, ff.Omega).is_zero(),
            rotation_bad == 0, nabla_omega_bad == 0,
            reference_exterior_derivative(sc.table, fa) + wedge(fb, fc)
            == two_form(space, berger.alpha),
            reference_exterior_derivative(sc.table, fb) + wedge(fc, fa)
            == two_form(space, berger.beta),
            reference_exterior_derivative(sc.table, fc) + wedge(fa, fb)
            == two_form(space, berger.gamma)]


@pytest.fixture(scope="module")
def model2():
    sc = build_model(2)
    return sc, levi_civita_table(sc.table), curvature(sc)


@pytest.fixture(scope="module")
def model3():
    sc = build_model(3)
    return sc, levi_civita_table(sc.table), curvature(sc)


def test_bracket_scale_derived_by_einstein_sweep(model2):
    sc, _, _ = model2
    assert sc.c == _derive_bracket_scale() == 2
    assert [f.name for f in dataclasses.fields(sc)] == ["n", "c", "table"]


@pytest.mark.parametrize("sweep", [(F(1), F(3)), (F(2), F(2))])
def test_bracket_scale_needs_exactly_one_match(monkeypatch, sweep):
    monkeypatch.setattr(qkcomp.model, "EINSTEIN_SWEEP", sweep)
    _derive_bracket_scale.cache_clear()
    try:
        with pytest.raises(ModelConstructionError):
            _derive_bracket_scale()
    finally:
        _derive_bracket_scale.cache_clear()


def test_jacobi_identity(model2, model3):
    for sc, _, _ in (model2, model3):
        assert jacobi_violations(sc.table) == 0


def test_ad_e1_eigenvalues(model2):
    sc, _, _ = model2
    # [e1, z] = 2z on three directions, [e1, v] = v on 4(n-1)
    diag = [sc.table.fraction(0, b, b) for b in range(1, sc.dim)]
    assert diag[:3] == [2, 2, 2]
    assert diag[3:] == [1] * (4 * sc.n - 4)


def test_center_bracket(model2):
    sc, _, _ = model2

    def bracket(a, b):  # components of [e_a, e_b]
        return tuple(sc.table[a - 1, b - 1].fractions())

    # [e5, e6] = c e2 with the derived scale
    assert bracket(5, 6) == (0, F(2), 0, 0, 0, 0, 0, 0)
    assert bracket(6, 5) == (0, F(-2), 0, 0, 0, 0, 0, 0)
    # [e5, e7] = c e3, [e5, e8] = c e4
    assert bracket(5, 7)[2] == 2 and bracket(5, 8)[3] == 2
    # the center is abelian and does not bracket with v
    assert all(v == 0 for v in bracket(2, 3))
    assert all(v == 0 for v in bracket(2, 5))


def test_connection_radial_properties(model2):
    sc, G, _ = model2
    m = sc.dim
    assert all(G.fraction(0, 0, d - 1) == 0 for d in range(1, m + 1))
    for al in range(2, m + 1):
        expect = F(-2) if al <= 4 else F(-1)
        assert G.fraction(al - 1, 0, al - 1) == expect


def test_connection_metric_compatibility(model2):
    sc, G, _ = model2
    m = sc.dim
    for a in range(1, m + 1):
        for b in range(1, m + 1):
            for d in range(1, m + 1):
                assert G.fraction(a - 1, b - 1, d - 1) == -G.fraction(a - 1, d - 1, b - 1)


def test_connection_torsion_free(model2):
    sc, G, _ = model2
    m = sc.dim
    for a in range(1, m + 1):
        for b in range(1, m + 1):
            for d in range(1, m + 1):
                assert G.fraction(a - 1, b - 1, d - 1) - G.fraction(b - 1, a - 1, d - 1) == \
                    sc.table.fraction(a - 1, b - 1, d - 1)


def test_curvature_symmetries(model2):
    _, _, R = model2
    assert R.symmetry_violations() == 0


def test_curvature_symmetries_n3(model3):
    _, _, R = model3
    assert R.symmetry_violations() == 0


def test_sectional_values(model2):
    _, _, R = model2
    for p in (2, 3, 4):
        assert R.sectional(1, p) == -4
    for al in range(5, 9):
        assert R.sectional(1, al) == -1
    assert R.sectional(5, 6) == -4
    assert R.sectional(2, 5) == -1


def test_cross_line_component(model3):
    _, _, R = model3
    for s in (2, 3):
        assert R.entry(1, 2, 4 * s - 1, 4 * s) == -2
        assert R.entry(1, 2, 4 * s, 4 * s - 1) == 2


@pytest.mark.parametrize("n", [2, 3])
def test_einstein_and_scalar(n):
    R = model_curvature(n)
    checks = verify_einstein(R)
    assert all(c.passed for c in checks), [c.name for c in checks if not c.passed]
    assert R.scalar() == -16 * n * (n + 2)
    assert R.ricci_table().fraction(0, 0) == -4 * (n + 2)


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
    sc, _, R = model2
    frame = build_frame(2)
    m = sc.dim
    import random

    from qkcomp.identities import random_vector

    rng = random.Random(21)

    def k_contract(x, y):
        total = F(0)
        xc, yc = x.components, y.components
        for a in range(m):
            if not xc[a]:
                continue
            for b in range(m):
                if not yc[b]:
                    continue
                row = R.table[a, b].fractions()
                for c in range(m):
                    if not yc[c]:
                        continue
                    for d in range(m):
                        v = row[d][c]
                        if v:
                            total += xc[a] * yc[b] * yc[c] * xc[d] * v
        return total

    space = frame.space
    for _ in range(3):
        x = random_vector(space, rng)
        norm4 = x.dot(x) ** 2
        total = F(0)
        for A in frame.actions():
            ax = [sum((A.num[i, j] * c for j, c in enumerate(x.components)), F(0))
                  for i in range(m)]
            total += k_contract(x, Vector.of(space, ax))
        assert total == -12 * norm4


@pytest.mark.parametrize("n", [2, 3])
def test_berger_commutators(n):
    data = verify_berger(model_curvature(n))
    assert all(c.passed for c in data.checks), \
        [(c.name, c.actual) for c in data.checks if not c.passed]
    assert data.alpha.fraction(0, 1) == 4  # alpha(e1, I e1)
    assert data.alpha.fraction(0, 4) == 0  # alpha(e1, e5)


def test_curvature_pair_identity_named_triple(model2):
    # <R(X,Y)Z, IZ> + <R(X,Y)JZ, KZ> = alpha(X,Y) |Z|^2 at (e1, e5, e6)
    _, _, R = model2
    data = verify_berger(R)
    (tI, sI), (tJ, sJ), (tK, sK) = ((t[5], s[5]) for t, s in reference_actions(2))
    a, b, c = 1, 5, 6
    lhs = sI * R.entry(a, b, tI, c) + sJ * sK * R.entry(a, b, tK, tJ)
    assert lhs == data.alpha.fraction(a - 1, b - 1)


def reference_triple_violations(R, data, seed):
    """The curvature-pair identities on verify_berger's seeded frame
    triples, one R.entry at a time through the reference tables."""
    m = R.dim
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
        lhs_a = sI * R.entry(a + 1, b + 1, tI, c) + sJ * sK * R.entry(a + 1, b + 1, tK, tJ)
        lhs_b = sJ * R.entry(a + 1, b + 1, tJ, c) + sK * sI * R.entry(a + 1, b + 1, tI, tK)
        lhs_g = sK * R.entry(a + 1, b + 1, tK, c) + sI * sJ * R.entry(a + 1, b + 1, tJ, tI)
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
    rng = random.Random(seed)
    a, b = rng.randrange(R.dim), rng.randrange(R.dim)
    while a == b:
        a, b = rng.randrange(R.dim), rng.randrange(R.dim)
    one = R.table.num.copy()
    one[a, b, 0, 1] += 1
    rng = random.Random(40 + seed)
    many = R.table.num.copy()
    for _ in range(R.dim ** 4 // 20):
        many[tuple(rng.randrange(R.dim) for _ in range(4))] += rng.choice((-1, 1))
    for num in (one, many):
        broken = CurvatureTensor(ExactArray.of(num, R.table.den))
        data = verify_berger(broken, seed)
        expected = reference_triple_violations(broken, data, seed)
        assert expected > 0
        assert triple_check(data) == expected


MUTANTS = 20


def test_parallel_four_form(model2):
    sc, _, R = model2
    berger = verify_berger(R)
    sp1 = verify_parallel_four_form(sc, berger)
    assert all(c.passed for c in sp1.checks), \
        [c.name for c in sp1.checks if not c.passed]
    assert [c.passed for c in sp1.checks] == reference_parallel_four_form(sc, berger)
    # the radial direction is annihilated by the connection
    assert sp1.a[0] == sp1.b[0] == sp1.c[0] == 0


def test_exterior_derivative_matches_connection(model2):
    # torsion-free consistency: d omega = sum theta^A ^ nabla_A omega
    sc, G, _ = model2
    frame = build_frame(2)
    ff = build_fundamental_forms(frame)
    space = frame.space
    d_images = d_coframe(space, sc.table)
    for omega in (ff.omega1, ff.omega2):
        rhs = Form.zero(space, omega.degree + 1)
        for x in range(sc.dim):
            rhs = rhs + ext_mult(Form.basis(space, (x + 1,)),
                                 derivation(nabla_coframe(space, G, x), omega))
        assert derivation(d_images, omega) == rhs


@pytest.mark.parametrize("n", [2, 3])
def test_derivation_matches_the_term_by_term_references(n):
    # d and every nabla_X through the one derivation, against the old
    # per-term loops: on omega_a, Omega and seeded random 1- to 4-forms
    sc = build_model(n)
    G = levi_civita_table(sc.table)
    frame = build_frame(n)
    ff = build_fundamental_forms(frame)
    space = frame.space
    rng = random.Random(30 + n)
    forms = [ff.omega1, ff.omega2, ff.omega3, ff.Omega]
    forms += [random_form(space, p, rng) for p in (1, 2, 3, 4)]
    d_images = d_coframe(space, sc.table)
    directions = [0, 1, 4, sc.dim - 1] + [rng.randrange(sc.dim) for _ in range(2)]
    for omega in forms:
        assert derivation(d_images, omega) == reference_exterior_derivative(sc.table, omega)
        for x in directions:
            assert derivation(nabla_coframe(space, G, x), omega) == \
                reference_covariant_derivative(G, x + 1, omega)


@pytest.mark.parametrize("n", [2, 3])
def test_parallel_four_form_fails_on_perturbed_brackets(n):
    # mutants: +-1 on one antisymmetric bracket pair [e_a, e_b], component d.
    # Each fails a check, and the verdicts are those of the reference loops
    sc = build_model(n)
    berger = verify_berger(model_curvature(n))
    rng = random.Random(50 + n)
    for _ in range(MUTANTS):
        a, b = rng.sample(range(sc.dim), 2)
        d, s = rng.randrange(sc.dim), rng.choice((-1, 1))
        num = sc.table.num.copy()
        num[a, b, d] += s * sc.table.den
        num[b, a, d] -= s * sc.table.den
        mutant = dataclasses.replace(sc, table=ExactArray.of(num, sc.table.den))
        verdicts = [c.passed for c in verify_parallel_four_form(mutant, berger).checks]
        assert not all(verdicts), (a, b, d, s)
        assert verdicts == reference_parallel_four_form(mutant, berger), (a, b, d, s)


def test_build_model_validation():
    for n in (1, MAX_MODEL_N + 1):
        with pytest.raises(ContractViolation):
            build_model(n)


def test_build_model_is_cached_and_read_only():
    sc = build_model(2)
    assert build_model(2) is sc
    with pytest.raises(ValueError):
        sc.table.num[0, 1, 1] = 0
    assert sc.table.fraction(0, 1, 1) == 2


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
    R = curvature_table(C, G)
    ref_C = reference_bracket_table(n, c)
    ref_G = reference_levi_civita(ref_C)
    assert C.fractions() == ref_C
    assert G.fractions() == ref_G
    assert R.fractions() == reference_curvature(ref_C, ref_G)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("scale", [F(1), F(1, 4), F(4)])
def test_level_set_tables_match_fraction_reference(n, scale):
    sc = build_model(n)
    C = _nilpotent_brackets(sc, scale)
    ref_C = reference_nilpotent_brackets(reference_bracket_table(n, sc.c), scale)
    ref_G = reference_levi_civita(ref_C)
    assert C.fractions() == ref_C
    assert levi_civita_table(C).fractions() == ref_G
    assert level_set_geometry(sc, scale).curvature.table.fractions() == \
        reference_curvature(ref_C, ref_G)


def test_violation_counts_match_reference_on_a_perturbed_tensor():
    # the array counts are not vacuous: break the tensor in seeded slots and
    # count as the reference loops do
    R = model_curvature(2).table
    rng = random.Random(5)
    num = R.num.copy()
    for _ in range(6):
        num[tuple(rng.randrange(8) for _ in range(4))] += rng.choice((-1, 1))
    broken = ExactArray.of(num, R.den)
    expected = reference_symmetry_violations(broken.fractions())
    assert expected > 0
    assert CurvatureTensor(broken).symmetry_violations() == expected

    C = build_model(2).table
    num = C.num.copy()
    num[4, 5, 1] += 1
    assert jacobi_violations(ExactArray.of(num, C.den)) > 0


NEAR_2_31 = (1 << 31) - 7


def test_products_refuse_to_leave_int64():
    # bad input, not an internal failure: the CLI exits 2 on it
    assert issubclass(Int64RangeError, ContractViolation)
    big = ExactArray.of(np.full((2, 2, 2), NEAR_2_31))
    with pytest.raises(Int64RangeError):
        curvature_table(big, big)
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
