"""Solvable-model construction, connection, curvature tensor, and the
curvature identity batteries."""

from fractions import Fraction as F

import pytest

import qkcomp.model
from qkcomp.forms import ContractViolation, Form, ext_mult
from qkcomp.model import (
    ModelConstructionError,
    _derive_bracket_scale,
    build_model,
    curvature,
    covariant_derivative,
    exterior_derivative,
    jacobi_violations,
    levi_civita,
    model_curvature,
    verify_berger,
    verify_einstein,
    verify_parallel_four_form,
    verify_quaternionic_traces,
    verify_radial_slabs,
)
from qkcomp.quaternionic import build_frame, build_fundamental_forms


@pytest.fixture(scope="module")
def model2():
    sc = build_model(2)
    cc = levi_civita(sc)
    R = curvature(sc, cc)
    return sc, cc, R


@pytest.fixture(scope="module")
def model3():
    sc = build_model(3)
    cc = levi_civita(sc)
    R = curvature(sc, cc)
    return sc, cc, R


def test_bracket_scale_derived_by_einstein_sweep(model2):
    sc, _, _ = model2
    assert sc.c == 2
    assert dict(sc.derivation)[F(2)] is True
    assert sum(ok for _, ok in sc.derivation) == 1


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
        C = [list(map(list, slab)) for slab in sc.table]
        assert jacobi_violations(C) == 0


def test_ad_e1_eigenvalues(model2):
    sc, _, _ = model2
    # [e1, z] = 2z on three directions, [e1, v] = v on 4(n-1)
    diag = [sc.table[0][b][b] for b in range(1, sc.dim)]
    assert diag[:3] == [2, 2, 2]
    assert diag[3:] == [1] * (4 * sc.n - 4)


def test_center_bracket(model2):
    sc, _, _ = model2
    # [e5, e6] = c e2 with the derived scale
    assert sc.bracket(5, 6) == (0, F(2), 0, 0, 0, 0, 0, 0)
    assert sc.bracket(6, 5) == (0, F(-2), 0, 0, 0, 0, 0, 0)
    # [e5, e7] = c e3, [e5, e8] = c e4
    assert sc.bracket(5, 7)[2] == 2 and sc.bracket(5, 8)[3] == 2
    # the center is abelian and does not bracket with v
    assert all(v == 0 for v in sc.bracket(2, 3))
    assert all(v == 0 for v in sc.bracket(2, 5))


def test_connection_radial_properties(model2):
    sc, cc, _ = model2
    m = sc.dim
    assert all(cc.gamma(1, 1, d) == 0 for d in range(1, m + 1))
    for al in range(2, m + 1):
        expect = F(-2) if al <= 4 else F(-1)
        assert cc.gamma(al, 1, al) == expect


def test_connection_metric_compatibility(model2):
    sc, cc, _ = model2
    m = sc.dim
    for a in range(1, m + 1):
        for b in range(1, m + 1):
            for d in range(1, m + 1):
                assert cc.gamma(a, b, d) == -cc.gamma(a, d, b)


def test_connection_torsion_free(model2):
    sc, cc, _ = model2
    m = sc.dim
    for a in range(1, m + 1):
        for b in range(1, m + 1):
            for d in range(1, m + 1):
                assert cc.gamma(a, b, d) - cc.gamma(b, a, d) == \
                    sc.table[a - 1][b - 1][d - 1]


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
    checks = verify_einstein(R, n)
    assert all(c.passed for c in checks), [c.name for c in checks if not c.passed]
    assert R.scalar() == -16 * n * (n + 2)
    ric = R.ricci()
    assert ric[0][0] == -4 * (n + 2)


@pytest.mark.parametrize("n", [2, 3])
def test_radial_slab_tables(n):
    checks = verify_radial_slabs(model_curvature(n), n)
    assert all(c.passed for c in checks), [c.actual for c in checks]


@pytest.mark.parametrize("n", [2, 3])
def test_trace_identities(n):
    frame = build_frame(n)
    checks = verify_quaternionic_traces(model_curvature(n), frame)
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
                for c in range(m):
                    if not yc[c]:
                        continue
                    row = R.operator(a + 1, b + 1)
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
        for act in frame.actions():
            total += k_contract(x, act.apply_vector(x))
        assert total == -12 * norm4


@pytest.mark.parametrize("n", [2, 3])
def test_berger_commutators(n):
    frame = build_frame(n)
    data = verify_berger(model_curvature(n), frame, n)
    assert all(c.passed for c in data.checks), \
        [(c.name, c.actual) for c in data.checks if not c.passed]
    assert data.alpha[0][1] == 4  # alpha(e1, I e1)
    assert data.alpha[0][4] == 0  # alpha(e1, e5)


def test_curvature_pair_identity_named_triple(model2):
    # <R(X,Y)Z, IZ> + <R(X,Y)JZ, KZ> = alpha(X,Y) |Z|^2 at (e1, e5, e6)
    _, _, R = model2
    frame = build_frame(2)
    data = verify_berger(R, frame, 2)
    I, J, K = frame.actions()
    a, b, c = 1, 5, 6
    tI, sI = I.apply(c)
    tJ, sJ = J.apply(c)
    tK, sK = K.apply(c)
    lhs = sI * R.entry(a, b, tI, c) + sJ * sK * R.entry(a, b, tK, tJ)
    assert lhs == data.alpha[a - 1][b - 1]


def test_parallel_four_form(model2):
    sc, _, R = model2
    frame = build_frame(2)
    berger = verify_berger(R, frame, 2)
    sp1 = verify_parallel_four_form(sc, frame, berger)
    assert all(c.passed for c in sp1.checks), \
        [c.name for c in sp1.checks if not c.passed]
    # the radial direction is annihilated by the connection
    assert sp1.a[0] == sp1.b[0] == sp1.c[0] == 0


def test_exterior_derivative_matches_connection(model2):
    # torsion-free consistency: d omega = sum theta^A ^ nabla_A omega
    sc, cc, _ = model2
    frame = build_frame(2)
    ff = build_fundamental_forms(frame)
    space = frame.space
    for omega in (ff.omega1, ff.omega2):
        lhs = exterior_derivative(sc, omega)
        rhs = Form.zero(space, omega.degree + 1)
        for a in range(1, sc.dim + 1):
            rhs = rhs + ext_mult(Form.basis(space, (a,)),
                                 covariant_derivative(cc, a, omega))
        assert lhs == rhs


def test_build_model_validation():
    with pytest.raises(ContractViolation):
        build_model(1)
