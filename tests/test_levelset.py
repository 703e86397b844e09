"""Horosphere geometry: shape operator, intrinsic curvature, Gauss
equation branches, weighted displays, and the Busemann cross-check."""

import random
from fractions import Fraction as F

import numpy as np
import pytest

from qkcomp.forms import ContractViolation, ExactArray
from qkcomp.levelset import (
    level_set_geometry,
    radial_hessian_check,
    second_fundamental_form,
    verify_gauss_equation,
    verify_level_set_sums,
    verify_second_fundamental,
    verify_weighted_displays,
)
from qkcomp.model import (ModelConstructionError, build_model, curvature,
                          levi_civita_table, model_curvature, sectional)
from qkcomp.report import Check, check_eq


@pytest.fixture(scope="module")
def setup2():
    return build_model(2), model_curvature(2)


@pytest.fixture(scope="module")
def setup3():
    return build_model(3), model_curvature(3)


def test_second_fundamental_form(setup2, setup3):
    for C, _ in (setup2, setup3):
        h = second_fundamental_form(C)
        checks = verify_second_fundamental(h)
        assert all(c.passed for c in checks)
        assert [h.fraction(i, i) for i in range(3)] == [F(2)] * 3
        assert {h.fraction(i, i) for i in range(3, len(h.num))} == {F(1)}


def test_center_planes_are_flat(setup2):
    C, _ = setup2
    K = sectional(level_set_geometry(C, F(1)))
    assert K.fraction(0, 1) == 0
    assert K.fraction(0, 2) == 0
    assert K.fraction(1, 2) == 0


def test_level_set_sums(setup2, setup3):
    for C, _ in (setup2, setup3):
        checks = verify_level_set_sums(level_set_geometry(C, F(1)))
        assert all(c.passed for c in checks), \
            [c.name for c in checks if not c.passed]


def test_line_sum_minus_nine_explicit(setup2):
    C, _ = setup2
    bar = level_set_geometry(C, F(1))
    total = sum(bar.fraction(6, 6 - i, 6, 6 - i) for i in (1, 2, 3))
    assert total == -9


def test_gauss_equation_both_scales(setup2, setup3):
    for C, R in (setup2, setup3):
        h = second_fundamental_form(C)
        for scale in (F(1), F(1, 4)):
            checks = verify_gauss_equation(R, h, level_set_geometry(C, scale), scale)
            assert all(c.passed for c in checks), \
                [(c.name, c.actual) for c in checks if not c.passed]


def test_intrinsic_curvature_scale_invariant(setup2):
    # horospheres at different radii are mutually isometric: the intrinsic
    # curvature in the orthonormal frame does not depend on the scale
    C, _ = setup2
    a = level_set_geometry(C, F(1))
    b = level_set_geometry(C, F(1, 4))
    m = len(C.num) - 1
    for i in range(m):
        for j in range(m):
            assert a[i, j].fractions() == b[i, j].fractions()


def test_weighted_displays(setup2, setup3):
    for C, R in (setup2, setup3):
        base = level_set_geometry(C, F(1))
        for scale in (F(1), F(1, 4), F(4), F(1, 10**12)):
            checks = verify_weighted_displays(R, base, scale)
            assert all(c.passed for c in checks), \
                [(c.name, c.actual) for c in checks if not c.passed]


def test_scale_validation(setup2):
    C, _ = setup2
    with pytest.raises(ContractViolation):
        level_set_geometry(C, F(-1))
    with pytest.raises(ContractViolation):
        level_set_geometry(C, F(1, 2))  # sqrt(1/2) irrational


def test_broken_model_invariants_are_internal_failures(setup2):
    # a bracket table that breaks an invariant of the construction is a
    # fault of the program, not bad input: ModelConstructionError, which
    # the CLI does not map to exit 2
    C, _ = setup2
    assert not issubclass(ModelConstructionError, ContractViolation)

    def mutant(a, b, d):
        num = C.num.copy()
        num[a, b, d] += C.den
        num[b, a, d] -= C.den
        return ExactArray.of(num, C.den)

    # [e_1, e_6] picks up e_7: h_67 = <nabla_{e_6} e_7, e_1> is off-diagonal,
    # while the level-set brackets (no e_1) keep Jacobi.  That is not a
    # refusal but a FAIL of the named shape-operator checks; the Gauss
    # equation, in its general form, holds with the mutant's own curvature
    # and fails with the model's, branch by branch as the reference counts
    off_diagonal = mutant(0, 5, 6)
    h = second_fundamental_form(off_diagonal)
    verdicts = {c.name: c.passed for c in verify_second_fundamental(h)
                + radial_hessian_check(h)}
    assert not verdicts["shape operator off-diagonal vanishes"]
    assert not verdicts["second fundamental form = diag(2,2,2,1,...,1)"]
    for R, holds in ((curvature(off_diagonal), True), (model_curvature(2), False)):
        for scale in (F(1), F(1, 4)):
            got, want = gauss_verdicts(R, h, level_set_geometry(off_diagonal, scale), scale)
            assert got == want
            assert all(passed for _, passed in want.values()) == holds
    # [e_5, e_6] picks up e_5: [[e_5, e_6], e_7] = c e_3 breaks Jacobi on z + v
    with pytest.raises(ModelConstructionError, match="Jacobi"):
        level_set_geometry(mutant(4, 5, 4), F(1))


def test_radial_hessian_check(setup2, setup3):
    for C, _ in (setup2, setup3):
        checks = radial_hessian_check(second_fundamental_form(C))
        assert all(c.passed for c in checks), \
            [(c.name, c.actual) for c in checks if not c.passed]


def test_shape_operator_diagonal(setup2):
    C, _ = setup2
    h = second_fundamental_form(C)
    assert not h.num[~np.eye(7, dtype=bool)].any()
    assert [h.fraction(i, i) for i in range(7)] == [2, 2, 2, 1, 1, 1, 1]


def reference_gauss_counts(R, h, bar):
    """(bad, total) per branch of the Gauss equation, slot by slot, with the
    full shape-operator matrix h:
    R_ijkl = bar R_ijkl + h_li h_kj - h_ki h_lj."""
    m = len(bar.num) + 1
    h = h.fractions()
    z, v = range(2, 5), range(5, m + 1)
    counts = {}

    def branch(i, j, k, l):
        if all(x in v for x in (i, j, k, l)):
            return "v-block"
        if all(x in z for x in (i, j, k, l)):
            return "z-block"
        if i == l and i in z and k == j and k in v:
            return "mixed +2 (i=l in z)"
        if k == j and k in z and i == l and i in v:
            return "mixed +2 (k=j in z)"
        if i == k and i in z and j == l and j in v:
            return "mixed -2 (i=k in z)"
        if j == l and j in z and i == k and i in v:
            return "mixed -2 (j=l in z)"
        return "plain"

    for i in range(2, m + 1):
        for j in range(2, m + 1):
            for k in range(2, m + 1):
                for l in range(2, m + 1):
                    corr = (h[l - 2][i - 2] * h[k - 2][j - 2]
                            - h[k - 2][i - 2] * h[l - 2][j - 2])
                    bad, total = counts.get(branch(i, j, k, l), (0, 0))
                    want = bar.fraction(i - 2, j - 2, k - 2, l - 2) + corr
                    bad += R.fraction(i - 1, j - 1, k - 1, l - 1) != want
                    counts[branch(i, j, k, l)] = (bad, total + 1)
    return counts


def gauss_verdicts(R, h, bar, scale):
    """({check name: (actual, passed)} of verify_gauss_equation, the same
    from reference_gauss_counts)."""
    got = {chk.name: (chk.actual, chk.passed)
           for chk in verify_gauss_equation(R, h, bar, scale)}
    return got, {f"gauss equation at scale {scale} [{name}]": (f"{bad} of {total}", bad == 0)
                 for name, (bad, total) in reference_gauss_counts(R, h, bar).items()}


@pytest.mark.parametrize("scale", [F(1), F(1, 4)])
def test_gauss_branches_match_reference_on_a_perturbed_tensor(setup2, scale):
    C, R = setup2
    rng = random.Random(7)
    num = R.num.copy()
    for _ in range(40):
        num[tuple(rng.randrange(1, 8) for _ in range(4))] += 1
    broken = ExactArray.of(num, R.den)
    h, bar = second_fundamental_form(C), level_set_geometry(C, scale)
    got, want = gauss_verdicts(broken, h, bar, scale)
    assert not all(passed for _, passed in want.values())
    assert got == want


def reference_level_set_sums(bar):
    """verify_level_set_sums written as loops over single Fraction entries."""
    n = (len(bar.num) + 1) // 4

    def K(i, j):
        """K^N(e_i, e_j) with ambient indices 2..4n."""
        return bar.fraction(i - 2, j - 2, i - 2, j - 2)

    zero_bad = sum(1 for (p, q) in ((2, 3), (2, 4), (3, 4)) if K(p, q) != 0)
    mixed_bad = sum(1 for p in (2, 3, 4) for s in range(2, n + 1)
                    if sum((K(p, 4 * s - i) for i in range(4)), F(0)) != 4)
    line_bad = sum(1 for s in range(2, n + 1)
                   if sum((K(4 * s, 4 * s - i) for i in range(1, 4)), F(0)) != -9)
    cross_bad = sum(1 for s in range(2, n + 1) for r in range(2, n + 1)
                    if r != s and sum((K(4 * s, 4 * r - i) for i in range(4)), F(0)) != 0)
    unit_bad = sum(1 for p in (2, 3, 4) for al in range(5, 4 * n + 1) if K(p, al) != 1)
    return [check_eq("K^N vanishes on the center planes", 0, zero_bad),
            check_eq("sum_i K^N(e_p, e_{4s-i}) = 4", 0, mixed_bad),
            check_eq("sum_i K^N(e_{4s}, e_{4s-i}) = -9", 0, line_bad),
            check_eq("sum_i K^N(e_{4s}, e_{4r-i}) = 0 across lines", 0, cross_bad),
            check_eq("K^N(center, transversal) = 1", 0, unit_bad)]


def reference_radial_hessian_check(C):
    """radial_hessian_check written as loops over single Fraction entries,
    against the Busemann Hessian diag(0, -2, -2, -2, -1, ..., -1)."""
    m = len(C.num)
    n = m // 4
    gamma = levi_civita_table(C).fractions()
    h = [[gamma[a][b][0] for b in range(1, m)] for a in range(1, m)]
    beta = [0, -2, -2, -2] + [-1] * (m - 4)
    off = sum(1 for a in range(m - 1) for b in range(m - 1) if a != b and h[a][b])
    mismatch = sum(1 for a in range(m - 1) for b in range(m - 1)
                   if h[a][b] != (-beta[a + 1] if a == b else 0))
    diag = [h[i][i] for i in range(m - 1)]
    checks = [check_eq("shape operator off-diagonal vanishes", 0, off),
              check_eq("shape operator = -(Busemann Hessian restriction)", 0, mismatch),
              check_eq("Busemann Hessian radial row and column vanish", 0, 0),
              check_eq("total shape trace = 4n+2 (area growth exponent)",
                       F(4 * n + 2), sum(diag, F(0))),
              check_eq("line-block trace = 6 (limit of 6 coth 2r)", F(6), sum(diag[:3], F(0)))]
    for s in range(2, n + 1):
        checks.append(check_eq(f"transversal block {s} trace = 4 (limit of 4 coth r)",
                               F(4), sum((diag[4 * s - 5 + k] for k in range(4)), F(0))))
    return checks


def rendered(checks: list[Check]) -> list[dict]:
    return [chk.as_dict() for chk in checks]


@pytest.mark.parametrize("n", [2, 3])
def test_level_set_sums_match_reference_on_a_perturbed_tensor(setup2, setup3, n):
    C, _ = setup2 if n == 2 else setup3
    bar = level_set_geometry(C, F(1, 4))
    assert rendered(verify_level_set_sums(bar)) == rendered(reference_level_set_sums(bar))
    rng = random.Random(11)
    num = bar.num.copy()
    m = 4 * n - 1
    for _ in range(12):
        a, b = rng.randrange(m), rng.randrange(m)
        num[a, b, a, b] += rng.choice((-1, 1))  # moves K^N(e_{a+2}, e_{b+2})
    num[0, 1, 0, 1] += 1  # a center plane
    num[6, 6, 6, 6] += 1  # K^N(e_8, e_8), outside every sum
    if n == 3:
        num[6, 8, 6, 8] += 1  # K^N(e_8, e_10), across lines
    broken = ExactArray.of(num, bar.den)
    expected = rendered(reference_level_set_sums(broken))
    # every sum fails but the cross-line one, which n = 2 does not have
    assert sum(not chk["pass"] for chk in expected) == (5 if n == 3 else 4)
    assert rendered(verify_level_set_sums(broken)) == expected


@pytest.mark.parametrize("n", [2, 3])
def test_busemann_cross_check_matches_reference_on_perturbed_brackets(setup2, setup3, n):
    C, _ = setup2 if n == 2 else setup3
    assert rendered(radial_hessian_check(second_fundamental_form(C))) == \
        rendered(reference_radial_hessian_check(C))
    rng = random.Random(13)
    num = C.num.copy()
    for _ in range(6):
        # [e_1, e_a] picks up e_b: moves h_ab = <nabla_{e_a} e_b, e_1>
        num[0, rng.randrange(1, 4 * n), rng.randrange(1, 4 * n)] += rng.choice((-1, 1))
    broken = ExactArray.of(num, C.den)
    expected = rendered(reference_radial_hessian_check(broken))
    assert sum(not chk["pass"] for chk in expected) >= 2
    assert rendered(radial_hessian_check(second_fundamental_form(broken))) == expected
