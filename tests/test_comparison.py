"""Model-space comparison quantities: Laplacian, Hessian blocks, area
density, volumes, ratio monotonicity, eigenvalue constants."""

import math
import os
import re
import subprocess
import sys
from fractions import Fraction as F
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import qkcomp
from qkcomp.comparison import (
    QUADRATURE_PANELS,
    EigenvalueBounds,
    ModelGeometry,
    area_density,
    ball_volume,
    eigenvalue_bounds,
    flat_laplacian_coefficient,
    flat_laplacian_coefficient_printed,
    hessian_block_bounds,
    integrate,
    laplacian_distance,
    sphere_area_constant,
    volume,
    volume_ratio_check,
)
from qkcomp.forms import ContractViolation
from qkcomp.riccati import DomainError, line_block, transversal_block
from qkcomp.spectral import RadialProblem
from qkcomp.suite import volume_ratio_equality_check
from test_riccati import CRITERION_4_RADII, reference_barrier


# -- reference: the density one float at a time, with libm ---------------------

def reference_model_domain_check(g, r):
    if r <= 0:
        raise DomainError(f"need r > 0, got r={r}")
    if g.delta == 1 and r >= math.pi / 2:
        raise DomainError(f"delta=+1 model has diameter pi/2; got r={r}")


def reference_area_density(g, r):
    """J(r) at a float r, with libm's sinh/sin and float powers."""
    reference_model_domain_check(g, r)
    if g.delta == 0:
        return r ** (4 * g.n - 1)
    s = math.sinh if g.delta == -1 else math.sin
    return (s(2 * r) / 2) ** 3 * s(r) ** (4 * (g.n - 1))


def simpson(f, a, b, n=4000):
    """Independent quadrature oracle (composite Simpson)."""
    if n % 2:
        n += 1
    h = (b - a) / n
    total = f(a) + f(b)
    total += 4 * sum(f(a + h * k) for k in range(1, n, 2))
    total += 2 * sum(f(a + h * k) for k in range(2, n, 2))
    return total * h / 3


def quad_integral(f, a, b):
    """Oracle: QUADPACK at the settings the package used before it had its
    own rule.  Only the tests import scipy.integrate."""
    return quad(f, a, b, epsabs=0.0, epsrel=1e-10, limit=200)[0]


# |integrate / quad - 1| allowed on the grid below; measured 1.8e-14
# (n = 5, delta = -1, r = 0.1), at the rounding of the two sums
QUAD_AGREEMENT = 5e-14


def grid_radii(delta):
    if delta == 1:
        return [0.01, 0.1, 0.5, 1.0, 1.5, math.pi / 2 - 1e-12]
    return [0.01, 0.1, 0.5, 1.0, 2.0, 4.0, 8.0]


def test_laplacian_hyperbolic_limit():
    g = ModelGeometry(2, -1)
    assert laplacian_distance(g, 40.0) == pytest.approx(10.0, abs=1e-12)
    g3 = ModelGeometry(3, -1)
    assert laplacian_distance(g3, 40.0) == pytest.approx(14.0, abs=1e-12)


def test_laplacian_hyperbolic_value_at_one():
    # 6 coth 2 + 4 coth 1, frozen from direct evaluation
    g = ModelGeometry(2, -1)
    assert laplacian_distance(g, 1.0) == pytest.approx(11.476029466362615,
                                                       abs=1e-9)


def test_laplacian_flat_coefficient():
    g = ModelGeometry(2, 0)
    for r in (0.5, 1.0, 2.5):
        assert laplacian_distance(g, r) * r == pytest.approx(7.0, abs=1e-12)
    assert flat_laplacian_coefficient(2) == 7
    assert flat_laplacian_coefficient_printed(2) == 5
    g3 = ModelGeometry(3, 0)
    assert laplacian_distance(g3, 2.0) * 2.0 == pytest.approx(11.0, abs=1e-12)


def test_block_sum_identity_all_deltas():
    for delta in (-1, 0, 1):
        for n in (2, 3):
            g = ModelGeometry(n, delta)
            for r in (0.3, 0.7, 1.2):
                if delta == 1 and r >= math.pi / 2:
                    continue
                line, trans = hessian_block_bounds(g, r)
                assert laplacian_distance(g, r) == line + (n - 1) * trans


def test_hessian_block_values():
    g = ModelGeometry(2, -1)
    line, trans = hessian_block_bounds(g, 1.0)
    assert line == pytest.approx(6 / math.tanh(2), abs=1e-12)
    assert trans == pytest.approx(4 / math.tanh(1), abs=1e-12)
    g0 = ModelGeometry(2, 0)
    line, trans = hessian_block_bounds(g0, 2.0)
    assert (line, trans) == (pytest.approx(1.5), pytest.approx(2.0))


def test_domain_errors():
    g = ModelGeometry(2, 1)
    with pytest.raises(DomainError):
        laplacian_distance(g, math.pi / 2)
    with pytest.raises(DomainError):
        laplacian_distance(g, -1.0)
    with pytest.raises(ContractViolation):
        ModelGeometry(1, -1)
    with pytest.raises(ContractViolation):
        ModelGeometry(2, 5)


def test_area_density_euclidean_limit():
    g = ModelGeometry(2, -1)
    for r in (1e-3, 1e-4):
        assert area_density(g, r) / r ** 7 == pytest.approx(1.0, abs=1e-5)


def test_area_density_log_derivative():
    g = ModelGeometry(2, -1)
    for r in (0.5, 1.0, 2.0):
        h = 1e-6
        fd = (math.log(area_density(g, r + h))
              - math.log(area_density(g, r - h))) / (2 * h)
        assert abs(fd - laplacian_distance(g, r)) <= 1e-8


def test_area_growth_exponent():
    g = ModelGeometry(2, -1)
    # log J = (4n+2) r - 10 log 2 + o(1)
    r = 30.0
    assert math.log(area_density(g, r)) / r == pytest.approx(
        10.0 - 10 * math.log(2) / r, abs=1e-6)


def test_volume_flat_closed_form():
    g0 = ModelGeometry(2, 0)
    assert sphere_area_constant(2) == pytest.approx(math.pi ** 4 / 3)
    for r in (0.8, 1.5):
        assert volume(g0, r) == pytest.approx(math.pi ** 4 * r ** 8 / 24,
                                              rel=1e-10)


def test_volume_hyperbolic_dominates_euclidean_ratio():
    g = ModelGeometry(2, -1)
    assert volume(g, 2.0) / volume(g, 1.0) >= 2.0 ** 8


def test_volume_against_independent_simpson():
    g = ModelGeometry(2, -1)
    ours = volume(g, 1.5)
    oracle = sphere_area_constant(2) * simpson(lambda s: area_density(g, s),
                                               1e-9, 1.5)
    assert ours == pytest.approx(oracle, rel=1e-8)


def test_projective_total_volume_finite():
    gp = ModelGeometry(2, 1)
    total = volume(gp, math.pi / 2 - 1e-12)
    # frozen by quadrature; cross-checked against the Simpson oracle
    assert total == pytest.approx(0.8117424252833536, rel=1e-9)
    oracle = sphere_area_constant(2) * simpson(
        lambda s: area_density(gp, s), 1e-9, math.pi / 2 - 1e-9, n=20000)
    assert total == pytest.approx(oracle, rel=1e-7)


@pytest.mark.parametrize("n", [2, 3, 5, 6, 10])
@pytest.mark.parametrize("delta", [-1, 0, 1])
def test_volume_matches_quad(n, delta):
    g = ModelGeometry(n, delta)
    for r in grid_radii(delta):
        oracle = sphere_area_constant(n) * quad_integral(
            lambda s: area_density(g, s), 0.0, r)
        assert abs(volume(g, r) / oracle - 1) <= QUAD_AGREEMENT, r


@pytest.mark.parametrize("n", [2, 3, 5, 6, 10])
@pytest.mark.parametrize("delta", [-1, 0, 1])
def test_ball_volume_matches_quad(n, delta):
    g = ModelGeometry(n, delta)
    radii = grid_radii(delta)
    oracle = [sphere_area_constant(n) * quad_integral(lambda s: area_density(g, s), 0.0, r)
              for r in radii]
    closed = ball_volume(g, np.array(radii))
    assert closed.tolist() == [ball_volume(g, r) for r in radii]
    for r, want, got in zip(radii, oracle, closed.tolist()):
        assert abs(got / want - 1) <= QUAD_AGREEMENT, r


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("delta", [-1, 0, 1])
def test_volume_ratio_check_matches_quad(n, delta):
    g = ModelGeometry(n, delta)
    radii = grid_radii(delta)
    model = partial(area_density, g)
    for r1, r2 in [(radii[1], radii[3]), (radii[3], radii[-1])]:
        ratio, model_ratio = volume_ratio_check(g, r1, r2)
        oracle = quad_integral(model, 0.0, r2) / quad_integral(model, 0.0, r1)
        assert abs(ratio / oracle - 1) <= 2 * QUAD_AGREEMENT
        assert abs(model_ratio / oracle - 1) <= 2 * QUAD_AGREEMENT
        # the quadrature ratio as it was computed when the check took a
        # general density: the two integrals of it, without omega_{4n-1}
        bare = integrate(model, 0.0, r2) / integrate(model, 0.0, r1)
        assert abs(ratio / bare - 1) <= 1e-14


@pytest.mark.parametrize("nodes, weights, points",
                         [("_X20", "_W20", 20), ("_X10", "_W10", 10)])
def test_gauss_legendre_literals_are_leggauss_bit_for_bit(nodes, weights, points):
    from qkcomp import comparison

    x, w = np.polynomial.legendre.leggauss(points)
    assert getattr(comparison, nodes).tobytes() == x.tobytes()
    assert getattr(comparison, weights).tobytes() == w.tobytes()


def test_integrate_is_exact_on_polynomials():
    # both rules integrate degree 19 exactly, so one panel is accepted; the
    # nodes carry rounding that s^19 amplifies to about 1.5e-14 relative
    calls = []

    def f(s):
        calls.append(s.shape)
        return 3 * s ** 2 - s ** 19

    assert integrate(f, 0.0, 2.0) == pytest.approx(8 - 2.0 ** 20 / 20, rel=1e-13)
    # one call per panel, on its 20 + 10 nodes
    assert calls == [(30,)]


@pytest.mark.parametrize("k, one_panel", [(20, True), (21, False)])
def test_integrate_accepts_a_panel_at_its_tolerance(k, one_panel):
    # on [0, 1] the two rules differ by 2.9e-11 of the value of s^20 and by
    # 3.2e-10 of that of s^21, either side of QUADRATURE_EPSREL = 1e-10
    calls = []

    def f(s):
        calls.append(s.shape)
        return s ** k

    assert integrate(f, 0.0, 1.0) == pytest.approx(1 / (k + 1), rel=1e-13)
    assert (calls == [(30,)]) == one_panel


@pytest.mark.parametrize("n, r, panels", [(6, 8.0, 11), (10, 12.0, 13)])
def test_integrate_leaves_negligible_panels_unsplit(n, r, panels):
    # near 0 the density ~ s^{4n-1} is negligible against the whole
    # integral, yet its two rules never agree to 1e-10 of its own tiny
    # value: a relative test alone bisected toward 0 (147 and 227 panels)
    g = ModelGeometry(n, -1)
    calls = []

    def f(s):
        calls.append(s.shape)
        return area_density(g, s)

    integrate(f, 0.0, r)
    assert calls == [(30,)] * panels


def test_integrate_keeps_the_summed_error_within_the_whole():
    # sqrt has the same relative rule gap on [0, h] at every h, so the panel
    # at 0 is accepted on its share of the whole alone; the shares sum to
    # one, so the accepted errors stay within QUADRATURE_EPSREL of the
    # integral (accepting against the whole itself left 8.6e-12 here)
    assert integrate(np.sqrt, 0.0, 1.0) == pytest.approx(2 / 3, rel=1e-13)


@pytest.mark.parametrize("f", [lambda s: 1 / s, lambda s: s * math.nan])
def test_integrate_raises_at_the_panel_cap(f):
    # the 1/s panel at 0 never converges (its rules differ by a fixed ratio
    # at every width), nor does a NaN
    with pytest.raises(RuntimeError, match=f"not resolved in {QUADRATURE_PANELS} panels"):
        integrate(f, 0.0, 1.0)


@pytest.mark.parametrize("n, r", [(2, 1e40), (5, 1e16)])
def test_integrate_refuses_an_overflowing_panel(n, r):
    # J = r^{4n-1} is finite at r, but its integral r^{4n}/4n overflows
    g = ModelGeometry(n, 0)
    assert np.isfinite(area_density(g, r))
    with pytest.raises(DomainError, match=re.escape(f"integral over [0.0, {r}] overflows")):
        volume(g, r)


def test_suite_leaves_out_scipy():
    # scipy was most of the suite's start-up time; the tests alone import
    # it, as an oracle
    env = dict(os.environ)
    pkg_root = str(Path(qkcomp.__file__).parent.parent)
    env["PYTHONPATH"] = pkg_root + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, qkcomp.suite\n"
         "def scipy_modules():\n"
         "    return [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
         "print(scipy_modules(), 'qkcomp.suite' in sys.modules)\n"
         "report = qkcomp.suite.criterion_7_spectral()\n"
         "print(scipy_modules(), all(c.passed for c in report.checks))"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[] True", "[] True"]


def test_suite_leaves_out_numpy_polynomial():
    # the quadrature nodes are literals, so no process loads
    # numpy.polynomial (and its first eigen-solve) to compute them
    env = dict(os.environ)
    pkg_root = str(Path(qkcomp.__file__).parent.parent)
    env["PYTHONPATH"] = pkg_root + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, qkcomp.suite\n"
         "print('numpy.polynomial' in sys.modules, 'qkcomp.suite' in sys.modules)\n"
         "report = qkcomp.suite.criterion_4_comparison()\n"
         "print('numpy.polynomial' in sys.modules, all(c.passed for c in report.checks))"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["False True", "False True"]


def test_volume_ratio_equality_case():
    # quadrature against the closed form: a real deviation, at rounding
    g = ModelGeometry(2, -1)
    ratio, model_ratio = volume_ratio_check(g, 1.0, 2.0)
    assert 0 < abs(ratio / model_ratio - 1) <= 1e-14


@pytest.mark.parametrize("delta, r1, r2", [(-1, 1.0, 2.0), (1, 0.5, 1.5)])
def test_volume_ratio_equality_check_fails_without_the_delta_term(delta, r1, r2, monkeypatch):
    # a closed form that keeps S^k/k and drops -delta S^{k+2}/(k+2) is the
    # flat volume in the variable S: the check must tell it from the model
    def without_delta(g, r):
        k = 4 * g.n
        s = (np.sinh if g.delta == -1 else np.sin)(r)
        return sphere_area_constant(g.n) * np.power(s, k) / k

    g = ModelGeometry(2, delta)
    assert volume_ratio_equality_check(g, r1, r2).passed
    monkeypatch.setattr(qkcomp.comparison, "ball_volume", without_delta)
    assert not volume_ratio_equality_check(g, r1, r2).passed


def test_volume_ratio_check_refuses_an_underflowing_volume():
    g = ModelGeometry(2, -1)
    with pytest.raises(DomainError, match="below the smallest normal float"):
        volume_ratio_check(g, 1e-300, 1.0)
    with pytest.raises(ContractViolation):
        volume_ratio_check(g, 2.0, 1.0)


@pytest.mark.parametrize("n, delta, finite, huge", [(2, -1, 71.0, 72.0),
                                                    (40, -1, 5.0, 6.0),
                                                    (2, 0, 1e44, 1e45)])
def test_area_density_refuses_an_overflowing_radius(n, delta, finite, huge):
    g = ModelGeometry(n, delta)
    assert math.isfinite(area_density(g, finite))
    want = re.escape(f"area density J overflows the float range at r={huge}")
    with pytest.raises(DomainError, match=want):
        area_density(g, huge)
    # an array names its first overflowing entry in row-major order
    with pytest.raises(DomainError, match=want):
        area_density(g, np.array([[finite, huge], [2 * huge, finite]]))
    # the quadrature's panels meet the same refusal, not its panel cap
    with pytest.raises(DomainError, match="overflows the float range"):
        volume(g, 2 * huge)


def test_eigenvalue_bounds_table():
    assert eigenvalue_bounds(2) == EigenvalueBounds(25, F(28))
    assert eigenvalue_bounds(3) == EigenvalueBounds(49, F(55))
    for n in range(2, 51):
        eb = eigenvalue_bounds(n)
        assert eb.quaternionic == (2 * n + 1) ** 2
        assert eb.real_cheng == (4 * n - 1) * (n + 2)
        assert eb.quaternionic < eb.real_cheng


def spectral_mesh(n, delta, r_max):
    """The half-points and interior nodes of a 2000-point radial mesh."""
    p = RadialProblem(n, 1e-3, r_max, 2000, delta)
    h = (p.r_max - p.r_min) / p.mesh_points
    return np.concatenate([p.r_min + h * (np.arange(p.mesh_points) + 0.5),
                           p.r_min + h * np.arange(1, p.mesh_points)])


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("delta, r_max", [(-1, 12.0), (0, 3.0), (1, 1.5)])
def test_area_density_matches_the_math_reference(n, delta, r_max):
    # criterion 4's radii, with their log-derivative neighbours r +- 1e-6 r,
    # and one spectral mesh
    g = ModelGeometry(n, delta)
    rs = np.array(CRITERION_4_RADII)
    rs = np.concatenate([rs, rs * (1 + 1e-6), rs * (1 - 1e-6), spectral_mesh(n, delta, r_max)])
    if delta == 1:
        rs = rs[rs < math.pi / 2]
    want = [reference_area_density(g, r) for r in rs.tolist()]
    assert area_density(g, rs).tolist() == pytest.approx(want, rel=1e-14)
    # a float goes through the ufuncs an array entry does
    assert [float(area_density(g, r)) for r in rs[:40].tolist()] == \
        area_density(g, rs[:40]).tolist()


@pytest.mark.parametrize("delta", [-1, 0, 1])
def test_block_bounds_match_the_math_reference(delta):
    g = ModelGeometry(3, delta)
    rs = np.array([r for r in CRITERION_4_RADII if delta != 1 or r < math.pi / 2])
    line, trans = hessian_block_bounds(g, rs)
    assert line.tolist() == pytest.approx(
        [reference_barrier(line_block(delta), r) for r in rs.tolist()], rel=1e-14)
    assert trans.tolist() == pytest.approx(
        [reference_barrier(transversal_block(delta), r) for r in rs.tolist()], rel=1e-14)
    assert laplacian_distance(g, rs).tolist() == (line + 2 * trans).tolist()


@pytest.mark.parametrize("delta", [-1, 0, 1])
@pytest.mark.parametrize("bad", [0.0, -3.0, math.pi / 2, 2.0])
def test_array_domain_error_matches_the_scalar_reference(delta, bad):
    g = ModelGeometry(2, delta)
    try:
        reference_model_domain_check(g, bad)
    except DomainError as exc:
        want = str(exc)
    else:
        return
    for f in (g.domain_check, lambda r: area_density(g, r),
              lambda r: laplacian_distance(g, r)):
        with pytest.raises(DomainError) as exc:
            f(np.array([[0.5, 1.0], [bad, -7.0]]))
        assert str(exc.value) == want
        with pytest.raises(DomainError) as exc:
            f(bad)
        assert str(exc.value) == want
