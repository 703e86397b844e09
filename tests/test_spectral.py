"""Radial spectral estimation: discretization, the direct tridiagonal solve
against inverse iteration and a dense oracle, the flat-ball Bessel
cross-check, and domain monotonicity."""

import math

import numpy as np
import pytest
from scipy.linalg import cho_solve_banded, cholesky_banded, eigh

import qkcomp.spectral as spectral
from qkcomp.comparison import ModelGeometry, area_density
from qkcomp.forms import ContractViolation
from qkcomp.spectral import (
    RESIDUAL_TARGET,
    RadialProblem,
    _assemble,
    convergence_study,
    discrete_rayleigh,
    lambda1_dirichlet,
    rayleigh_quotient,
)


# -- independent oracles ------------------------------------------------------

def bessel_j3(x: float) -> float:
    """J_3 by its power series (adequate well past the first zero)."""
    total = 0.0
    term = (x / 2) ** 3 / 6.0  # k = 0: (x/2)^3 / (0! 3!)
    k = 0
    while abs(term) > 1e-18:
        total += term
        k += 1
        term *= -(x / 2) ** 2 / (k * (k + 3))
        if k > 200:
            break
    return total


def bessel_j3_first_zero() -> float:
    lo, hi = 5.0, 8.0
    assert bessel_j3(lo) > 0 > bessel_j3(hi)
    for _ in range(200):
        mid = (lo + hi) / 2
        if bessel_j3(mid) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def dense_generalized_eigenvalue(p: RadialProblem) -> float:
    diag, off, w, _h = _assemble(p)
    size = diag.shape[0]
    A = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    B = np.diag(w)
    return float(eigh(A, B, eigvals_only=True, subset_by_index=[0, 0])[0])


def inverse_iteration(p: RadialProblem, target: float = 1e-10,
                      max_iterations: int = 100_000) -> tuple[float, np.ndarray]:
    """Smallest generalized eigenpair by inverse iteration with a banded
    Cholesky factor, stopped once |Ax - lam Bx| / |Bx| <= target."""
    diag, off, w, _h = _assemble(p)
    ab = np.zeros((2, diag.shape[0]))
    ab[0, 1:] = off
    ab[1, :] = diag
    factor = cholesky_banded(ab)
    x = np.ones(diag.shape[0])
    for _ in range(max_iterations):
        x = cho_solve_banded((factor, False), w * x)
        x /= math.sqrt(float(x @ (w * x)))
        ax = diag * x
        ax[:-1] += off * x[1:]
        ax[1:] += off * x[:-1]
        lam = float(x @ ax)
        if np.linalg.norm(ax - lam * w * x) <= target * np.linalg.norm(w * x):
            return lam, x
    raise AssertionError(f"inverse iteration did not reach {target}")


# |lambda1 - reference| allowed between the direct solve and either oracle;
# measured 4e-13 against inverse iteration and 2.3e-10 against the dense
# oracle at r_max 8, mesh 2000, n = 2 and 3
LAMBDA_TOL = 1e-8


# -- tests --------------------------------------------------------------------

def test_assembled_system_is_symmetric_tridiagonal():
    p = RadialProblem(2, 1e-3, 6.0, 500)
    diag, off, w, h = _assemble(p)
    assert diag.shape[0] == 499
    assert off.shape[0] == 498
    assert np.all(diag > 0)
    assert np.all(w > 0)
    # interior row sums of the flux form vanish (up to relative roundoff)
    row_sums = diag[1:-1] + off[:-1] + off[1:]
    assert np.all(np.abs(row_sums) <= 1e-12 * diag[1:-1])


@pytest.mark.parametrize("n", [2, 3])
def test_direct_solve_matches_inverse_iteration_and_dense_oracle(n):
    p = RadialProblem(n, 1e-3, 8.0, 2000)
    est = lambda1_dirichlet(p)
    assert est.residual <= RESIDUAL_TARGET
    assert est.iterations == 1
    assert abs(est.lambda1 - inverse_iteration(p)[0]) <= LAMBDA_TOL
    assert abs(est.lambda1 - dense_generalized_eigenvalue(p)) <= LAMBDA_TOL


def test_residual_above_target_raises(monkeypatch):
    monkeypatch.setattr(spectral, "RESIDUAL_TARGET", 1e-30)
    with pytest.raises(RuntimeError, match="residual"):
        lambda1_dirichlet(RadialProblem(2, 1e-3, 6.0, 500))


def test_lambda1_window_modest_mesh():
    est = lambda1_dirichlet(RadialProblem(2, 1e-3, 12.0, 4000))
    assert 25 < est.lambda1 < 26


def test_flat_ball_matches_bessel_zero():
    g0 = ModelGeometry(2, 0)
    p = RadialProblem(2, 1e-3, 1.0, 4000,
                      weight=lambda r: area_density(g0, r))
    est = lambda1_dirichlet(p)
    target = bessel_j3_first_zero() ** 2
    assert est.lambda1 == pytest.approx(target, rel=1e-3)


def test_bessel_oracle_value():
    # classical j_{3,1}; the oracle itself must be sound
    assert bessel_j3_first_zero() == pytest.approx(6.3801618959, abs=1e-6)


def test_domain_monotonicity():
    rows = convergence_study(2, [5.0, 7.0, 9.0], 6000)
    lams = [r["lambda1"] for r in rows]
    assert lams[0] > lams[1] > lams[2] > 25
    gaps = [r["gap"] for r in rows]
    assert gaps[0] > gaps[1] > gaps[2] > 0


def test_study_last_row_is_the_direct_solve():
    # criterion 7 reads lambda1(r_max=12, mesh 20000) off this row
    row = convergence_study(2, [6.0, 9.0, 12.0], 20000)[-1]
    assert (row["r_max"], row["mesh"]) == (12.0, 20000)
    assert row["lambda1"] == lambda1_dirichlet(RadialProblem(2, 1e-3, 12.0, 20000)).lambda1


def test_mesh_refinement_is_second_order():
    vals = {}
    for mesh in (2500, 5000, 10000):
        vals[mesh] = lambda1_dirichlet(RadialProblem(2, 1e-3, 6.0, mesh)).lambda1
    ratio = (vals[2500] - vals[5000]) / (vals[5000] - vals[10000])
    assert ratio == pytest.approx(4.0, rel=0.2)


def test_inner_boundary_insensitivity():
    a = lambda1_dirichlet(RadialProblem(2, 1e-3, 12.0, 8000)).lambda1
    b = lambda1_dirichlet(RadialProblem(2, 1e-2, 12.0, 8000)).lambda1
    assert abs(a - b) < 1e-4


def test_rayleigh_of_discrete_eigenvector():
    p = RadialProblem(2, 1e-3, 8.0, 2000)
    est = lambda1_dirichlet(p)
    _lam, x = inverse_iteration(p)
    assert discrete_rayleigh(p, x) == pytest.approx(est.lambda1, abs=1e-6)


def test_rayleigh_trial_bounds():
    rmax = 30.0
    p = RadialProblem(2, 1e-3, rmax, 20000)
    u5 = lambda r: math.exp(-5 * r) * (1 - r / rmax)
    du5 = lambda r: math.exp(-5 * r) * (-5 * (1 - r / rmax) - 1 / rmax)
    q5 = rayleigh_quotient(p, u5, du5)
    assert 25 < q5 <= 25.6
    u4 = lambda r: math.exp(-4 * r) * (1 - r / rmax)
    du4 = lambda r: math.exp(-4 * r) * (-4 * (1 - r / rmax) - 1 / rmax)
    q4 = rayleigh_quotient(p, u4, du4)
    assert q4 > 25 and q4 > q5


def test_rayleigh_quotient_fd_fallback():
    rmax = 30.0
    p = RadialProblem(2, 1e-3, rmax, 20000)
    u5 = lambda r: math.exp(-5 * r) * (1 - r / rmax)
    du5 = lambda r: math.exp(-5 * r) * (-5 * (1 - r / rmax) - 1 / rmax)
    exact = rayleigh_quotient(p, u5, du5)
    fd = rayleigh_quotient(p, u5)
    assert fd == pytest.approx(exact, rel=1e-4)


def test_rayleigh_requires_vanishing_trial():
    p = RadialProblem(2, 1e-3, 5.0, 1000)
    with pytest.raises(ContractViolation):
        rayleigh_quotient(p, lambda r: 1.0)


def test_problem_validation():
    with pytest.raises(ContractViolation):
        RadialProblem(2, 1.0, 0.5, 1000)
    with pytest.raises(ContractViolation):
        RadialProblem(2, 0.0, 1.0, 1000)
    with pytest.raises(ContractViolation):
        RadialProblem(2, 1e-3, 1.0, 32)
    with pytest.raises(ContractViolation):
        convergence_study(2, [5.0, 4.0], 1000)
