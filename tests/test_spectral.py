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
from qkcomp.riccati import DomainError
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


def scalar_assemble(p: RadialProblem):
    """The assembly as a loop of scalar `area_density` calls (libm sinh/sin)."""
    g = ModelGeometry(p.n, p.delta)
    m = p.mesh_points
    h = (p.r_max - p.r_min) / m
    w_half = np.array([area_density(g, p.r_min + h * (i + 0.5)) for i in range(m)])
    w_node = np.array([area_density(g, p.r_min + h * i) for i in range(1, m)])
    return (w_half[:-1] + w_half[1:]) / (h * h), -w_half[1:-1] / (h * h), w_node, h


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

# Relative gap between the numpy and the scalar-loop assembly, where numpy's
# sinh/sin differ from libm's by a few ulp, raised to the powers in J;
# measured 4.8e-15 at n = 5 (x86-64 with AVX-512)
ASSEMBLY_TOL = 5e-14
# |lambda1| gap between solves on the two assemblies; measured 5.5e-12
# (n = 2, r_max 12, mesh 20000)
ASSEMBLY_LAMBDA_TOL = 1e-10


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


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("delta, r_max", [(-1, 12.0), (0, 3.0), (1, 1.5)])
def test_assembly_matches_the_scalar_loop(n, delta, r_max):
    p = RadialProblem(n, 1e-3, r_max, 20000, delta)
    for ours, loop in zip(_assemble(p), scalar_assemble(p)):
        assert np.all(np.abs(ours / loop - 1) <= ASSEMBLY_TOL)


@pytest.mark.parametrize("n", [2, 3])
def test_solve_on_the_scalar_loop_assembly(n, monkeypatch):
    p = RadialProblem(n, 1e-3, 12.0, 20000)
    ours = lambda1_dirichlet(p).lambda1
    monkeypatch.setattr(spectral, "_assemble", scalar_assemble)
    assert abs(lambda1_dirichlet(p).lambda1 - ours) <= ASSEMBLY_LAMBDA_TOL


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
    p = RadialProblem(2, 1e-3, 1.0, 4000, delta=0)
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


def trial_pair(k, rmax, lib=np):
    """e^{-kr} (1 - r/rmax) and its derivative, on arrays (numpy) or
    floats (math)."""
    return (lambda r: lib.exp(-k * r) * (1 - r / rmax),
            lambda r: lib.exp(-k * r) * (-k * (1 - r / rmax) - 1 / rmax))


def test_rayleigh_trial_bounds():
    rmax = 30.0
    p = RadialProblem(2, 1e-3, rmax, 20000)
    q5 = rayleigh_quotient(p, *trial_pair(5, rmax))
    assert 25 < q5 <= 25.6
    q4 = rayleigh_quotient(p, *trial_pair(4, rmax))
    assert q4 > 25 and q4 > q5


def scalar_loop_rayleigh(p, trial, trial_derivative):
    """rayleigh_quotient with the trial and its derivative evaluated one
    node at a time, in Python loops."""
    m = p.mesh_points if p.mesh_points % 2 == 0 else p.mesh_points + 1
    h = (p.r_max - p.r_min) / m
    rs = p.r_min + h * np.arange(m + 1)
    ws = p.weight(rs)
    us = np.array([trial(r) for r in rs])
    dus = np.array([trial_derivative(r) for r in rs])

    def simpson(vals):
        return float(h / 3 * (vals[0] + vals[-1] + 4 * vals[1:-1:2].sum()
                              + 2 * vals[2:-1:2].sum()))

    return simpson(dus * dus * ws) / simpson(us * us * ws)


@pytest.mark.parametrize("n, k, rmax, mesh", [(2, 5, 30.0, 20000), (2, 4, 30.0, 20000),
                                              (3, 7, 12.0, 4001)])
def test_rayleigh_quotient_matches_the_scalar_loop(n, k, rmax, mesh):
    # measured equal to the last bit on x86-64; numpy's exp may differ from
    # libm's by an ulp on other builds, hence 1e-14
    p = RadialProblem(n, 1e-3, rmax, mesh)
    got = rayleigh_quotient(p, *trial_pair(k, rmax))
    want = scalar_loop_rayleigh(p, *trial_pair(k, rmax, math))
    assert got == pytest.approx(want, rel=1e-14, abs=0)


def test_rayleigh_requires_vanishing_trial():
    p = RadialProblem(2, 1e-3, 5.0, 1000)
    with pytest.raises(ContractViolation):
        rayleigh_quotient(p, lambda r: 1.0, lambda r: 0.0)


def test_problem_validation():
    with pytest.raises(ContractViolation):
        RadialProblem(2, 1.0, 0.5, 1000)
    with pytest.raises(ContractViolation):
        RadialProblem(2, 0.0, 1.0, 1000)
    with pytest.raises(ContractViolation):
        RadialProblem(2, 1e-3, 1.0, 32)
    with pytest.raises(ContractViolation):
        convergence_study(2, [5.0, 4.0], 1000)
    with pytest.raises(ContractViolation):
        RadialProblem(2, 1e-3, 1.0, 1000, delta=2)
    with pytest.raises(DomainError):
        RadialProblem(2, 1e-3, math.pi / 2, 1000, delta=1)
