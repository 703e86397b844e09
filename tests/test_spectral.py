"""Radial spectral estimation: discretization, the cyclic-reduction count
and solve against dense linear algebra, the shift search against the
bisection it replaced, the eigen-solve against LAPACK's
`eigh_tridiagonal`, an in-test inverse iteration and a dense oracle, its
index certificate, the flat-ball Bessel cross-check, and domain
monotonicity."""

import math

import numpy as np
import pytest
from scipy.linalg import cho_solve_banded, cholesky_banded, eigh, eigh_tridiagonal

import qkcomp.spectral as spectral
from qkcomp.comparison import ModelGeometry, eigenvalue_bounds
from qkcomp.forms import ContractViolation
from qkcomp.riccati import DomainError
from qkcomp.spectral import (
    MAX_SOLVES,
    RESIDUAL_TARGET,
    SEPARATION,
    RadialProblem,
    _assemble,
    _count_below,
    _dot,
    _matvec,
    _reduce,
    _solve,
    convergence_study,
    lambda1_dirichlet,
    rayleigh_quotient,
)
from test_comparison import reference_area_density


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
    """The assembly as a loop of the scalar math reference density."""
    g = ModelGeometry(p.n, p.delta)
    m = p.mesh_points
    h = (p.r_max - p.r_min) / m
    w_half = np.array([reference_area_density(g, p.r_min + h * (i + 0.5)) for i in range(m)])
    w_node = np.array([reference_area_density(g, p.r_min + h * i) for i in range(1, m)])
    return (w_half[:-1] + w_half[1:]) / (h * h), -w_half[1:-1] / (h * h), w_node, h


def dense_generalized_eigenvalue(p: RadialProblem) -> float:
    diag, off, w, _h = _assemble(p)
    size = diag.shape[0]
    A = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    B = np.diag(w)
    return float(eigh(A, B, eigvals_only=True, subset_by_index=[0, 0])[0])


def lapack_lambda1(p: RadialProblem) -> tuple[float, float]:
    """lambda1 as the Rayleigh quotient of LAPACK's lowest eigenvector of
    B^{-1/2} A B^{-1/2} (`eigh_tridiagonal`, bisection and inverse
    iteration), with its residual |Au - lambda Bu| / |Bu|."""
    diag, off, w, _h = _assemble(p)
    _, v = eigh_tridiagonal(*scaled_system(p), select="i", select_range=(0, 0))
    u = v[:, 0] / np.sqrt(w)
    au, bu = _matvec(diag, off, u), w * u
    lam = float(u @ au) / float(u @ bu)
    return lam, float(np.linalg.norm(au - lam * bu)) / float(np.linalg.norm(bu))


def scaled_system(p: RadialProblem) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of T = B^{-1/2} A B^{-1/2}."""
    diag, off, w, _h = _assemble(p)
    scale = 1.0 / np.sqrt(w)
    return diag * scale * scale, off * scale[:-1] * scale[1:]


def discrete_rayleigh(p: RadialProblem, u: np.ndarray) -> float:
    """Rayleigh quotient of a vector on the interior nodes."""
    diag, off, w_node, _h = _assemble(p)
    return float(u @ _matvec(diag, off, u)) / float(u @ (w_node * u))


def dense(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """The symmetric tridiagonal matrix as a dense array."""
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def random_tridiagonal(rng, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded normal diagonal and off-diagonal."""
    return rng.normal(size=size), rng.normal(size=size - 1)


def shifts_across(eigenvalues: np.ndarray) -> np.ndarray:
    """Shifts below, between and above the eigenvalues, none on one."""
    mids = (eigenvalues[:-1] + eigenvalues[1:]) / 2
    return np.concatenate([[eigenvalues[0] - 1.0, eigenvalues[0] - 1e-3], mids,
                           [eigenvalues[-1] + 1e-3, eigenvalues[-1] + 10.0]])


def reference_shift_below_lowest(diag: np.ndarray, off: np.ndarray) -> tuple[float, np.ndarray]:
    """The shift search by bisection alone, as the solver made it before
    Rayleigh quotients placed its probes: (the shift, the start vector).

    The bracket starts from the Gershgorin bounds.  One solve at the lower
    bound damps the upper spectrum of (1, ..., 1): the result is the start
    vector, and its Rayleigh quotient, at or above lambda_1, is the first
    probe; every later probe is the bracket's midpoint."""
    radius = np.zeros_like(diag)
    radius[:-1] += np.abs(off)
    radius[1:] += np.abs(off)
    lo = float(np.min(diag - radius))  # no eigenvalue below lo
    hi = float(np.max(diag + radius))  # at least one below hi
    floor2 = lo  # no second eigenvalue below floor2
    start = _solve(_reduce(diag - lo, off), np.ones_like(diag))
    sigma = _dot(start, _matvec(diag, off, start)) / _dot(start, start)
    while True:
        below = _count_below(diag, off, sigma)
        if below == 0:
            lo = sigma
        else:
            hi = sigma
            if below == 1:
                floor2 = max(floor2, sigma)
        if hi - lo <= SEPARATION * (floor2 - lo):
            return lo, start
        sigma = 0.5 * (lo + hi)
        if not lo < sigma < hi:
            raise RuntimeError(f"bisection cannot separate lambda_1 from lambda_2 "
                               f"in [{lo}, {hi}]")


def reference_shifted(diag: np.ndarray, off: np.ndarray) -> tuple[float, list, np.ndarray]:
    """`_shift_below_lowest`'s result, (the shift, its reduction, the start
    vector), from the reference search."""
    shift, start = reference_shift_below_lowest(diag, off)
    return shift, _reduce(diag - shift, off), start


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


# |lambda1 - reference| allowed between the eigen-solve and each oracle;
# measured 4e-13 against inverse iteration and 2.3e-10 against the dense
# oracle at r_max 8, mesh 2000, n = 2 and 3, and at most 5.1e-11 against
# LAPACK on ORACLE_PROBLEMS (the flat ball)
LAMBDA_TOL = 1e-8
# relative gap between the product of the pivots and numpy's determinant,
# and between the cyclic-reduction and the dense solve, on the seeded
# random tridiagonals of sizes 1 to 40; measured 5.7e-13 and 6.2e-13
DETERMINANT_TOL = 1e-10
SOLVE_TOL = 1e-10

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
    assert 1 <= est.iterations <= MAX_SOLVES
    assert abs(est.lambda1 - inverse_iteration(p)[0]) <= LAMBDA_TOL
    assert abs(est.lambda1 - dense_generalized_eigenvalue(p)) <= LAMBDA_TOL


# criterion 7's four problems (the n = 2, r_max 12 one is also the `lambda1`
# command's default), the flat and the projective model, and the minimum mesh
ORACLE_PROBLEMS = {
    "criterion7-n2-r6": RadialProblem(2, 1e-3, 6.0, 9999),
    "criterion7-n2-r9": RadialProblem(2, 1e-3, 9.0, 15000),
    "criterion7-n2-r12": RadialProblem(2, 1e-3, 12.0, 20000),
    "criterion7-n3-r12": RadialProblem(3, 1e-3, 12.0, 20000),
    "flat": RadialProblem(2, 1e-3, 1.0, 4000, delta=0),
    "projective": RadialProblem(2, 1e-3, 1.5, 4000, delta=1),
    "mesh-64": RadialProblem(2, 1e-3, 12.0, 64),
}


@pytest.mark.parametrize("name", ORACLE_PROBLEMS)
def test_lambda1_matches_lapack(name):
    p = ORACLE_PROBLEMS[name]
    est = lambda1_dirichlet(p)
    assert est.residual <= RESIDUAL_TARGET
    assert 1 <= est.iterations <= MAX_SOLVES
    lam, residual = lapack_lambda1(p)
    assert abs(est.lambda1 - lam) <= LAMBDA_TOL
    # the iteration runs to the rounding floor, where LAPACK's vector sits
    assert est.residual <= 2 * residual


def test_iterations_count_the_solves(monkeypatch):
    solves = []

    def counted(passes, f):
        solves.append(None)
        return _solve(passes, f)

    monkeypatch.setattr(spectral, "_solve", counted)
    est = lambda1_dirichlet(ORACLE_PROBLEMS["mesh-64"])
    # two more solves make the start vector and refine it
    assert est.iterations == len(solves) - 2
    assert est.iterations > 1


def shift_systems() -> list[tuple[np.ndarray, np.ndarray]]:
    """T of every ORACLE_PROBLEMS entry, then 156 seeded random
    tridiagonals, four of each size from 2 to 40."""
    rng = np.random.default_rng(4)
    systems = [scaled_system(p) for p in ORACLE_PROBLEMS.values()]
    return systems + [random_tridiagonal(rng, size) for size in range(2, 41) for _ in range(4)]


def test_shift_is_below_lambda1_and_separated():
    # the contract of the shift, for the search and for the bisection it
    # replaced: no eigenvalue below it, and lambda_1 - shift at most
    # SEPARATION (lambda_2 - shift); the search hands on its reduction there
    for diag, off in shift_systems():
        lam1, lam2 = eigh_tridiagonal(diag, off, eigvals_only=True,
                                      select="i", select_range=(0, 1))
        shift, passes, _start = spectral._shift_below_lowest(diag, off)
        for p, want in zip(passes, _reduce(diag - shift, off), strict=True):
            assert all(np.array_equal(a, b) for a, b in zip(p, want))
        for shift in (shift, reference_shift_below_lowest(diag, off)[0]):
            assert _count_below(diag, off, shift) == 0
            assert lam1 - shift <= SEPARATION * (lam2 - shift), (diag.size, shift)


@pytest.mark.parametrize("name", ORACLE_PROBLEMS)
def test_lambda1_matches_the_reference_shift(name, monkeypatch):
    p = ORACLE_PROBLEMS[name]
    ours = lambda1_dirichlet(p).lambda1
    monkeypatch.setattr(spectral, "_shift_below_lowest", reference_shifted)
    assert abs(lambda1_dirichlet(p).lambda1 - ours) <= LAMBDA_TOL


def test_criterion_7_solves_reduce_at_most_five_times(monkeypatch):
    # one reduction at the Gershgorin bound, two counted probes (the first
    # Rayleigh quotient and one just below the second), whose last inverse
    # iteration reuses, and two for the index certificate; bisection alone
    # made 14 or 15
    reductions = []

    def counted(diag, off):
        reductions.append(None)
        return _reduce(diag, off)

    monkeypatch.setattr(spectral, "_reduce", counted)
    for name, p in ORACLE_PROBLEMS.items():
        if name.startswith("criterion7"):
            reductions.clear()
            lambda1_dirichlet(p)
            assert len(reductions) <= 5, name


def test_criterion_7_solves_the_oracle_problems():
    rows = convergence_study(RadialProblem(2))
    assert [(row["r_max"], row["mesh"]) for row in rows] == [
        (p.r_max, p.mesh_points) for name, p in ORACLE_PROBLEMS.items()
        if name.startswith("criterion7-n2")]


def test_count_below_matches_eigvalsh():
    rng = np.random.default_rng(0)
    for size in range(1, 41):
        diag, off = random_tridiagonal(rng, size)
        eigenvalues = np.linalg.eigvalsh(dense(diag, off))
        for sigma in shifts_across(eigenvalues):
            assert (_count_below(diag, off, sigma)
                    == np.count_nonzero(eigenvalues < sigma)), (size, sigma)


def test_pivots_multiply_to_the_determinant():
    # the reduction is an LDL^T factorization in a permuted order
    rng = np.random.default_rng(1)
    for size in range(1, 41):
        diag, off = random_tridiagonal(rng, size)
        for sigma in shifts_across(np.linalg.eigvalsh(dense(diag, off))):
            pivots = np.concatenate([p for p, _left, _right in _reduce(diag - sigma, off)])
            assert pivots.size == size
            det = np.linalg.det(dense(diag - sigma, off))
            assert abs(np.prod(pivots) / det - 1) <= DETERMINANT_TOL, (size, sigma)


def test_solve_matches_a_dense_solve():
    rng = np.random.default_rng(2)
    for size in range(1, 41):
        diag, off = random_tridiagonal(rng, size)
        f = rng.normal(size=size)
        for sigma in shifts_across(np.linalg.eigvalsh(dense(diag, off))):
            x = _solve(_reduce(diag - sigma, off), f)
            want = np.linalg.solve(dense(diag - sigma, off), f)
            assert np.linalg.norm(x - want) <= SOLVE_TOL * np.linalg.norm(want), (size, sigma)


def test_count_reads_every_pivot_sign(monkeypatch):
    rng = np.random.default_rng(3)
    diag, off = random_tridiagonal(rng, 40)
    eigenvalues = np.linalg.eigvalsh(dense(diag, off))
    sigma = (eigenvalues[19] + eigenvalues[20]) / 2
    assert _count_below(diag, off, sigma) == 20
    for level, (pivots, _left, _right) in enumerate(_reduce(diag - sigma, off)):
        for k in range(pivots.size):
            def flipped(d, e, level=level, k=k):
                passes = _reduce(d, e)
                p, left, right = passes[level]
                p = p.copy()
                p[k] = -p[k]
                passes[level] = (p, left, right)
                return passes

            monkeypatch.setattr(spectral, "_reduce", flipped)
            assert _count_below(diag, off, sigma) != 20, (level, k)
            monkeypatch.undo()


def test_index_certificate_rejects_the_second_eigenpair(monkeypatch):
    # a shift next to lambda_2 makes inverse iteration converge to it
    p = ORACLE_PROBLEMS["mesh-64"]
    lam1, lam2 = np.linalg.eigvalsh(dense(*scaled_system(p)))[:2]
    shift = lam2 - 1e-3 * (lam2 - lam1)
    monkeypatch.setattr(spectral, "_shift_below_lowest",
                        lambda d, e: (shift, _reduce(d - shift, e), np.ones_like(d)))
    with pytest.raises(RuntimeError, match="index certificate"):
        lambda1_dirichlet(p)


def test_index_certificate_counts_one_eigenvalue_in_its_window(monkeypatch):
    # a window reaching past lambda_2 holds two eigenvalues
    monkeypatch.setattr(spectral, "INDEX_TOL", 0.5)
    with pytest.raises(RuntimeError, match="index certificate"):
        lambda1_dirichlet(ORACLE_PROBLEMS["mesh-64"])


def test_index_certificate_reads_both_counts():
    diag, off = scaled_system(ORACLE_PROBLEMS["mesh-64"])
    lam1, lam2 = np.linalg.eigvalsh(dense(diag, off))[:2]
    spectral._certify_lowest(diag, off, lam1)
    tau = spectral.INDEX_TOL
    # one eigenvalue below each end of the window; then none below either
    for lam in ((lam1 + lam2) / 2, lam1 * (1 - 3 * tau)):
        with pytest.raises(RuntimeError, match="index certificate"):
            spectral._certify_lowest(diag, off, lam)


def test_bisection_raises_on_a_double_lowest_eigenvalue():
    # two equal blocks [[3, 1], [1, 1]] coupled by 1e-17: T is irreducible,
    # but its two lowest eigenvalues lie about 7e-18 apart, below the float
    # spacing at 2 - sqrt(2), so every count is even
    with pytest.raises(RuntimeError, match="cannot separate"):
        spectral._shift_below_lowest(np.array([3.0, 1.0, 3.0, 1.0]),
                                     np.array([1.0, 1e-17, 1.0]))


@pytest.mark.parametrize("diag, off, index", [
    ([1.0, 2.0, 3.0], [0.0, 0.0], 0),
    ([3.0, 1.0, 3.0, 1.0], [1.0, 0.0, 1.0], 1),
], ids=["diagonal", "two equal blocks"])
def test_shift_search_refuses_a_reducible_T(diag, off, index):
    # a zero off-diagonal entry splits T; on diag(1, 2, 3) the start solve
    # met a zero pivot and the search ended on NaN ("cannot separate ...
    # [nan, 3.0]"), and two equal blocks have a double lowest eigenvalue
    with pytest.raises(ContractViolation, match=f"off-diagonal entry {index} is 0"):
        spectral._shift_below_lowest(np.array(diag), np.array(off))


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
    rows = convergence_study(RadialProblem(2, 1e-3, 9.0, 6000))
    lams = [r["lambda1"] for r in rows]
    assert lams[0] > lams[1] > lams[2] > 25
    gaps = [r["gap"] for r in rows]
    assert gaps[0] > gaps[1] > gaps[2] > 0


def test_study_last_row_is_the_direct_solve():
    # criterion 7 reads lambda1(r_max=12, mesh 20000) off this row
    row = convergence_study(RadialProblem(2))[-1]
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
    """The Rayleigh quotient by an independent rule, composite Simpson on
    p's mesh (rounded up to even), with the trial and its derivative
    evaluated one node at a time, in Python loops."""
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
    # two quadrature rules: Gauss-Legendre and Simpson were measured to
    # agree within 9e-13 on these trials
    p = RadialProblem(n, 1e-3, rmax, mesh)
    got = rayleigh_quotient(p, *trial_pair(k, rmax))
    want = scalar_loop_rayleigh(p, *trial_pair(k, rmax, math))
    assert got == pytest.approx(want, rel=1e-11, abs=0)


@pytest.mark.parametrize("n, k, rmax", [(2, 5, 30.0), (3, 7, 12.0)])
def test_rayleigh_quotient_evaluates_the_trial_on_arrays(n, k, rmax):
    # the trial called on each panel's node array, or one node at a time:
    # measured equal to the last bit on x86-64; numpy's exp may differ from
    # libm's by an ulp on other builds, hence 1e-14
    def pointwise(f):
        return lambda rs: np.array([f(r) for r in rs.tolist()])

    p = RadialProblem(n, 1e-3, rmax)
    got = rayleigh_quotient(p, *trial_pair(k, rmax))
    want = rayleigh_quotient(p, *map(pointwise, trial_pair(k, rmax, math)))
    assert got == pytest.approx(want, rel=1e-14, abs=0)


def test_criterion_7_trial_quotient_is_pinned():
    # e^{-5r} (1 - r/30) at n = 2: the exact enclosure of this quotient
    # reads 25.52197618584894
    q = rayleigh_quotient(RadialProblem(2, r_max=30.0), *trial_pair(5, 30.0))
    assert q == pytest.approx(25.52197618584894, rel=1e-12, abs=0)


def test_rayleigh_requires_vanishing_trial():
    p = RadialProblem(2, 1e-3, 5.0, 1000)
    with pytest.raises(ContractViolation):
        rayleigh_quotient(p, lambda r: 1.0, lambda r: 0.0)


def test_rayleigh_refuses_a_trial_without_mass():
    p = RadialProblem(2, 1e-3, 5.0, 1000)
    with pytest.raises(ContractViolation, match="no mass"):
        rayleigh_quotient(p, lambda r: 0.0, lambda r: 0.0)


def test_rayleigh_accepts_a_trial_that_vanishes_to_rounding():
    # sin(pi) is 1.2e-16, not 0: vanishing is judged against the trial's
    # largest size on the interval, about 1
    p = RadialProblem(2, 1e-3, 5.0, 1000)
    k = math.pi / (p.r_max - p.r_min)
    q = rayleigh_quotient(p, lambda r: np.sin(k * (r - p.r_min)),
                          lambda r: k * np.cos(k * (r - p.r_min)))
    assert q > eigenvalue_bounds(2).quaternionic


@pytest.mark.parametrize("r_min, r_max, first", [
    (1e-300, 1e-299, 1e-300 + 9e-300 / 128), (1e-100, 2e-100, 1e-100 + 1e-100 / 128),
    (1e-45, 1e-43, 1e-45 + 9.9e-44 / 128)])
@pytest.mark.parametrize("delta", [-1, 0])
def test_assembly_refuses_an_underflowing_density(r_min, r_max, first, delta):
    # J ~ r^7 near 0 at n = 2 is below the smallest normal float under
    # r = 1.1e-44; the first half node is named.  The solve once divided by
    # zero weights there, and at 1e-300 by h^2 = 0
    with pytest.raises(DomainError, match="below the smallest normal float") as exc:
        _assemble(RadialProblem(2, r_min, r_max, 64, delta))
    assert str(exc.value).endswith(f"at r={first}")


@pytest.mark.parametrize("r_min, r_max", [(1e-20, 1e-19), (1e-43, 1e-42)])
def test_assembly_keeps_a_normal_density(r_min, r_max):
    # J is about 1e-140 from 1e-20 and 1e-301 from 1e-43: normal floats
    assert _assemble(RadialProblem(2, r_min, r_max, 64))[2].min() > 0


def test_problem_validation():
    with pytest.raises(ContractViolation):
        RadialProblem(2, 1.0, 0.5, 1000)
    with pytest.raises(ContractViolation):
        RadialProblem(2, 0.0, 1.0, 1000)
    with pytest.raises(ContractViolation):
        RadialProblem(2, 1e-3, 1.0, 32)
    with pytest.raises(ContractViolation, match="the study's first radius"):
        convergence_study(RadialProblem(2, 5.0, 8.0, 1000))
    with pytest.raises(ContractViolation):
        RadialProblem(2, 1e-3, 1.0, 1000, delta=2)
    with pytest.raises(DomainError):
        RadialProblem(2, 1e-3, math.pi / 2, 1000, delta=1)
