"""Radial Sturm-Liouville estimation of the bottom of the spectrum.

The radial problem is -(1/w)(w u')' = lambda u on (r_min, r_max) with
Dirichlet conditions at both ends and weight w(r) = J(r), the area
density of the model with curvature scale delta (quaternionic hyperbolic
by default).  Second-order finite differences give a symmetric
tridiagonal generalized problem A u = lambda B u with B diagonal and
positive, so T = B^{-1/2} A B^{-1/2} is an equivalent standard symmetric
tridiagonal problem, T v = lambda v with u = B^{-1/2} v.

Its smallest eigenpair is found with numpy alone.  Odd-even cyclic
reduction of T - sigma I (Buzbee, Golub and Nielson, SIAM J. Numer.
Anal. 7, 1970) eliminates every other unknown per pass, so O(log m)
vectorised passes solve with T - sigma I.  The reduction is a symmetric
elimination in a permuted order, so by Sylvester's law of inertia its
negative pivots count the eigenvalues of T below sigma.  Probes of that
count, placed by Rayleigh quotients, upper bounds on lambda_1 (B. N.
Parlett, The Symmetric Eigenvalue Problem, 1980), find a shift below
lambda_1 and well apart from lambda_2; there T - sigma I is positive
definite, and inverse iteration from the shift, on the reduction that
counted there, converges in a few solves.  Two certificates back the
result: the residual |Au - lambda Bu| / |Bu|, and the index, which
counts no eigenvalue of T below lambda (1 - INDEX_TOL) and exactly one
below lambda (1 + INDEX_TOL), so that lambda is the smallest.  Dirichlet
truncation means every estimate sits strictly above the limit value
(2n+1)^2 and decreases as r_max grows.

A trial function's min-max upper bound, `rayleigh_quotient`, takes both
of its integrals with `comparison.integrate`, the rule of the volumes.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

import numpy as np

from .comparison import ModelGeometry, area_density, eigenvalue_bounds, integrate
from .forms import ContractViolation
from .riccati import DomainError


class RadialProblem:
    """Mesh and model geometry of one radial Dirichlet problem.  The class
    attributes are the defaults, which the CLI's options read."""

    r_min, r_max, mesh_points, delta = 1e-3, 12.0, 20000, -1

    def __init__(self, n: int, r_min: float = r_min, r_max: float = r_max,
                 mesh_points: int = mesh_points, delta: int = delta):
        if not r_min < r_max:
            raise ContractViolation("need r_min < r_max")
        if r_min <= 0:
            raise ContractViolation("need r_min > 0")
        if mesh_points < 64:
            raise ContractViolation("need at least 64 mesh points")
        ModelGeometry(n, delta).domain_check(r_max)
        self.n, self.r_min, self.r_max, self.mesh_points, self.delta = (
            n, r_min, r_max, mesh_points, delta)

    def weight(self, rs: np.ndarray) -> np.ndarray:
        """The area density J at every radius of `rs`."""
        return area_density(ModelGeometry(self.n, self.delta), rs)


class SpectralEstimate:
    """lambda1 with its residual certificate; `iterations` counts the
    inverse-iteration solves, at most MAX_SOLVES."""

    __slots__ = ("lambda1", "residual", "iterations")

    def __init__(self, lambda1: float, residual: float, iterations: int):
        self.lambda1, self.residual, self.iterations = lambda1, residual, iterations


class ResidualError(RuntimeError):
    """The eigen-solve stopped above RESIDUAL_TARGET; `estimate` is where."""

    def __init__(self, estimate: SpectralEstimate):
        super().__init__(f"eigen-solve residual {estimate.residual:.3e} exceeds "
                         f"{RESIDUAL_TARGET:.0e} (lambda1 {estimate.lambda1})")
        self.estimate = estimate


class StudyError(ResidualError):
    """Some solves of a convergence study stopped above RESIDUAL_TARGET:
    `failed` maps each such r_max to its estimate, and `rows` holds the
    rows of the solves that passed; the message is the first failure's."""

    def __init__(self, failed: dict[float, SpectralEstimate], rows: list[dict]):
        super().__init__(next(iter(failed.values())))
        self.failed, self.rows = failed, rows


def _assemble(p: RadialProblem):
    """Symmetric tridiagonal A (flux form) and diagonal B on interior nodes;
    DomainError, naming the first node, where J is below the smallest
    normal float, as when it underflows to 0 near r = 0 (zero weights)."""
    m = p.mesh_points
    h = (p.r_max - p.r_min) / m
    w_half = p.weight(p.r_min + h * (np.arange(m) + 0.5))
    w_node = p.weight(p.r_min + h * np.arange(1, m))
    tiny = sys.float_info.min  # numpy's finfo(float).tiny, without asking numpy
    if not (w_half.min() >= tiny and w_node.min() >= tiny):
        low = np.empty(2 * m - 1, dtype=bool)  # the half and interior nodes in mesh order
        low[0::2], low[1::2] = ~(w_half >= tiny), ~(w_node >= tiny)
        first = p.r_min + h * ((int(np.argmax(low)) + 1) / 2)
        raise DomainError(f"area density J is below the smallest normal float at r={first}")
    diag = (w_half[:-1] + w_half[1:]) / (h * h)
    off = -w_half[1:-1] / (h * h)
    return diag, off, w_node, h


RESIDUAL_TARGET = 1e-8
# relative half-width of the index certificate's window: T has no
# eigenvalue below lambda1 (1 - INDEX_TOL) and one below lambda1 (1 + INDEX_TOL)
INDEX_TOL = 1e-6
# the bisection stops once lambda_1 - sigma <= SEPARATION (lambda_2 - sigma),
# so each inverse-iteration solve shrinks the error at least that much
SEPARATION = 0.1
# cap on the inverse-iteration solves; three or four reach the rounding floor
MAX_SOLVES = 8


def _matvec(diag: np.ndarray, off: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A x for the symmetric tridiagonal A with diagonal `diag` and
    off-diagonal `off`."""
    y = diag * x
    y[:-1] += off * x[1:]
    y[1:] += off * x[:-1]
    return y


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    """x . y as a numpy sum, not BLAS ddot, which runs multithreaded on
    long vectors: with OpenBLAS's default thread count on a shared 2-vCPU
    host, 1 of 16 fresh runs of criterion 7 took 0.45 s instead of about
    0.04 s."""
    return float((x * y).sum())


def _reduce(diag: np.ndarray, off: np.ndarray) -> list:
    """Odd-even cyclic reduction of the symmetric tridiagonal matrix with
    diagonal `diag` and off-diagonal `off`.

    Each pass eliminates the unknowns at even positions.  They are not
    coupled to each other, so their block is the diagonal of pivots p, and
    the Schur complement on the odd positions is again tridiagonal, of half
    the size; the last pass eliminates a single unknown.  Returns the
    passes as (p, left, right), where left[k] = off[2k] / p[k] and
    right[k] = off[2k+1] / p[k+1] are the multipliers of the couplings of
    odd unknown k to its even neighbours."""
    passes = []
    d, e = diag, off
    while d.size:
        p = d[0::2]
        if not p.all():  # a zero pivot is taken as a tiny negative one (a perturbation of it)
            p = np.where(p == 0, -np.finfo(float).tiny, p)
        k = d.size // 2
        e_left, e_right = e[0::2], e[1::2]
        left = e_left / p[:k]
        right = e_right / p[1:e_right.size + 1]
        d = d[1::2] - e_left * left
        d[:e_right.size] -= e_right * right
        e = -right[:k - 1] * e_left[1:]
        passes.append((p, left, right))
    return passes


def _negatives(passes: list) -> int:
    """The number of negative pivots of the reduction `_reduce` of M, which
    is the number of eigenvalues of M below 0."""
    return sum(int(np.count_nonzero(p < 0)) for p, _left, _right in passes)


def _count_below(diag: np.ndarray, off: np.ndarray, sigma: float) -> int:
    """The number of eigenvalues below sigma of the symmetric tridiagonal
    matrix: the negative pivots of the reduction of it minus sigma I."""
    return _negatives(_reduce(diag - sigma, off))


def _solve(passes: list, f: np.ndarray) -> np.ndarray:
    """x with M x = f, where `passes` is the reduction `_reduce` of M."""
    scaled = []
    for p, left, right in passes:
        f_even = f[0::2]
        scaled.append(f_even / p)
        f = f[1::2] - left * f_even[:left.size]
        f[:right.size] -= right * f_even[1:right.size + 1]
    x = f
    for (_p, left, right), x_even in zip(reversed(passes), reversed(scaled)):
        x_even[:left.size] -= left * x
        x_even[1:right.size + 1] -= right * x[:right.size]
        both = np.empty(x_even.size + x.size)
        both[0::2] = x_even
        both[1::2] = x
        x = both
    return x


def _shift_below_lowest(diag: np.ndarray, off: np.ndarray) -> tuple[float, list, np.ndarray]:
    """A shift sigma <= lambda_1 with lambda_1 - sigma <= SEPARATION
    (lambda_2 - sigma), found on the eigenvalue count, with the reduction
    `_reduce` of T - sigma I and a start vector for inverse iteration.

    The bracket starts from the Gershgorin bounds.  Two solves at the lower
    bound, where T - sigma I is positive semidefinite, damp the upper
    spectrum of (1, ..., 1).  The first one's Rayleigh quotient, at or
    above lambda_1, is the first probe; the second one's, the start
    vector's, bounds lambda_1 from above more closely: the bracket's top.
    The next probe sits just below the top, where a count of 0 meets the
    separation test, or at the bracket's midpoint where that point is not
    inside the bracket.  A zero off-diagonal entry splits T into blocks
    whose eigenvalues may coincide, and is refused."""
    if not off.all():
        raise ContractViolation(
            f"T is reducible: off-diagonal entry {int(np.argmin(off != 0))} is 0")
    radius = np.zeros_like(diag)
    radius[:-1] += np.abs(off)
    radius[1:] += np.abs(off)
    lo = float(np.min(diag - radius))  # no eigenvalue below lo
    hi = float(np.max(diag + radius))  # at least one at or below hi
    floor2 = lo  # no second eigenvalue below floor2
    passes = _reduce(diag - lo, off)
    start = _solve(passes, np.ones_like(diag))
    sigma = _dot(start, _matvec(diag, off, start)) / _dot(start, start)
    start = _solve(passes, start)
    hi = min(hi, _dot(start, _matvec(diag, off, start)) / _dot(start, start))
    while True:
        del passes  # one reduction alive at a time
        passes = _reduce(diag - sigma, off)
        below = _negatives(passes)
        if below == 0:
            lo = sigma
        else:
            hi = min(hi, sigma)
            if below == 1:
                floor2 = max(floor2, sigma)
        if hi - lo <= SEPARATION * (floor2 - lo):
            if sigma != lo:
                del passes
                passes = _reduce(diag - lo, off)
            return lo, passes, start
        sigma = hi - SEPARATION * (floor2 - hi) / (1 + SEPARATION)
        if not lo < sigma < hi:
            sigma = 0.5 * (lo + hi)
        if not lo < sigma < hi:
            raise RuntimeError(f"bisection cannot separate lambda_1 from lambda_2 "
                               f"in [{lo}, {hi}]")


def _certify_lowest(diag: np.ndarray, off: np.ndarray, lam: float) -> None:
    """The index certificate: raise RuntimeError unless the matrix has no
    eigenvalue below lam (1 - INDEX_TOL) and exactly one below
    lam (1 + INDEX_TOL)."""
    window = INDEX_TOL * abs(lam)
    below = (_count_below(diag, off, lam - window), _count_below(diag, off, lam + window))
    if below != (0, 1):
        raise RuntimeError(f"index certificate failed: {below[0]} and {below[1]} eigenvalues "
                           f"below lambda1 {lam} (1 -+ {INDEX_TOL:.0e}), want 0 and 1")


def lambda1_dirichlet(p: RadialProblem) -> SpectralEstimate:
    """Smallest generalized eigenvalue by inverse iteration on T, solved by
    cyclic reduction from a shift below lambda_1.

    The iteration stops once the residual is within RESIDUAL_TARGET and a
    solve no longer shrinks it tenfold, at its rounding floor, or after
    MAX_SOLVES solves.  lambda1 is the Rayleigh quotient of the last
    iterate, accurate to second order in its residual.  A residual above
    RESIDUAL_TARGET raises ResidualError, with the estimate reached, and a
    failed index certificate RuntimeError: an eigenvalue of T below
    lambda1 (1 - INDEX_TOL), or other than exactly one below
    lambda1 (1 + INDEX_TOL)."""
    diag, off, w_node, _h = _assemble(p)
    scale = 1.0 / np.sqrt(w_node)
    t_diag = diag * scale * scale
    t_off = off * scale[:-1] * scale[1:]
    _shift, passes, v = _shift_below_lowest(t_diag, t_off)
    previous = np.inf
    for solves in range(1, MAX_SOLVES + 1):
        v = _solve(passes, v)
        v /= math.sqrt(_dot(v, v))
        u = v * scale
        au = _matvec(diag, off, u)
        bu = w_node * u
        lam = _dot(u, au) / _dot(u, bu)
        r = au - lam * bu
        residual = math.sqrt(_dot(r, r)) / math.sqrt(_dot(bu, bu))
        if residual <= RESIDUAL_TARGET and residual > 0.1 * previous:
            break
        previous = residual
    if not residual <= RESIDUAL_TARGET:
        raise ResidualError(SpectralEstimate(lam, residual, solves))
    _certify_lowest(t_diag, t_off, lam)
    return SpectralEstimate(lam, residual, solves)


def rayleigh_quotient(p: RadialProblem, trial: Callable[[np.ndarray], np.ndarray],
                      trial_derivative: Callable[[np.ndarray], np.ndarray]) -> float:
    """integral (u')^2 w / integral u^2 w over (p.r_min, p.r_max), both by
    the adaptive Gauss-Legendre rule `comparison.integrate`; p's mesh is
    not read.  `trial` and `trial_derivative` are called on the array of
    each panel's nodes.  An upper bound for the truncated problem's
    lambda_1; the trial must vanish at r_max, to 1e-12 of its largest size
    at the nodes."""
    sizes = [0.0]  # the largest |f| per panel, only the trial's when checked

    def weighted_square(f, rs: np.ndarray) -> np.ndarray:
        us = np.broadcast_to(f(rs), rs.shape)
        sizes.append(np.abs(us).max())
        return us * us * p.weight(rs)

    den = integrate(lambda rs: weighted_square(trial, rs), p.r_min, p.r_max)
    end = np.broadcast_to(trial(np.array([p.r_max])), (1,))
    if abs(end[0]) > 1e-12 * (max(sizes) or 1.0):
        raise ContractViolation("trial function must vanish at r_max")
    if den <= 0:
        raise ContractViolation("trial function has no mass against the weight")
    return integrate(lambda rs: weighted_square(trial_derivative, rs), p.r_min, p.r_max) / den


def lambda1_row(p: RadialProblem, est: SpectralEstimate) -> dict:
    """p's r_max and mesh, and est's lambda1 with its gap above (2n+1)^2."""
    target = eigenvalue_bounds(p.n).quaternionic
    return {"r_max": p.r_max, "mesh": p.mesh_points, "lambda1": est.lambda1,
            "target": target, "gap": est.lambda1 - target}


def convergence_study(p: RadialProblem) -> list[dict]:
    """The rows of p solved at r_max / 2, 3 r_max / 4 and r_max, each from
    p.r_min at p's mesh density (at least 64 points); a StudyError, once
    every radius is solved, if any solve missed RESIDUAL_TARGET."""
    first = p.r_max / 2
    if not p.r_min < first:
        raise ContractViolation(f"need r_min < the study's first radius r_max / 2 = {first}")
    density = (p.r_max - p.r_min) / p.mesh_points
    rows, failed = [], {}
    for r_max in (first, 3 * p.r_max / 4, p.r_max):
        q = RadialProblem(p.n, p.r_min, r_max, max(64, round((r_max - p.r_min) / density)),
                          p.delta)
        try:
            rows.append(lambda1_row(q, lambda1_dirichlet(q)))
        except ResidualError as exc:
            failed[r_max] = exc.estimate
    if failed:
        raise StudyError(failed, rows)
    return rows
