"""Radial Sturm-Liouville estimation of the bottom of the spectrum.

The radial problem is -(1/w)(w u')' = lambda u on (r_min, r_max) with
Dirichlet conditions at both ends and weight w(r) = J(r), the area
density of the model with curvature scale delta (quaternionic hyperbolic
by default).  Second-order finite differences give a symmetric
tridiagonal generalized problem A u = lambda B u with B diagonal and
positive, so D^{-1/2} A D^{-1/2} v = lambda v (D = B) is an
equivalent standard symmetric tridiagonal problem.  Its smallest
eigenpair comes from one direct LAPACK solve (bisection plus inverse
iteration on the tridiagonal matrix); u = D^{-1/2} v maps the vector
back, and the residual |Au - lambda Bu| / |Bu| certifies it.  Dirichlet
truncation means every estimate sits strictly above the limit value
(2n+1)^2 and decreases as r_max grows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .comparison import ModelGeometry, area_densities
from .forms import ContractViolation


@dataclass(frozen=True)
class RadialProblem:
    """Mesh and model geometry of one radial Dirichlet problem."""

    n: int
    r_min: float = 1e-3
    r_max: float = 12.0
    mesh_points: int = 20000
    delta: int = -1

    def __post_init__(self) -> None:
        if not self.r_min < self.r_max:
            raise ContractViolation("need r_min < r_max")
        if self.r_min <= 0:
            raise ContractViolation("need r_min > 0")
        if self.mesh_points < 64:
            raise ContractViolation("need at least 64 mesh points")
        ModelGeometry(self.n, self.delta).domain_check(self.r_max)

    def weight(self, rs: np.ndarray) -> np.ndarray:
        """The area density J at every radius of `rs`."""
        return area_densities(ModelGeometry(self.n, self.delta), rs)


@dataclass(frozen=True)
class SpectralEstimate:
    """lambda1 with its residual certificate; `iterations` counts solver
    passes, always 1 since the solve is direct."""

    lambda1: float
    residual: float
    mesh_points: int
    r_max: float
    iterations: int


def _assemble(p: RadialProblem):
    """Symmetric tridiagonal A (flux form) and diagonal B on interior nodes."""
    m = p.mesh_points
    h = (p.r_max - p.r_min) / m
    w_half = p.weight(p.r_min + h * (np.arange(m) + 0.5))
    w_node = p.weight(p.r_min + h * np.arange(1, m))
    diag = (w_half[:-1] + w_half[1:]) / (h * h)
    off = -w_half[1:-1] / (h * h)
    return diag, off, w_node, h


RESIDUAL_TARGET = 1e-8


def _matvec(diag: np.ndarray, off: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A x for the symmetric tridiagonal A with diagonal `diag` and
    off-diagonal `off`."""
    y = diag * x
    y[:-1] += off * x[1:]
    y[1:] += off * x[:-1]
    return y


def lambda1_dirichlet(p: RadialProblem) -> SpectralEstimate:
    """Smallest generalized eigenvalue by one direct tridiagonal solve.

    lambda1 is the Rayleigh quotient of the computed eigenvector, which is
    accurate to second order in its residual, where the bisection value
    alone is accurate only to machine precision times |D^{-1/2} A D^{-1/2}|.
    A residual above RESIDUAL_TARGET raises RuntimeError."""
    diag, off, w_node, _h = _assemble(p)
    scale = 1.0 / np.sqrt(w_node)
    _, v = eigh_tridiagonal(diag * scale * scale, off * scale[:-1] * scale[1:],
                            select="i", select_range=(0, 0))
    u = v[:, 0] * scale
    au = _matvec(diag, off, u)
    bu = w_node * u
    lam = float(u @ au) / float(u @ bu)
    residual = float(np.linalg.norm(au - lam * bu)) / float(np.linalg.norm(bu))
    if not residual <= RESIDUAL_TARGET:
        raise RuntimeError(f"eigen-solve residual {residual:.3e} exceeds "
                           f"{RESIDUAL_TARGET:.0e} (lambda1 {lam})")
    return SpectralEstimate(lam, residual, p.mesh_points, p.r_max, 1)


def discrete_rayleigh(p: RadialProblem, u: np.ndarray) -> float:
    """Rayleigh quotient of a vector on the interior nodes."""
    diag, off, w_node, _h = _assemble(p)
    return float(u @ _matvec(diag, off, u)) / float(u @ (w_node * u))


def rayleigh_quotient(p: RadialProblem, trial: Callable[[np.ndarray], np.ndarray],
                      trial_derivative: Callable[[np.ndarray], np.ndarray]) -> float:
    """integral (u')^2 w / integral u^2 w by Simpson quadrature on the mesh.

    `trial` and `trial_derivative` are called once, on the array of mesh
    nodes.  An upper bound for the truncated problem's lambda_1; the trial
    must vanish at r_max."""
    m = p.mesh_points if p.mesh_points % 2 == 0 else p.mesh_points + 1
    h = (p.r_max - p.r_min) / m
    rs = p.r_min + h * np.arange(m + 1)
    ws = p.weight(rs)
    us = np.broadcast_to(trial(rs), rs.shape)
    if abs(us[-1]) > 1e-12 * (np.max(np.abs(us)) or 1.0):
        raise ContractViolation("trial function must vanish at r_max")
    dus = np.broadcast_to(trial_derivative(rs), rs.shape)

    def simpson(vals: np.ndarray) -> float:
        return float(h / 3 * (vals[0] + vals[-1] + 4 * vals[1:-1:2].sum()
                              + 2 * vals[2:-1:2].sum()))

    num = simpson(dus * dus * ws)
    den = simpson(us * us * ws)
    if den <= 0:
        raise ContractViolation("trial function has no mass against the weight")
    return num / den


def convergence_study(n: int, r_max_list: list[float],
                      mesh: int) -> list[dict]:
    """Dirichlet estimates at fixed mesh density over growing r_max."""
    if any(b <= a for a, b in zip(r_max_list, r_max_list[1:])):
        raise ContractViolation("r_max_list must be increasing")
    r_min = 1e-3
    density = (max(r_max_list) - r_min) / mesh
    rows = []
    target = (2 * n + 1) ** 2
    for r_max in r_max_list:
        points = max(64, round((r_max - r_min) / density))
        est = lambda1_dirichlet(RadialProblem(n, r_min, r_max, points))
        rows.append({
            "r_max": r_max,
            "mesh": points,
            "lambda1": est.lambda1,
            "target": target,
            "gap": est.lambda1 - target,
        })
    return rows
