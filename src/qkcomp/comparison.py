"""Model-space comparison quantities for the quaternionic space forms.

Distance Laplacian, Hessian block bounds, area density, ball volume,
the volume-ratio equality case, and the first-eigenvalue constants.  The
curvature scale delta is -1 (quaternionic hyperbolic), 0 (flat), or +1
(quaternionic projective, where the cot barrier pole at pi/2 is the
diameter bound).  Every radial quantity is one numpy expression that
takes a radius or an array of radii.  The ball volume has two
independent evaluations: `volume` integrates the density with
`integrate`, an adaptive Gauss-Legendre rule that evaluates its
integrand on all the nodes of a panel in one call, and `ball_volume` is
its closed form; `volume_ratio_check` compares the two on the ratio
V(r2)/V(r1), where the model meets Bishop-Gromov comparison with
equality.  `spectral.rayleigh_quotient` integrates with `integrate` too.

Note on the flat case: summing the block barriers themselves (3/t for
the line block plus 4/t per transversal block) gives (4n-1)/t, which
also matches flat R^{4n}; the sometimes-quoted coefficient (4n-3) is
treated as an erratum, and both values are surfaced by the CLI.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import partial

import numpy as np

from .forms import ContractViolation, ValueEq
from .quaternionic import frame_dim
from .riccati import DomainError, first_outside, line_block, transversal_block


class ModelGeometry:
    """Quaternionic model space of real dimension 4n with curvature scale delta."""

    __slots__ = ("n", "delta")

    def __init__(self, n: int, delta: int):
        frame_dim(n)
        if delta not in (-1, 0, 1):
            raise ContractViolation(f"delta must be -1, 0, or +1, got {delta}")
        self.n, self.delta = n, delta

    @property
    def dim(self) -> int:
        return 4 * self.n

    def domain_check(self, r) -> None:
        """DomainError unless r, a radius or every entry of an array, lies
        in (0, diameter); an array raises at its first entry outside it, in
        row-major order."""
        bad = first_outside(r, math.pi / 2 if self.delta == 1 else None)
        if bad is None:
            return
        if bad <= 0:
            raise DomainError(f"need r > 0, got r={bad}")
        raise DomainError(f"delta=+1 model has diameter pi/2; got r={bad}")


def hessian_block_bounds(g: ModelGeometry, r):
    """(line-block bound, transversal-block bound) for the distance Hessian,
    at a radius or elementwise for an array.

    (6 coth 2r, 4 coth r) for delta=-1, (3/r, 4/r) for delta=0, and
    (6 cot 2r, 4 cot r) for delta=+1."""
    g.domain_check(r)
    return line_block(g.delta)(r), transversal_block(g.delta)(r)


def laplacian_distance(g: ModelGeometry, r):
    """Model value of the distance Laplacian, at a radius or elementwise for
    an array: one line block plus n-1 transversal blocks."""
    line, transversal = hessian_block_bounds(g, r)
    return line + (g.n - 1) * transversal


def flat_laplacian_coefficient(n: int) -> int:
    """Derived delta=0 coefficient: Delta r = (4n-1)/r."""
    return 4 * n - 1


def flat_laplacian_coefficient_printed(n: int) -> int:
    """The printed (erratum) delta=0 coefficient 4n-3, kept for reporting."""
    return 4 * n - 3


def area_density(g: ModelGeometry, r):
    """Density J(r), at a radius or elementwise for an array, normalized so
    J ~ r^{4n-1} as r -> 0.

    delta=-1: (sinh 2r / 2)^3 sinh^{4(n-1)} r; delta=+1 with sin in
    place of sinh; delta=0: r^{4n-1}.  Satisfies (log J)' = Delta r.
    np.power, not **, so a float and an array entry take the same ufunc.
    DomainError, naming the first such radius in row-major order, when J
    overflows the float range inside the domain (near r = 71.6 at n = 2,
    delta=-1), as a ball volume that underflows is refused by
    `volume_ratio_check`."""
    g.domain_check(r)
    with np.errstate(over="ignore"):
        if g.delta == 0:
            J = np.power(r, 4 * g.n - 1)
        else:
            s = np.sinh if g.delta == -1 else np.sin
            J = np.power(s(2 * r) / 2, 3) * np.power(s(r), 4 * (g.n - 1))
    finite = np.isfinite(J)
    if not finite.all():
        bad = float(np.asarray(r, dtype=float).flat[np.argmin(finite)])
        raise DomainError(f"area density J overflows the float range at r={bad}")
    return J


def sphere_area_constant(n: int) -> float:
    """Area of the unit sphere in R^{4n}: 2 pi^{2n} / Gamma(2n)."""
    return 2 * math.pi ** (2 * n) / math.factorial(2 * n - 1)


# Relative agreement of the 20- and 10-point rules that accepts a panel,
# and the most panels one integral may split into (raising RuntimeError).
QUADRATURE_EPSREL = 1e-10
QUADRATURE_PANELS = 200

# The 20- and 10-point Gauss-Legendre nodes and weights on [-1, 1], as
# numpy.polynomial.legendre.leggauss gives them, written out (repr
# round-trips) so that no process loads numpy.polynomial for them.
_X20 = np.array([
    -0.993128599185095, -0.9639719272779138, -0.912234428251326,
    -0.8391169718222188, -0.7463319064601508, -0.636053680726515,
    -0.5108670019508271, -0.37370608871541955, -0.22778585114164507,
    -0.07652652113349734, 0.07652652113349734, 0.22778585114164507,
    0.37370608871541955, 0.5108670019508271, 0.636053680726515,
    0.7463319064601508, 0.8391169718222188, 0.912234428251326,
    0.9639719272779138, 0.993128599185095,
])
_W20 = np.array([
    0.017614007139150893, 0.040601429800386446, 0.06267204833410879,
    0.08327674157670471, 0.1019301198172407, 0.1181945319615186,
    0.1316886384491769, 0.1420961093183824, 0.14917298647260424,
    0.15275338713072628, 0.15275338713072628, 0.14917298647260424,
    0.1420961093183824, 0.1316886384491769, 0.1181945319615186,
    0.1019301198172407, 0.08327674157670471, 0.06267204833410879,
    0.040601429800386446, 0.017614007139150893,
])
_X10 = np.array([
    -0.9739065285171717, -0.8650633666889845, -0.6794095682990244,
    -0.4333953941292472, -0.14887433898163122, 0.14887433898163122,
    0.4333953941292472, 0.6794095682990244, 0.8650633666889845,
    0.9739065285171717,
])
_W10 = np.array([
    0.06667134430868814, 0.1494513491505804, 0.219086362515982,
    0.2692667193099965, 0.2955242247147528, 0.2955242247147528,
    0.2692667193099965, 0.219086362515982, 0.1494513491505804,
    0.06667134430868814,
])
_NODES = np.concatenate([_X20, _X10])


def integrate(f, a: float, b: float) -> float:
    """integral_a^b f(s) ds by adaptive bisection, for an f that maps an
    array of nodes to the array of its values: one call per panel.

    Each panel is integrated by the 20-point and the 10-point
    Gauss-Legendre rules; it is accepted, with the 20-point value, once
    the two agree to QUADRATURE_EPSREL of that value or of the panel's
    share of the whole (the first panel's value), so that negligible
    panels, as near 0 for r^{4n-1}, are not split; otherwise it is
    bisected.  Panels are summed left to right.  DomainError, naming the
    interval and the panel, when a panel's 20-point value overflows to
    +-inf, as r^{4n}/4n does past the float range while J = r^{4n-1} is
    still finite; RuntimeError when the partition would pass
    QUADRATURE_PANELS panels, as for a divergent or NaN integrand."""
    total = 0.0
    panels = 1
    pending = [(a, b)]
    whole = None
    while pending:
        lo, hi = pending.pop()
        half = (hi - lo) / 2
        xs = (lo + half) + half * _NODES
        vals = f(xs)
        fine = half * float(_W20 @ vals[:20])
        coarse = half * float(_W10 @ vals[20:])
        if math.isinf(fine):
            raise DomainError(f"integral over [{a}, {b}] overflows the float range "
                              f"(at [{lo}, {hi}]: {fine!r})")
        if whole is None:
            whole = abs(fine)
        error = abs(fine - coarse)
        if (error <= QUADRATURE_EPSREL * abs(fine)
                or error <= QUADRATURE_EPSREL * whole * (hi - lo) / (b - a)):
            total += fine
            continue
        panels += 1
        if panels > QUADRATURE_PANELS:
            raise RuntimeError(
                f"integral over [{a}, {b}] not resolved in {QUADRATURE_PANELS} "
                f"panels (at [{lo}, {hi}]: {fine!r} vs {coarse!r})")
        pending += [(lo + half, hi), (lo, lo + half)]
    return total


def volume(g: ModelGeometry, r: float) -> float:
    """Geodesic-ball volume: omega_{4n-1} * integral_0^r J(s) ds, by
    `integrate` at relative tolerance QUADRATURE_EPSREL (1e-10)."""
    g.domain_check(r)
    return sphere_area_constant(g.n) * integrate(partial(area_density, g), 0.0, r)


def ball_volume(g: ModelGeometry, r):
    """Geodesic-ball volume in closed form, at a radius or elementwise for
    an array.

    J = S^{4n-1} C^3 with S = sinh r, C = cosh r (sin, cos for delta=+1),
    and C^2 = 1 - delta S^2, so with k = 4n the integral of J is
    S^k/k - delta S^{k+2}/(k+2); r^k/k for delta=0."""
    g.domain_check(r)
    k = 4 * g.n
    omega = sphere_area_constant(g.n)
    if g.delta == 0:
        return omega * np.power(r, k) / k
    s = (np.sinh if g.delta == -1 else np.sin)(r)
    return omega * (np.power(s, k) / k - g.delta * np.power(s, k + 2) / (k + 2))


def volume_ratio_check(g: ModelGeometry, r1: float, r2: float) -> tuple[float, float]:
    """(V(r2)/V(r1) by `volume`, the same ratio by `ball_volume`): the
    model's ball-volume ratio, the equality case of Bishop-Gromov volume
    comparison, by quadrature and in closed form.  DomainError, naming the
    radius, when a volume is below the smallest normal float, too few
    digits for the ratio, as when it underflows."""
    if not 0 < r1 <= r2:
        raise ContractViolation(f"need 0 < r1 <= r2, got r1={r1}, r2={r2}")
    v1, v2 = volume(g, r1), volume(g, r2)
    c1, c2 = ball_volume(g, np.array([r1, r2])).tolist()
    for r, v, c in ((r1, v1, c1), (r2, v2, c2)):
        # sys.float_info.min is numpy's finfo(float).tiny, 2^-1022; asking
        # numpy for it here raised the numeric workload's peak memory by
        # about 0.08 MB
        if not (v >= sys.float_info.min and c >= sys.float_info.min):
            raise DomainError(f"ball volume at r={r} is below the smallest normal float: "
                              f"{v!r} by quadrature, {c!r} in closed form")
    return v2 / v1, c2 / c1


class EigenvalueBounds(ValueEq):
    """lambda_1 upper bounds: the quaternionic value with its real
    reference constant."""

    __slots__ = ("quaternionic", "real_cheng")

    def __init__(self, quaternionic: int, real_cheng: Fraction):
        self.quaternionic, self.real_cheng = quaternionic, real_cheng


def eigenvalue_bounds(n: int) -> EigenvalueBounds:
    """(2n+1)^2 against Cheng's bound rescaled to Ric >= -4(n+2).

    Cheng in dimension d with Ric >= -(d-1) gives (d-1)^2/4; rescaling
    the curvature normalization to Ric >= -4(n+2) multiplies it by
    4(n+2)/(4n-1), which yields (4n-1)(n+2)."""
    frame_dim(n)
    cheng = Fraction((4 * n - 1) ** 2, 4) * Fraction(4 * (n + 2), 4 * n - 1)
    return EigenvalueBounds((2 * n + 1) ** 2, cheng)
