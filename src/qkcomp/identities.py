"""The six Hodge-star / interior / exterior operator identities as testable laws.

For a 1-form theta with metric dual v and any p-form xi in dimension n:

  1. **xi = (-1)^{p(n-p)} xi
  2. *(theta ^ xi) = (-1)^p  i_v (*xi)
  3. theta ^ (*xi) = (-1)^{p-1} * (i_v xi)
  4. *(theta ^ *xi) = (-1)^{(p-1)(n-p)} i_v xi
  5. i_v (theta' ^ xi) + theta' ^ (i_v xi) = <v, v'> xi   (zero when v is
     orthogonal to v', the dual of theta')
  6. i_v (theta ^ xi) + theta ^ (i_v xi) = <v, v> xi

Identities (5) and (6) are the two faces of the same anticommutation law
ell(v) eps(theta') + eps(theta') ell(v) = <v, v'> id; (6) reduces to the
unnormalised statement exactly when v is a unit vector.  All checks are
exact: a single nonzero coefficient anywhere is a failure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .forms import (
    ContractViolation,
    Form,
    InnerSpace,
    Vector,
    dual_vector,
    ext_mult,
    form_inner,
    hodge_star,
    interior,
    wedge,
)

IDENTITY_NAMES = (
    "1 double star involution",
    "2 star of exterior multiplication",
    "3 exterior multiplication of star",
    "4 star-ext-star contraction",
    "5 anticommutation, orthogonal pair",
    "6 anticommutation, dual pair",
)


def random_rational(rng: random.Random) -> Fraction:
    """Small exact rational: integer in [-9, 9] over denominator in [1, 9]."""
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def random_form(space: InnerSpace, degree: int, rng: random.Random) -> Form:
    terms = {}
    for combo in combinations(space.basis_indices(), degree):
        c = random_rational(rng)
        if c:
            terms[combo] = c
    return Form.from_terms(space, degree, terms)


def random_vector(space: InnerSpace, rng: random.Random) -> Vector:
    """A nonzero vector of random rational components."""
    while True:
        v = Vector.of(space, [random_rational(rng) for _ in range(space.dim)])
        if not v.is_zero():
            return v


def random_orthogonal_pair(space: InnerSpace, rng: random.Random) -> tuple[Vector, Vector]:
    """Exact orthogonal pair via one Gram-Schmidt step."""
    v = random_vector(space, rng)
    while True:
        w = random_vector(space, rng)
        proj = w.dot(v) / v.dot(v)
        w2 = Vector(space, tuple(wc - proj * vc
                                 for wc, vc in zip(w.components, v.components)))
        if not w2.is_zero():
            return v, w2


@dataclass
class IdentityResult:
    name: str
    samples: int
    passed: bool
    counterexample: str | None = None


@dataclass
class IdentityReport:
    dim: int
    degree: int
    trials: int
    seed: int
    results: list[IdentityResult] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)


def _sign(exponent: int) -> int:
    return -1 if exponent % 2 else 1


def check_star_identities(dim: int, degree: int, trials: int,
                          seed: int) -> IdentityReport:
    """Evaluate all six identities on seeded pseudo-random rational data.

    Failures are reported with a counterexample, never raised.
    """
    if not 1 <= degree <= dim <= 12:
        raise ContractViolation(
            f"need 1 <= degree <= dim <= 12, got degree={degree}, dim={dim}")
    space = InnerSpace(dim)
    rng = random.Random(seed)
    report = IdentityReport(dim=dim, degree=degree, trials=trials, seed=seed)
    n, p = dim, degree

    passed = [True] * 6
    counterexamples: list[str | None] = [None] * 6

    for k in range(trials):
        xi = random_form(space, degree, rng)
        v, vp = random_orthogonal_pair(space, rng)
        theta, thetap = v.dual(), vp.dual()

        # shared subexpressions across the six laws
        star_xi = hodge_star(xi)
        int_v_xi = interior(v, xi)
        eps_th_xi = ext_mult(theta, xi)
        eps_thp_xi = ext_mult(thetap, xi)
        eps_th_star_xi = ext_mult(theta, star_xi)

        verdicts = (
            hodge_star(star_xi) == xi * _sign(p * (n - p)),
            hodge_star(eps_th_xi) == interior(v, star_xi) * _sign(p),
            eps_th_star_xi == hodge_star(int_v_xi) * _sign(p - 1),
            hodge_star(eps_th_star_xi) == int_v_xi * _sign((p - 1) * (n - p)),
            (interior(v, eps_thp_xi) + ext_mult(thetap, int_v_xi)).is_zero(),
            interior(v, eps_th_xi) + ext_mult(theta, int_v_xi) == xi * v.dot(v),
        )
        for idx, ok in enumerate(verdicts):
            if passed[idx] and not ok:
                passed[idx] = False
                counterexamples[idx] = (
                    f"sample {k}: xi={xi!r}, v={[str(c) for c in v.components]}, "
                    f"v'={[str(c) for c in vp.components]}")

    for name, ok, ce in zip(IDENTITY_NAMES, passed, counterexamples):
        report.results.append(IdentityResult(name, trials, ok, ce))
    return report


def anticommutator_defect(v: Vector, vprime: Vector, xi: Form) -> Form:
    """ell(v) eps(theta') xi + eps(theta') ell(v) xi - <v,v'> xi (identically zero)."""
    thetap = vprime.dual()
    return (interior(v, ext_mult(thetap, xi))
            + ext_mult(thetap, interior(v, xi))
            - xi * v.dot(vprime))


def adjointness_defect(theta: Form, a: Form, b: Form) -> Fraction:
    """<eps(theta) a, b> - <a, ell(v) b> with v the dual of theta (zero)."""
    v = dual_vector(theta)
    return form_inner(ext_mult(theta, a), b) - form_inner(a, interior(v, b))


def antiderivation_defect(v: Vector, a: Form, b: Form) -> Form:
    """ell(v)(a^b) - (ell(v)a)^b - (-1)^deg(a) a^(ell(v)b) (identically zero)."""
    lhs = interior(v, wedge(a, b))
    rhs = wedge(interior(v, a), b) + wedge(a, interior(v, b)) * _sign(a.degree)
    return lhs - rhs
