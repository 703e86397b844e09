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
unnormalised statement exactly when v is a unit vector.

`check_operator_identities` proves them.  Every side of (1)-(4) is linear
in xi and in theta (or v), and both sides of the anticommutation law are
bilinear in (v, theta'), so a law that holds for every basis p-form xi and
every basis pair (e_i, e^j) holds for all xi, v and v'.  On basis forms
*, eps(e^i) and i(e_i) each take a monomial to plus or minus one monomial
or to 0 (F. W. Warner, *Foundations of Differentiable Manifolds and Lie
Groups*, ch. 2 and 6), so each is tabulated from the term kernel that
`Form` runs, as int64 (target mask, sign) arrays, and every side of every
law is a composition of those tables by fancy indexing.  A kernel image
that is not one term of coefficient +-1 is a violation of every law that
reads it.  `check_star_identities` evaluates the same laws on seeded
random `Form`s, as a differential oracle.  All checks are exact: a single
nonzero coefficient anywhere is a failure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from . import kernel
from .forms import (
    ContractViolation,
    Form,
    InnerSpace,
    Vector,
    ext_mult,
    hodge_star,
    interior,
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


def _sign(exponent: int) -> int:
    return -1 if exponent % 2 else 1


def _check_domain(dim: int, degree: int) -> None:
    if not 1 <= degree <= dim <= 12:
        raise ContractViolation(
            f"need 1 <= degree <= dim <= 12, got degree={degree}, dim={dim}")


def check_star_identities(dim: int, degree: int, trials: int,
                          seed: int) -> list[BasisResult]:
    """All six identities on `trials` seeded pseudo-random rational
    samples, in IDENTITY_NAMES order.

    Failures are counted and reported with the first failing sample, never
    raised.
    """
    _check_domain(dim, degree)
    space = InnerSpace(dim)
    rng = random.Random(seed)
    n, p = dim, degree
    results = [BasisResult(name, trials, 0) for name in IDENTITY_NAMES]

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
        for result, ok in zip(results, verdicts):
            if not ok:
                result.violations += 1
                if result.first is None:
                    result.first = (
                        f"sample {k}: xi={xi!r}, v={[str(c) for c in v.components]}, "
                        f"v'={[str(c) for c in vp.components]}")
    return results


# An image of basis forms: (target, sign, bad) arrays of one shape.  Entry k
# is sign[k] * theta^target[k]; the zero form is the zero slot 2^dim with
# sign 0, and bad marks an image that read a bad table entry.
Image = tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass(frozen=True)
class SignedTable:
    """Operators on the 2^dim basis monomials (by mask) that take each to
    plus or minus one monomial or to 0.  Row r of the (rows, 2^dim + 1)
    arrays is one operator: `target` is the image mask (the zero slot 2^dim
    for 0, which maps to itself), `sign` its coefficient (0 for 0), and
    `bad` marks the masks whose kernel image was not one term of
    coefficient +-1."""

    target: np.ndarray
    sign: np.ndarray
    bad: np.ndarray

    def __call__(self, image: Image, row=0) -> Image:
        """Operator `row` (an index array broadcasting with the image)
        applied to each entry of `image`."""
        t, s, b = image
        return self.target[row, t], self.sign[row, t] * s, b | self.bad[row, t]


def _signed_table(rows: list[list[dict]]) -> SignedTable:
    """The table of the kernel images rows[r][mask], one term map per mask."""
    zero = len(rows[0])
    target = np.full((len(rows), zero + 1), zero, dtype=np.int64)
    sign = np.zeros(target.shape, dtype=np.int64)
    bad = np.zeros(target.shape, dtype=bool)
    for r, row in enumerate(rows):
        for mask, image in enumerate(row):
            terms = list(image.items())
            if len(terms) == 1 and 0 <= terms[0][0] < zero and terms[0][1] in (1, -1):
                target[r, mask], sign[r, mask] = terms[0]
            elif terms:
                bad[r, mask] = True
    return SignedTable(target, sign, bad)


def operator_tables(dim: int) -> tuple[SignedTable, SignedTable, SignedTable]:
    """(*, eps(e^i), i(e_i)) on every basis monomial of dimension `dim`,
    built by the kernel on the term maps {mask: 1}: one star row, and one
    row per 0-based index i of the other two."""
    if not 1 <= dim <= 12:
        raise ContractViolation(f"need 1 <= dim <= 12, got dim={dim}")
    basis = [{mask: 1} for mask in range(1 << dim)]
    units = [tuple(int(k == i) for k in range(dim)) for i in range(dim)]
    star = _signed_table([[kernel.star_terms(b, dim) for b in basis]])
    eps = _signed_table([[kernel.wedge_terms({1 << i: 1}, b) for b in basis]
                         for i in range(dim)])
    iota = _signed_table([[kernel.interior_terms(e, b) for b in basis] for e in units])
    return star, eps, iota


def _scaled(image: Image, factor: int) -> Image:
    t, s, b = image
    return t, s * factor, b


def _equal(a: Image, b: Image) -> np.ndarray:
    """Elementwise a == b, false where either read a bad entry."""
    return ~(a[2] | b[2]) & (a[0] == b[0]) & (a[1] == b[1])


def _sum_equal(a: Image, b: Image, want: Image) -> np.ndarray:
    """Elementwise a + b == want, false where any read a bad entry.  The sum
    of two signed monomials is one signed monomial (or 0) unless both are
    nonzero on different masks; the comparison never forms a dense map."""
    (ta, sa, ba), (tb, sb, bb), (tw, sw, bw) = a, b, want
    s = sa + sb
    t = np.where(sa != 0, ta, tb)
    single = (sa == 0) | (sb == 0) | (ta == tb)
    return ~(ba | bb | bw) & single & (((s == 0) & (sw == 0)) | ((t == tw) & (s == sw)))


@dataclass
class BasisResult:
    """One identity at one (dim, degree), checked on `cases` cases: basis
    forms times basis indices, or seeded samples.  `first` describes the
    first case that breaks the law."""

    name: str
    cases: int
    violations: int
    first: str | None = None

    @property
    def passed(self) -> bool:
        return not self.violations


def _basis_result(name: str, holds: np.ndarray, masks: np.ndarray,
                  among=True) -> BasisResult:
    """Summarise `holds` over axes (basis form, 0-based index i[, j]),
    restricted to the cases `among` (broadcasting)."""
    among = np.broadcast_to(among, holds.shape)
    fails = among & ~holds
    violations = int(fails.sum())
    first = None
    if violations:
        x, *idx = np.argwhere(fails)[0].tolist()
        mask = int(masks[x])
        first = ", ".join(
            [f"xi=theta{tuple(k + 1 for k in range(mask.bit_length()) if mask >> k & 1)}"]
            + [f"{label}={k + 1}" for label, k in zip("ij", idx)])
    return BasisResult(name, int(among.sum()), violations, first)


def check_operator_identities(dim: int, degree: int, tables=None) -> list[BasisResult]:
    """All six identities on every basis `degree`-form of dimension `dim`,
    at every basis index i (identities 2-4 and 6) and every pair i != j
    (identity 5), in IDENTITY_NAMES order.  `tables` is
    `operator_tables(dim)`, built here when not given.

    Failures are counted and reported with the first basis form and index
    that break the law, never raised.
    """
    _check_domain(dim, degree)
    n, p = dim, degree
    star, eps, iota = tables or operator_tables(n)
    masks = np.array([sum(1 << (k - 1) for k in combo)
                      for combo in combinations(range(1, n + 1), p)], dtype=np.int64)
    m = len(masks)
    xi = (masks[:, None], np.ones((m, 1), np.int64), np.zeros((m, 1), bool))
    i = np.arange(n)

    star_xi = star(xi)
    iota_xi = iota(xi, i)
    eps_star_xi = eps(star_xi, i)
    laws = (
        _equal(star(star_xi), _scaled(xi, _sign(p * (n - p))))[:, 0],
        _equal(star(eps(xi, i)), _scaled(iota(star_xi, i), _sign(p))),
        _equal(eps_star_xi, _scaled(star(iota_xi), _sign(p - 1))),
        _equal(star(eps_star_xi), _scaled(iota_xi, _sign((p - 1) * (n - p)))),
    )
    results = [_basis_result(name, holds, masks)
               for name, holds in zip(IDENTITY_NAMES, laws)]

    # i(e_i) eps(e^j) + eps(e^j) i(e_i) = delta_ij id, on axes (xi, i, j)
    xi3 = tuple(a[:, :, None] for a in xi)
    ii, jj = i[:, None], i[None, :]
    diag = ii == jj
    want = (np.where(diag, xi3[0], 1 << n), diag * xi3[1], xi3[2])
    law = _sum_equal(iota(eps(xi3, jj), ii), eps(iota(xi3, ii), jj), want)
    results.append(_basis_result(IDENTITY_NAMES[4], law, masks, ~diag))
    results.append(_basis_result(IDENTITY_NAMES[5], np.diagonal(law, axis1=1, axis2=2),
                                 masks))
    return results
