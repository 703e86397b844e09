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
unnormalised statement exactly when v is a unit vector.  The basis is
orthonormal, so v has theta's components: a vector is its 1-form, and
`forms.interior` contracts with the vector of a 1-form.

`check_operator_identities` proves them.  Every side of (1)-(4) is linear
in xi and in theta (or v), and both sides of the anticommutation law are
bilinear in (v, theta'), so a law that holds for every basis p-form xi and
every basis pair (e_i, e^j) holds for all xi, v and v'.  On basis forms
*, eps(e^i) and i(e_i) each take a monomial to plus or minus one monomial
or to 0 (F. W. Warner, *Foundations of Differentiable Manifolds and Lie
Groups*, ch. 2 and 6), so each is tabulated from the term kernel that
`Form` runs, one kernel call per monomial and operator, as (target mask,
sign) arrays of int16 and int8, and every side of every law is a
composition of those tables by flat-index `take`.  A kernel image that is
not one term of coefficient +-1 is a violation of every law that reads it.

The check makes one pass per dimension: it walks the basis forms of every
requested degree, ordered by (degree, `combinations` order), in chunks of
at most _CHUNK_ENTRIES (form, i, j) cases, so dims 4 and 8 run as one
chunk and dim 12 as 37.  One reduction turns the per-form failure counts
into per-degree counts, and only a degree that fails gets its first
failing case written out.  `check_star_identities` evaluates the same
laws on seeded random `Form`s, as a differential oracle.  All checks are
exact: a single nonzero coefficient anywhere is a failure.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations

import numpy as np

from . import kernel
from .forms import (
    ContractViolation,
    Form,
    ValueEq,
    _indices,
    ext_mult,
    form_inner,
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


def random_form(dim: int, degree: int, rng: random.Random) -> Form:
    terms = {}
    for combo in combinations(range(1, dim + 1), degree):
        c = random_rational(rng)
        if c:
            terms[combo] = c
    return Form.from_terms(dim, degree, terms)


def random_vector(dim: int, rng: random.Random) -> Form:
    """A nonzero vector of random rational components, as its 1-form."""
    while True:
        v = random_form(dim, 1, rng)
        if v:
            return v


def random_orthogonal_pair(dim: int, rng: random.Random) -> tuple[Form, Form]:
    """Exact orthogonal pair via one Gram-Schmidt step."""
    v = random_vector(dim, rng)
    while True:
        w = random_vector(dim, rng)
        w2 = w - v * (form_inner(w, v) / form_inner(v, v))
        if w2:
            return v, w2


def _sign(exponent):
    """(-1)^exponent, for an int or elementwise for an integer array."""
    return 1 - 2 * (exponent % 2)


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
    rng = random.Random(seed)
    n, p = dim, degree
    results = [BasisResult(name, trials, 0) for name in IDENTITY_NAMES]

    for k in range(trials):
        xi = random_form(dim, degree, rng)
        theta, thetap = random_orthogonal_pair(dim, rng)

        # shared subexpressions across the six laws
        star_xi = hodge_star(xi)
        int_v_xi = interior(theta, xi)
        eps_th_xi = ext_mult(theta, xi)
        eps_thp_xi = ext_mult(thetap, xi)
        eps_th_star_xi = ext_mult(theta, star_xi)

        verdicts = (
            hodge_star(star_xi) == xi * _sign(p * (n - p)),
            hodge_star(eps_th_xi) == interior(theta, star_xi) * _sign(p),
            eps_th_star_xi == hodge_star(int_v_xi) * _sign(p - 1),
            hodge_star(eps_th_star_xi) == int_v_xi * _sign((p - 1) * (n - p)),
            (interior(theta, eps_thp_xi) + ext_mult(thetap, int_v_xi)).is_zero(),
            interior(theta, eps_th_xi) + ext_mult(theta, int_v_xi)
            == xi * form_inner(theta, theta),
        )
        for result, ok in zip(results, verdicts):
            if not ok:
                result.violations += 1
                if result.first is None:
                    v, vp = ([str(f.coefficient((i,))) for i in range(1, n + 1)]
                             for f in (theta, thetap))
                    result.first = f"sample {k}: xi={xi!r}, v={v}, v'={vp}"
    return results


# An image of basis forms: (target, sign, bad) arrays of one shape.  Entry k
# is sign[k] * theta^target[k]; the zero form is the zero slot 2^dim with
# sign 0, and bad marks an image that read a bad table entry.
Image = tuple[np.ndarray, np.ndarray, np.ndarray]


class SignedTable:
    """Operators on the 2^dim basis monomials (by mask) that take each to
    plus or minus one monomial or to 0.  Row r of the (rows, 2^dim + 1)
    arrays is one operator: `target` (int16) is the image mask (the zero
    slot 2^dim for 0, which maps to itself), `sign` (int8) its coefficient
    (0 for 0), and `bad` marks the masks whose kernel image was not one
    term of coefficient +-1."""

    __slots__ = ("target", "sign", "bad")

    def __init__(self, target: np.ndarray, sign: np.ndarray, bad: np.ndarray):
        self.target, self.sign, self.bad = target, sign, bad

    def __call__(self, image: Image, row=0) -> Image:
        """Operator `row` (an index array broadcasting with the image)
        applied to each entry of `image`, read at flat table indices."""
        t, s, b = image
        k = t + self.target.shape[1] * row
        return self.target.take(k), self.sign.take(k) * s, b | self.bad.take(k)


def _signed_table(dim: int, rows) -> SignedTable:
    """The table of the kernel images rows[r][mask], one term map per mask
    of dimension `dim`, read row by row into lists."""
    zero = 1 << dim
    target, sign, bad = [], [], []
    for row in rows:
        for image in row:
            if len(image) == 1:
                ((t, s),) = image.items()
                if 0 <= t < zero and s in (1, -1):
                    target.append(t)
                    sign.append(s)
                    bad.append(False)
                    continue
            target.append(zero)
            sign.append(0)
            bad.append(bool(image))
        target.append(zero)
        sign.append(0)
        bad.append(False)
    shape = (-1, zero + 1)
    return SignedTable(np.array(target, np.int16).reshape(shape),
                       np.array(sign, np.int8).reshape(shape),
                       np.array(bad, bool).reshape(shape))


def operator_tables(dim: int) -> tuple[SignedTable, SignedTable, SignedTable]:
    """(*, eps(e^i), i(e_i)) on every basis monomial of dimension `dim`,
    built by the kernel on the term maps {mask: 1}, one call per monomial
    and operator: one star row, and one row per 0-based index i of the
    other two."""
    if not 1 <= dim <= 12:
        raise ContractViolation(f"need 1 <= dim <= 12, got dim={dim}")
    basis = [{mask: 1} for mask in range(1 << dim)]
    units = [{1 << i: 1} for i in range(dim)]
    star = _signed_table(dim, [[kernel.star_terms(b, dim) for b in basis]])
    eps = _signed_table(dim, ([kernel.wedge_terms(e, b) for b in basis] for e in units))
    iota = _signed_table(dim, ([kernel.interior_terms(e, b) for b in basis] for e in units))
    return star, eps, iota


def _scaled(image: Image, factor) -> Image:
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


class BasisResult(ValueEq):
    """One identity at one (dim, degree), checked on `cases` cases: basis
    forms times basis indices, or seeded samples.  `first` describes the
    first case that breaks the law."""

    __slots__ = ("name", "cases", "violations", "first")

    def __init__(self, name: str, cases: int, violations: int, first: str | None = None):
        self.name, self.cases, self.violations, self.first = name, cases, violations, first

    @property
    def passed(self) -> bool:
        return not self.violations


def _law_failures(tables, n: int, masks: np.ndarray, p: np.ndarray) -> list[np.ndarray]:
    """The six laws on the basis forms `masks` of degrees `p`: per law, in
    IDENTITY_NAMES order, a (form, case) array marking the cases that break
    it.  The cases are none (identity 1), each 0-based index i (identities
    2-4 and 6), or each pair (i, j) row-major with i == j never marked
    (identity 5)."""
    star, eps, iota = tables
    m = len(masks)
    xi = (masks[:, None], np.ones((m, 1), np.int8), np.zeros((m, 1), bool))
    p = p[:, None]
    i = np.arange(n)

    star_xi = star(xi)
    iota_xi = iota(xi, i)
    eps_star_xi = eps(star_xi, i)
    laws = [
        _equal(star(star_xi), _scaled(xi, _sign(p * (n - p)))),
        _equal(star(eps(xi, i)), _scaled(iota(star_xi, i), _sign(p))),
        _equal(eps_star_xi, _scaled(star(iota_xi), _sign(p - 1))),
        _equal(star(eps_star_xi), _scaled(iota_xi, _sign((p - 1) * (n - p)))),
    ]

    # i(e_i) eps(e^j) + eps(e^j) i(e_i) = delta_ij id, on axes (xi, i, j)
    xi3 = tuple(a[:, :, None] for a in xi)
    ii, jj = i[:, None], i[None, :]
    diag = ii == jj
    want = (np.where(diag, xi3[0], 1 << n), diag * xi3[1], xi3[2])
    law = _sum_equal(iota(eps(xi3, jj), ii), eps(iota(xi3, ii), jj), want)
    return [~h for h in laws] + [~(law | diag).reshape(m, n * n),
                                 ~np.diagonal(law, axis1=1, axis2=2)]


def _basis_result(name: str, cases: int, violations: int, mask: int,
                  idx: tuple[int, ...]) -> BasisResult:
    """A law broken in `violations` of its `cases` at one degree, first at
    the basis form `mask` and the 0-based indices `idx` (none, i, or i, j)."""
    first = ", ".join(
        [f"xi=theta{_indices(mask)}"]
        + [f"{label}={k + 1}" for label, k in zip("ij", idx)])
    return BasisResult(name, cases, violations, first)


# The most (basis form, i, j) cases one chunk of the check holds: dims 4
# and 8 (15 and 255 basis forms) each run as one chunk.
_CHUNK_ENTRIES = 1 << 14


def check_operator_identities(dim: int, degrees) -> dict[int, list[BasisResult]]:
    """All six identities on every basis form of each of `degrees` in
    dimension `dim`, at every basis index i (identities 2-4 and 6) and every
    pair i != j (identity 5): {degree: results in IDENTITY_NAMES order}, by
    ascending degree.

    One pass walks the basis forms of all the degrees, ordered by (degree,
    `combinations` order), in chunks of at most _CHUNK_ENTRIES cases of
    identity 5.  Failures are counted per degree by one reduction and
    reported with the first basis form and index of that degree that break
    the law, never raised.
    """
    degrees = sorted(set(degrees))
    for p in degrees:
        _check_domain(dim, p)
    n = dim
    tables = operator_tables(n)
    sizes = [math.comb(n, p) for p in degrees]
    bits = [1 << k for k in range(n)]
    masks = [sum(combo) for p in degrees for combo in combinations(bits, p)]
    forms = np.array(masks, np.int16)
    degree = np.repeat(degrees, sizes)
    starts = np.cumsum([0] + sizes[:-1])

    # per law and basis form: how many cases fail, and the first that does
    fails = np.zeros((6, len(masks)), np.int64)
    first = np.zeros_like(fails)
    step = _CHUNK_ENTRIES // n ** 2
    for start in range(0, len(masks), step):
        part = slice(start, start + step)
        marked = _law_failures(tables, n, forms[part], degree[part])
        fails[:, part] = [f.sum(1) for f in marked]
        first[:, part] = [f.argmax(1) for f in marked]
    per_degree = np.add.reduceat(fails, starts, axis=1).T.tolist()

    cases = (1, n, n, n, n * (n - 1), n)
    results = {}
    for p, start, size, violations in zip(degrees, starts.tolist(), sizes, per_degree):
        results[p] = row = []
        for law, (name, count, bad) in enumerate(zip(IDENTITY_NAMES, cases, violations)):
            if not bad:
                row.append(BasisResult(name, size * count, 0))
                continue
            x = start + int(np.flatnonzero(fails[law, start:start + size])[0])
            k = int(first[law, x])
            idx = () if law == 0 else divmod(k, n) if law == 4 else (k,)
            row.append(_basis_result(name, size * count, bad, masks[x], idx))
    return results
