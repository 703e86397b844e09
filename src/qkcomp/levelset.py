"""Horosphere geometry of the solvable model: second fundamental form,
intrinsic curvature of the nilpotent level sets, the Gauss equation in
all its branches, and the radial-Hessian equality-case certification.

A level set of the model with bracket table C carries the two-step
nilpotent algebra z + v of C with the induced metric of block weights
(s^-2 on z, s^-1 on v) at scale s = e^{-2t}; rational scales with
rational square root (s = 1, 1/4) keep every check exact.  A level set
is its curvature table bar R = `level_set_geometry(C, s)`, the
`model.curvature` of its bracket table, in the convention of `model`.
The shape operator h = `second_fundamental_form(C)` does not depend on
the scale: it is read once per model, as a matrix, off
`levi_civita_table(C)`.  Both are `forms.ExactArray`s (int64 numerators
over one denominator) over local 0-based axes, index i standing for the
ambient e_{i+2}, and every verifier reads n off the table it checks; the
Gauss equation, the curvature sums (`model.sectional`), the weighted
displays and the Busemann cross-check are reductions and elementwise
comparisons of those arrays.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .forms import ContractViolation, ExactArray, contract
from .model import (ModelConstructionError, curvature, jacobi_violations,
                    levi_civita_table, sectional)
from .quaternionic import busemann_hessian
from .report import Check, check_eq, check_true
from .riccati import rational_sqrt


def _nilpotent_brackets(C: ExactArray, scale: Fraction) -> ExactArray:
    """Structure constants of z + v in the orthonormal frame of the
    rescaled metric: u_p = s f_p on z, u_a = sqrt(s) f_a on v, so
    C[a, b, d] = C^model[a, b, d] w_a w_b / w_d with w = (s, s, s, sqrt(s), ...)
    on the nonzero entries of the model table C."""
    if scale <= 0:
        raise ContractViolation(f"scale must be positive, got {scale}")
    root = rational_sqrt(scale)
    if root is None:
        raise ContractViolation(
            f"scale must have a rational square root, got {scale}")
    w = [scale] * 3 + [root] * (len(C.num) - 4)
    z_v = C[1:, 1:, 1:]
    return ExactArray.from_entries(z_v.num.shape, {
        (a, b, d): v * w[a] * w[b] / w[d] for (a, b, d), v in z_v.items()})


def second_fundamental_form(C: ExactArray) -> ExactArray:
    """The shape-operator matrix h over local axes,
    h_ab = <nabla_{e_a} e_b, e_1> from the connection of the model table C."""
    return levi_civita_table(C)[1:, 1:, 0]


def level_set_geometry(C: ExactArray, scale: Fraction) -> ExactArray:
    """The curvature table bar R[i, j, k, l] of the level set at scale s: the
    Koszul formula on the rescaled nilpotent algebra of C."""
    N = _nilpotent_brackets(C, Fraction(scale))
    if jacobi_violations(N) != 0:
        raise ModelConstructionError("nilpotent bracket table violates Jacobi")
    return curvature(N)


def verify_second_fundamental(h: ExactArray) -> list[Check]:
    """Shape operator diag(2, 2, 2, 1, ..., 1)."""
    diag = [2] * 3 + [1] * (len(h.num) - 3)
    return [check_true("second fundamental form = diag(2,2,2,1,...,1)",
                       not h.ne(ExactArray.of(np.diag(diag))).any(),
                       detail=",".join(str(x) for x in contract("ii->i", h)[:6].fractions()))]


def verify_gauss_equation(R: ExactArray, h: ExactArray, bar: ExactArray,
                          scale: Fraction) -> list[Check]:
    """All branches of the Gauss equation
    R_ijkl = bar R_ijkl + h_li h_kj - h_ki h_lj over 2 <= i,j,k,l <= 4n,
    bar R the level set's curvature at scale s and h the shape operator."""
    m = len(bar.num)
    want = bar + contract("li,kj->ijkl", h, h) - contract("ki,lj->ijkl", h, h)
    bad = R[1:, 1:, 1:, 1:].ne(want)
    i, j, k, l = np.ogrid[:m, :m, :m, :m]  # local: ambient index - 2

    z, v = (lambda x: x < 3), (lambda x: x >= 3)
    # the branches are disjoint; "plain" is every other slot
    branches = {
        "v-block": v(i) & v(j) & v(k) & v(l),
        "z-block": z(i) & z(j) & z(k) & z(l),
        "mixed +2 (i=l in z)": (i == l) & z(i) & (k == j) & v(k),
        "mixed +2 (k=j in z)": (k == j) & z(k) & (i == l) & v(i),
        "mixed -2 (i=k in z)": (i == k) & z(i) & (j == l) & v(j),
        "mixed -2 (j=l in z)": (j == l) & z(j) & (i == k) & v(i),
    }
    branches["plain"] = ~np.logical_or.reduce(list(branches.values()))

    checks = []
    for name, mask in branches.items():
        total = int(np.count_nonzero(mask))
        count = int(np.count_nonzero(mask & bad))
        checks.append(Check(f"gauss equation at scale {scale} [{name}]",
                            f"0 of {total}", f"{count} of {total}", count == 0))
    return checks


def verify_level_set_sums(bar: ExactArray) -> list[Check]:
    """The horosphere curvature sums {0, 4, -9, 0} and the individual
    K^N(z, v) = 1 values of the level-set curvature bar R."""
    n = (len(bar.num) + 1) // 4
    # local axes: z at 0..2, line s of v at 4s-5..4s-2
    K = sectional(bar)
    zv = K[:3, 3:]
    vv = K[3:, 3:].reshape(n - 1, 4, n - 1, 4)  # [line s, entry i, line r, entry j]

    def bad(values: ExactArray, want: int, where=True) -> int:
        return int(np.count_nonzero(where & values.ne(want)))

    lines = ~np.eye(n - 1, dtype=bool)
    return [
        check_eq("K^N vanishes on the center planes", 0,
                 bad(K[:3, :3], 0, np.triu(np.ones((3, 3), dtype=bool), 1))),
        check_eq("sum_i K^N(e_p, e_{4s-i}) = 4", 0,
                 bad(contract("psj->ps", zv.reshape(3, n - 1, 4)), 4)),
        check_eq("sum_i K^N(e_{4s}, e_{4s-i}) = -9", 0,
                 bad(contract("sj->s", contract("sisj->sij", vv)[:, 3, :3]), -9)),
        check_eq("sum_i K^N(e_{4s}, e_{4r-i}) = 0 across lines", 0,
                 bad(contract("srj->sr", vv[:, 3]), 0, lines)),
        check_eq("K^N(center, transversal) = 1", 0, bad(zv, 1)),
    ]


def verify_weighted_displays(R: ExactArray, bar: ExactArray,
                             scale: Fraction) -> list[Check]:
    """The scale-weighted component displays against bar R, the curvature of
    the scale-1 level set: z-block entries carry e^{-4t} = s^2 on bar R,
    the mixed z-z-v-v families carry e^{-2t} = s plus the -2(s-1) shifts."""
    n = (len(bar.num) + 1) // 4
    s2 = scale * scale
    checks = []

    p, q, r, o = np.ogrid[:3, :3, :3, :3]
    delta = -4 * (((r == p) & (o == q)).astype(np.int64) - ((r == q) & (o == p)))
    zblock = R[1:4, 1:4, 1:4, 1:4].ne(bar[:3, :3, :3, :3] * s2 + ExactArray(delta))
    checks.append(check_eq(
        f"z-block display with s^2 = {s2} weighting", 0, int(np.count_nonzero(zblock))))

    # listed[p, q, al, be] = +-1 on the displayed families, which carry the
    # shift -2(s-1); their index-swapped partners are not displayed
    mv = 4 * n - 4
    listed = np.zeros((3, 3, mv, mv), dtype=np.int64)
    for line in range(2, n + 1):
        a4, b4, c4, d4 = (4 * line - 8 + k for k in range(4))  # local to v
        listed[0, 1, d4, a4] = listed[0, 1, c4, b4] = 1
        listed[0, 2, d4, b4] = 1
        listed[0, 2, c4, a4] = -1
        listed[1, 2, d4, c4] = listed[1, 2, b4, a4] = 1
    shown = listed != 0
    partners = (shown | shown.transpose(1, 0, 3, 2) | shown.transpose(0, 1, 3, 2)
                | shown.transpose(1, 0, 2, 3))
    p, q = np.ogrid[:3, :3]
    checked = (p != q)[:, :, None, None] & (shown | ~partners)
    want = bar[:3, :3, 3:, 3:] * scale + ExactArray(listed) * (-2 * (scale - 1))
    mixed = checked & R[1:4, 1:4, 4:, 4:].ne(want)
    checks.append(check_eq(
        f"mixed z-z-v-v display with s = {scale} weighting", 0,
        int(np.count_nonzero(mixed))))
    return checks


def radial_hessian_check(h: ExactArray) -> list[Check]:
    """The level-set shape operator h reproduces the Busemann equality-case
    Hessian (orientation: the Hessian is minus the shape operator on the
    level-set block), and its block traces are the r -> infinity barrier
    limits 6, 4, and 4n+2 in total."""
    n = (len(h.num) + 1) // 4
    off = np.count_nonzero(h.num) - np.count_nonzero(np.diagonal(h.num))
    checks = [check_eq("shape operator off-diagonal vanishes", 0, int(off))]

    beta = busemann_hessian(n).table
    radial = (beta.num[0] != 0) | (beta.num[:, 0] != 0)
    checks.append(check_eq("shape operator = -(Busemann Hessian restriction)",
                           0, int(np.count_nonzero(h.ne(-beta[1:, 1:])))))
    checks.append(check_eq("Busemann Hessian radial row and column vanish",
                           0, int(np.count_nonzero(radial))))

    diag = contract("ii->i", h)
    blocks = contract("sk->s", diag[3:].reshape(n - 1, 4))
    checks.append(check_eq("total shape trace = 4n+2 (area growth exponent)",
                           Fraction(4 * n + 2), contract("i->", diag).fraction()))
    checks.append(check_eq("line-block trace = 6 (limit of 6 coth 2r)",
                           Fraction(6), contract("i->", diag[:3]).fraction()))
    for s in range(2, n + 1):
        checks.append(check_eq(
            f"transversal block {s} trace = 4 (limit of 4 coth r)",
            Fraction(4), blocks.fraction(s - 2)))
    return checks
