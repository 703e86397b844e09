"""Horosphere geometry of the solvable model: second fundamental form,
intrinsic curvature of the nilpotent level sets, the Gauss equation in
all its branches, and the radial-Hessian equality-case certification.

A level set carries the two-step nilpotent algebra z + v with the
induced metric of block weights (s^-2 on z, s^-1 on v) at scale
s = e^{-2t}; rational scales with rational square root (s = 1, 1/4)
keep every check exact.  Its tables, the shape operator among them, are
`forms.ExactArray`s (int64 numerators over one denominator) over local
0-based axes, index i standing for the ambient e_{i+2}, the curvature
bar R among them in the convention of `model`; the Gauss equation, the
curvature sums (`model.sectional`), the weighted displays and the Busemann
cross-check are reductions and elementwise comparisons of those arrays.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .forms import ContractViolation, ExactArray, contract
from .model import (
    ModelConstructionError,
    StructureConstants,
    curvature_table,
    jacobi_violations,
    levi_civita_table,
    sectional,
)
from .quaternionic import busemann_hessian
from .report import Check, check_eq, check_true
from .riccati import rational_sqrt


class LevelSetGeometry:
    """Intrinsic data of the level set at scale s = e^{-2t} over local axes,
    0-based index i the ambient e_{i+2}: the curvature table bar R[i, j, k, l]
    and `second_fundamental`, the shape-operator eigenvalues."""

    __slots__ = ("n", "scale", "second_fundamental", "curvature")

    def __init__(self, n: int, scale: Fraction, second_fundamental: ExactArray,
                 curvature: ExactArray):
        self.n, self.scale = n, scale
        self.second_fundamental, self.curvature = second_fundamental, curvature


def _nilpotent_brackets(sc: StructureConstants, scale: Fraction) -> ExactArray:
    """Structure constants of z + v in the orthonormal frame of the
    rescaled metric: u_p = s f_p on z, u_a = sqrt(s) f_a on v, so
    C[a, b, d] = C^model[a, b, d] w_a w_b / w_d with w = (s, s, s, sqrt(s), ...)
    on the nonzero model entries."""
    if scale <= 0:
        raise ContractViolation(f"scale must be positive, got {scale}")
    root = rational_sqrt(scale)
    if root is None:
        raise ContractViolation(
            f"scale must have a rational square root, got {scale}")
    w = [scale] * 3 + [root] * (4 * sc.n - 4)
    C = sc.table[1:, 1:, 1:]
    return ExactArray.from_entries(C.num.shape, {
        (a, b, d): v * w[a] * w[b] / w[d] for (a, b, d), v in C.items()})


def second_fundamental_form(sc: StructureConstants) -> tuple[ExactArray, int]:
    """(h matrix over local axes, off-diagonal violations) with
    h_ab = <nabla_{e_a} e_b, e_1> from the ambient connection."""
    h = sc.connection[1:, 1:, 0]
    off = np.count_nonzero(h.num) - np.count_nonzero(np.diagonal(h.num))
    return h, int(off)


def level_set_geometry(sc: StructureConstants, scale: Fraction) -> LevelSetGeometry:
    """Intrinsic curvature of the level set at scale s by the Koszul
    formula on the rescaled nilpotent algebra, plus the shape operator."""
    scale = Fraction(scale)
    C = _nilpotent_brackets(sc, scale)
    if jacobi_violations(C) != 0:
        raise ModelConstructionError("nilpotent bracket table violates Jacobi")
    bar = curvature_table(C, levi_civita_table(C))
    h, off = second_fundamental_form(sc)
    if off:
        raise ModelConstructionError("ambient shape operator is not diagonal")
    return LevelSetGeometry(sc.n, scale, contract("ii->i", h), bar)


def verify_second_fundamental(lsg: LevelSetGeometry) -> list[Check]:
    """Shape operator diag(2, 2, 2, 1, ..., 1)."""
    h = lsg.second_fundamental
    expected = ExactArray.of([2] * 3 + [1] * (4 * lsg.n - 4))
    return [check_true("second fundamental form = diag(2,2,2,1,...,1)",
                       not h.ne(expected).any(),
                       detail=",".join(str(x) for x in h[:6].fractions()))]


def verify_gauss_equation(R: ExactArray, lsg: LevelSetGeometry) -> list[Check]:
    """All branches of the Gauss equation
    R_ijkl = bar R_ijkl + h_li h_kj - h_ki h_lj over 2 <= i,j,k,l <= 4n."""
    m = 4 * lsg.n - 1
    h = lsg.second_fundamental
    i, j, k, l = np.ogrid[:m, :m, :m, :m]  # local: ambient index - 2
    pairing = ((l == i) & (k == j)).astype(np.int64) - ((k == i) & (l == j))
    want = lsg.curvature + contract("i,j,ijkl->ijkl", h, h, ExactArray(pairing))
    bad = R[1:, 1:, 1:, 1:].ne(want)

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
        checks.append(Check(f"gauss equation at scale {lsg.scale} [{name}]",
                            f"0 of {total}", f"{count} of {total}", count == 0))
    return checks


def verify_level_set_sums(lsg: LevelSetGeometry) -> list[Check]:
    """The horosphere curvature sums {0, 4, -9, 0} and the individual
    K^N(z, v) = 1 values."""
    n = lsg.n
    # local axes: z at 0..2, line s of v at 4s-5..4s-2
    K = sectional(lsg.curvature)
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


def verify_weighted_displays(R: ExactArray, base: LevelSetGeometry,
                             scale: Fraction) -> list[Check]:
    """The scale-weighted component displays: z-block entries carry
    e^{-4t} = s^2 on bar R, the mixed z-z-v-v families carry e^{-2t} = s
    plus the -2(s-1) shifts."""
    if base.scale != 1:
        raise ContractViolation("weighted displays are stated against the scale-1 level set")
    n = base.n
    bar = base.curvature
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


def radial_hessian_check(sc: StructureConstants) -> list[Check]:
    """The level-set shape operator reproduces the Busemann equality-case
    Hessian (orientation: the Hessian is minus the shape operator on the
    level-set block), and its block traces are the r -> infinity barrier
    limits 6, 4, and 4n+2 in total."""
    n = sc.n
    h, off = second_fundamental_form(sc)
    checks = [check_eq("shape operator off-diagonal vanishes", 0, off)]

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
