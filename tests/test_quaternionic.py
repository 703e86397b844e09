"""Quaternionic frame algebra, the fundamental 4-form, harmonicity
defects, the star-commutation identity, and the refined Kato chain.

`reference_actions` keeps the per-line target/sign tables of I, J, K the
frame's integer matrices are tested against; `naive_omega` builds the
fundamental forms from them.  `ReferenceHessian` keeps the nested-`Fraction`
Hessians the `ExactArray` tables of `HessianMatrix` are tested against, and
`reference_defect` and `reference_star_sides` the Form-by-Form operator sums
the cached integer maps of the defect form and the star commutation are
tested against; `reference_form_map` keeps the Form-built constructor the
term-table maps are tested against field by field, and `reference_chain_map`
the per-term loop, with its scalar sign rule `reference_sign`, that the
index arithmetic of `_chain_map` replaced.  `reference_kato_scan`
keeps the full-matrix Kato scan the packed-triangle scan is tested against,
`int64_kato_scan` the scan on int64 rows that the int16 rows replaced, and
`traceless_batch` and `quaternionic_harmonic_batch` the two sampled
streams that the one projection `_constrained_batch` replaced.
`random_quaternionic_harmonic` draws the Kato scan's stream one exact
Hessian at a time."""

import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from qkcomp import forms, quaternionic
from qkcomp.cli import main
from qkcomp.forms import (ContractViolation, ExactArray, Form, Int64RangeError, contract,
                          ext_mult, form_inner, interior, two_form, wedge)
from qkcomp.identities import random_form, random_vector
from qkcomp.kernel import accumulate_scaled
from qkcomp.quaternionic import (
    HessianMatrix,
    busemann_hessian,
    equality_case_hessian,
    fundamental_forms,
    kato_gap_scan,
    line_indices,
    quaternionic_actions,
    random_traceless_hessian,
    refined_kato_gap,
    siu_corlette_defect,
    star_commutation_failures,
    star_commutation_sides,
    verify_star_commutation,
)
from qkcomp.suite import defect_checks, model_battery, star_commutation_check


# -- independent oracle: naive wedge expansion over sorted tuples ----------

def naive_wedge_terms(a: dict, b: dict) -> dict:
    """Reference wedge on {sorted index tuple: coeff} maps, with the sign
    found by explicit bubble sorting (no bitmask tricks)."""
    out = {}
    for ia, ca in a.items():
        for ib, cb in b.items():
            merged = list(ia + ib)
            if len(set(merged)) != len(merged):
                continue
            sign = 1
            for i in range(len(merged)):
                for j in range(len(merged) - 1 - i):
                    if merged[j] > merged[j + 1]:
                        merged[j], merged[j + 1] = merged[j + 1], merged[j]
                        sign = -sign
            key = tuple(merged)
            out[key] = out.get(key, F(0)) + sign * ca * cb
    return {k: v for k, v in out.items() if v}


def reference_actions(n: int) -> list:
    """(targets, signs) of I, J, K on R^{4n}: A e_i = signs[i-1] e_{targets[i-1]}
    (1-based), tabulated line by line on (a, b, c, d) = (e, Ie, Je, Ke)."""
    m = 4 * n
    tables = [([0] * m, [0] * m) for _ in range(3)]
    for s in range(1, n + 1):
        a, b, c, d = range(4 * s - 3, 4 * s + 1)
        images = (((b, 1), (a, -1), (d, 1), (c, -1)),  # I
                  ((c, 1), (d, -1), (a, -1), (b, 1)),  # J
                  ((d, 1), (c, 1), (b, -1), (a, -1)))  # K
        for (targets, signs), row in zip(tables, images):
            for idx, (t, sg) in zip((a, b, c, d), row):
                targets[idx - 1], signs[idx - 1] = t, sg
    return tables


def naive_omega(n: int) -> tuple[list, dict]:
    """omega_1 = sum over line bases i of theta^i ^ I theta^i + J theta^i ^ K theta^i,
    its cyclic companions and Omega = sum_a omega_a ^ omega_a, from the
    reference tables: ([omega_1, omega_2, omega_3], Omega) as term maps."""
    acts = reference_actions(n)

    def apply(p, i):
        targets, signs = acts[p]
        return targets[i - 1], signs[i - 1]

    omegas = []
    for first, pair in ((0, (1, 2)), (1, (2, 0)), (2, (0, 1))):
        terms: dict = {}
        for i in range(1, 4 * n + 1, 4):
            t1, s1 = apply(first, i)
            key = tuple(sorted((i, t1)))
            terms[key] = terms.get(key, F(0)) + s1 * (1 if i < t1 else -1)
            a, sa = apply(pair[0], i)
            b, sb = apply(pair[1], i)
            key = tuple(sorted((a, b)))
            terms[key] = terms.get(key, F(0)) + sa * sb * (1 if a < b else -1)
        omegas.append({k: v for k, v in terms.items() if v})
    total: dict = {}
    for om in omegas:
        for k, v in naive_wedge_terms(om, om).items():
            total[k] = total.get(k, F(0)) + v
    return omegas, {k: v for k, v in total.items() if v}


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_frame_matrices_match_reference_tables(n):
    m = 4 * n
    actions = quaternionic_actions(n)
    for A, (targets, signs) in zip(actions, reference_actions(n)):
        want = np.zeros((m, m), dtype=np.int64)
        want[np.array(targets) - 1, np.arange(m)] = signs  # column i: A e_{i+1}
        assert A.num.dtype == np.int64 and A.den == 1
        assert (A.num == want).all()
        assert not A.num.flags.writeable
    assert quaternionic_actions(n) is actions


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_frame_algebra(n):
    one = np.eye(4 * n, dtype=np.int64)
    I, J, K = (A.num for A in quaternionic_actions(n))
    for A in (I, J, K):
        assert (A @ A == -one).all()
        assert (A.T @ A == one).all()
    assert (I @ J == K).all()
    assert (J @ K == I).all()
    assert (K @ I == J).all()
    assert (J @ I == -K).all()


@pytest.mark.parametrize("n", [1, 0, -3])
def test_actions_reject_n_below_2(n):
    with pytest.raises(ContractViolation, match=f"need n >= 2, got n={n}"):
        quaternionic_actions(n)


# every constructor that takes n, called as (n, rng)
N_CONSTRUCTORS = {
    "equality_case_hessian": lambda n, rng: equality_case_hessian(n, F(1)),
    "random_traceless_hessian": random_traceless_hessian,
    "busemann_hessian": lambda n, rng: busemann_hessian(n),
    "kato_gap_scan": lambda n, rng: kato_gap_scan(n, 10, 0),
}


@pytest.mark.parametrize("n", [1, 0, -3])
@pytest.mark.parametrize("name", sorted(N_CONSTRUCTORS))
def test_constructors_refuse_n_below_2_before_any_draw(name, n):
    # the refusal that frame_dim shares with quaternionic_actions, not
    # numpy's ValueError or the shape check of HessianMatrix, and the stream
    # is left where it was
    rng = random.Random(7)
    state = rng.getstate()
    with pytest.raises(ContractViolation, match=f"quaternionic frames need n >= 2, got n={n}"):
        N_CONSTRUCTORS[name](n, rng)
    assert rng.getstate() == state


def test_interleaved_quaternionic_line():
    I = quaternionic_actions(2)[0]
    assert I.num[:, 0].tolist() == [0, 1, 0, 0, 0, 0, 0, 0]  # I e1 = e2
    assert I.num[:, 1].tolist() == [-1, 0, 0, 0, 0, 0, 0, 0]  # I e2 = -e1


def test_actions_preserve_inner_product():
    rng = random.Random(0)
    m = 8

    def vector():
        v = random_vector(m, rng)
        return ExactArray.from_entries((m,), {i: v.coefficient((i + 1,)) for i in range(m)})

    def dot(v, w):
        return contract("i,i->", v, w).fraction()

    for A in quaternionic_actions(2):
        for _ in range(10):
            v, w = vector(), vector()
            assert dot(contract("ij,j->i", A, v), contract("ij,j->i", A, w)) == dot(v, w)


def test_omega_against_naive_expansion():
    for n in (2, 3, 4):
        *omegas, Omega = fundamental_forms(n)
        ref_omegas, ref_Omega = naive_omega(n)
        assert [om.terms() for om in omegas] == ref_omegas
        assert Omega.terms() == ref_Omega
        assert fundamental_forms(n)[0] is omegas[0]


def test_omega_top_coefficient_is_six():
    assert fundamental_forms(2)[3].coefficient(line_indices(1)) == 6
    # the independent naive expansion sees the same factor
    assert naive_omega(2)[1][line_indices(1)] == 6


def test_omega1_squared_coefficient():
    omega1 = fundamental_forms(2)[0]
    sq = wedge(omega1, omega1)
    assert sq.coefficient((1, 2, 5, 6)) == 2  # e1, I e1, e2, I e2


def test_omega_invariant_under_cyclic_relabeling():
    # the forms of (J, K, I) in place of (I, J, K), squared and summed in
    # that order
    I, J, K = quaternionic_actions(2)
    cyc = [two_form(8, contract("ij->ji", A)) for A in (J, K, I)]
    Omega = wedge(cyc[0], cyc[0]) + wedge(cyc[1], cyc[1]) + wedge(cyc[2], cyc[2])
    assert Omega == fundamental_forms(2)[3]


def test_fundamental_forms_are_degree2_and_orthogonal():
    n = 3
    omega1, omega2, omega3, _ = fundamental_forms(n)
    for om in (omega1, omega2, omega3):
        assert om.degree == 2
        assert form_inner(om, om) == 2 * n
    assert form_inner(omega1, omega2) == 0
    assert form_inner(omega2, omega3) == 0


# -- Hessians and the Siu-Corlette defect ----------------------------------

def table_of(rows) -> ExactArray:
    """The ExactArray of a square matrix given as nested rationals."""
    return ExactArray.from_entries((len(rows), len(rows)), {
        (i, j): x for i, row in enumerate(rows) for j, x in enumerate(row) if x})


def line_violation_hessian(n, line, amount=F(5)):
    m = 4 * n
    h = [[F(0)] * m for _ in range(m)]
    a, b, c, d = line_indices(line)
    h[a - 1][a - 1] = amount - 3
    h[b - 1][b - 1] = F(1)
    h[c - 1][c - 1] = F(1)
    h[d - 1][d - 1] = F(1)
    other = line_indices(1 if line != 1 else 2)[0]
    h[other - 1][other - 1] -= amount
    return HessianMatrix(table_of(h))


def quaternionic_defects(H: HessianMatrix) -> list[F]:
    """Per-line defect read off the Siu-Corlette form (coefficient / 6)."""
    form = siu_corlette_defect(H)
    return [form.coefficient(line_indices(s)) / 6 for s in range(1, H.n + 1)]


def test_defect_factor_six_per_line():
    for n in (2, 3):
        for line in range(1, n + 1):
            H = line_violation_hessian(n, line)
            form = siu_corlette_defect(H)
            assert form.coefficient(line_indices(line)) == 6 * H.line_sum(line)
            defects = quaternionic_defects(H)
            assert defects[line - 1] == H.line_sum(line)


def test_defect_zero_for_quaternionic_harmonic_lines():
    m = 4 * 2
    h = [[F(0)] * m for _ in range(m)]
    h[0][0], h[1][1], h[2][2], h[3][3] = F(3), F(-1), F(-1), F(-1)
    H = HessianMatrix(table_of(h))
    assert quaternionic_defects(H)[0] == 0


def test_defect_of_zero_hessian():
    assert siu_corlette_defect(HessianMatrix.zero(2)).is_zero()


def test_defect_requires_harmonic():
    h = [[F(0)] * 8 for _ in range(8)]
    h[0][0] = F(1)
    with pytest.raises(ContractViolation):
        siu_corlette_defect(HessianMatrix(table_of(h)))


def test_defect_linear_in_hessian():
    n = 2
    rng = random.Random(5)
    H1 = random_traceless_hessian(n, rng)
    H2 = random_traceless_hessian(n, rng)
    combo = HessianMatrix(3 * H1.table - 2 * H2.table)
    assert siu_corlette_defect(combo) == \
        3 * siu_corlette_defect(H1) + (-2) * siu_corlette_defect(H2)


def test_star_commutation_random_and_zero():
    n = 2
    rng = random.Random(6)
    for _ in range(15):
        assert verify_star_commutation(random_traceless_hessian(n, rng))
    lhs, rhs = star_commutation_sides(HessianMatrix.zero(n))
    assert lhs.is_zero() and rhs.is_zero()


def test_star_commutation_n3_samples():
    rng = random.Random(7)
    for _ in range(5):
        assert verify_star_commutation(random_traceless_hessian(3, rng))


def test_star_commutation_sides_nontrivial():
    rng = random.Random(8)
    lhs, rhs = star_commutation_sides(random_traceless_hessian(2, rng))
    assert not lhs.is_zero()
    assert lhs == rhs


@pytest.mark.parametrize("n", [2, 3])
def test_star_commutation_sides_are_4_forms_and_rhs_is_minus_defect(n):
    rng = random.Random(80 + n)
    for _ in range(5):
        H = random_traceless_hessian(n, rng)
        lhs, rhs = star_commutation_sides(H)
        assert lhs.degree == rhs.degree == 4
        assert rhs == -siu_corlette_defect(H)


# -- differential: the cached integer maps against the Form-by-Form sums ----

def reference_defect(H):
    """sum_a (sum_b f_ab theta^b) ^ (e_a -| Omega), one row form at a time."""
    m = H.dim
    Omega = fundamental_forms(H.n)[3]
    den = H.table.den
    out = Form.zero(m, 4)
    for a, row in enumerate(H.table.num.tolist(), start=1):
        row_form = Form(m, 1, {1 << b: c for b, c in enumerate(row) if c}, den)
        if row_form.is_zero():
            continue
        out = out + wedge(row_form, interior(Form.basis(m, (a,)), Omega))
    return out


def reference_operator_forms(n, omega=None):
    """The m x m grids ell(e_i) eps(theta_j) omega and eps(theta_i) ell(e_j)
    omega, omega = Omega by default."""
    omega = fundamental_forms(n)[3] if omega is None else omega
    m = 4 * n
    thetas = [Form.basis(m, (i,)) for i in range(1, m + 1)]
    eps_then = [ext_mult(thetas[j], omega) for j in range(m)]
    ell_then = [interior(thetas[j], omega) for j in range(m)]
    left = [[interior(thetas[i], eps_then[j]) for j in range(m)] for i in range(m)]
    right = [[ext_mult(thetas[i], ell_then[j]) for j in range(m)] for i in range(m)]
    den = math.lcm(*(f.den for ops in (left, right) for row in ops for f in row))
    return left, right, den


def reference_star_sides(H, operator_forms):
    """Both star-commutation sides as term maps, accumulated over the grids
    of `reference_operator_forms` with the signs p = 4 gives."""
    m = H.dim
    p = 4
    left_ops, right_ops, op_den = operator_forms
    sign_left = -1 if (p * (m - p - 1)) % 2 else 1
    sign_right = -1 if ((p - 1) * (m - p)) % 2 else 1
    sign_eq = -1 if (m - 1) % 2 else 1
    lhs_terms, rhs_terms = {}, {}
    for i, row in enumerate(H.table.num.tolist()):
        for j, c in enumerate(row):
            if not c:
                continue
            left, right = left_ops[i][j], right_ops[i][j]
            accumulate_scaled(lhs_terms, left._terms, c * sign_left * (op_den // left.den))
            accumulate_scaled(rhs_terms, right._terms,
                              c * sign_right * sign_eq * (op_den // right.den))
    den = H.table.den * op_den
    return Form(m, 4, lhs_terms, den), Form(m, 4, rhs_terms, den)


def assert_maps_match_reference(H, operator_forms):
    defect = siu_corlette_defect(H)
    lhs, rhs = star_commutation_sides(H)
    assert defect == reference_defect(H)
    assert (lhs, rhs) == reference_star_sides(H, operator_forms)
    assert defect.degree == lhs.degree == rhs.degree == 4


# criterion 2's seeded streams: the defect checks' two Hessians and the
# star commutation samples
@pytest.mark.parametrize("n, seed, count", [(2, 1502, 2), (2, 2222, 200),
                                            (3, 1503, 2), (3, 2333, 50)])
def test_four_form_maps_match_reference_on_criterion_2_streams(n, seed, count):
    ops = reference_operator_forms(n)
    rng = random.Random(seed)
    for _ in range(count):
        assert_maps_match_reference(random_traceless_hessian(n, rng), ops)


@pytest.mark.parametrize("n", [2, 3])
def test_four_form_maps_match_reference_on_line_violations(n):
    ops = reference_operator_forms(n)
    for line in range(1, n + 1):
        for amount in (F(5), F(-7, 3)):
            assert_maps_match_reference(line_violation_hessian(n, line, amount), ops)
    assert_maps_match_reference(HessianMatrix.zero(n), ops)


def test_four_form_maps_raise_rather_than_wrap():
    # the trace fits in int64 at 2^58, a 4-form coefficient may not
    one = HessianMatrix(ExactArray.of(np.diag([1, -1] * 4)))
    big = HessianMatrix(ExactArray.of(np.diag([1 << 58, -(1 << 58)] * 4)))
    assert big.is_harmonic()
    with pytest.raises(Int64RangeError, match="Hessian 4-form map"):
        siu_corlette_defect(big)
    with pytest.raises(Int64RangeError, match="Hessian 4-form map"):
        verify_star_commutation(big)
    # at 2^55 every coefficient still fits, and scales exactly
    H = HessianMatrix(ExactArray.of(np.diag([1 << 55, -(1 << 55)] * 4)))
    assert siu_corlette_defect(H) == (1 << 55) * siu_corlette_defect(one)
    lhs, rhs = star_commutation_sides(H)
    assert lhs == rhs == (1 << 55) * star_commutation_sides(one)[0]


def test_chain_maps_refuse_masks_past_int64():
    # a monomial mask of R^m is an int64 bit set: R^64 (n = 16) has no
    # room for one, and the refusal comes before any table is built
    with pytest.raises(Int64RangeError, match="monomial mask"):
        quaternionic.derivation_maps(16)
    # R^60 still builds; uncached, so the 19 MB of maps are not kept
    maps = quaternionic.derivation_maps.__wrapped__(15)
    assert max(maps[3].masks) >= 1 << 59


# -- the term-table map builder against the Form-built constructor ---------

def reference_form_map(grid, degree):
    """The map h -> sum h_ij grid[i][j], accumulated from the grid's Form
    terms: the Form-built constructor that `_chain_map` replaced, kept as
    its oracle."""
    m = len(grid)
    entries = sorted((k, i * m + j, c, grid[i][j].den) for i in range(m) for j in range(m)
                     for k, c in grid[i][j]._terms.items())
    keys, flat, nums, dens = zip(*entries)
    den = math.lcm(*dens)
    masks = sorted(set(keys))
    starts = np.searchsorted(keys, masks)
    num = np.array([c * (den // d) for c, d in zip(nums, dens)], dtype=np.int64)
    weight = np.add.reduceat(np.abs(num), starts)
    return quaternionic._FormMap(tuple(masks), starts, np.array(flat), num, den,
                                 int(weight.max()), degree)


def assert_same_map(f, g):
    assert (f.masks, f.den, f.weight, f.degree) == (g.masks, g.den, g.weight, g.degree)
    for a, b in ((f.starts, g.starts), (f.ij, g.ij), (f.num, g.num)):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_chain_maps_match_the_form_built_oracle(n):
    # both chains on Omega, and the derivation maps of omega_a and Omega,
    # field by field; the right chain on Omega is one shared map
    omegas = fundamental_forms(n)
    left, right = quaternionic._hessian_four_form_maps(n)
    maps = quaternionic.derivation_maps(n)
    assert right is maps[3]
    ref_left, ref_right, _ = reference_operator_forms(n)
    assert_same_map(left, reference_form_map(ref_left, 4))
    assert_same_map(right, reference_form_map(ref_right, 4))
    for f, omega in zip(maps, omegas):
        assert_same_map(f, reference_form_map(reference_operator_forms(n, omega)[1],
                                              omega.degree))


def chain_entry(f, m, i, j, monomial):
    """The coefficient on theta^monomial (0-based indices) of the chain map
    f at the Hessian h = E_ij."""
    h = np.zeros((1, m * m), dtype=np.int64)
    h[0, i * m + j] = 1
    out = dict(zip(f.masks, f.apply(h)[0].tolist()))
    return F(out.get(sum(1 << b for b in monomial), 0), f.den)


def test_one_entry_of_each_omega_chain_is_the_hand_computed_monomial():
    # on R^8 (0-based indices) omega_2 = theta^02 - theta^13 + theta^46
    # - theta^57, so Omega has coefficient 2 on theta^0246, from
    # theta^02 ^ theta^46 and theta^46 ^ theta^02, and no other monomial
    # of Omega reaches theta^0146 by trading 2 for 1.
    #   right chain at h = E_12: iota(e_2) theta^0246 = -theta^046 and
    #   theta^1 ^ theta^046 = -theta^0146, so +2;
    #   left chain at h = E_21: theta^1 ^ theta^0246 = -theta^01246 and
    #   iota(e_2) theta^01246 = +theta^0146, so -2.
    # The sign rule's at-or-below mutant negates both.
    n = 2
    Omega = fundamental_forms(n)[3]
    assert F(Omega._terms[0b1010101], Omega.den) == 2
    left, right = quaternionic._hessian_four_form_maps(n)
    assert chain_entry(right, 8, 1, 2, (0, 1, 4, 6)) == 2
    assert chain_entry(left, 8, 2, 1, (0, 1, 4, 6)) == -2


def reference_sign(mask, bit):
    """(-1)^(the bits of mask below bit): the sign of inserting bit into
    mask, theta^b ^ ., or of removing it, iota(e_b)."""
    return -1 if (mask & (bit - 1)).bit_count() & 1 else 1


def reference_chain_map(omega, m, inner_first):
    """`_chain_map` as a loop over omega's terms and both bits, summing
    into a dict keyed (output mask) m^2 + ij: the builder the index
    arithmetic replaced, kept as its oracle."""
    acc = {}
    mm = m * m
    bits = [1 << i for i in range(m)]
    for k, c in omega._terms.items():
        for j, bj in enumerate(bits):
            if bool(k & bj) == inner_first:
                mid, cj = k ^ bj, reference_sign(k, bj) * c
                for i, bi in enumerate(bits):
                    if bool(mid & bi) != inner_first:
                        key = (mid ^ bi) * mm + i * m + j
                        acc[key] = acc.get(key, 0) + reference_sign(mid, bi) * cj
    keys, nums = zip(*((key, c) for key, c in sorted(acc.items()) if c))
    keys = np.array(keys, dtype=np.int64)
    g = math.gcd(omega.den, *nums)
    entry_masks = keys // mm
    masks = sorted(set(entry_masks.tolist()))
    starts = np.searchsorted(entry_masks, masks)
    num = np.array(nums, dtype=np.int64) // g
    weight = np.add.reduceat(np.abs(num), starts)
    return quaternionic._FormMap(tuple(masks), starts, keys % mm, num, omega.den // g,
                                 int(weight.max()), omega.degree)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_chain_maps_match_the_loop_oracle(n):
    # both chains on omega_1, omega_2, omega_3 and Omega, field by field,
    # and the cached maps are those chains
    omegas = fundamental_forms(n)
    for omega in omegas:
        for inner_first in (True, False):
            assert_same_map(quaternionic._chain_map(omega, 4 * n, inner_first),
                            reference_chain_map(omega, 4 * n, inner_first))
    left, right = quaternionic._hessian_four_form_maps(n)
    assert_same_map(left, reference_chain_map(omegas[3], 4 * n, False))
    for f, omega in zip(quaternionic.derivation_maps(n), omegas):
        assert_same_map(f, reference_chain_map(omega, 4 * n, True))


def test_chain_maps_of_random_forms_match_the_loop_oracle():
    # seeded 1- to 7-forms on R^8 with rational coefficients: every degree
    # at which both chains are nonzero, each form over a den above 1
    rng = random.Random(36)
    for degree in range(1, 8):
        omega = random_form(8, degree, rng)
        assert omega.den > 1
        for inner_first in (True, False):
            assert_same_map(quaternionic._chain_map(omega, 8, inner_first),
                            reference_chain_map(omega, 8, inner_first))


def at_or_below(bits):
    """A mutant of `quaternionic._below`: counts the bits at or below each
    position instead of those below it."""
    return np.cumsum(bits, axis=-1)


@pytest.fixture
def cold_maps():
    """Empties the map caches before and after the test, so that maps built
    under a patched builder leave with the patch."""
    caches = (quaternionic.derivation_maps, quaternionic._hessian_four_form_maps)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


def test_sign_rule_mutant_negates_every_map(monkeypatch, cold_maps):
    # each chain removes exactly one bit, whose sign alone the mutant flips,
    # so it negates every map.  The star commutation and nabla_X Omega = 0
    # are homogeneous and stay true; the defect's top coefficient and
    # alpha = da + b ^ c carry a fixed sign and fail
    n = 2
    maps = quaternionic._hessian_four_form_maps(n) + quaternionic.derivation_maps(n)
    quaternionic.derivation_maps.cache_clear()
    quaternionic._hessian_four_form_maps.cache_clear()
    monkeypatch.setattr(quaternionic, "_below", at_or_below)
    mutants = quaternionic._hessian_four_form_maps(n) + quaternionic.derivation_maps(n)
    for f, g in zip(maps, mutants):
        assert_same_map(quaternionic._FormMap(f.masks, f.starts, f.ij, -f.num, f.den, f.weight,
                                              f.degree), g)
    checks = defect_checks(2, 1502) + [star_commutation_check(2, 200, 2222)] + model_battery(2)
    assert sorted(c.name for c in checks if not c.passed) == sorted(
        ["n=2 line 1: top coefficient = 6 x line sum",
         "n=2 line 2: top coefficient = 6 x line sum"]
        + [f"[n=2] {x} = d{y} + {z} matches the curvature {x}"
           for x, y, z in (("alpha", "a", "b ^ c"), ("beta", "b", "c ^ a"),
                           ("gamma", "c", "a ^ b"))])


@pytest.mark.parametrize("n, seed, samples", [(2, 2222, 200), (3, 2333, 50)])
def test_star_commutation_sees_the_sign_rule_mutant_in_one_chain(monkeypatch, n, seed,
                                                                 samples):
    # the mutant in the left chain alone makes it minus the true chain:
    # every sample fails, on both paths
    right = quaternionic.derivation_maps(n)[3]
    with monkeypatch.context() as patched:
        patched.setattr(quaternionic, "_below", at_or_below)
        left = quaternionic._chain_map(fundamental_forms(n)[3], 4 * n, False)
    monkeypatch.setattr(quaternionic, "_hessian_four_form_maps", lambda n: (left, right))
    assert failure_counts(n, seed, samples) == (samples, samples)


# -- the batched star commutation against the per-sample check -------------

def star_chunk(n):
    """The Hessians per chunk of star_commutation_failures: at most
    _SCAN_ENTRIES entries of either map."""
    left, right = quaternionic._hessian_four_form_maps(n)
    return max(1, quaternionic._SCAN_ENTRIES // max(len(left.num), len(right.num)))


def per_sample_failures(n, samples, rng):
    return sum(not verify_star_commutation(random_traceless_hessian(n, rng))
               for _ in range(samples))


def failure_counts(n, seed, samples):
    """(batched, per-sample) failure counts on one stream, after checking
    that both paths leave the stream at the same place."""
    rng, ref_rng = random.Random(seed), random.Random(seed)
    counts = (star_commutation_failures(n, samples, rng),
              per_sample_failures(n, samples, ref_rng))
    assert rng.getrandbits(64) == ref_rng.getrandbits(64)
    return counts


# criterion 2's streams at their sizes, and every n at 1, chunk - 1, chunk
# and chunk + 1 samples (58, 10 and 3 Hessians per chunk at n = 2, 3, 4)
@pytest.mark.parametrize("n, seed, sizes", [(2, 2222, (200,)), (3, 2333, (50,)),
                                            (4, 2444, ())])
def test_star_commutation_failures_match_the_per_sample_check(n, seed, sizes):
    chunk = star_chunk(n)
    for samples in sorted({1, chunk - 1, chunk, chunk + 1, *sizes} - {0}):
        assert failure_counts(n, seed, samples) == (0, 0)


@pytest.mark.parametrize("n, seed, samples", [(2, 2222, 200), (3, 2333, 50)])
def test_star_commutation_paths_see_the_same_mutant(monkeypatch, n, seed, samples):
    # one left-chain entry raised by 1: both paths must count the same
    # failing samples, and some must fail
    left, right = quaternionic._hessian_four_form_maps(n)
    num = left.num.copy()
    num[0] += 1
    mutant = quaternionic._FormMap(left.masks, left.starts, left.ij, num, left.den,
                                   left.weight + 1, left.degree)
    monkeypatch.setattr(quaternionic, "_hessian_four_form_maps",
                        lambda n: (mutant, right))
    batched, per_sample = failure_counts(n, seed, samples)
    assert batched == per_sample > 0


def random_symmetric(m, count, rng):
    """The draw of `_random_packed` as full matrices: int64 numerators of
    shape (count, m, m) and the denominators."""
    packed, q = quaternionic._random_packed(m, count, rng)
    return quaternionic._unpack(packed, m), q


def traceless_batch(m, count, rng):
    """The full-matrix trace-free stream the packed projection replaced:
    `count` random symmetric matrices h / q projected onto trace zero,
    (m h - tr(h) id) / (m q), as unreduced numerators of shape
    (count, m, m) and the denominators m q."""
    nums, q = random_symmetric(m, count, rng)
    trace = np.trace(nums, axis1=1, axis2=2)
    nums *= m
    nums[:, range(m), range(m)] -= trace[:, None]
    return nums, m * q


def quaternionic_harmonic_batch(n, count, rng):
    """The packed quaternionic-harmonic stream the group-4 projection
    replaced: each line's four diagonal slots lose their mean, h / (4 q),
    on int64 rows in new arrays."""
    packed, q = quaternionic._random_packed(4 * n, count, rng)
    packed = packed.astype(np.int64)
    diag = quaternionic._upper_triangle(4 * n)[2]
    lines = packed[:, diag].reshape(count, n, 4)
    h = 4 * packed
    h[:, diag] = (4 * lines - lines.sum(axis=2, keepdims=True)).reshape(count, 4 * n)
    return h, q


def random_quaternionic_harmonic(n, rng):
    """One Hessian of `kato_gap_scan`'s stream, in exact arithmetic: the
    group-4 projection of `_constrained_batch`, one draw at a time."""
    m = 4 * n
    h, q = quaternionic._constrained_batch(m, 4, 1, rng)
    return HessianMatrix(ExactArray.of(quaternionic._unpack(h[0], m), 4 * int(q[0])))


# criterion 2's streams at their sizes, and n = 4; the Kato streams at
# their seeds
@pytest.mark.parametrize("n, seed, count", [(2, 2222, 200), (3, 2333, 50), (4, 2444, 20),
                                            (2, 888, 300), (5, 0, 10)])
def test_constrained_batch_reproduces_the_old_streams(n, seed, count):
    m = 4 * n
    rng, ref_rng = random.Random(seed), random.Random(seed)
    h, q = quaternionic._constrained_batch(m, m, count, rng)
    ref_h, ref_d = traceless_batch(m, count, ref_rng)
    assert (quaternionic._unpack(h, m) == ref_h).all() and (m * q == ref_d).all()
    assert rng.getrandbits(64) == ref_rng.getrandbits(64)
    h, q = quaternionic._constrained_batch(m, 4, count, rng)
    ref_h, ref_q = quaternionic_harmonic_batch(n, count, ref_rng)
    assert (h == ref_h).all() and (q == ref_q).all()
    assert rng.getrandbits(64) == ref_rng.getrandbits(64)


@pytest.mark.parametrize("n, count", [(2, 200), (3, 50)])
def test_traceless_batch_is_the_per_sample_stream(n, count):
    rng, ref_rng = random.Random(2200 + n), random.Random(2200 + n)
    h, d = traceless_batch(4 * n, count, rng)
    assert h.shape == (count, 4 * n, 4 * n)
    for k in range(count):
        T = random_traceless_hessian(n, ref_rng).table
        reduced = ExactArray.of(h[k], int(d[k]))
        assert (reduced.num == T.num).all() and reduced.den == T.den


def star_guard_bound(samples, seed):
    """At n = 2 both maps have den 1 and weight 24, so no scaled side of
    the first chunk exceeds 24 times its largest unreduced numerator."""
    left, right = quaternionic._hessian_four_form_maps(2)
    assert (left.den, right.den, left.weight, right.weight) == (1, 1, 24, 24)
    assert samples <= star_chunk(2)
    nums, _ = random_symmetric(8, samples, random.Random(seed))
    trace = np.trace(nums, axis1=1, axis2=2)[:, None, None]
    return 24 * int(np.abs(8 * nums - trace * np.eye(8, dtype=np.int64)).max())


def test_star_commutation_failures_guard_their_int64_range(monkeypatch):
    bound = star_guard_bound(10, 2222)
    monkeypatch.setattr(forms, "INT_BOUND", bound)
    assert star_commutation_failures(2, 10, random.Random(2222)) == 0
    monkeypatch.setattr(forms, "INT_BOUND", bound - 1)
    with pytest.raises(Int64RangeError, match="Hessian 4-form map"):
        star_commutation_failures(2, 10, random.Random(2222))


def test_star_commutation_guard_survives_optimize():
    # -O strips assert statements; the range check must still raise
    code = (f"import qkcomp.forms as forms; forms.INT_BOUND = {star_guard_bound(10, 2222) - 1}; "
            "import random; from qkcomp.quaternionic import "
            "star_commutation_failures as f; f(2, 10, random.Random(2222))")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(forms.__file__).parent.parent) + os.pathsep + env.get(
        "PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert "Int64RangeError" in proc.stderr and "Hessian 4-form map" in proc.stderr


def test_star_commutation_requires_trace_free_rows(monkeypatch):
    def shifted(m, group, count, rng):
        h, q = constrained(m, group, count, rng)
        h[-1, 0] += 1  # packed slot 0 is the (0, 0) entry
        return h, q

    constrained = quaternionic._constrained_batch
    monkeypatch.setattr(quaternionic, "_constrained_batch", shifted)
    with pytest.raises(ContractViolation, match="trace-free"):
        star_commutation_failures(2, 5, random.Random(2222))


def test_harmonicity_draws_one_chunk_at_a_time(monkeypatch, capsys):
    counts = []

    def recording(m, count, rng):
        counts.append(count)
        return packed(m, count, rng)

    packed = quaternionic._random_packed
    monkeypatch.setattr(quaternionic, "_random_packed", recording)
    chunk = star_chunk(3)
    samples = 3 * chunk + 7  # three full chunks and one partial one
    assert main(["harmonicity", "--n", "3", "--samples", str(samples),
                 "--kato-samples", "1"]) == 0
    capsys.readouterr()
    # the star commutation's chunks, two defect-check draws and one Kato draw
    assert sum(counts) == samples + 2 + 1
    assert max(counts) == chunk and counts.count(chunk) == 3


# -- refined Kato -----------------------------------------------------------

def test_kato_equality_case():
    H = equality_case_hessian(2, F(1))
    assert H.frobenius_sq() == 12
    assert sum(x ** 2 for x in H.table[0].fractions()) == 9
    rep = refined_kato_gap(H)
    assert rep.gap == 0
    assert rep.slack_dropped_entries == 0
    assert rep.slack_cauchy_schwarz == 0
    assert rep.slack_row_factor == 0


def test_kato_zero_hessian():
    assert refined_kato_gap(HessianMatrix.zero(2)).gap == 0


def test_kato_gap_nonnegative_sampled():
    rng = random.Random(9)
    for _ in range(200):
        H = random_quaternionic_harmonic(2, rng)
        rep = refined_kato_gap(H)
        assert rep.gap >= 0
        assert rep.gap == (rep.slack_dropped_entries + rep.slack_cauchy_schwarz
                           + rep.slack_row_factor)


def test_kato_scan_matches_exact_path():
    # 2500 samples span three chunks of the scan at n=2; the exact path
    # draws the same Hessians one at a time
    rng = random.Random(10)
    gaps = [refined_kato_gap(random_quaternionic_harmonic(2, rng)).gap
            for _ in range(2500)]
    assert kato_gap_scan(2, 2500, seed=10) == (sum(g < 0 for g in gaps), min(gaps))


# -- differential: the packed scan against the full-matrix scan --------------

def reference_symmetric_batch(m, count, rng):
    """`count` full symmetric matrices from the words of `rng`, drawn and
    decoded one Python int at a time: the denominator w % 9 + 1 of a
    matrix's first word, then two entries (w & 0xFFFF) % 19 - 9 and
    (w >> 16) % 19 - 9 from each further word, the last high half unused
    when m(m+1)/2 is odd, scattered into the upper and lower triangles
    with triu_indices."""
    upper = np.triu_indices(m)
    size = len(upper[0])
    nums = np.empty((count, m, m), dtype=np.int64)
    dens = np.empty(count, dtype=np.int64)
    for k in range(count):
        dens[k] = rng.getrandbits(32) % 9 + 1
        vals = []
        for _ in range((size + 1) // 2):
            w = rng.getrandbits(32)
            vals += [(w & 0xFFFF) % 19 - 9, (w >> 16) % 19 - 9]
        nums[k, upper[0], upper[1]] = vals[:size]
        nums[k, upper[1], upper[0]] = vals[:size]
    return nums, dens


def reference_kato_scan(n, samples, seed):
    """The scan on full 4n x 4n matrices: line sums taken off the diagonal,
    3|h|^2 - 4|h e_1|^2 over all entries, and a Python loop over the
    denominators for the least gap."""
    rng = random.Random(seed)
    chunk = kato_chunk(n)
    negatives = 0
    least = {}
    diag = np.arange(4 * n)
    for start in range(0, samples, chunk):
        count = min(chunk, samples - start)
        nums, q = reference_symmetric_batch(4 * n, count, rng)
        line_sums = nums[:, diag, diag].reshape(count, n, 4).sum(axis=2)
        h = 4 * nums
        h[:, diag, diag] -= line_sums[:, diag // 4]
        gaps = 3 * (h * h).sum(axis=(-2, -1)) - 4 * (h[:, 0, :] * h[:, 0, :]).sum(axis=-1)
        negatives += int((gaps < 0).sum())
        for d in set(q.tolist()):
            g = int(gaps[q == d].min())
            least[d] = min(g, least.get(d, g))
    return negatives, min(F(g, 48 * d * d) for d, g in least.items())


def kato_chunk(n):
    """Hessians per chunk of the Kato scan: 1024 at n = 2, 113 at n = 6."""
    return max(1, quaternionic._KATO_SCAN_ENTRIES // (4 * n) ** 2)


def int64_kato_scan(n, samples, seed):
    """The scan on int64 rows (`quaternionic_harmonic_batch`) at its old
    chunk of 2^14 entries (256 Hessians at n = 2), the weighted squares
    h * h * w in new arrays; it reads the weight table as the scan does."""
    m = 4 * n
    rng = random.Random(seed)
    chunk = max(1, (1 << 14) // m ** 2)
    negatives = 0
    unseen = np.iinfo(np.int64).max
    least = np.full(10, unseen, dtype=np.int64)
    for start in range(0, samples, chunk):
        h, q = quaternionic_harmonic_batch(n, min(chunk, samples - start), rng)
        gaps = (h * h * quaternionic._kato_weights(m)).sum(axis=-1)
        negatives += int((gaps < 0).sum())
        np.minimum.at(least, q, gaps)
    return negatives, min(F(g, 48 * d * d) for d, g in enumerate(least.tolist()) if g != unseen)


@pytest.mark.parametrize("seed", [0, 1, 10, 888])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_packed_kato_scan_matches_the_full_matrix_scan(n, seed):
    # and the int64 scan it replaced, at the edges of the first chunks
    c = kato_chunk(n)
    for samples in (1, c - 1, c, c + 1, 2 * c + 1, 2500):
        got = kato_gap_scan(n, samples, seed)
        assert got == reference_kato_scan(n, samples, seed), samples
        assert got == int64_kato_scan(n, samples, seed), samples


def test_int16_kato_scan_on_criterion_8_stream():
    # criterion 8's scan: 1e5 Hessians at n = 2 from seed 888
    assert kato_gap_scan(2, 100000, 888) == int64_kato_scan(2, 100000, 888) == (0, F(661, 81))


def raised_row_weights(row):
    """The Kato weight table with 4 |h e_1|^2 replaced by row |h e_1|^2."""
    def weights(m):
        rows, cols = np.triu_indices(m)
        return 3 * np.where(rows == cols, 1, 2) - row * (rows == 0)
    return weights


def test_kato_paths_see_a_raised_row_weight(monkeypatch):
    # both paths read the one weight table.  With 4 raised to 5 the equality
    # case has a negative gap, so its slack invariant raises, and the scan's
    # least gap moves; the scan's verdict does not turn: on criterion 8's
    # stream (n = 2, seed 888) the least gap stays far from equality
    # (661/81 over 1e5 samples), and 1e5 samples first show negative gaps
    # at a row weight of 10 (2 of them); the 2000 samples here show 1 at 12
    want = reference_kato_scan(2, 2000, 888)
    assert want[0] == 0
    monkeypatch.setattr(quaternionic, "_kato_weights", raised_row_weights(5))
    with pytest.raises(RuntimeError, match="do not sum to the gap"):
        refined_kato_gap(equality_case_hessian(2, F(1)))
    negatives, least = kato_gap_scan(2, 2000, 888)
    assert negatives == 0 and least < want[1]
    monkeypatch.setattr(quaternionic, "_kato_weights", raised_row_weights(12))
    negatives, least = kato_gap_scan(2, 2000, 888)
    assert negatives > 0 and least < 0


def off_diagonal_row_weight_3(m):
    """The Kato weight table with 3 in place of 2 on row 0's off-diagonal
    slots: a mutant that keeps the form positive semidefinite."""
    rows, cols = np.triu_indices(m)
    return 3 * np.where(rows == cols, 1, 2) - 4 * (rows == 0) + ((rows == 0) & (cols > 0))


@pytest.mark.parametrize("m", [8, 12])
def test_scaled_kato_gap_on_the_packed_basis(monkeypatch, m):
    # ROADMAP item 3, as a test: on each unit row of the packed upper
    # triangle the scaled gap is 3|H|^2 - 4|H e_1|^2 of the unpacked matrix,
    # read off H and not off the weight table.  Criterion 8 passes the
    # off-diagonal mutant, since no suite Hessian has a row-1 entry; this fails it
    units = np.eye(m * (m + 1) // 2, dtype=np.int64)
    H = quaternionic._unpack(units, m)
    want = (3 * (H * H).sum(axis=(1, 2)) - 4 * (H[:, :, 0] ** 2).sum(axis=1)).tolist()
    assert quaternionic.scaled_kato_gap(units.copy()).tolist() == want
    monkeypatch.setattr(quaternionic, "_kato_weights", off_diagonal_row_weight_3)
    assert quaternionic.scaled_kato_gap(units.copy()).tolist() != want


def test_kato_scan_guards_its_int64_range(monkeypatch):
    # at n = 2 the weights' sizes sum to 1 + 7 * 2 + 7 * 3 + 21 * 6 = 162,
    # so no gap exceeds 54^2 * 162
    bound = 54 ** 2 * 162
    monkeypatch.setattr(forms, "INT_BOUND", bound)
    assert kato_gap_scan(2, 10, 888) == reference_kato_scan(2, 10, 888)
    monkeypatch.setattr(forms, "INT_BOUND", bound - 1)
    with pytest.raises(Int64RangeError, match="Kato gap scan"):
        kato_gap_scan(2, 10, 888)


def test_kato_scan_refuses_weights_past_the_int16_range(monkeypatch):
    # a weighted square 54^2 |w| is formed in int16: row weight 14 puts
    # -11 at (0, 0), 54^2 * 11 = 32076, the largest size that fits, where
    # the int16 scan still equals the int64 one; row weight 15 puts -12
    # there, 54^2 * 12 = 34992 > 32767, refused before the first draw
    monkeypatch.setattr(quaternionic, "_kato_weights", raised_row_weights(14))
    assert kato_gap_scan(2, 3000, 888) == int64_kato_scan(2, 3000, 888)
    monkeypatch.setattr(quaternionic, "_kato_weights", raised_row_weights(15))
    with pytest.raises(ContractViolation, match="int16 rows out of range: Kato gap scan "
                                                "could reach 34992 > 32767"):
        kato_gap_scan(2, 10, 888)


def test_kato_scan_int16_guard_survives_optimize():
    # -O strips assert statements; the range check must still raise
    code = ("import numpy as np, qkcomp.quaternionic as q; "
            "rows, cols = np.triu_indices(8); "
            "q._kato_weights = lambda m: 3 * np.where(rows == cols, 1, 2) - 15 * (rows == 0); "
            "q.kato_gap_scan(2, 10, 888)")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(forms.__file__).parent.parent) + os.pathsep + env.get(
        "PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert "ContractViolation: int16 rows out of range: Kato gap scan" in proc.stderr


def test_constrained_batch_refuses_runs_past_the_int16_range():
    # a projected entry is less than 18 group in size; 18 * 1821 = 32778
    rng = random.Random(0)
    with pytest.raises(ContractViolation, match="int16 range"):
        quaternionic._constrained_batch(1821, 1821, 1, rng)
    assert rng.getrandbits(64) == random.Random(0).getrandbits(64)


def test_kato_scan_guard_survives_optimize():
    # -O strips assert statements; the range check must still raise
    code = ("import qkcomp.forms as forms; forms.INT_BOUND = 54 ** 2 * 162 - 1; "
            "from qkcomp.quaternionic import kato_gap_scan; kato_gap_scan(2, 10, 888)")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(forms.__file__).parent.parent) + os.pathsep + env.get(
        "PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert "Int64RangeError" in proc.stderr and "Kato gap scan" in proc.stderr


def test_kato_scan_memory_is_chunked():
    tracemalloc.start()
    try:
        kato_gap_scan(2, 20_000, seed=12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, f"traced peak {peak / 2**20:.1f} MB"


def test_random_symmetric_stream():
    nums, q = random_symmetric(8, 500, random.Random(13))
    rng = random.Random(13)
    for k in range(500):
        one, d = random_symmetric(8, 1, rng)
        assert (one[0] == nums[k]).all() and d[0] == q[k]
    assert (nums == nums.transpose(0, 2, 1)).all()
    assert set(nums.ravel().tolist()) == set(range(-9, 10))
    assert set(q.tolist()) == set(range(1, 10))


def test_first_matrix_of_random_symmetric_by_hand():
    # the first 19 words of random.Random(5); word 0 = 2675342405 = 9 * 297260267 + 2
    # gives q = 3, and each later word gives its low 16 bits, then its high 16 bits:
    # word 1 = 0x4164d839 gives 0xd839 = 55353 = 19 * 2913 + 6 -> -3 at (1,1) and
    # 0x4164 = 16740 = 19 * 881 + 1 -> -8 at (1,2); word 18 = 0xa6233255 gives
    # 0x3255 = 12885 = 19 * 678 + 3 -> -6 at (7,8) and
    # 0xa623 = 42531 = 19 * 2238 + 9 -> 0 at (8,8)
    rng = random.Random(5)
    words = [rng.getrandbits(32) for _ in range(19)]
    assert words[0] == 0x9f767c45 and words[1] == 0x4164d839 and words[18] == 0xa6233255
    nums, q = random_symmetric(8, 1, random.Random(5))
    assert q.tolist() == [3]
    assert nums[0].tolist() == [[-3, -8, -9, 2, 6, 3, 0, 6],
                                [-8, -2, 1, -9, 5, -4, 2, 0],
                                [-9, 1, -8, 3, -9, 3, -3, 6],
                                [2, -9, 3, -5, 3, -9, 2, 2],
                                [6, 5, -9, 3, 5, -8, 6, 0],
                                [3, -4, 3, -9, -8, -8, 7, 4],
                                [0, 2, -3, 2, 6, 7, -9, -6],
                                [6, 0, 6, 2, 0, 4, -6, 0]]


# words per matrix, 1 + ceil(m(m+1)/4): at m = 5 and 6, m(m+1)/2 = 15 and
# 21 are odd and the last word's high half is padding
@pytest.mark.parametrize("m, words", [(5, 9), (6, 12), (8, 19)])
def test_random_symmetric_takes_whole_words(m, words):
    for k in (1, 2, 7):
        rng, ref_rng = random.Random(31), random.Random(31)
        nums, q = random_symmetric(m, k, rng)
        ref_nums, ref_q = reference_symmetric_batch(m, k, ref_rng)
        assert (nums == ref_nums).all() and (q == ref_q).all()
        fresh = random.Random(31)
        stream = [fresh.getrandbits(32) for _ in range(k * words + 1)]
        assert rng.getrandbits(32) == stream[k * words], k


def test_random_symmetric_entries_are_near_uniform():
    # 2^16 = 19 * 3449 + 5 over-weights -9..-5 by 1/3449, far inside 2%;
    # 720000 entries put one standard deviation near 0.5%
    packed, _ = quaternionic._random_packed(8, 20000, random.Random(17))
    freq = np.bincount(packed.ravel() + 9, minlength=19) / packed.size
    assert len(freq) == 19
    assert np.abs(19 * freq - 1).max() < 0.02, freq


def test_kato_scan_rejects_empty_sample():
    with pytest.raises(ContractViolation):
        kato_gap_scan(2, 0, seed=10)


def test_kato_slack_invariant_is_a_raised_check(monkeypatch):
    # a line sum of 1 breaks gap == slack1 + slack2 + slack3; with the flag
    # check bypassed the invariant must still raise (and survive -O)
    h = [[F(0)] * 8 for _ in range(8)]
    h[0][0] = F(1)
    monkeypatch.setattr(HessianMatrix, "is_quaternionic_harmonic", lambda self: True)
    with pytest.raises(RuntimeError, match="do not sum to the gap"):
        refined_kato_gap(HessianMatrix(table_of(h)))


def test_kato_requires_flags():
    h = [[F(0)] * 8 for _ in range(8)]
    h[0][0] = F(1)  # not quaternionic harmonic
    with pytest.raises(ContractViolation):
        refined_kato_gap(HessianMatrix(table_of(h)))


def test_random_generators_satisfy_flags():
    n = 2
    rng = random.Random(11)
    H = random_quaternionic_harmonic(n, rng)
    assert H.is_quaternionic_harmonic()
    assert H.is_harmonic()
    T = random_traceless_hessian(n, rng)
    assert T.is_harmonic()


# -- Busemann equality case -------------------------------------------------

@pytest.mark.parametrize("n", [2, 3])
def test_busemann_hessian(n):
    H = busemann_hessian(n)
    assert H.trace() == -2 * (2 * n + 1)
    assert H.frobenius_sq() == 4 * (n + 2)
    assert H.line_sum(1) == -6
    assert H.diagonal().fractions() == [0, -2, -2, -2] + [-1] * (4 * n - 4)
    assert not H.table[0].num.any()


def test_hessian_validation():
    bad = [[F(0)] * 8 for _ in range(8)]
    bad[0][1] = F(1)  # asymmetric
    with pytest.raises(ContractViolation, match=r"not symmetric at \(1,2\)"):
        HessianMatrix(table_of(bad))
    # n is read off the side, which must be 4n with n >= 2
    for shape in ((4, 4), (10, 10), (7, 8), (8,)):
        with pytest.raises(ContractViolation, match="expected a 4n x 4n matrix with n >= 2, "
                                                    "got shape " + "x".join(map(str, shape))):
            HessianMatrix(ExactArray(np.zeros(shape, dtype=np.int64)))
    assert HessianMatrix.zero(3).n == 3 and HessianMatrix.zero(3).dim == 12


# -- differential: the ExactArray Hessians against the Fraction reference ---

class ReferenceHessian:
    """The nested-Fraction construction of a Hessian: rows of Fractions,
    with every sum and the Kato chain written out entry by entry."""

    def __init__(self, rows):
        self.rows = [[F(x) for x in row] for row in rows]
        self.m = len(rows)

    def trace(self):
        return sum((self.rows[i][i] for i in range(self.m)), F(0))

    def line_sum(self, s):
        return sum((self.rows[i - 1][i - 1] for i in line_indices(s)), F(0))

    def frobenius_sq(self):
        return sum((x * x for row in self.rows for x in row), F(0))

    def kato(self):
        """(gap, slack1, slack2, slack3) with the gradient along e_1."""
        e = self.rows
        f11 = e[0][0]
        iks = [e[i - 1][i - 1] for i in line_indices(1)[1:]]
        row_sq = sum((e[0][a] * e[0][a] for a in range(1, self.m)), F(0))
        iks_sq = sum((d * d for d in iks), F(0))
        frob = self.frobenius_sq()
        slack1 = frob - (f11 * f11 + iks_sq + 2 * row_sq)
        slack2 = iks_sq - sum(iks, F(0)) ** 2 / 3
        gap = frob - F(4, 3) * (f11 * f11 + row_sq)
        return gap, slack1, slack2, F(2, 3) * row_sq


def reference_symmetric(n, rng):
    nums, q = random_symmetric(4 * n, 1, rng)
    return [[F(x, int(q[0])) for x in row] for row in nums[0].tolist()]


def reference_traceless(n, rng):
    h = reference_symmetric(n, rng)
    shift = sum((h[i][i] for i in range(4 * n)), F(0)) / (4 * n)
    for i in range(4 * n):
        h[i][i] -= shift
    return ReferenceHessian(h)


def reference_quaternionic_harmonic(n, rng):
    h = reference_symmetric(n, rng)
    for s in range(1, n + 1):
        idx = line_indices(s)
        mean = sum((h[i - 1][i - 1] for i in idx), F(0)) / 4
        for i in idx:
            h[i - 1][i - 1] -= mean
    return ReferenceHessian(h)


def assert_matches_reference(H, ref, kato):
    assert H.table.fractions() == ref.rows
    values = [H.trace(), H.frobenius_sq()] + [H.line_sum(s) for s in range(1, H.n + 1)]
    assert values == [ref.trace(), ref.frobenius_sq()] + [
        ref.line_sum(s) for s in range(1, H.n + 1)]
    if kato:
        rep = refined_kato_gap(H)
        values += [rep.gap, rep.slack_dropped_entries, rep.slack_cauchy_schwarz,
                   rep.slack_row_factor]
        assert values[-4:] == list(ref.kato())
    # the reports print Fraction(14) as 14/1 and the int 14 as 14
    assert all(type(v) is F for v in values)


# criterion 2's seeded streams: the defect checks' two Hessians and the
# star commutation samples
@pytest.mark.parametrize("n, seed, count", [(2, 1502, 2), (2, 2222, 200),
                                            (3, 1503, 2), (3, 2333, 50)])
def test_traceless_stream_matches_reference(n, seed, count):
    rng, ref_rng = random.Random(seed), random.Random(seed)
    for _ in range(count):
        assert_matches_reference(random_traceless_hessian(n, rng),
                                 reference_traceless(n, ref_rng), kato=False)


# the head of criterion 8's scan stream, drawn one Hessian at a time
@pytest.mark.parametrize("n, count", [(2, 300), (3, 100)])
def test_quaternionic_harmonic_stream_matches_reference(n, count):
    rng, ref_rng = random.Random(888), random.Random(888)
    for _ in range(count):
        assert_matches_reference(random_quaternionic_harmonic(n, rng),
                                 reference_quaternionic_harmonic(n, ref_rng), kato=True)


@pytest.mark.parametrize("n", [2, 3])
def test_equality_and_busemann_hessians_match_reference(n):
    m = 4 * n
    for mu in (F(1), F(7, 3)):
        rows = [[F(0)] * m for _ in range(m)]
        for i, v in zip(line_indices(1), (-3 * mu, mu, mu, mu)):
            rows[i - 1][i - 1] = v
        assert_matches_reference(equality_case_hessian(n, mu),
                                 ReferenceHessian(rows), kato=True)
    diag = [0, -2, -2, -2] + [-1] * (m - 4)
    rows = [[diag[i] if i == j else 0 for j in range(m)] for i in range(m)]
    assert_matches_reference(busemann_hessian(n), ReferenceHessian(rows), kato=False)
    assert_matches_reference(HessianMatrix.zero(n),
                             ReferenceHessian([[0] * m] * m), kato=True)


def test_hessian_near_2_31_raises_rather_than_wraps():
    # each square fits in int64, their sum over the 64 entries does not
    big = (1 << 31) - 7
    H = HessianMatrix(ExactArray.of(np.diag([big, -big] * 4)))
    assert H.is_quaternionic_harmonic() and H.trace() == 0
    with pytest.raises(Int64RangeError):
        H.frobenius_sq()
    with pytest.raises(Int64RangeError):
        refined_kato_gap(H)
    # at 2^28, |H|^2 still fits but 3 |H|^2 in the gap may not
    H = HessianMatrix(ExactArray.of(np.diag([1 << 28, -(1 << 28)] * 4)))
    assert H.frobenius_sq() == 8 << 56
    with pytest.raises(Int64RangeError, match="Kato gap"):
        refined_kato_gap(H)
