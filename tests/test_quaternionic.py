"""Quaternionic frame algebra, the fundamental 4-form, harmonicity
defects, the star-commutation identity, and the refined Kato chain."""

import random
from fractions import Fraction as F

import pytest

from qkcomp.forms import ContractViolation, form_inner, wedge
from qkcomp.quaternionic import (
    HessianMatrix,
    Layout,
    QuaternionicFrame,
    SignedPermutation,
    build_frame,
    build_fundamental_forms,
    busemann_hessian,
    equality_case_hessian,
    kato_gap_scan,
    layout_permutation,
    quaternionic_defects,
    random_quaternionic_harmonic,
    random_traceless_hessian,
    refined_kato_gap,
    siu_corlette_defect,
    star_commutation_sides,
    verify_star_commutation,
)


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


def naive_omega(frame: QuaternionicFrame) -> dict:
    acts = frame.actions()
    omegas = []
    for first, pair in ((0, (1, 2)), (1, (2, 0)), (2, (0, 1))):
        terms: dict = {}
        for i in frame.line_base_indices():
            t1, s1 = acts[first].apply(i)
            key = tuple(sorted((i, t1)))
            terms[key] = terms.get(key, F(0)) + s1 * (1 if i < t1 else -1)
            a, sa = acts[pair[0]].apply(i)
            b, sb = acts[pair[1]].apply(i)
            key = tuple(sorted((a, b)))
            terms[key] = terms.get(key, F(0)) + sa * sb * (1 if a < b else -1)
        omegas.append({k: v for k, v in terms.items() if v})
    total: dict = {}
    for om in omegas:
        for k, v in naive_wedge_terms(om, om).items():
            total[k] = total.get(k, F(0)) + v
    return {k: v for k, v in total.items() if v}


@pytest.mark.parametrize("layout", [Layout.GROUPED, Layout.INTERLEAVED])
@pytest.mark.parametrize("n", [2, 3])
def test_frame_algebra(n, layout):
    fr = build_frame(n, layout)
    m = fr.dim
    minus = SignedPermutation(tuple(range(1, m + 1)), (-1,) * m)
    I, J, K = fr.actions()
    assert I.compose(I) == minus
    assert J.compose(J) == minus
    assert K.compose(K) == minus
    assert I.compose(J) == K
    assert J.compose(K) == I
    assert K.compose(I) == J
    assert J.compose(I) == -K


def test_frame_rejects_n1():
    with pytest.raises(ContractViolation):
        build_frame(1, Layout.GROUPED)


def test_ij_equals_k_on_first_vector():
    fr = build_frame(2, Layout.GROUPED)
    i_of_j = fr.I.compose(fr.J).apply(1)
    assert i_of_j == fr.K.apply(1)


def test_interleaved_quaternionic_line():
    fr = build_frame(2, Layout.INTERLEAVED)
    assert fr.I.apply(1) == (2, 1)
    assert fr.I.apply(2) == (1, -1)


def test_layout_round_trip():
    for n in (2, 3):
        p = layout_permutation(n, Layout.GROUPED, Layout.INTERLEAVED)
        q = layout_permutation(n, Layout.INTERLEAVED, Layout.GROUPED)
        assert [q[p[i] - 1] for i in range(4 * n)] == list(range(1, 4 * n + 1))


def test_actions_preserve_inner_product():
    rng = random.Random(0)
    fr = build_frame(2, Layout.INTERLEAVED)
    from qkcomp.identities import random_vector

    space = fr.space
    for act in fr.actions():
        for _ in range(10):
            v = random_vector(space, rng)
            w = random_vector(space, rng)
            assert act.apply_vector(v).dot(act.apply_vector(w)) == v.dot(w)


@pytest.mark.parametrize("layout", [Layout.GROUPED, Layout.INTERLEAVED])
def test_omega_against_naive_expansion(layout):
    fr = build_frame(2, layout)
    ff = build_fundamental_forms(fr)
    assert ff.Omega.terms() == naive_omega(fr)


def test_omega_top_coefficient_is_six():
    fr = build_frame(2, Layout.GROUPED)
    ff = build_fundamental_forms(fr)
    assert ff.Omega.coefficient(fr.line_indices(1)) == 6
    # the independent naive expansion sees the same factor
    assert naive_omega(fr)[fr.line_indices(1)] == 6


def test_omega1_squared_coefficient():
    fr = build_frame(2, Layout.GROUPED)
    ff = build_fundamental_forms(fr)
    sq = wedge(ff.omega1, ff.omega1)
    assert sq.coefficient((1, 3, 2, 4)) == 2


def test_omega_invariant_under_cyclic_relabeling():
    fr = build_frame(2, Layout.INTERLEAVED)
    cyc = QuaternionicFrame(fr.n, fr.layout, fr.J, fr.K, fr.I)
    assert build_fundamental_forms(cyc).Omega == build_fundamental_forms(fr).Omega


def test_fundamental_forms_are_degree2_and_orthogonal():
    fr = build_frame(3, Layout.INTERLEAVED)
    ff = build_fundamental_forms(fr)
    for om in (ff.omega1, ff.omega2, ff.omega3):
        assert om.degree == 2
        assert form_inner(om, om) == 2 * fr.n
    assert form_inner(ff.omega1, ff.omega2) == 0
    assert form_inner(ff.omega2, ff.omega3) == 0


# -- Hessians and the Siu-Corlette defect ----------------------------------

def line_violation_hessian(frame, line, amount=F(5)):
    m = frame.dim
    h = [[F(0)] * m for _ in range(m)]
    a, b, c, d = frame.line_indices(line)
    h[a - 1][a - 1] = amount - 3
    h[b - 1][b - 1] = F(1)
    h[c - 1][c - 1] = F(1)
    h[d - 1][d - 1] = F(1)
    other = frame.line_indices(1 if line != 1 else 2)[0]
    h[other - 1][other - 1] -= amount
    return HessianMatrix(frame, h)


def test_defect_factor_six_per_line():
    for n in (2, 3):
        fr = build_frame(n, Layout.INTERLEAVED)
        for line in range(1, n + 1):
            H = line_violation_hessian(fr, line)
            form = siu_corlette_defect(H)
            assert form.coefficient(fr.line_indices(line)) == 6 * H.line_sum(line)
            defects = quaternionic_defects(H)
            assert defects[line - 1] == H.line_sum(line)


def test_defect_zero_for_quaternionic_harmonic_lines():
    fr = build_frame(2, Layout.INTERLEAVED)
    m = fr.dim
    h = [[F(0)] * m for _ in range(m)]
    h[0][0], h[1][1], h[2][2], h[3][3] = F(3), F(-1), F(-1), F(-1)
    H = HessianMatrix(fr, h)
    assert quaternionic_defects(H)[0] == 0


def test_defect_of_zero_hessian():
    fr = build_frame(2, Layout.INTERLEAVED)
    assert siu_corlette_defect(HessianMatrix.zero(fr)).is_zero()


def test_defect_requires_harmonic():
    fr = build_frame(2, Layout.INTERLEAVED)
    h = [[F(0)] * 8 for _ in range(8)]
    h[0][0] = F(1)
    with pytest.raises(ContractViolation):
        siu_corlette_defect(HessianMatrix(fr, h))


def test_defect_linear_in_hessian():
    fr = build_frame(2, Layout.INTERLEAVED)
    rng = random.Random(5)
    H1 = random_traceless_hessian(fr, rng)
    H2 = random_traceless_hessian(fr, rng)
    combo = HessianMatrix(fr, [[3 * H1.entries[i][j] - 2 * H2.entries[i][j]
                                for j in range(8)] for i in range(8)])
    assert siu_corlette_defect(combo) == \
        3 * siu_corlette_defect(H1) + (-2) * siu_corlette_defect(H2)


def test_star_commutation_random_and_zero():
    fr = build_frame(2, Layout.INTERLEAVED)
    rng = random.Random(6)
    for _ in range(15):
        assert verify_star_commutation(random_traceless_hessian(fr, rng))
    lhs, rhs = star_commutation_sides(HessianMatrix.zero(fr))
    assert lhs.is_zero() and rhs.is_zero()


def test_star_commutation_n3_samples():
    fr = build_frame(3, Layout.INTERLEAVED)
    rng = random.Random(7)
    for _ in range(5):
        assert verify_star_commutation(random_traceless_hessian(fr, rng))


def test_star_commutation_sides_nontrivial():
    fr = build_frame(2, Layout.INTERLEAVED)
    rng = random.Random(8)
    lhs, rhs = star_commutation_sides(random_traceless_hessian(fr, rng))
    assert not lhs.is_zero()
    assert lhs == rhs


# -- refined Kato -----------------------------------------------------------

def test_kato_equality_case():
    fr = build_frame(2, Layout.GROUPED)
    H = equality_case_hessian(fr, F(1))
    assert H.frobenius_sq() == 12
    assert sum(H.entries[0][a] ** 2 for a in range(8)) == 9
    rep = refined_kato_gap(H)
    assert rep.gap == 0
    assert rep.slack_dropped_entries == 0
    assert rep.slack_cauchy_schwarz == 0
    assert rep.slack_row_factor == 0


def test_kato_zero_hessian():
    fr = build_frame(2, Layout.GROUPED)
    assert refined_kato_gap(HessianMatrix.zero(fr)).gap == 0


def test_kato_gap_nonnegative_sampled():
    fr = build_frame(2, Layout.GROUPED)
    rng = random.Random(9)
    for _ in range(200):
        H = random_quaternionic_harmonic(fr, rng)
        rep = refined_kato_gap(H)
        assert rep.gap >= 0
        assert rep.gap == (rep.slack_dropped_entries + rep.slack_cauchy_schwarz
                           + rep.slack_row_factor)


def test_kato_scan_matches_exact_path():
    negatives, min_gap = kato_gap_scan(2, 2000, seed=10)
    assert negatives == 0
    assert min_gap >= 0


def test_kato_scan_rejects_empty_sample():
    with pytest.raises(ContractViolation):
        kato_gap_scan(2, 0, seed=10)


def test_kato_slack_invariant_is_a_raised_check(monkeypatch):
    # a line sum of 1 breaks gap == slack1 + slack2 + slack3; with the flag
    # check bypassed the invariant must still raise (and survive -O)
    fr = build_frame(2, Layout.GROUPED)
    h = [[F(0)] * 8 for _ in range(8)]
    h[0][0] = F(1)
    monkeypatch.setattr(HessianMatrix, "is_quaternionic_harmonic", lambda self: True)
    with pytest.raises(RuntimeError, match="do not sum to the gap"):
        refined_kato_gap(HessianMatrix(fr, h))


def test_kato_requires_flags():
    fr = build_frame(2, Layout.GROUPED)
    h = [[F(0)] * 8 for _ in range(8)]
    h[0][0] = F(1)  # not quaternionic harmonic
    with pytest.raises(ContractViolation):
        refined_kato_gap(HessianMatrix(fr, h))
    with pytest.raises(ContractViolation):
        refined_kato_gap(equality_case_hessian(fr, F(1)), gradient_direction=2)
    inter = build_frame(2, Layout.INTERLEAVED)
    with pytest.raises(ContractViolation):
        refined_kato_gap(HessianMatrix.zero(inter))


def test_random_generators_satisfy_flags():
    fr = build_frame(2, Layout.GROUPED)
    rng = random.Random(11)
    H = random_quaternionic_harmonic(fr, rng)
    assert H.is_quaternionic_harmonic()
    assert H.is_harmonic()
    T = random_traceless_hessian(fr, rng)
    assert T.is_harmonic()


# -- Busemann equality case -------------------------------------------------

@pytest.mark.parametrize("n", [2, 3])
def test_busemann_hessian(n):
    H = busemann_hessian(n)
    assert H.trace() == -2 * (2 * n + 1)
    assert H.frobenius_sq() == 4 * (n + 2)
    assert H.line_sum(1) == -6
    diag = sorted(H.entries[i][i] for i in range(4 * n))
    assert diag == sorted([F(0)] + [F(-2)] * 3 + [F(-1)] * (4 * n - 4))
    assert all(H.entries[0][j] == 0 for j in range(4 * n))


def test_hessian_validation():
    fr = build_frame(2, Layout.GROUPED)
    bad = [[F(0)] * 8 for _ in range(8)]
    bad[0][1] = F(1)  # asymmetric
    with pytest.raises(ContractViolation):
        HessianMatrix(fr, bad)
