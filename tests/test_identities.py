"""The six operator identities: proved on the full basis through the
signed-permutation tables, and as seeded random laws on `Form`s."""

import random

import pytest

from qkcomp.forms import (
    ContractViolation,
    Form,
    InnerSpace,
    Vector,
    ext_mult,
    hodge_star,
    interior,
)
from qkcomp.identities import (
    IDENTITY_NAMES,
    check_operator_identities,
    check_star_identities,
    operator_tables,
    random_form,
    random_orthogonal_pair,
)


def test_all_identities_dim8_degree4():
    report = check_star_identities(8, 4, trials=100, seed=7)
    assert all(r.passed for r in report.results), [r.name for r in report.results if not r.passed]
    assert len(report.results) == 6
    assert [r.name for r in report.results] == list(IDENTITY_NAMES)


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 8])
def test_identities_all_degrees(dim):
    for degree in range(1, dim + 1):
        report = check_star_identities(dim, degree, trials=25, seed=100 + degree)
        assert all(r.passed for r in report.results), (dim, degree,
                                   [r.name for r in report.results if not r.passed])


def test_identity6_unit_pair_case():
    V4 = InnerSpace(4)
    v = Vector.basis(V4, 1)
    theta = v.dual()
    xi = Form.basis(V4, (2,))
    lhs = interior(v, ext_mult(theta, xi)) + ext_mult(theta, interior(v, xi))
    assert lhs == xi


def test_identity5_orthogonal_frame_pair():
    V8 = InnerSpace(8)
    rng = random.Random(3)
    v = Vector.basis(V8, 1)
    thetap = Vector.basis(V8, 2).dual()
    from qkcomp.identities import random_form

    for _ in range(50):
        xi = random_form(V8, 2, rng)
        lhs = interior(v, ext_mult(thetap, xi)) + ext_mult(thetap, interior(v, xi))
        assert lhs.is_zero()


def test_precondition_validation():
    with pytest.raises(ContractViolation):
        check_star_identities(13, 1, trials=1, seed=0)
    with pytest.raises(ContractViolation):
        check_star_identities(4, 0, trials=1, seed=0)
    with pytest.raises(ContractViolation):
        check_star_identities(4, 5, trials=1, seed=0)


def test_failure_is_reported_not_raised():
    # identity (6) without the norm factor fails for non-unit v; force a
    # wrong law by checking a doctored report path: easiest equivalent is
    # asserting a counterexample string appears when a law is broken.
    # Simulate by running with trials=0: nothing to fail on.
    report = check_star_identities(4, 2, trials=0, seed=0)
    assert all(r.passed for r in report.results)
    assert all(r.counterexample is None for r in report.results)


def test_determinism_same_seed():
    a = check_star_identities(4, 2, trials=10, seed=42)
    b = check_star_identities(4, 2, trials=10, seed=42)
    assert [(r.name, r.passed) for r in a.results] == \
        [(r.name, r.passed) for r in b.results]


def test_injected_star_sign_bug_is_caught(monkeypatch):
    # mutation sanity: dropping the permutation sign in the Hodge star must
    # fail identity (1) with a counterexample, not crash (on 1-forms in
    # dim 4, ** = -id, and the sign-stripped star returns +id)
    import qkcomp.kernel as kernel

    def unsigned(terms, dim):
        full = (1 << dim) - 1
        return {full & ~k: c for k, c in terms.items()}

    monkeypatch.setattr(kernel, "star_terms", unsigned)
    report = check_star_identities(4, 1, trials=5, seed=0)
    by_name = {r.name: r for r in report.results}
    assert not by_name["1 double star involution"].passed
    assert by_name["1 double star involution"].counterexample is not None
    monkeypatch.undo()
    assert all(r.passed for r in check_star_identities(4, 1, trials=5, seed=0).results)


# --- the full-basis check on signed-permutation tables ---------------------

def rows_of(table):
    """One (target list, sign list) pair per operator row of `table`."""
    return list(zip(table.target.tolist(), table.sign.tolist()))


def apply_table(rows, weights, form, degree):
    """sum_r w_r * rows[r] applied to `form`, linearly and exactly, as a Form
    of `degree`; `weights` is (numerators w_r, their denominator)."""
    nums, den = weights
    out = {}
    for (target, sign), w in zip(rows, nums):
        if w:
            for m, c in form._terms.items():
                if sign[m]:
                    out[target[m]] = out.get(target[m], 0) + w * sign[m] * c
    return Form(form.space, degree, {k: c for k, c in out.items() if c}, form.den * den)


@pytest.mark.parametrize("dim", [4, 8])
def test_tables_reproduce_form_operators_on_criterion_streams(dim):
    # the seeded streams criterion 1 sampled before it moved to the full
    # basis: the tables, applied linearly, give the Form operators exactly
    star, eps, iota = map(rows_of, operator_tables(dim))
    space = InnerSpace(dim)
    for p in range(1, dim + 1):
        rng = random.Random(1000 + 100 * dim + p)
        for _ in range(100):
            xi = random_form(space, p, rng)
            for v in random_orthogonal_pair(space, rng):
                assert apply_table(iota, v.scaled_components, xi, p - 1) == interior(v, xi)
                assert (apply_table(eps, v.scaled_components, xi, p + 1)
                        == ext_mult(v.dual(), xi))
            assert apply_table(star, ((1,), 1), xi, dim - p) == hodge_star(xi)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 8, 12])
def test_basis_check_passes_every_degree(dim):
    tables = operator_tables(dim)
    for p in range(1, dim + 1):
        results = check_operator_identities(dim, p, tables)
        assert [r.name for r in results] == list(IDENTITY_NAMES)
        assert [(r.violations, r.first) for r in results] == [(0, None)] * 6, (dim, p)


def test_basis_check_counts_every_case():
    # dim 4, degree 2: 6 basis forms, 4 indices, 12 ordered pairs i != j
    results = check_operator_identities(4, 2)
    assert [r.cases for r in results] == [6, 24, 24, 24, 72, 24]
    assert check_operator_identities(4, 2, operator_tables(4)) == results


def test_basis_check_preconditions():
    for dim, degree in ((13, 1), (4, 0), (4, 5), (0, 0)):
        with pytest.raises(ContractViolation):
            check_operator_identities(dim, degree)
    for dim in (0, 13):
        with pytest.raises(ContractViolation):
            operator_tables(dim)


def failing(results):
    return {r.name[0]: r for r in results if not r.passed}


def test_injected_star_sign_bug_fails_the_basis_check(monkeypatch):
    # on 1-forms in dim 4, ** = -id, and the sign-stripped star returns +id
    import qkcomp.kernel as kernel

    def unsigned(terms, dim):
        full = (1 << dim) - 1
        return {full & ~k: c for k, c in terms.items()}

    monkeypatch.setattr(kernel, "star_terms", unsigned)
    bad = failing(check_operator_identities(4, 1))
    assert bad["1"].violations == 4
    assert bad["1"].first == "xi=theta(1,)"
    assert set(bad) <= {"1", "2", "3", "4"}
    monkeypatch.undo()
    assert not failing(check_operator_identities(4, 1))


def test_flipped_wedge_sign_fails_anticommutation(monkeypatch):
    import qkcomp.kernel as kernel

    wedge_terms = kernel.wedge_terms

    def flipped(a, b):
        out = wedge_terms(a, b)
        if a == {0b1: 1} and b == {0b10: 1}:  # e^1 ^ e^2
            out = {k: -c for k, c in out.items()}
        return out

    monkeypatch.setattr(kernel, "wedge_terms", flipped)
    bad = failing(check_operator_identities(4, 1))
    assert {"5", "6"} <= set(bad)
    assert bad["5"].first == "xi=theta(2,), i=2, j=1"
    assert bad["6"].first == "xi=theta(2,), i=1"


@pytest.mark.parametrize("image", [{0b0001: 1, 0b0010: 1}, {0b1110: 2}],
                         ids=["two terms", "coefficient 2"])
def test_non_monomial_kernel_image_is_a_violation(monkeypatch, image):
    # the star of e^1 replaced by a map that is no signed permutation entry
    import qkcomp.kernel as kernel

    star_terms = kernel.star_terms
    monkeypatch.setattr(kernel, "star_terms",
                        lambda terms, dim: image if terms == {0b1: 1} else star_terms(terms, dim))
    results = check_operator_identities(4, 1)
    bad = failing(results)
    assert bad["1"].violations == 1
    assert bad["1"].first == "xi=theta(1,)"
    assert all(r.first is not None for r in bad.values())


def test_cancelling_signs_on_different_masks_are_not_zero(monkeypatch):
    # e^1 ^ e^2 sent to -e^2 ^ e^4: then i(e_2)(e^1 ^ e^2) + e^1 ^ i(e_2) e^2
    # reads -e^4 + e^1, whose signs sum to 0 though the sum is no zero form
    import qkcomp.kernel as kernel

    wedge_terms = kernel.wedge_terms
    monkeypatch.setattr(kernel, "wedge_terms", lambda a, b: {0b1010: -1}
                        if (a, b) == ({0b1: 1}, {0b10: 1}) else wedge_terms(a, b))
    bad = failing(check_operator_identities(4, 1))
    assert bad["5"].first == "xi=theta(2,), i=2, j=1"
