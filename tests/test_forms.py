"""Exterior algebra basics: wedge, star, interior product, and their
exact algebraic laws."""

import random
from fractions import Fraction as F
from math import gcd
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkcomp import forms
from qkcomp.forms import (
    ContractViolation,
    DimensionMismatch,
    ExactArray,
    Form,
    Int64RangeError,
    contract,
    ext_mult,
    form_inner,
    hodge_star,
    interior,
    wedge,
)
from qkcomp.identities import random_form, random_orthogonal_pair, random_vector

def one_form(comps):
    """The 1-form, so the vector, of the given components."""
    return Form.from_terms(len(comps), 1, {(i + 1,): c for i, c in enumerate(comps)})


def anticommutator_defect(v, vprime, xi):
    """ell(v) eps(v') xi + eps(v') ell(v) xi - <v,v'> xi (identically zero)."""
    return (interior(v, ext_mult(vprime, xi))
            + ext_mult(vprime, interior(v, xi))
            - xi * form_inner(v, vprime))


def adjointness_defect(v, a, b):
    """<eps(v) a, b> - <a, ell(v) b> (identically zero)."""
    return form_inner(ext_mult(v, a), b) - form_inner(a, interior(v, b))


def antiderivation_defect(v, a, b):
    """ell(v)(a^b) - (ell(v)a)^b - (-1)^deg(a) a^(ell(v)b) (identically zero)."""
    lhs = interior(v, wedge(a, b))
    rhs = wedge(interior(v, a), b) + wedge(a, interior(v, b)) * (-1) ** a.degree
    return lhs - rhs


def test_wedge_basis_product():
    t1, t2 = Form.basis(4, (1,)), Form.basis(4, (2,))
    assert wedge(t1, t2) == Form.basis(4, (1, 2))


def test_wedge_alternation():
    t1 = Form.basis(4, (1,))
    assert wedge(t1, t1).is_zero()


def test_wedge_graded_commutativity_even():
    a = Form.basis(4, (1, 2))
    b = Form.basis(4, (3, 4))
    assert wedge(a, b) == Form.basis(4, (1, 2, 3, 4))
    assert wedge(b, a) == wedge(a, b)


def test_wedge_above_top_degree_is_zero():
    a = Form.basis(2, (1, 2))
    assert wedge(a, a).is_zero()


def test_wedge_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        wedge(Form.basis(2, (1,)), Form.basis(4, (1,)))


def test_star_oriented_plane():
    assert hodge_star(Form.basis(2, (1,))) == Form.basis(2, (2,))
    assert hodge_star(Form.basis(2, (2,))) == Form.basis(2, (1,), -1)


def test_star_dim4_canonical():
    assert hodge_star(Form.basis(4, (1, 2))) == Form.basis(4, (3, 4))


def test_star_involution_45_pair_combinations():
    # all two-term degree-2 combinations in dim 4: 15 index pairs x 3
    # coefficient choices; ** must be the identity (p(n-p) even)
    pairs = list(combinations(combinations(range(1, 5), 2), 2))
    assert len(pairs) == 15
    for coeffs in ((1, 1), (1, -1), (2, 3)):
        for idx_a, idx_b in pairs:
            xi = Form.from_terms(4, 2, {idx_a: coeffs[0], idx_b: coeffs[1]})
            assert hodge_star(hodge_star(xi)) == xi


def test_interior_contraction_examples():
    t12 = Form.basis(4, (1, 2))
    assert interior(Form.basis(4, (1,)), t12) == Form.basis(4, (2,))
    assert interior(Form.basis(4, (3,)), t12).is_zero()
    assert interior(Form.basis(4, (2,)), t12) == Form.basis(4, (1,), -1)


def test_interior_squares_to_zero():
    rng = random.Random(4)
    xi = random_form(8, 4, rng)
    v = random_vector(8, rng)
    assert interior(v, interior(v, xi)).is_zero()


def test_interior_on_scalar_is_zero():
    one = Form.from_terms(4, 0, {(): 5})
    assert interior(Form.basis(4, (1,)), one).is_zero()


def test_ext_mult_examples():
    t1, t2, t3 = (Form.basis(4, (i,)) for i in (1, 2, 3))
    assert ext_mult(t1, t2) == Form.basis(4, (1, 2))
    assert ext_mult(t1, Form.basis(4, (1, 2))).is_zero()
    assert ext_mult(t3, Form.basis(4, (1, 2))) == Form.basis(4, (1, 2, 3))


def test_ext_mult_requires_one_form():
    with pytest.raises(ContractViolation):
        ext_mult(Form.basis(4, (1, 2)), Form.basis(4, (3,)))


def test_wedge_associative_on_random_triples():
    rng = random.Random(11)
    for _ in range(25):
        a = random_form(8, 1, rng)
        b = random_form(8, 2, rng)
        c = random_form(8, 3, rng)
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


def test_wedge_graded_commutative_on_random_pairs():
    rng = random.Random(12)
    for p, q in ((1, 1), (1, 2), (2, 2), (2, 3), (3, 3)):
        a = random_form(8, p, rng)
        b = random_form(8, q, rng)
        sign = -1 if (p * q) % 2 else 1
        assert wedge(a, b) == wedge(b, a) * sign


def test_antiderivation_law():
    rng = random.Random(13)
    for _ in range(20):
        a = random_form(8, 2, rng)
        b = random_form(8, 3, rng)
        v = random_vector(8, rng)
        assert antiderivation_defect(v, a, b).is_zero()


def test_adjointness_of_ext_and_interior():
    rng = random.Random(14)
    for _ in range(20):
        v = random_vector(8, rng)
        a = random_form(8, 2, rng)
        b = random_form(8, 3, rng)
        assert adjointness_defect(v, a, b) == 0


def test_clifford_anticommutator_general_pairs():
    rng = random.Random(15)
    for _ in range(20):
        v = random_vector(8, rng)
        w = random_vector(8, rng)
        xi = random_form(8, 3, rng)
        assert anticommutator_defect(v, w, xi).is_zero()


def test_orthogonal_pair_generator_is_exact():
    rng = random.Random(16)
    for _ in range(50):
        v, w = random_orthogonal_pair(8, rng)
        assert form_inner(v, w) == 0
        assert v.degree == w.degree == 1
        assert not v.is_zero() and not w.is_zero()


def test_dual_vector_round_trip():
    # a vector is its 1-form: the components drawn come back as coefficients
    v = random_vector(8, random.Random(17))
    rng = random.Random(17)
    drawn = tuple(F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(8))
    assert v.degree == 1 and v.dim == 8
    assert tuple(v.coefficient([i]) for i in range(1, 9)) == drawn


def test_form_inner_orthonormal_monomials():
    a = Form.from_terms(4, 2, {(1, 2): F(2), (3, 4): F(5)})
    b = Form.from_terms(4, 2, {(1, 2): F(1, 2), (1, 3): F(7)})
    assert form_inner(a, b) == F(1)


small_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@settings(max_examples=30, deadline=None)
@given(st.lists(small_rationals, min_size=4, max_size=4),
       st.lists(small_rationals, min_size=4, max_size=4))
def test_hypothesis_star_involution_dim4_degree1(c1, c2):
    xi = Form.from_terms(4, 1, {(i + 1,): c for i, c in enumerate(c1)})
    eta = Form.from_terms(4, 1, {(i + 1,): c for i, c in enumerate(c2)})
    # p(n-p) = 3 is odd: ** = -id on 1-forms in dim 4
    assert hodge_star(hodge_star(xi)) == xi * (-1)
    assert form_inner(hodge_star(xi), hodge_star(eta)) == form_inner(xi, eta)


@settings(max_examples=30, deadline=None)
@given(st.lists(small_rationals, min_size=4, max_size=4),
       st.lists(small_rationals, min_size=6, max_size=6))
def test_hypothesis_interior_antiderivation_dim4(vc, ac):
    v = one_form(vc)
    keys = list(combinations(range(1, 5), 2))
    a = Form.from_terms(4, 2, dict(zip(keys, ac)))
    b = Form.basis(4, (1, 3))
    assert antiderivation_defect(v, a, b).is_zero()


# --- integer numerators over one denominator, against a Fraction reference ---
#
# The reference works on {sorted index tuple: Fraction} maps and counts
# inversions of index sequences directly, sharing no code with the kernel.

def _inversion_sign(seq):
    inversions = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq))
                     if seq[i] > seq[j])
    return -1 if inversions % 2 else 1


def _add_term(out, key, c):
    out[key] = out.get(key, F(0)) + c
    if not out[key]:
        del out[key]


def _ref_wedge(a, b):
    out = {}
    for ia, ca in a.items():
        for ib, cb in b.items():
            if set(ia) & set(ib):
                continue
            _add_term(out, tuple(sorted(ia + ib)), _inversion_sign(ia + ib) * ca * cb)
    return out


def _ref_star(a, dim):
    out = {}
    for idx, c in a.items():
        rest = tuple(i for i in range(1, dim + 1) if i not in idx)
        out[rest] = _inversion_sign(idx + rest) * c
    return out


def _ref_interior(comps, a):
    out = {}
    for idx, c in a.items():
        for pos, i in enumerate(idx):
            if comps[i - 1]:
                _add_term(out, idx[:pos] + idx[pos + 1:],
                          (-1) ** pos * comps[i - 1] * c)
    return out


def _ref_combine(a, b, coeff):
    out = dict(a)
    for idx, c in b.items():
        _add_term(out, idx, coeff * c)
    return out


def _random_term_map(rng, dim, degree):
    # a random Fraction on every index tuple of one degree (zeros dropped)
    out = {}
    for combo in combinations(range(1, dim + 1), degree):
        c = F(rng.randint(-9, 9), rng.randint(1, 9))
        if c:
            out[combo] = c
    return out


def test_integer_forms_match_fraction_reference():
    rng = random.Random(123)
    for _ in range(100):
        dim = rng.randint(2, 11)
        p = rng.randint(0, dim)
        q = rng.randint(0, dim)
        ta = _random_term_map(rng, dim, p)
        tb = _random_term_map(rng, dim, q)
        comps = tuple(F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(dim))
        c = F(rng.randint(-9, 9), rng.randint(1, 9))
        a = Form.from_terms(dim, p, ta)
        b = Form.from_terms(dim, q, tb)
        assert a.terms() == ta
        if p + q <= dim:
            assert wedge(a, b).terms() == _ref_wedge(ta, tb)
        assert hodge_star(a).terms() == _ref_star(ta, dim)
        if p > 0:
            assert interior(one_form(comps), a).terms() == _ref_interior(comps, ta)
        assert (a * c).terms() == {k: c * v for k, v in ta.items() if c}
        if p == q:
            assert form_inner(a, b) == sum((v * tb[k] for k, v in ta.items()
                                            if k in tb), F(0))
            assert (a + b).terms() == _ref_combine(ta, tb, 1)
            assert (a - b).terms() == _ref_combine(ta, tb, -1)
            assert (a + b * c).terms() == _ref_combine(ta, tb, c)


def _assert_canonical(f):
    assert f.den >= 1
    assert gcd(f.den, *f._terms.values()) == 1
    assert all(f._terms.values())
    if f.is_zero():
        assert f.den == 1


def test_cancellation_to_zero_resets_denominator():
    rng = random.Random(21)
    for degree in range(0, 5):
        a = random_form(8, degree, rng) * F(5, 7)
        z = a + (-a)
        assert z == Form.zero(8, degree)
        assert z.den == 1 and z.is_zero()
        assert a - a == Form.zero(8, degree)
        assert (a * 0).den == 1


def test_scaling_round_trip_is_identity():
    rng = random.Random(22)
    for q in (F(3, 7), F(-9, 4), F(1, 2520), F(6)):
        a = random_form(8, 3, rng)
        scaled = a * q
        _assert_canonical(scaled)
        assert scaled * (1 / q) == a
        assert scaled.den == (a * q).den and scaled._terms == (a * q)._terms


def test_equal_forms_by_different_routes_compare_equal():
    half_12 = Form.from_terms(4, 2, {(1, 2): F(1, 2)})
    routes = (
        Form.basis(4, (2, 1), F(-2, 4)),
        Form.from_terms(4, 2, {(2, 1): F(-1, 3), (1, 2): F(1, 6)}),
        wedge(Form.basis(4, (1,), F(1, 3)), Form.basis(4, (2,), F(3, 2))),
        interior(Form.basis(4, (3,), F(1, 4)), Form.basis(4, (3, 1, 2), 2)),
        Form.basis(4, (1, 2), F(3, 4)) - Form.basis(4, (1, 2), F(1, 4)),
        hodge_star(Form.basis(4, (3, 4), F(1, 2))),
        (Form.basis(4, (1, 2)) + Form.basis(4, (3, 4))) * F(1, 2)
        - Form.basis(4, (3, 4), F(1, 2)),
    )
    for f in routes:
        _assert_canonical(f)
        assert f == half_12
        assert (f.den, f._terms) == (2, {0b11: 1})
    assert half_12 != Form.basis(4, (1, 2))
    assert half_12 != Form.basis(4, (1, 2), F(1, 2)) * 2
    assert form_inner(half_12, Form.basis(4, (1, 2), F(2, 3))) == F(1, 3)
    assert half_12.coefficient((2, 1)) == F(-1, 2)
    assert repr(half_12) == "Form(dim=4, deg=2, (1/2)*theta(1, 2))"


def test_interior_requires_a_one_form_of_the_same_dimension():
    a = Form.basis(4, (1, 2))
    for theta in (Form.basis(4, (1, 2)), Form.from_terms(4, 0, {(): 1})):
        with pytest.raises(ContractViolation, match="requires a 1-form"):
            interior(theta, a)
    with pytest.raises(DimensionMismatch):
        interior(Form.basis(5, (1,)), a)


@pytest.mark.parametrize("dim", [0, -1])
def test_form_refuses_a_dimension_below_one(dim):
    with pytest.raises(ContractViolation, match="dimension must be >= 1"):
        Form(dim, 0)


def test_forms_of_different_dimensions_differ():
    assert Form.basis(4, (1,)) != Form.basis(5, (1,))
    assert Form.zero(4, 1) != Form.zero(5, 1)


@pytest.mark.parametrize("make, field", [
    (lambda: ExactArray.of([1, 2], 3), "num"),
    (lambda: ExactArray.of([1, 2], 3), "den"),
], ids=["ExactArray.num", "ExactArray.den"])
def test_records_with_cached_values_refuse_assignment(make, field):
    # `bound` is computed once from the fields, so a field that could
    # change would leave it stale
    record = make()
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        delattr(record, field)


def test_form_rejects_nonpositive_denominator():
    with pytest.raises(ContractViolation):
        Form(4, 1, {0b1: 1}, 0)


@settings(max_examples=40, deadline=None)
@given(st.lists(small_rationals, min_size=6, max_size=6),
       st.lists(small_rationals, min_size=6, max_size=6))
def test_hypothesis_integer_storage_is_canonical_dim4(ac, bc):
    keys = list(combinations(range(1, 5), 2))
    a = Form.from_terms(4, 2, dict(zip(keys, ac)))
    b = Form.from_terms(4, 2, dict(zip(keys, bc)))
    for f in (a, b, a + b, a - b, wedge(a, b), hodge_star(a),
              interior(one_form(bc[:4]), a), a * bc[0]):
        _assert_canonical(f)
    # sign reversal of the key order negates; exact cancellation empties
    flipped = Form.from_terms(4, 2, {(j, i): c for (i, j), c in zip(keys, ac)})
    assert flipped == -a
    assert (a + flipped).is_zero() and (a + flipped).den == 1
    assert a.terms() == {k: c for k, c in zip(keys, ac) if c}


def reference_of(num, den=1):
    """`ExactArray.of` without its shortcuts: always a gcd pass and a
    division."""
    num = np.asarray(num, dtype=np.int64)
    g = gcd(den, int(np.gcd.reduce(num.ravel())))
    return ExactArray(num // g if num.any() else num, den // g)


def assert_same_array(got, want):
    assert type(got.den) is type(want.den) is int and got.den == want.den
    g, w = np.asarray(got.num), np.asarray(want.num)
    assert g.dtype == w.dtype == np.int64
    assert g.shape == w.shape and (g == w).all()
    assert got.bound == want.bound


def _of_cases(rng):
    """(label, numerators, den): every shape of input `of` meets."""
    a = rng.integers(-50, 51, size=(3, 4, 5))
    b = rng.integers(-50, 51, size=(4, 3, 2, 5))
    ones = a.copy()
    ones[0, 0, 0] = 1  # pins the gcd to 1
    yield "den 1", a, 1
    yield "den > 1, gcd 1", ones, 7
    yield "den > 1, gcd > 1", 6 * a, 4
    yield "den > 1, all divisible", 15 * a, 5
    yield "all zero, den 1", np.zeros((2, 3), dtype=np.int64), 1
    yield "all zero, den > 1", np.zeros((2, 3), dtype=np.int64), 9
    yield "empty, den > 1", np.zeros((0, 3), dtype=np.int64), 4
    yield "all zero, den past int64", np.zeros((2, 3), dtype=np.int64), 10 ** 24
    yield "negative entries", -3 * np.abs(a) - 3, 9
    yield "0-d einsum scalar, den 1", np.einsum("i,i->", a[0, 0], a[1, 0]), 1
    yield "0-d einsum scalar, den > 1", np.einsum("i,i->", 2 * a[0, 0], a[1, 0]), 6
    yield "0-d zero scalar, den > 1", np.einsum("i,i->", 0 * a[0, 0], a[1, 0]), 6
    assert not a[::2, 1:, ::-1].flags.c_contiguous
    yield "non-contiguous view, den 1", a[::2, 1:, ::-1], 1
    yield "non-contiguous view, den > 1", (4 * a).transpose(2, 0, 1)[1:], 8
    yield "bacd->abcd transpose, den 1", np.einsum("bacd->abcd", b), 1
    yield "bacd->abcd transpose, den > 1", np.einsum("bacd->abcd", 3 * b), 3
    yield "python list", [[2, -4], [6, 0]], 2


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_of_matches_the_reference_on_every_kind_of_input(seed):
    for label, num, den in _of_cases(np.random.default_rng(seed)):
        got, want = ExactArray.of(num, den), reference_of(num, den)  # neither writes
        try:
            assert_same_array(got, want)
        except AssertionError as exc:
            raise AssertionError(label) from exc


@pytest.mark.parametrize("seed", [0, 1])
def test_contract_transposes_match_the_reference(seed):
    rng = np.random.default_rng(seed)
    b = rng.integers(-50, 51, size=(4, 3, 2, 5))
    for k, den in ((1, 1), (3, 3), (2, 6)):
        op = ExactArray.of(k * b, den)
        want = reference_of(np.einsum("bacd->abcd", op.num), op.den)
        assert_same_array(contract("bacd->abcd", op), want)
    x = ExactArray.of(rng.integers(-9, 10, size=5), 4)
    assert_same_array(contract("i,i->", x, x),
                      reference_of(np.einsum("i,i->", x.num, x.num), x.den * x.den))


def test_of_takes_over_its_argument_when_nothing_cancels():
    x = np.arange(-6, 6, dtype=np.int64).reshape(3, 4)
    assert np.shares_memory(ExactArray.of(x, 1).num, x)
    y = np.array([1, 2, 3], dtype=np.int64)
    assert np.shares_memory(ExactArray.of(y, 5).num, y)
    z = np.array([2, 4, 6], dtype=np.int64)
    reduced = ExactArray.of(z, 4)
    assert not np.shares_memory(reduced.num, z)
    assert (reduced.num == [1, 2, 3]).all() and reduced.den == 2


@pytest.mark.parametrize("den", [0, -3])
def test_of_refuses_a_nonpositive_denominator(den):
    with pytest.raises(ContractViolation):
        ExactArray.of([1], den)


def test_numerators_are_read_only():
    x = np.arange(6, dtype=np.int64).reshape(2, 3)
    a = ExactArray.of(x, 1)
    arrays = (a, ExactArray(np.ones(3, dtype=np.int64)), ExactArray.of([2, 4], 6),
              a[1], a.reshape(3, 2), -a, a + a, a * F(1, 2), contract("ij,kj->ik", a, a),
              ExactArray.from_entries((2, 2), {(0, 1): F(1, 3)}))
    for arr in arrays:
        with pytest.raises(ValueError):
            arr.num[...] = 0
    with pytest.raises(ValueError):  # `of` took `x` over
        x[0, 0] = 1
    assert (a.num == np.arange(6).reshape(2, 3)).all()


def _guard_cases():
    """(label, step, its exact int64 guard figure) on operands made fresh by
    `_guard_operands`: a over 2 with bound 40, b over 3 with bound 37."""
    yield "contract", lambda a, b: contract("ij,kj->ik", a, b), 4 * 40 * 37
    yield "add", lambda a, b: a + a, 40 + 40
    yield "add over the lcm", lambda a, b: a - b, 3 * 40 + 2 * 37
    yield "scale", lambda a, b: a * F(7, 5), 40 * 7


def _guard_operands():
    rng = np.random.default_rng(5)
    p, q = rng.integers(-36, 37, size=(2, 3, 4))
    p[0, :2] = 1, -40  # gcd 1 with any den, and bound 40
    q[0, :2] = 1, 37
    return ExactArray.of(p, 2), ExactArray.of(q, 3)


@pytest.mark.parametrize("label, step, exact", list(_guard_cases()),
                         ids=[c[0] for c in _guard_cases()])
def test_guards_bite_through_the_cached_bound(monkeypatch, label, step, exact):
    monkeypatch.setattr(forms, "INT_BOUND", exact)
    a, b = _guard_operands()
    assert (a.bound, a.den, b.bound, b.den) == (40, 2, 37, 3)
    ops = _guard_operands()
    step(*ops)  # first use computes and caches the bounds
    assert "bound" in vars(ops[0])
    step(*ops)  # repeated use reads them
    monkeypatch.setattr(forms, "INT_BOUND", exact - 1)
    for operands in (_guard_operands(), ops):  # first use, then repeated use
        with pytest.raises(Int64RangeError):
            step(*operands)
