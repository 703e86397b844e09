"""Exact exterior algebra over R^dim with its canonical inner product, and
the one dense exact array type.

Coefficients are arbitrary-precision rationals throughout, stored as
integer numerators over one shared positive denominator per form; every
operator identity checked on top of this module is therefore exact, with
no tolerances.  The canonical ordered basis is orthonormal and fixes the
orientation, so a form's space is its dimension `dim`, and a vector is its
metric-dual 1-form: the two have the same components.

Dense exact data (Hessians, the model's bracket, connection and curvature
tables) is an `ExactArray` in the same format: int64 numerators over one
positive denominator.  `contract` (np.einsum) and the elementwise steps
first bound the numerators they can produce and raise Int64RangeError if
they could pass 2^62.  Entries read one at a time are `Fraction`s.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

from . import kernel

Rational = Fraction | int


class DimensionMismatch(ValueError):
    """Operands live over different ambient spaces."""


class ContractViolation(ValueError):
    """An operation precondition was violated."""


class Int64RangeError(ContractViolation):
    """An exact table would leave the int64 range."""


INT_BOUND = 1 << 62


def guard_int64(bound: int, step: str) -> None:
    """Refuse `step` if its numerators could reach `bound` > 2^62."""
    if bound > INT_BOUND:
        raise Int64RangeError(
            f"exact table out of the int64 range: {step} could reach {bound} > 2^62")


class Frozen:
    """A record whose cached properties are read from its fields: `__init__`
    sets the fields once, into `__dict__` (where `cached_property` also
    stores), and assigning or deleting an attribute raises AttributeError,
    so a cached value never goes stale."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {type(self).__name__}.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}")


class ValueEq:
    """A record equal to one of its own class whose `__slots__` fields are
    all equal; unhashable."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self.__slots__)


def _mask(indices: Iterable[int], dim: int) -> int:
    m = 0
    for i in indices:
        if not 1 <= i <= dim:
            raise ContractViolation(f"index {i} out of range 1..{dim}")
        bit = 1 << (i - 1)
        if m & bit:
            raise ContractViolation(f"repeated index {i}")
        m |= bit
    return m


def _indices(mask: int) -> tuple[int, ...]:
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def _sort_sign(indices: tuple[int, ...]) -> int:
    """Sign of the permutation sorting `indices` ascending (0 if repeated)."""
    sign = 1
    seq = list(indices)
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] == seq[j]:
                return 0
            if seq[i] > seq[j]:
                sign = -sign
    return sign


class Form:
    """Alternating multilinear form with exact rational coefficients.

    Stored sparsely as integer numerators ``mask -> int`` over one shared
    denominator ``den > 0``, with zero numerators never kept.  The pair is
    kept canonical, ``gcd(den, *numerators) == 1`` and ``den == 1`` for
    the zero form, so equal forms have equal storage and ``==`` is
    structural.  Instances are immutable; all operations return new forms.
    """

    __slots__ = ("dim", "degree", "_terms", "den")

    def __init__(self, dim: int, degree: int, terms: dict | None = None, den: int = 1):
        """Form ``sum terms[mask] / den * theta^mask`` on R^dim; ``terms``
        maps index masks to integer numerators and is taken over (not
        copied)."""
        if dim < 1:
            raise ContractViolation(f"dimension must be >= 1, got {dim}")
        if degree < 0:
            raise ContractViolation(f"degree must be >= 0, got {degree}")
        if den < 1:
            raise ContractViolation(f"denominator must be positive, got {den}")
        if terms is None:
            terms = {}
        if not terms:
            den = 1
        elif den != 1:
            g = math.gcd(den, *terms.values())
            if g != 1:
                terms = {k: c // g for k, c in terms.items()}
                den //= g
        self.dim = dim
        self.degree = degree
        self._terms: dict = terms
        self.den: int = den

    @classmethod
    def zero(cls, dim: int, degree: int) -> "Form":
        return cls(dim, degree)

    @classmethod
    def basis(cls, dim: int, indices: Iterable[int], coeff: Rational = 1) -> "Form":
        """Form coeff * theta^{i1} ^ ... ^ theta^{ip} for the given index order."""
        idx = tuple(indices)
        sign = _sort_sign(idx)
        c = Fraction(coeff) * sign
        if not c:
            return cls(dim, len(idx))
        return cls(dim, len(idx), {_mask(idx, dim): c.numerator}, c.denominator)

    @classmethod
    def from_terms(cls, dim: int, degree: int,
                   term_map: Mapping[tuple[int, ...], Rational]) -> "Form":
        entries = []
        for idx, coeff in term_map.items():
            if len(idx) != degree:
                raise ContractViolation(
                    f"key {idx} has length {len(idx)}, expected degree {degree}")
            c = coeff if isinstance(coeff, (int, Fraction)) else Fraction(coeff)
            sign = _sort_sign(tuple(idx))
            if sign and c:
                entries.append((_mask(idx, dim), sign * c.numerator, c.denominator))
        den = math.lcm(*(d for _, _, d in entries))
        terms: dict = {}
        for m, num, d in entries:
            terms[m] = terms.get(m, 0) + num * (den // d)
        return cls(dim, degree, {m: c for m, c in terms.items() if c}, den)

    def coefficient(self, indices: Iterable[int]) -> Fraction:
        """Coefficient on the monomial written in the given index order."""
        idx = tuple(indices)
        sign = _sort_sign(idx)
        if sign == 0:
            return Fraction(0)
        return Fraction(sign * self._terms.get(_mask(idx, self.dim), 0), self.den)

    def terms(self) -> dict[tuple[int, ...], Fraction]:
        """Sorted-index view of the stored terms."""
        return {_indices(m): Fraction(c, self.den)
                for m, c in sorted(self._terms.items())}

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Form):
            return NotImplemented
        return (self.dim == other.dim and self.degree == other.degree
                and self.den == other.den and self._terms == other._terms)

    def __hash__(self):  # pragma: no cover - forms are not hashable
        raise TypeError("Form is unhashable")

    def _combine(self, other: "Form", sign: int, verb: str) -> "Form":
        """self + sign * other, both rescaled to the lcm of the denominators."""
        self._check_compatible(other)
        if self.degree != other.degree:
            raise ContractViolation(
                f"cannot {verb} degrees {self.degree} and {other.degree}")
        da, db = self.den, other.den
        if da == db:
            out = dict(self._terms)
        else:
            g = math.gcd(da, db)
            scale = db // g
            out = {k: c * scale for k, c in self._terms.items()}
            sign *= da // g
            da *= scale
        kernel.accumulate_scaled(out, other._terms, sign)
        return Form(self.dim, self.degree, out, da)

    def __add__(self, other: "Form") -> "Form":
        return self._combine(other, 1, "add")

    def __sub__(self, other: "Form") -> "Form":
        return self._combine(other, -1, "subtract")

    def __neg__(self) -> "Form":
        return Form(self.dim, self.degree, {k: -c for k, c in self._terms.items()}, self.den)

    def __mul__(self, scalar: Rational) -> "Form":
        if scalar == 1:
            return self
        if scalar == -1:
            return self.__neg__()
        c = Fraction(scalar)
        if not c:
            return Form(self.dim, self.degree)
        num = c.numerator
        return Form(self.dim, self.degree,
                    {k: num * v for k, v in self._terms.items()},
                    self.den * c.denominator)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        if not self._terms:
            return f"Form(dim={self.dim}, deg={self.degree}, 0)"
        parts = " + ".join(
            f"({Fraction(c, self.den)})*theta{_indices(m)}"
            for m, c in sorted(self._terms.items()))
        return f"Form(dim={self.dim}, deg={self.degree}, {parts})"

    def _check_compatible(self, other: "Form") -> None:
        if self.dim != other.dim:
            raise DimensionMismatch(f"ambient dimensions differ: {self.dim} vs {other.dim}")


def wedge(a: Form, b: Form) -> Form:
    """Exterior product a ^ b."""
    a._check_compatible(b)
    degree = a.degree + b.degree
    if degree > a.dim:
        return Form(a.dim, degree)
    return Form(a.dim, degree, kernel.wedge_terms(a._terms, b._terms), a.den * b.den)


def hodge_star(a: Form) -> Form:
    """Hodge star for the canonical orientation: maps degree p to dim - p."""
    if a.degree > a.dim:
        return Form(a.dim, 0)
    return Form(a.dim, a.dim - a.degree, kernel.star_terms(a._terms, a.dim), a.den)


def interior(theta: Form, a: Form) -> Form:
    """Interior product i_v a with the vector v dual to the 1-form theta:
    the basis is orthonormal, so v has theta's components."""
    if theta.degree != 1:
        raise ContractViolation(
            f"interior product requires a 1-form, got degree {theta.degree}")
    theta._check_compatible(a)
    if a.degree == 0:
        return Form(a.dim, 0)
    return Form(a.dim, a.degree - 1, kernel.interior_terms(theta._terms, a._terms),
                a.den * theta.den)


def ext_mult(theta: Form, a: Form) -> Form:
    """Exterior multiplication by a 1-form: theta ^ a."""
    if theta.degree != 1:
        raise ContractViolation(
            f"exterior multiplication requires a 1-form, got degree {theta.degree}")
    return wedge(theta, a)


def form_inner(a: Form, b: Form) -> Fraction:
    """Induced inner product on forms (basis monomials are orthonormal)."""
    a._check_compatible(b)
    if a.degree != b.degree:
        return Fraction(0)
    return Fraction(kernel.inner_terms(a._terms, b._terms), a.den * b.den)


class ExactArray(Frozen):
    """Exact rational array: int64 numerators `num` over the positive
    denominator `den`.

    Built by `of`, the pair is in lowest terms, ``gcd(den, *num) == 1``.
    `of` takes over its argument without copying it when nothing cancels,
    as `Form` takes over `terms`.  The numerators are read-only from
    construction on, so `bound` is computed once per array and never goes
    stale."""

    def __init__(self, num: np.ndarray, den: int = 1):
        if isinstance(num, np.ndarray):  # a numpy scalar is immutable
            num.flags.writeable = False
        self.__dict__.update(num=num, den=den)

    @classmethod
    def of(cls, num, den: int = 1) -> ExactArray:
        if den < 1:
            raise ContractViolation(f"denominator must be positive, got {den}")
        num = np.asarray(num, dtype=np.int64)
        if den == 1:
            return cls(num)
        g = math.gcd(den, int(np.gcd.reduce(num.ravel())))
        if g == 1:
            return cls(num, den)
        return cls(num // g if num.any() else num, den // g)  # g may pass int64 on zeros

    @classmethod
    def from_entries(cls, shape, entries: dict) -> ExactArray:
        """The array of `shape` holding the rationals {index: value}, zero
        elsewhere."""
        entries = {idx: Fraction(v) for idx, v in entries.items()}
        den = math.lcm(*(v.denominator for v in entries.values()))
        scaled = {idx: v.numerator * (den // v.denominator) for idx, v in entries.items()}
        guard_int64(max(map(abs, scaled.values()), default=0), "rational entries")
        num = np.zeros(shape, dtype=np.int64)
        for idx, v in scaled.items():
            num[idx] = v
        return cls.of(num, den)

    @cached_property
    def bound(self) -> int:
        """The largest numerator magnitude, at least 1, so that it times a
        multiplier also bounds the multiplier."""
        return int(np.abs(self.num).max(initial=1))

    def __getitem__(self, idx) -> ExactArray:
        return ExactArray(self.num[idx], self.den)

    def reshape(self, *shape: int) -> ExactArray:
        return ExactArray(self.num.reshape(shape), self.den)

    def fraction(self, *idx: int) -> Fraction:
        return Fraction(int(self.num[idx]), self.den)

    def fractions(self) -> list:
        """The entries as nested lists of Fraction."""
        def build(x):
            return [build(y) for y in x] if isinstance(x, list) else Fraction(x, self.den)
        return build(self.num.tolist())

    def items(self):
        """(index tuple, Fraction) for every nonzero entry, in index order."""
        for idx in map(tuple, np.argwhere(self.num).tolist()):
            yield idx, Fraction(int(self.num[idx]), self.den)

    def _common(self, other) -> tuple[np.ndarray, np.ndarray, int]:
        """Both numerator arrays over the lcm of the denominators."""
        if not isinstance(other, ExactArray):
            other = Fraction(other)
            other = ExactArray.of(other.numerator, other.denominator)
        den = math.lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        guard_int64(self.bound * a + other.bound * b, "common denominator")
        return self.num * a, other.num * b, den

    def __add__(self, other) -> ExactArray:
        x, y, den = self._common(other)
        return ExactArray.of(x + y, den)

    def __sub__(self, other) -> ExactArray:
        x, y, den = self._common(other)
        return ExactArray.of(x - y, den)

    def __neg__(self) -> ExactArray:
        return ExactArray(-self.num, self.den)

    def __mul__(self, k) -> ExactArray:
        k = Fraction(k)
        guard_int64(self.bound * abs(k.numerator), "scaling")
        return ExactArray.of(self.num * k.numerator, self.den * k.denominator)

    __rmul__ = __mul__

    def ne(self, other) -> np.ndarray:
        """Elementwise self != other, exactly (other broadcasts)."""
        x, y, _ = self._common(other)
        return x != y


def contract(spec: str, *ops: ExactArray) -> ExactArray:
    """np.einsum of the numerators under `spec`, over the product of the
    denominators; refused if a sum of products could pass 2^62."""
    inputs, output = spec.split("->")
    sizes: dict[str, int] = {}
    for sub, op in zip(inputs.split(","), ops):
        sizes.update(zip(sub, op.num.shape))
    terms = math.prod(size for index, size in sizes.items() if index not in output)
    guard_int64(terms * math.prod(op.bound for op in ops), spec)
    return ExactArray.of(np.einsum(spec, *(op.num for op in ops)),
                         math.prod(op.den for op in ops))


def two_form(dim: int, mat: ExactArray) -> Form:
    """The 2-form sum_{i<j} mat[i, j] theta^i ^ theta^j of an antisymmetric
    matrix (0-based axes)."""
    return Form.from_terms(dim, 2, {(i + 1, j + 1): v for (i, j), v in mat.items() if i < j})
