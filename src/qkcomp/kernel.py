"""The exact term kernel: sparse exterior-algebra term arithmetic for
:mod:`qkcomp.forms`.

A form of degree p over an n-dimensional oriented orthonormal basis is a
mapping ``mask -> coefficient`` where ``mask`` is an integer whose set
bits (bit i-1 for basis index i) name a strictly increasing index tuple,
and the coefficient is an ``int``: the form's numerator on that monomial
(:class:`qkcomp.forms.Form` keeps the one shared denominator).  The
functions are exact for any exact coefficient type, ``Fraction`` included.
All sign bookkeeping counts transpositions via bit tricks; nothing here is
ever floating point.

``forms`` looks every function up on this module at call time, so callers
(tests, instrumentation) can rebind them here in one place.
"""

from __future__ import annotations

BACKEND = "python"


def _above(ka: int) -> int:
    """Mask whose bit j is set iff an odd number of the bits of ka lie above j.

    Nonnegative: each bit of ka flips every bit strictly below it.  The
    sign of theta^ka ^ theta^kb (disjoint masks) is the parity of
    kb & _above(ka), since each bit of kb passes the bits of ka above it;
    for one bit, _above(bit) is bit - 1, the sign of `interior_terms`."""
    q = 0
    while ka:
        low = ka & -ka
        q ^= low - 1
        ka ^= low
    return q


def merge_sign(ka: int, kb: int) -> int:
    """Sign of sorting the concatenation (tuple of ka, tuple of kb).

    Both masks are assumed disjoint.  Equals (-1)**t where t is the
    number of pairs (i in ka, j in kb) with i > j.
    """
    return -1 if (kb & _above(ka)).bit_count() & 1 else 1


def wedge_terms(a: dict, b: dict) -> dict:
    """Exterior product of two term maps."""
    out: dict = {}
    for ka, ca in a.items():
        q = _above(ka)
        for kb, cb in b.items():
            if ka & kb:
                continue
            k = ka | kb
            c = -ca * cb if (kb & q).bit_count() & 1 else ca * cb
            acc = out.get(k)
            if acc is None:
                out[k] = c
            else:
                acc = acc + c
                if acc:
                    out[k] = acc
                else:
                    del out[k]
    return out


def star_terms(a: dict, dim: int) -> dict:
    """Hodge dual of a term map for the canonical orientation."""
    full = (1 << dim) - 1
    out: dict = {}
    for k, c in a.items():
        kc = full & ~k
        out[kc] = c if merge_sign(k, kc) > 0 else -c
    return out


def interior_terms(v: dict, a: dict) -> dict:
    """Contraction with the vector of nonzero components v = {1 << i: v_i}
    (0-based i), which alone are visited: removing bit i of a monomial k
    carries the sign (-1)^(bits of k below i)."""
    out: dict = {}
    for k, c in a.items():
        for bit, vi in v.items():
            if k & bit:
                k2 = k ^ bit
                c2 = -vi * c if (k & (bit - 1)).bit_count() & 1 else vi * c
                acc = out.get(k2)
                if acc is None:
                    out[k2] = c2
                else:
                    acc = acc + c2
                    if acc:
                        out[k2] = acc
                    else:
                        del out[k2]
    return out


def accumulate_scaled(acc: dict, terms: dict, coeff) -> None:
    """In-place acc += coeff * terms (coeff an int, or any exact rational)."""
    if not coeff:
        return
    for k, c in terms.items():
        cur = acc.get(k)
        if cur is None:
            acc[k] = coeff * c
        else:
            cur = cur + coeff * c
            if cur:
                acc[k] = cur
            else:
                del acc[k]


def inner_terms(a: dict, b: dict):
    """Inner product of two term maps (basis forms are orthonormal)."""
    total = 0
    if len(b) < len(a):
        a, b = b, a
    for k, c in a.items():
        cb = b.get(k)
        if cb is not None:
            total += c * cb
    return total
