"""The term-arithmetic kernel: merge signs, wedge and star against inversion
counts, and the integer-numerator maps that Form passes against the same
maps in Fraction."""

import random
from fractions import Fraction as F
from itertools import combinations

from qkcomp import kernel


def random_int_terms(rng, dim, degree):
    out = {}
    for combo in combinations(range(dim), degree):
        mask = 0
        for i in combo:
            mask |= 1 << i
        c = rng.randint(-2520, 2520)
        if c:
            out[mask] = c
    return out


def nonzero_components(comps):
    """The vector of components comps as interior_terms takes it: its
    nonzero components {1 << i: comps[i]}."""
    return {1 << i: x for i, x in enumerate(comps) if x}


def inversions(ka, kb):
    """The pairs (i in ka, j in kb) with i > j, counted one pair at a time."""
    return sum(1 for i in range(ka.bit_length()) if ka >> i & 1
               for j in range(i) if kb >> j & 1)


def test_merge_sign_reference_cases():
    # ka = {1}, kb = {2}: already sorted
    assert kernel.merge_sign(0b01, 0b10) == 1
    # ka = {2}, kb = {1}: one transposition
    assert kernel.merge_sign(0b10, 0b01) == -1
    # ka = {1,3}, kb = {2}: 2 passes 3 only
    assert kernel.merge_sign(0b101, 0b010) == -1


def test_merge_sign_counts_inversions_exhaustive():
    for ka in range(64):
        for kb in range(64):
            if ka & kb:
                continue
            assert kernel.merge_sign(ka, kb) == (-1) ** inversions(ka, kb)


def test_integer_maps_match_fraction_maps():
    # the kernel is generic in the coefficient type: integer numerators give
    # the same values as the same maps in Fraction, and stay int
    rng = random.Random(125)
    for _ in range(100):
        dim = rng.randint(2, 11)
        p = rng.randint(0, dim)
        q = rng.randint(0, dim)
        a = random_int_terms(rng, dim, p)
        b = random_int_terms(rng, dim, q)
        fa = {k: F(c) for k, c in a.items()}
        fb = {k: F(c) for k, c in b.items()}
        v = nonzero_components(tuple(rng.randint(-9, 9) for _ in range(dim)))
        c = rng.randint(-9, 9)
        acc, facc = dict(a), dict(fa)
        kernel.accumulate_scaled(acc, b, c)
        kernel.accumulate_scaled(facc, fb, F(c))
        pairs = ((kernel.wedge_terms(a, b), kernel.wedge_terms(fa, fb)),
                 (kernel.star_terms(a, dim), kernel.star_terms(fa, dim)),
                 (kernel.interior_terms(v, a),
                  kernel.interior_terms({k: F(x) for k, x in v.items()}, fa)),
                 (acc, facc))
        for got, want in pairs:
            assert got == want
            assert all(type(v) is int and v for v in got.values())
        inner = kernel.inner_terms(a, b)
        assert type(inner) is int and inner == kernel.inner_terms(fa, fb)


def test_accumulate_cancels_to_empty():
    a = {0b11: F(2, 3)}
    acc = dict(a)
    kernel.accumulate_scaled(acc, a, F(-1))
    assert acc == {}


def reference_interior_terms(comps, a):
    """Contraction with the vector of components comps by the loop that
    visits every set bit of every monomial, with the sign (-1)^pos of the
    bit's position: the oracle of the loop over the nonzero components."""
    out = {}
    for k, c in a.items():
        rest = k
        pos = 0
        while rest:
            low = rest & -rest
            v = comps[low.bit_length() - 1]
            if v:
                k2 = k ^ low
                c2 = v * c if pos % 2 == 0 else -v * c
                acc = out.get(k2)
                if acc is None:
                    out[k2] = c2
                else:
                    acc = acc + c2
                    if acc:
                        out[k2] = acc
                    else:
                        del out[k2]
            rest ^= low
            pos += 1
    return out


def test_interior_terms_match_the_every_bit_loop():
    # seeded random term maps of every degree, against basis vectors,
    # sparse vectors, dense vectors and the zero vector
    rng = random.Random(126)
    for _ in range(300):
        dim = rng.randint(1, 10)
        a = random_int_terms(rng, dim, rng.randint(0, dim))
        density = rng.choice((0.0, 0.2, 0.5, 1.0))
        vectors = [tuple(int(i == b) for i in range(dim)) for b in range(dim)]
        vectors.append(tuple(rng.randint(-9, 9) if rng.random() < density else 0
                             for _ in range(dim)))
        for comps in vectors:
            out = kernel.interior_terms(nonzero_components(comps), a)
            assert out == reference_interior_terms(comps, a)
            assert list(out) == list(reference_interior_terms(comps, a))


def accumulate(out, k, c):
    """out[k] += c, dropping k when the sum cancels, as the kernel does."""
    if k in out:
        out[k] += c
        if not out[k]:
            del out[k]
    else:
        out[k] = c


def reference_wedge_terms(a, b):
    """Exterior product by the inversion count of every pair of disjoint
    monomials: the oracle of the kernel's one mask per left term."""
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            if not ka & kb:
                accumulate(out, ka | kb, (-1) ** inversions(ka, kb) * ca * cb)
    return out


def reference_star_terms(a, dim):
    """Hodge dual by the inversion count of each monomial against its
    complement."""
    full = (1 << dim) - 1
    return {full & ~k: (-1) ** inversions(k, full & ~k) * c for k, c in a.items()}


def random_sparse_terms(rng, dim, degree):
    """A seeded term map of one degree: a random share of its monomials, in
    random insertion order."""
    items = list(random_int_terms(rng, dim, degree).items())
    rng.shuffle(items)
    return dict(items[:rng.randint(0, len(items))])


def test_wedge_and_star_terms_match_the_inversion_count():
    # seeded random term maps of every degree in dims 1-10, including the
    # empty map and single monomials; keys come in the reference's order
    rng = random.Random(127)
    for _ in range(400):
        dim = rng.randint(1, 10)
        a = random_sparse_terms(rng, dim, rng.randint(0, dim))
        b = random_sparse_terms(rng, dim, rng.randint(0, dim))
        for got, want in ((kernel.wedge_terms(a, b), reference_wedge_terms(a, b)),
                          (kernel.star_terms(a, dim), reference_star_terms(a, dim))):
            assert got == want
            assert list(got) == list(want)

