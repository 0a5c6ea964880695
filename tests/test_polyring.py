"""Polynomial arithmetic: examples, independent oracles, and ring properties."""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doldseq.polyring import (
    ModPoly,
    add,
    bareiss_det,
    degree,
    derivative,
    discriminant,
    divmod_exact,
    evaluate,
    gcd_monic,
    mul,
    normalize,
    power_sums,
    resultant,
    squarefree_part,
    sub,
    sylvester_matrix,
)


def leibniz_det(matrix):
    """Permutation-expansion determinant; an independent exact oracle."""
    n = len(matrix)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        # sign via cycle decomposition
        for start in range(n):
            if seen[start]:
                continue
            length = 0
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term = sign
        for i in range(n):
            term *= matrix[i][perm[i]]
        total += term
    return total


def random_poly(rng, deg, lo=-9, hi=9, monic=False):
    coeffs = [rng.randrange(lo, hi + 1) for _ in range(deg)]
    coeffs.append(1 if monic else rng.choice([c for c in range(lo, hi + 1) if c]))
    return normalize(coeffs)


# -- resultants and discriminants --------------------------------------------


def test_resultant_linear_orientation():
    # res(x - 1, x - 2) = 2 - 1 = 1
    assert resultant([-1, 1], [-2, 1]) == 1


def test_resultant_fibonacci_discriminant_ingredient():
    f = [-1, -1, 1]  # x^2 - x - 1
    assert resultant(f, derivative(f)) == -5
    assert discriminant(f) == 5


def test_resultant_of_self_is_zero():
    for f in ([-1, -1, 1], [1, 0, -10, 0, 1], [2, 3, 1]):
        assert resultant(f, f) == 0


def test_resultant_constant_cases():
    assert resultant([5], [-1, 2, 1]) == 25
    assert resultant([-1, 2, 1], [5]) == 25


def test_discriminant_examples():
    assert discriminant([-3, -12, 1]) == 156
    assert discriminant([1, 0, -10, 0, 1]) == 147456
    assert discriminant([2, -3, 1]) == 1  # (x-1)(x-2)
    assert discriminant([7, 1]) == 1  # linear convention
    assert discriminant([1]) == 1


def test_discriminant_requires_monic():
    with pytest.raises(ValueError):
        discriminant([1, 2])


def test_bareiss_against_leibniz():
    rng = random.Random(3)
    for n in range(1, 6):
        for _ in range(20):
            m = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
            assert bareiss_det(m) == leibniz_det(m)


def test_sylvester_determinant_matches_resultant():
    rng = random.Random(17)
    for _ in range(40):
        f = random_poly(rng, rng.randrange(1, 4))
        g = random_poly(rng, rng.randrange(1, 4))
        assert resultant(f, g) == leibniz_det(sylvester_matrix(g, f))


def test_discriminant_multiplicative():
    # disc(f*g) = disc(f) * disc(g) * res(f, g)^2 for monic f, g
    rng = random.Random(23)
    for _ in range(100):
        f = random_poly(rng, rng.randrange(1, 5), monic=True)
        g = random_poly(rng, rng.randrange(1, 5), monic=True)
        assert discriminant(mul(f, g)) == discriminant(f) * discriminant(g) * resultant(f, g) ** 2


def test_vandermonde_float_oracle():
    # |det (alpha_j^i)_{i=1..d}| = |r_d| * sqrt(|disc|) for distinct nonzero roots
    rng = random.Random(31)
    done = 0
    while done < 40:
        d = rng.choice([2, 3])
        f = random_poly(rng, d, monic=True)
        if degree(f) != d or f[0] == 0:
            continue
        disc = discriminant(f)
        if disc == 0:
            continue
        roots = np.roots(list(reversed(f)))
        if min(abs(a - b) for a, b in itertools.combinations(roots, 2)) < 1e-3:
            continue
        m = np.array([[r ** (i + 1) for r in roots] for i in range(d)])
        det = abs(np.linalg.det(m))
        expected = abs(f[0]) * math.sqrt(abs(disc))
        assert det == pytest.approx(expected, rel=1e-6)
        done += 1


# -- squarefree part and power sums ------------------------------------------


def test_squarefree_part_examples():
    assert squarefree_part(mul(mul([-1, 1], [-1, 1]), [-2, 1])) == mul([-1, 1], [-2, 1])
    assert squarefree_part([-1, -1, 1]) == [-1, -1, 1]
    assert squarefree_part([4, -4, 1]) == [-2, 1]


def test_squarefree_part_coprime_with_derivative():
    rng = random.Random(41)
    for _ in range(50):
        f = random_poly(rng, rng.randrange(1, 4), monic=True)
        g = random_poly(rng, rng.randrange(1, 3), monic=True)
        sf = squarefree_part(mul(mul(f, f), g))
        assert degree(gcd_monic(sf, derivative(sf))) == 0


def test_power_sums_examples():
    assert power_sums([-1, -1, 1], 4) == [1, 3, 4, 7]  # Lucas numbers
    assert power_sums([-3, -12, 1], 3) == [12, 150, 1836]
    assert power_sums([2, -3, 1], 3) == [3, 5, 9]  # roots 1 and 2


def test_power_sums_literal_roots():
    rng = random.Random(43)
    for _ in range(30):
        roots = [rng.randrange(-6, 7) for _ in range(rng.randrange(1, 5))]
        f = [1]
        for r in roots:
            f = mul(f, [-r, 1])
        sums = power_sums(f, 50)
        for n in range(1, 51):
            assert sums[n - 1] == sum(r**n for r in roots)


def test_power_sums_satisfy_recurrence():
    rng = random.Random(47)
    for _ in range(30):
        d = rng.randrange(1, 6)
        f = random_poly(rng, d, monic=True)
        if degree(f) != d:
            continue
        sums = power_sums(f, 40)
        c = f[:-1]
        for n in range(d, 40):
            assert sums[n] == -sum(c[d - i] * sums[n - i] for i in range(1, d + 1))


# -- mod-p polynomials -------------------------------------------------------


def test_modpoly_rejects_composite_modulus():
    with pytest.raises(ValueError):
        ModPoly.make([1, 1], 6)


# -- integer polynomial ring axioms ------------------------------------------

small_poly = st.lists(st.integers(min_value=-20, max_value=20), max_size=6)


@settings(deadline=None)
@given(small_poly, small_poly, small_poly)
def test_ring_axioms(f, g, h):
    assert add(f, g) == add(g, f)
    assert mul(f, g) == mul(g, f)
    assert mul(f, add(g, h)) == add(mul(f, g), mul(f, h))
    assert sub(add(f, g), g) == normalize(f)


@settings(deadline=None)
@given(small_poly, st.lists(st.integers(min_value=-20, max_value=20), min_size=1, max_size=4), st.integers(-5, 5))
def test_divmod_exact_identity(f, g, x):
    g = normalize(g + [1])  # force monic
    out = divmod_exact(f, g)
    assert out is not None
    q, r = out
    assert add(mul(q, g), r) == normalize(f)
    assert degree(r) < degree(g)
    assert evaluate(f, x) == evaluate(q, x) * evaluate(g, x) + evaluate(r, x)
