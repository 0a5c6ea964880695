"""Polynomial arithmetic: examples, independent oracles, and ring properties."""

import itertools
import math
import random
from fractions import Fraction

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
    mul,
    normalize,
    power_sums,
    squarefree_part,
    sub,
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


# -- discriminants -----------------------------------------------------------
#
# The Sylvester route is the referee: it forms neither the power sums nor
# the Hankel matrix that discriminant() takes the determinant of.


def sylvester_matrix(f, g):
    """Sylvester matrix of (f, g): deg g rows of f's coefficients, then deg f rows of g's."""
    f, g = normalize(f), normalize(g)
    m, n = len(f) - 1, len(g) - 1
    fd, gd = f[::-1], g[::-1]
    rows = [[0] * i + fd + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + gd + [0] * (m - 1 - i) for i in range(m)]
    assert all(len(row) == m + n for row in rows)
    return rows


def sylvester_discriminant(f):
    """(-1)^(d(d-1)/2) res(f, f') for monic f of degree d, with res(f, f') = det Sylvester(f', f)."""
    d = degree(f)
    if d <= 1:
        return 1
    return (-1) ** (d * (d - 1) // 2) * bareiss_det(sylvester_matrix(derivative(f), f))


def test_resultant_fibonacci_discriminant_ingredient():
    f = [-1, -1, 1]  # x^2 - x - 1
    assert bareiss_det(sylvester_matrix(derivative(f), f)) == -5  # res(f, f')
    assert sylvester_discriminant(f) == 5
    assert discriminant(f) == 5


def test_discriminant_examples():
    assert discriminant([-3, -12, 1]) == 156
    assert discriminant([1, 0, -10, 0, 1]) == 147456
    assert discriminant([2, -3, 1]) == 1  # (x-1)(x-2)
    assert discriminant([-2, 0, 0, 1]) == -108  # x^3 - 2: -27 * 2^2
    assert discriminant([0, 0, 0, 1]) == 0  # x^3: every Hankel entry but s_0 is 0
    assert discriminant([7, 1]) == 1  # linear convention
    assert discriminant([1]) == 1


def test_discriminant_requires_monic():
    with pytest.raises(ValueError):
        discriminant([1, 2])
    with pytest.raises(ValueError):
        discriminant([0, 0])


def leading_minors(m):
    return [leibniz_det([row[:k] for row in m[:k]]) for k in range(1, len(m) + 1)]


def last_column_pivot_matrices():
    """Square matrices (sizes 2-6) whose only zero leading minor has size n - 1 or n.

    A zero leading minor of size k + 1 is a zero pivot at elimination step k.  Of size n, in the
    last column, it makes the determinant 0.  Of size n - 1 it needs the one row swap below it,
    at the last step that has a row below, and the determinant is nonzero.
    """
    rng = random.Random(22)
    out = []
    for n in range(2, 7):
        for k in (n - 2, n - 1):
            made = 0
            while made < 6:
                m = [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(n)]
                # row k of the leading (k + 1) x (k + 1) block, made a combination of the rows above
                weights = [rng.randrange(-3, 4) for _ in range(k)]
                m[k][: k + 1] = [sum(w * m[i][j] for i, w in enumerate(weights)) for j in range(k + 1)]
                if [i + 1 for i, v in enumerate(leading_minors(m)) if v == 0] == [k + 1]:
                    out.append(m)
                    made += 1
    return out


def test_bareiss_against_leibniz():
    rng = random.Random(3)
    pool = [[[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)] for n in range(1, 6) for _ in range(20)]
    for m in pool + last_column_pivot_matrices():
        assert bareiss_det(m) == leibniz_det(m), m


def discriminant_pool():
    """Monic polynomials of degree 0-12: random ones, short and 10^6 coefficients,
    repeated factors (zero discriminants), biquadratics, x^d - c and x^d."""
    rng = random.Random(19)
    pool = []
    for d in range(13):
        pool += [random_poly(rng, d, monic=True) for _ in range(6)]
        pool += [random_poly(rng, d, -(10**6), 10**6, monic=True) for _ in range(2)]
    for _ in range(40):
        g = random_poly(rng, rng.randrange(1, 4), -5, 5, monic=True)
        h = random_poly(rng, rng.randrange(0, 5), -5, 5, monic=True)
        pool.append(mul(mul(g, g), h))
    pool += [[b, 0, a, 0, 1] for a in range(-12, 13, 3) for b in range(-4, 5)]
    pool.append(mul([1, 0, -10, 0, 1], [1, 0, -10, 0, 1]))
    for d in range(1, 13):
        pool += [[-c] + [0] * (d - 1) + [1] for c in (0, 1, -1, 2, 3, -5, 10**6)]
    return pool


def test_discriminant_matches_sylvester_referee():
    pool = discriminant_pool()
    assert any(discriminant(f) == 0 for f in pool)
    for f in pool:
        assert discriminant(f) == sylvester_discriminant(f), f


def test_discriminant_multiplicative():
    # disc(f*g) = disc(f) * disc(g) * res(f, g)^2 for monic f, g, with res the Leibniz determinant of Sylvester(g, f)
    rng = random.Random(23)
    for _ in range(100):
        f = random_poly(rng, rng.randrange(1, 5), monic=True)
        g = random_poly(rng, rng.randrange(1, 5), monic=True)
        res = leibniz_det(sylvester_matrix(g, f))
        assert discriminant(mul(f, g)) == discriminant(f) * discriminant(g) * res**2


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
#
# Euclid over Q is the referee: it forms neither the power sums nor the
# Hankel matrices that squarefree_part() reads the squarefree part from.


def gcd_over_Q(f, g):
    """Monic gcd over Q of a monic integer f and an integer g, by Euclid over Fraction.

    The gcd divides f, so it is a monic factor of a monic integer
    polynomial, and Gauss's lemma makes its coefficients integers.
    """
    assert normalize(f)[-1] == 1
    a = [Fraction(c) for c in normalize(f)]
    b = [Fraction(c) for c in normalize(g)]
    while b:
        r = list(a)
        while len(r) >= len(b):
            c = r[-1] / b[-1]
            shift = len(r) - len(b)
            for i, bc in enumerate(b):
                r[shift + i] -= c * bc
            while r and r[-1] == 0:
                r.pop()
        a, b = b, r
    return [int(c / a[-1]) for c in a]


def squarefree_referee(f):
    """f / gcd(f, f') for monic f."""
    q, r = divmod_exact(f, gcd_over_Q(f, derivative(f)))
    assert not r
    return q


def squarefree_pool():
    """Monic polynomials of degree 0-12: random ones, products with squared factors,
    zero roots x^k * g, x^d - c, (x^3 - 1)^2 and (x^4 - 10x^2 + 1)^2."""
    rng = random.Random(21)
    pool = []
    for d in range(13):
        pool += [random_poly(rng, d, monic=True) for _ in range(3)]
        pool += [random_poly(rng, d, -(10**6), 10**6, monic=True)]
    for _ in range(60):
        g = random_poly(rng, rng.randrange(1, 4), -9, 9, monic=True)
        h = random_poly(rng, rng.randrange(0, 4), -9, 9, monic=True)
        pool.append(mul(h, mul(g, g) if rng.randrange(2, 4) == 2 else mul(g, mul(g, g))))
    for _ in range(20):
        g = random_poly(rng, rng.randrange(1, 3), -(10**6), 10**6, monic=True)
        pool.append(mul(mul(g, g), random_poly(rng, rng.randrange(0, 4), -(10**6), 10**6, monic=True)))
    for k in range(1, 5):
        for _ in range(5):
            g = random_poly(rng, rng.randrange(0, 6), -9, 9, monic=True)
            pool.append([0] * k + (mul(g, g) if rng.random() < 0.5 else g))
    for d in range(1, 13):
        pool += [[-c] + [0] * (d - 1) + [1] for c in (0, 1, -1, 2, 10**6)]
    pool.append(mul([-1, 0, 0, 1], [-1, 0, 0, 1]))
    pool.append(mul([1, 0, -10, 0, 1], [1, 0, -10, 0, 1]))
    return [normalize(f) for f in pool]


def test_squarefree_part_matches_euclid_referee():
    pool = squarefree_pool()
    assert {degree(f) for f in pool} == set(range(13))
    assert sum(degree(squarefree_part(f)) < degree(f) for f in pool) > 100
    for f in pool:
        assert squarefree_part(f) == squarefree_referee(f), f


def test_squarefree_part_examples():
    assert squarefree_part(mul(mul([-1, 1], [-1, 1]), [-2, 1])) == mul([-1, 1], [-2, 1])
    assert squarefree_part([-1, -1, 1]) == [-1, -1, 1]
    assert squarefree_part([4, -4, 1]) == [-2, 1]
    # a vanishing smaller leading minor: H_2 = [[6, 0], [0, 0]] while 3 roots are distinct
    assert squarefree_part(mul([-1, 0, 0, 1], [-1, 0, 0, 1])) == [-1, 0, 0, 1]
    assert squarefree_part([0, 0, 0, 1]) == [0, 1]  # x^3: only s_0 is nonzero
    assert squarefree_part([0, 0, 1, 1]) == [0, 1, 1]  # x^2 (x + 1)
    assert squarefree_part([1]) == [1]
    assert squarefree_part([7, 1, 0]) == [7, 1]
    # (x - a)^d has one distinct root: the elimination stops at column r = 1
    for d in range(2, 13):
        for a in (0, 1, -1, 3, -7, 10**6):
            f = [1]
            for _ in range(d):
                f = mul(f, [-a, 1])
            assert squarefree_part(f) == [-a, 1], (a, d)


def test_squarefree_part_requires_monic():
    with pytest.raises(ValueError, match="monic"):
        squarefree_part([1, 2])
    with pytest.raises(ValueError, match="zero"):
        squarefree_part([0, 0])


def test_squarefree_part_coprime_with_derivative():
    rng = random.Random(41)
    for _ in range(50):
        f = random_poly(rng, rng.randrange(1, 4), monic=True)
        g = random_poly(rng, rng.randrange(1, 3), monic=True)
        sf = squarefree_part(mul(mul(f, f), g))
        assert degree(gcd_over_Q(sf, derivative(sf))) == 0


def test_power_sums_examples():
    assert power_sums([-1, -1, 1], 4) == [1, 3, 4, 7]  # Lucas numbers
    assert power_sums([1], 3) == [0, 0, 0]  # no roots
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
    q, r = divmod_exact(f, g)
    assert add(mul(q, g), r) == normalize(f)
    assert degree(r) < degree(g)
    assert evaluate(f, x) == evaluate(q, x) * evaluate(g, x) + evaluate(r, x)


def test_divmod_exact_requires_a_monic_divisor():
    assert divmod_exact([-1, 0, 1], [1, 1]) == ([-1, 1], [])
    for g in ([], [0], [2, 2], [1, -1]):
        with pytest.raises(ValueError, match="monic"):
            divmod_exact([-1, 0, 1], g)
