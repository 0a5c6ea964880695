"""Integer and mod-p polynomial factorization: examples, oracles, invariants."""

import math
import random

import pytest

from doldseq.dold import _splitting_degree_multiple
from doldseq.factorint import (
    FactorPattern,
    _gf_degrees,
    degree_pattern,
    factor_mod_p,
    factor_over_Z,
    hensel_lift,
    irreducibility_witness,
    root_density,
)
from doldseq.numth import UnsupportedSizeError, legendre, primes_up_to
from doldseq.polyring import (
    degree,
    discriminant,
    evaluate,
    mul,
    normalize,
    sub,
    zm_gcd,
    zm_monic,
    zm_mul,
    zm_pow_mod,
    zm_reduce,
)


def poly_from_roots(roots):
    f = [1]
    for r in roots:
        f = mul(f, [-r, 1])
    return f


def random_irreducible(rng, deg, bound=9):
    while True:
        f = [rng.randrange(-bound, bound + 1) for _ in range(deg)] + [1]
        if f[0] == 0:
            continue
        if factor_over_Z(normalize(f)).is_irreducible():
            return normalize(f)


# -- Kronecker-style brute-force oracle (valid for monic f with deg <= 4) ----


def signed_divisors(n):
    n = abs(n)
    out = [d for d in range(1, n + 1) if n % d == 0]
    return [d for d in out] + [-d for d in out]


def kronecker_factor(f):
    """Full factorization of monic f, deg <= 4, by exhaustive divisor search.

    Any reducible monic polynomial of degree <= 4 has a monic factor of
    degree <= 2, so stripping linear factors (rational roots divide f(0))
    and then monic quadratic divisors (constant terms divide f(0), values
    at +-1 divide f(+-1)) is complete.
    """
    f = normalize(f)
    factors = []
    # strip x factors
    while f[0] == 0:
        factors.append((0, 1))  # placeholder for factor x
        f = f[1:]
    out = [[0, 1]] * len(factors)
    # strip linear factors x - r with r | f(0)
    changed = True
    while changed and len(f) > 1:
        changed = False
        for r in signed_divisors(f[0]):
            if evaluate(f, r) == 0:
                from doldseq.polyring import divmod_exact

                f = divmod_exact(f, [-r, 1])[0]
                out.append([-r, 1])
                changed = True
                break
    # remaining degree is 0, 2 (irreducible), 3 (irreducible), or 4
    if len(f) == 5:
        from doldseq.polyring import divmod_exact

        f1, fm1 = evaluate(f, 1), evaluate(f, -1)
        assert f[0] != 0 and f1 != 0 and fm1 != 0
        found = None
        for b in signed_divisors(f[0]):
            for d1 in signed_divisors(f1):
                a = d1 - 1 - b
                if (1 - a + b) == 0 or fm1 % (1 - a + b):
                    continue
                q, r = divmod_exact(f, [b, a, 1])
                if not r:
                    found = ([b, a, 1], q)
                    break
            if found:
                break
        if found:
            g, q = found
            out.append(g)
            out.append(q)  # q is quadratic with no linear factor left: irreducible
            f = [1]
    if len(f) > 1:
        out.append(f)
    return sorted((tuple(g) for g in out), key=lambda t: (len(t), t))


def factorization_multiset(fz):
    out = []
    for g, e in fz.factors:
        out.extend([g] * e)
    return sorted(out, key=lambda t: (len(t), t))


# -- factor_mod_p ------------------------------------------------------------


def test_factor_mod_p_examples():
    # x^2 - x - 1 irreducible over F_2
    fac2 = factor_mod_p([-1, -1, 1], 2)
    assert fac2 == [([1, 1, 1], 1)]
    # (x + 2)^2 over F_5
    fac5 = factor_mod_p([-1, -1, 1], 5)
    assert fac5 == [([2, 1], 2)]
    # x^4 - 10 x^2 + 1 splits into proper factors over F_7
    fac7 = factor_mod_p([1, 0, -10, 0, 1], 7)
    assert all(len(g) - 1 < 4 for g, _ in fac7)


def test_factor_mod_p_product_and_irreducibility():
    rng = random.Random(61)
    for _ in range(40):
        p = rng.choice([2, 3, 5, 7, 11, 13])
        f = [rng.randrange(-p, 2 * p) for _ in range(rng.randrange(2, 7))] + [1]
        fac = factor_mod_p(f, p)
        prod = [1]
        for g, e in fac:
            for _ in range(e):
                prod = zm_mul(prod, g, p)
        assert prod == zm_monic(zm_reduce(f, p), p)
        x = [0, 1]
        for g, _ in fac:
            assert g[-1] == 1 and g == zm_reduce(g, p)
            # an irreducible of degree k has no roots in F_{p^j} for j < k
            for j in range(1, len(g) - 1):
                frob = zm_pow_mod(x, p**j, g, p)
                assert zm_gcd(g, sub(frob, x), p) == [1]


def test_factor_mod_p_deterministic():
    f = [1, 0, -10, 0, 1]
    assert factor_mod_p(f, 7) == factor_mod_p(f, 7)
    assert factor_mod_p(f, 7, seed=1) == factor_mod_p(f, 7, seed=99)
    # the derived seed depends only on the reduced coefficients
    assert factor_mod_p([8, 7, -3, 14, 1], 7) == factor_mod_p(f, 7)


def test_factor_mod_p_rejects_zero():
    with pytest.raises(ValueError):
        factor_mod_p([], 5)
    with pytest.raises(ValueError):
        factor_mod_p([5, 10], 5)


# -- factor_over_Z -----------------------------------------------------------


def test_factor_over_Z_examples():
    fz = factor_over_Z([7, -8, 1])  # x^2 - 8x + 7
    assert factorization_multiset(fz) == [(-7, 1), (-1, 1)]
    assert factor_over_Z([1, 0, -10, 0, 1]).is_irreducible()
    fz2 = factor_over_Z([4, -4, 1])  # (x - 2)^2
    assert fz2.factors == (((-2, 1), 2),)


def test_factor_over_Z_roundtrip_sample():
    rng = random.Random(67)
    for _ in range(40):
        n = rng.randrange(1, 4)
        f = [1]
        degs = []
        for _ in range(n):
            g = random_irreducible(rng, rng.randrange(1, 3), bound=5)
            f = mul(f, g)
            degs.append(len(g) - 1)
        if len(f) - 1 > 6:
            continue
        fz = factor_over_Z(f)
        assert fz.expand() == f


def test_factor_over_Z_envelope():
    with pytest.raises(UnsupportedSizeError):
        factor_over_Z([0] * 13 + [1])
    with pytest.raises(UnsupportedSizeError):
        factor_over_Z([10**7, 1])
    with pytest.raises(ValueError):
        factor_over_Z([1, 2])  # not monic


def test_kronecker_oracle_sample():
    rng = random.Random(71)
    for _ in range(300):
        d = rng.randrange(1, 5)
        f = [rng.randrange(-6, 7) for _ in range(d)] + [1]
        assert factorization_multiset(factor_over_Z(f)) == kronecker_factor(f)


# -- Hensel lifting ----------------------------------------------------------


def test_hensel_lift_example():
    f = [7, -8, 1]  # (x - 1)(x - 7)
    seeds = [[-1, 1], [-2, 1]]
    lifted = hensel_lift(f, seeds, 5, 2)
    assert sorted(lifted) == sorted([[24, 1], [18, 1]])  # x - 1 and x - 7 mod 25


def test_hensel_lift_fixed_point():
    f = [7, -8, 1]
    seeds = [[-1, 1], [-7, 1]]
    lifted = hensel_lift(f, seeds, 11, 3)
    m = 11**3
    assert sorted(lifted) == sorted([[(-1) % m, 1], [(-7) % m, 1]])


def test_hensel_lift_k1_returns_seeds():
    f = [7, -8, 1]
    seeds = [[4, 1], [3, 1]]
    lifted = hensel_lift(f, seeds, 5, 1)
    assert sorted(lifted) == sorted(seeds)


def test_hensel_lift_product_congruence():
    rng = random.Random(73)
    for _ in range(20):
        roots = rng.sample(range(-8, 9), rng.randrange(2, 4))
        f = poly_from_roots(roots)
        p = next(q for q in primes_up_to(100).primes if discriminant(f) % q)
        seeds = [g for g, _ in factor_mod_p(f, p)]
        k = rng.randrange(2, 5)
        lifted = hensel_lift(f, seeds, p, k)
        m = p**k
        prod = [1]
        for g in lifted:
            prod = mul(prod, g)
        assert [c % m for c in prod] == [c % m for c in f]


def test_hensel_lift_rejects_bad_seeds():
    f = [7, -8, 1]
    with pytest.raises(ValueError):
        hensel_lift(f, [[-1, 1], [-1, 1]], 5, 2)
    with pytest.raises(ValueError):
        hensel_lift(f, [[-1, 1], [-3, 1]], 5, 2)


# -- diagnostics -------------------------------------------------------------


def test_irreducibility_witness_examples():
    assert irreducibility_witness([-1, -1, 1], 100) == 2
    assert irreducibility_witness([1, 0, -10, 0, 1], 1000) is None
    assert irreducibility_witness([-3, 1], 100) == 2


def test_irreducibility_witness_reverified():
    rng = random.Random(79)
    for _ in range(20):
        f = random_irreducible(rng, rng.randrange(2, 5))
        p = irreducibility_witness(f, 200)
        if p is None:
            continue
        assert discriminant(f) % p != 0
        assert len(factor_mod_p(f, p)) == 1


def test_irreducibility_witness_rejects_nonsquarefree():
    with pytest.raises(ValueError):
        irreducibility_witness([4, -4, 1], 100)


def test_degree_pattern_examples():
    assert degree_pattern([-1, -1, 1], 2).pattern == (2,)
    assert degree_pattern([-1, -1, 1], 2).ramified is False
    p5 = degree_pattern([-1, -1, 1], 5)
    assert p5.pattern == (1, 1) and p5.ramified is True
    p11 = degree_pattern([-1, -1, 1], 11)
    assert p11.pattern == (1, 1) and p11.ramified is False


def test_degree_pattern_matches_legendre():
    for f in ([-1, -1, 1], [1, 1, 1], [-2, 0, 1], [3, -5, 1]):
        disc = discriminant(f)
        if not factor_over_Z(f).is_irreducible():
            continue
        for p in primes_up_to(500).primes:
            if p == 2 or disc % p == 0:
                continue
            expected = (2,) if legendre(disc, p) == -1 else (1, 1)
            assert degree_pattern(f, p).pattern == expected


def test_root_density_linear_and_bounds():
    assert root_density([-3, 1], 200) == 1
    assert root_density([5, 2, 1], 200) < 0.95
    with pytest.raises(ValueError):
        root_density([1, 1], 50)


def test_squarefree_fast_path_agrees_with_yun():
    # a nonzero discriminant stands in for gcd(f, f') = 1 in factor_over_Z,
    # irreducibility_witness and degree_pattern; Yun's split is the reference
    from doldseq.factorint import _squarefree_decomposition
    from doldseq.polyring import degree, derivative, gcd_monic

    rng = random.Random(97)
    for _ in range(200):
        f = [1]
        for _ in range(rng.randrange(1, 4)):
            g = [rng.randrange(-4, 5) for _ in range(rng.randrange(1, 3))] + [1]
            f = mul(f, mul(g, g) if rng.random() < 0.3 else g)
        squarefree = degree(gcd_monic(f, derivative(f))) == 0
        assert (discriminant(f) != 0) == squarefree
        if squarefree:
            assert _squarefree_decomposition(f) == [(f, 1)]


def test_given_discriminant_agrees_with_computed():
    # analyze() and convenient_check() hand over the discriminant they hold;
    # a caller that omits it gets the same answer
    rng = random.Random(41)
    for _ in range(60):
        f = [1]
        for _ in range(rng.randrange(1, 4)):
            g = [rng.randrange(-4, 5) for _ in range(rng.randrange(1, 3))] + [1]
            f = mul(f, mul(g, g) if rng.random() < 0.3 else g)
        disc = discriminant(f)
        assert factor_over_Z(f, disc=disc) == factor_over_Z(f)
        if disc:
            assert irreducibility_witness(f, 200, disc) == irreducibility_witness(f, 200)


# -- factor degrees without equal-degree splitting, against factor_mod_p ----


def referee_degrees(f, p):
    return tuple(sorted(len(g) - 1 for g, e in factor_mod_p(f, p) for _ in range(e)))


def referee_witness(f, bound):
    disc = discriminant(f)
    for p in primes_up_to(bound).primes:
        if disc % p and len(factor_mod_p(f, p)) == 1:
            return p
    return None


def referee_splitting_degree(f, disc, bound):
    cap = math.factorial(degree(f))
    m = 1
    for p in primes_up_to(bound).primes:
        if disc % p:
            m = math.lcm(m, *(len(g) - 1 for g, _ in factor_mod_p(f, p)))
            if m >= cap:
                return cap
    return m


def random_monic(rng, deg):
    return [rng.randrange(-9, 10) for _ in range(deg)] + [1]


def degree_pool():
    """Random monic polynomials, biquadratics, products of small irreducibles and squares."""
    rng = random.Random(2026)
    pool = [random_monic(rng, deg) for deg in range(1, 13) for _ in range(3)]
    # x^4 - 2(a+b)x^2 + (a-b)^2, the minimal polynomial of sqrt(a) + sqrt(b)
    for a, b in [(2, 3), (2, 5), (3, 7), (-1, 2), (5, 13), (6, 10)]:
        pool.append([(a - b) ** 2, 0, -2 * (a + b), 0, 1])
    for _ in range(8):
        f = [1]
        for _ in range(rng.randrange(2, 4)):
            f = mul(f, random_irreducible(rng, rng.choice([2, 3])))
        pool.append(f)
    for _ in range(6):
        g = random_monic(rng, rng.randrange(1, 4))
        pool.append(mul(mul(g, g), random_monic(rng, rng.randrange(0, 3))))
    return [normalize(f) for f in pool]


DEGREE_POOL = degree_pool()
SMALL_PRIMES = primes_up_to(60).primes


@pytest.mark.parametrize("index", range(len(DEGREE_POOL)))
def test_factor_degrees_match_full_factorization(index):
    f = DEGREE_POOL[index]
    disc = discriminant(f)
    for p in SMALL_PRIMES:  # p = 2, 3 and the primes dividing disc (f not squarefree mod p) included
        assert _gf_degrees(f, p) == referee_degrees(f, p), (f, p)
        if disc:
            assert degree_pattern(f, p) == FactorPattern(p, referee_degrees(f, p), disc % p == 0)
    if disc:
        assert irreducibility_witness(f, 60) == referee_witness(f, 60)
        assert _splitting_degree_multiple(f, disc, 60) == referee_splitting_degree(f, disc, 60)


def test_pool_reaches_every_case():
    discs = [discriminant(f) for f in DEGREE_POOL]
    assert {degree(f) for f in DEGREE_POOL} == set(range(1, 13))
    assert any(d == 0 for d in discs)
    assert any(d and any(d % p == 0 for p in SMALL_PRIMES) for d in discs)
    assert any(len(set(referee_degrees(f, p))) > 1 for f in DEGREE_POOL for p in SMALL_PRIMES)
    assert any(referee_witness(f, 60) for f in DEGREE_POOL if degree(f) > 1 and discriminant(f))


def test_degree_pattern_rejects_a_composite_modulus():
    with pytest.raises(ValueError, match="not prime"):
        degree_pattern([-1, -1, 1], 6)

