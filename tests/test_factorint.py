"""Integer and mod-p polynomial factorization: examples, oracles, invariants."""

import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest

from doldseq import factorint
from doldseq.dold import _splitting_degree_multiple
from doldseq.factorint import (
    _BATCH_COEFF_BITS,
    _BATCH_PRIME_LIMIT,
    MAX_DEGREE,
    Factorization,
    _gf_distinct_degree,
    _gf_small_factor,
    _gf_squarefree_list,
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
    squarefree_part,
    sub,
    zm_coprime,
    zm_derivative,
    zm_gcd,
    zm_monic,
    zm_mul,
    zm_pow_mod,
    zm_reduce,
)
from doldseq.recurrence import MAX_COEFF


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


def test_factor_over_Z_reads_multiplicities():
    # a zero discriminant: the squarefree part is factored and each
    # multiplicity is read by exact division of f
    rng = random.Random(103)
    checked = 0
    while checked < 40:
        blocks = {}
        total = 0
        while total < 6:
            g = tuple(random_irreducible(rng, rng.randrange(1, 4), bound=3))
            e = rng.randrange(2 if not blocks else 1, 4)
            if g not in blocks and total + e * (len(g) - 1) <= 12:
                blocks[g] = e
                total += e * (len(g) - 1)
        f = [1]
        for g, e in blocks.items():
            for _ in range(e):
                f = mul(f, list(g))
        if any(abs(c) > MAX_COEFF for c in f):
            continue
        assert discriminant(f) == 0
        assert factor_over_Z(f).factors == tuple(sorted(blocks.items(), key=lambda t: (len(t[0]), t[0])))
        checked += 1


def test_factor_over_Z_repeated_factors_match_kronecker():
    rng = random.Random(107)
    for _ in range(150):
        g = random_irreducible(rng, rng.randrange(1, 3), bound=6)
        rest = [rng.randrange(-6, 7) for _ in range(rng.randrange(0, 5 - 2 * (len(g) - 1)))] + [1]
        f = mul(mul(g, g), rest)
        assert factorization_multiset(factor_over_Z(f)) == kronecker_factor(f)


# factor_over_Z of the 295 monic quartics with coefficients in [-6, 6] and zero
# discriminant, as given when the whole squarefree part was Hensel lifted
ZERO_DISCRIMINANT_QUARTICS_SHA256 = "6b9baafeac124531bca51c45158b7d4a75388dcd48bbe852debaa6f952538f07"


def test_zero_discriminant_quartics_factor_as_before():
    quartics = [list(c) + [1] for c in itertools.product(range(-6, 7), repeat=4)]
    pool = [f for f in quartics if discriminant(f) == 0]
    assert len(pool) == 295
    result = [factor_over_Z(f).factors for f in pool]
    assert hashlib.sha256(repr(result).encode()).hexdigest() == ZERO_DISCRIMINANT_QUARTICS_SHA256
    for f, fz in zip(pool, result):
        assert factorization_multiset(Factorization(fz)) == kronecker_factor(f), f


def test_zero_discriminant_factors_through_the_squarefree_part():
    # (x + 2)^2 (x^2 + 1)(x^2 + 3): the squarefree part is split by lifting
    f = mul(mul([2, 1], [2, 1]), mul([1, 0, 1], [3, 0, 1]))
    assert factor_over_Z(f).factors == (((2, 1), 2), ((1, 0, 1), 1), ((3, 0, 1), 1))
    # x (x - 1)^2 (x^4 - 10x^2 + 1): the quartic is irreducible over Z, though reducible mod every prime
    f = mul(mul([0, 1], mul([-1, 1], [-1, 1])), [1, 0, -10, 0, 1])
    assert factor_over_Z(f).factors == (((-1, 1), 2), ((0, 1), 1), ((1, 0, -10, 0, 1), 1))
    # f(0) = 10^6, at the coefficient envelope
    f = mul(mul([-1000, 1], [-1000, 1]), [1, 1])
    assert max(map(abs, f)) == MAX_COEFF
    assert factor_over_Z(f).factors == (((-1000, 1), 2), ((1, 1), 1))


def test_factor_over_Z_envelope():
    with pytest.raises(UnsupportedSizeError):
        factor_over_Z([0] * 13 + [1])
    with pytest.raises(ValueError):
        factor_over_Z([1, 2])  # not monic
    # the degree is the one cap: recurrence.analyze refuses long coefficients before any work
    assert factor_over_Z([10**7, 1]).factors == (((10**7, 1), 1),)


@pytest.mark.parametrize("bits", [64, 200])
def test_factor_over_Z_takes_any_coefficient_size(bits):
    # seeded products of random monic factors, some squared, of total degree <= 12
    rng = random.Random(64200 + bits)
    for _ in range(12):
        f, chosen = [1], []
        while True:
            g = [rng.getrandbits(bits) * rng.choice((-1, 1)) for _ in range(rng.randint(1, 4))] + [1]
            e = 2 if rng.random() < 0.15 else 1
            if degree(f) + e * degree(g) > 12:
                break
            chosen.append((tuple(g), e))
            f = mul(f, mul(g, g) if e == 2 else g)
        result = factor_over_Z(f)
        assert result.expand() == f
        # a witness prime proves each factor irreducible, so the factorization is the unique one
        assert all(irreducibility_witness(list(g), 1000) for g, _ in result.factors), f
        assert sorted(result.factors) == sorted(chosen)


def seeded_products(rng, count):
    """Products of witnessed irreducible factors, some repeated, degree 2-12, coefficients <= 10^6.

    Each factor has a witness prime <= 1000, which proves it irreducible, so
    the factors drawn are the unique factorization of their product.
    """
    out = []
    while len(out) < count:
        target = rng.randint(2, 12)
        f, chosen = [1], {}
        while degree(f) < target:
            d = rng.randint(1, min(4, target - degree(f)))
            g = [rng.randint(-30, 30) for _ in range(d)] + [1]
            e = rng.choice((1, 1, 1, 2, 3))
            if degree(f) + e * d > target:
                e = 1
            if tuple(g) in chosen or (d > 1 and irreducibility_witness(g, 1000) is None):
                continue
            for _ in range(e):
                f = mul(f, g)
            chosen[tuple(g)] = e
        if max(map(abs, f)) <= 10**6:
            out.append((f, sorted(chosen.items())))
    return out


def test_factor_over_Z_returns_the_factors_a_product_was_built_from():
    products = seeded_products(random.Random(1500), 300)
    assert {degree(f) for f, _ in products} == set(range(2, 13))
    assert any(e > 1 for _, chosen in products for _, e in chosen)
    for f, chosen in products:
        result = factor_over_Z(f)
        assert sorted(result.factors) == chosen, f
        if degree(f) <= 4:
            assert factorization_multiset(result) == kronecker_factor(f), f


def test_factor_over_Z_never_takes_the_mod_p_squarefree_split(monkeypatch):
    def no_yun(f, p):
        raise AssertionError("_gf_squarefree_list ran")

    # f is squarefree mod the Zassenhaus prime, and a repeated factor over Z is
    # taken off by polyring.squarefree_part first
    monkeypatch.setattr(factorint, "_gf_squarefree_list", no_yun)
    with pytest.raises(AssertionError, match="_gf_squarefree_list ran"):
        factor_mod_p([-1, 0, 1], 5)
    for f, chosen in seeded_products(random.Random(33), 60):
        assert sorted(factor_over_Z(f).factors) == chosen, f


def test_lift_reaches_the_bound_that_keeps_every_factor():
    # x^2 - 9 lifts from p = 5 (disc 36) to 25 > B = 2 * C(1, 0) * (isqrt(82) + 1) = 20;
    # mod 5 its factors x -+ 3 read x +- 2, and neither divides it
    assert factor_over_Z([-9, 0, 1]).factors == (((-3, 1), 1), ((3, 1), 1))


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
        p = next(q for q in primes_up_to(100) if discriminant(f) % q)
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
    # (x - 2)^2 is reducible mod every prime, so it has no witness
    assert irreducibility_witness([4, -4, 1], 100) is None


def gf_degrees(f, p):
    """Sorted degrees, with multiplicity, of the monic irreducible factors of monic f over F_p.

    The degree referee: a distinct-degree block of total degree D holds
    D/d factors of degree d, so the degrees need no equal-degree splitting.
    """
    degrees = []
    for sqf, mult in _gf_squarefree_list(zm_reduce(f, p), p):
        for block, d in _gf_distinct_degree(sqf, p):
            degrees += [d] * ((len(block) - 1) // d * mult)
    return tuple(sorted(degrees))


def test_gf_degrees_examples():
    # x^2 - x - 1 has discriminant 5: inert at 2, ramified at 5, split at 11
    assert gf_degrees([-1, -1, 1], 2) == (2,)
    assert gf_degrees([-1, -1, 1], 5) == (1, 1)
    assert gf_degrees([-1, -1, 1], 11) == (1, 1)


def test_gf_degrees_matches_legendre():
    for f in ([-1, -1, 1], [1, 1, 1], [-2, 0, 1], [3, -5, 1]):
        disc = discriminant(f)
        if not factor_over_Z(f).is_irreducible():
            continue
        for p in primes_up_to(500):
            if p == 2 or disc % p == 0:
                continue
            expected = (2,) if legendre(disc, p) == -1 else (1, 1)
            assert gf_degrees(f, p) == expected


def test_root_density_linear_and_bounds():
    assert root_density([-3, 1], 200) == 1
    assert root_density([5, 2, 1], 200) < 0.95
    with pytest.raises(ValueError):
        root_density([1, 1], 50)


def test_squarefree_fast_path_agrees_with_yun():
    # a nonzero discriminant stands in for gcd(f, f') = 1 in factor_over_Z and root_density
    from doldseq.polyring import derivative
    from test_polyring import gcd_over_Q

    rng = random.Random(97)
    for _ in range(200):
        f = [1]
        for _ in range(rng.randrange(1, 4)):
            g = [rng.randrange(-4, 5) for _ in range(rng.randrange(1, 3))] + [1]
            f = mul(f, mul(g, g) if rng.random() < 0.3 else g)
        squarefree = degree(gcd_over_Q(f, derivative(f))) == 0
        assert (discriminant(f) != 0) == squarefree


def test_given_discriminant_agrees_with_computed():
    # analyze() hands over the discriminant it holds; a caller that omits it gets the same answer
    rng = random.Random(41)
    for _ in range(60):
        f = [1]
        for _ in range(rng.randrange(1, 4)):
            g = [rng.randrange(-4, 5) for _ in range(rng.randrange(1, 3))] + [1]
            f = mul(f, mul(g, g) if rng.random() < 0.3 else g)
        assert factor_over_Z(f, disc=discriminant(f)) == factor_over_Z(f)


# -- factor degrees without equal-degree splitting, against factor_mod_p ----


def referee_degrees(f, p):
    return tuple(sorted(len(g) - 1 for g, e in factor_mod_p(f, p) for _ in range(e)))


def referee_witness(f, bound):
    disc = discriminant(f)
    for p in primes_up_to(bound):
        if disc % p and len(factor_mod_p(f, p)) == 1:
            return p
    return None


def referee_splitting_degree(f, disc, bound):
    cap = math.factorial(degree(f))
    m = 1
    for p in primes_up_to(bound):
        if disc % p:
            m = math.lcm(m, *(len(g) - 1 for g, _ in factor_mod_p(f, p)))
            if m >= cap:
                return cap
    return m


def random_monic(rng, deg):
    return [rng.randrange(-9, 10) for _ in range(deg)] + [1]


def biquadratic(a, b):
    """x^4 - 2(a+b)x^2 + (a-b)^2, the minimal polynomial of sqrt(a) + sqrt(b)."""
    return [(a - b) ** 2, 0, -2 * (a + b), 0, 1]


# irreducible over Z but reducible mod every prime: no irreducibility witness exists
BIQUADRATICS = [biquadratic(a, b) for a, b in [(2, 3), (2, 5), (3, 7), (-1, 2), (5, 13), (6, 10)]]


def degree_pool():
    """Random monic polynomials, biquadratics, products of small irreducibles and squares."""
    rng = random.Random(2026)
    pool = [random_monic(rng, deg) for deg in range(1, 13) for _ in range(3)]
    pool += BIQUADRATICS
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
SMALL_PRIMES = primes_up_to(60)


@pytest.mark.parametrize("index", range(len(DEGREE_POOL)))
def test_factor_degrees_match_full_factorization(index):
    f = DEGREE_POOL[index]
    disc = discriminant(f)
    for p in SMALL_PRIMES:  # p = 2, 3 and the primes dividing disc (f not squarefree mod p) included
        assert gf_degrees(f, p) == referee_degrees(f, p), (f, p)
        # f mod p is squarefree, gcd(f, f') = 1, iff p does not divide disc: Zassenhaus's prime rule
        assert (disc % p != 0) == zm_coprime(f, zm_derivative(f, p), p), (f, p)
    if disc:
        assert irreducibility_witness(f, 60) == referee_witness(f, 60)
        # the lcm of the mod-p factor degrees divides the order of the Galois group
        assert _splitting_degree_multiple(factor_over_Z(f)) % referee_splitting_degree(f, disc, 60) == 0


def test_pool_reaches_every_case():
    discs = [discriminant(f) for f in DEGREE_POOL]
    assert {degree(f) for f in DEGREE_POOL} == set(range(1, 13))
    assert any(d == 0 for d in discs)
    assert any(d and any(d % p == 0 for p in SMALL_PRIMES) for d in discs)
    assert any(len(set(referee_degrees(f, p))) > 1 for f in DEGREE_POOL for p in SMALL_PRIMES)
    assert any(referee_witness(f, 60) for f in DEGREE_POOL if degree(f) > 1 and discriminant(f))


# -- Ben-Or's small-factor test against the degree pattern --------------------

WITNESS_PRIMES = primes_up_to(300)


@pytest.mark.parametrize("index", range(len(DEGREE_POOL)))
def test_gf_small_factor_matches_least_factor_degree(index):
    # every k from 0 to deg f, at every prime, p | disc(f) and a zero discriminant included
    f = DEGREE_POOL[index]
    for p in SMALL_PRIMES:
        least = min(gf_degrees(f, p))
        for k in range(degree(f) + 1):
            assert _gf_small_factor(zm_reduce(f, p), p, k) == (least <= k), (f, p, k)


@pytest.mark.parametrize("index", range(len(DEGREE_POOL)))
def test_gf_irreducible_matches_degree_pattern(index):
    # at every prime, p | disc(f) and a zero discriminant included: Ben-Or's test needs no squarefree f
    f = DEGREE_POOL[index]
    for p in WITNESS_PRIMES:
        irreducible = not _gf_small_factor(zm_reduce(f, p), p, degree(f) // 2)
        assert irreducible == (gf_degrees(f, p) == (degree(f),)), (f, p)


def test_gf_irreducible_edge_degrees():
    for p in (2, 3, 5, 7):
        # x + 1 takes no step at k = 0, the witness search's k for degree 1, and has its root at step 1
        assert not _gf_small_factor([1, 1], p, 0)
        assert _gf_small_factor([1, 1], p, 1)
        # x^p - x - 1 (Artin-Schreier) is irreducible of degree p mod p, so all p // 2 steps run
        artin_schreier = zm_reduce([-1, -1] + [0] * (p - 2) + [1], p)
        assert not _gf_small_factor(artin_schreier, p, p // 2)
        assert _gf_small_factor(artin_schreier, p, p)
        assert gf_degrees(artin_schreier, p) == (p,)
        # times x + 1 it is reducible, which the first step already finds
        assert _gf_small_factor(zm_mul(artin_schreier, [1, 1], p), p, 1)


@pytest.mark.parametrize("f", BIQUADRATICS)
def test_biquadratic_has_no_witness(f):
    assert irreducibility_witness(f, 300) == referee_witness(f, 300) is None


def test_irreducibility_witness_rejects_non_monic_and_constant():
    # 2x^2 + x + 3 drops to the irreducible x + 1 mod 2, so only a monic f keeps the proof
    with pytest.raises(ValueError, match="monic"):
        irreducibility_witness([3, 1, 2], 100)
    with pytest.raises(ValueError, match="positive degree"):
        irreducibility_witness([1], 100)


# -- Stickelberger's parity law, the referee for a witness exit by the discriminant --
#
# For monic f of degree d and a prime p not dividing disc, with r irreducible
# factors mod p: (disc/p) = (-1)^(d - r) for odd p, and disc = 1 (mod 8) iff
# d - r is even for p = 2.  A witness prime has r = 1, so it must satisfy the
# law with r = 1; an f of even degree with a square discriminant has none.


def stickelberger_holds(f, disc, p, r):
    if p == 2:
        return (disc % 8 == 1) == ((degree(f) - r) % 2 == 0)
    return legendre(disc, p) == (-1) ** (degree(f) - r)


def test_stickelberger_parity_law():
    rng = random.Random(1889)
    checked = set()
    for deg in range(2, 9):
        for _ in range(4):
            f = random_monic(rng, deg)
            disc = discriminant(f)
            for p in primes_up_to(200):
                if disc % p:
                    r = len(factor_mod_p(f, p))
                    assert stickelberger_holds(f, disc, p, r), (f, p)
                    checked.add((p == 2, (deg - r) % 2))
    assert checked == {(False, 0), (False, 1), (True, 0), (True, 1)}


def test_witness_primes_satisfy_stickelberger():
    parities = []
    for f in DEGREE_POOL:
        disc = discriminant(f)
        if disc and degree(f) > 1:
            p = irreducibility_witness(f, 300)
            if p is not None:
                assert stickelberger_holds(f, disc, p, 1), (f, p)
                parities.append(degree(f) % 2)
    # (disc/p) = 1 at the witnesses of odd degree and -1 at those of even degree
    assert parities.count(0) > 5 and parities.count(1) > 5


# the squarefree list of the benchmark's algebra pool
BENCHMARK_SQUAREFREE = (2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23)


def test_benchmark_biquadratics_have_no_witness():
    # degree 4 and a square discriminant: an even number of factors mod every unramified p
    pairs = list(itertools.combinations(BENCHMARK_SQUAREFREE, 2))
    assert len(pairs) == 105
    for a, b in pairs:
        f = biquadratic(a, b)
        assert math.isqrt(discriminant(f)) ** 2 == discriminant(f), (a, b)
        assert irreducibility_witness(f, 300) is None, (a, b)


# -- root density against a brute-force root search -------------------------


def density_pool():
    """Monic polynomials of degree 1-8, products, biquadratics, a square factor and x."""
    rng = random.Random(1000)
    pool = [random_monic(rng, deg) for deg in range(1, 9)]
    pool += [mul(random_monic(rng, 2), random_monic(rng, 3)) for _ in range(2)]
    pool += [biquadratic(2, 3), biquadratic(-1, 5)]
    g = random_monic(rng, 2)
    pool += [mul(mul(g, g), [-3, 1]), [0, 1]]
    return [normalize(f) for f in pool]


@pytest.mark.parametrize("f", density_pool())
def test_root_density_matches_root_search(f):
    # brute force: p divides f(a) for some 0 <= a < p, over the primes not dividing
    # the discriminant of the squarefree part
    disc = discriminant(squarefree_part(f))
    unramified = [p for p in primes_up_to(1000) if disc % p]
    hits = sum(any(evaluate(f, a) % p == 0 for a in range(p)) for p in unramified)
    assert root_density(f, 1000) == Fraction(hits, len(unramified))


@pytest.mark.parametrize("f", density_pool())
def test_gf_small_factor_at_k1_is_a_root_search(f):
    for p in primes_up_to(100):  # the primes dividing disc(f) included
        has_root = any(evaluate(f, a) % p == 0 for a in range(p))
        assert _gf_small_factor(zm_reduce(f, p), p, 1) == has_root, (f, p)


# -- the batched root test against the per-prime Frobenius gcd ---------------
#
# root_density tests the primes up to _BATCH_PRIME_LIMIT with one product and
# each larger prime with gcd(f, x^p - x); 4093 and 4099 are the primes on either
# side of the limit.

DENSITY_BOUNDS = (100, 4093, 4099, 10_000)


def batched_density_pool():
    """Monic polynomials of degree 0-12, with x, integer roots, a repeated factor and long coefficients.

    The roots -1 of x + 1 and -7 of (x + 7) g lie inside the product's
    window.  A 64-bit coefficient still takes the product route, a 65-bit
    one sends every prime to the gcd.
    """
    rng = random.Random(4096)
    pool = [random_monic(rng, deg) for deg in range(13)]
    pool += [[0, 1], [1, 1], mul([7, 1], random_monic(rng, 3)), mul(mul([2, 1, 1], [2, 1, 1]), [-5, 0, 1])]
    pool += [[2**64 - 1, 5, -(2**63), 1], [2**64 + 3, 0, 1]]
    return [normalize(f) for f in pool]


@pytest.mark.parametrize("f", batched_density_pool())
def test_batched_root_density_matches_per_prime_gcd(f):
    disc = discriminant(f) or discriminant(squarefree_part(f))
    unramified = [p for p in primes_up_to(max(DENSITY_BOUNDS)) if disc % p]
    hit = {p for p in unramified if _gf_small_factor(zm_reduce(f, p), p, 1)}
    for bound in DENSITY_BOUNDS:
        counted = [p for p in unramified if p <= bound]
        assert root_density(f, bound) == Fraction(len(hit.intersection(counted)), len(counted))
    # brute force: p divides f(a) for some 0 <= a < p
    counted = [p for p in unramified if p <= 100]
    brute = sum(any(evaluate(f, a) % p == 0 for a in range(p)) for p in counted)
    assert root_density(f, 100) == Fraction(brute, len(counted))


def test_batched_density_pool_reaches_every_case():
    assert 4093 < _BATCH_PRIME_LIMIT < 4099
    pool = batched_density_pool()
    assert {degree(f) for f in pool} == set(range(13))
    assert [0, 1] in pool
    assert any(evaluate(f, -7) == 0 for f in pool)
    assert any(discriminant(f) == 0 for f in pool)
    widths = {max(abs(c) for c in f).bit_length() for f in pool}
    assert _BATCH_COEFF_BITS in widths and _BATCH_COEFF_BITS + 1 in widths


def root_hits_pool():
    """Polynomials of degree 0-12 with coefficients up to 2^64, and the window cases of the product.

    At bound B the product's window is -(P // 2) .. P - 1 - P // 2 for the
    largest prime P <= B: -48 .. 48 at 100, -498 .. 498 at 1000 and
    -2046 .. 2046 at 4093.  Each end e of each window is the only root mod
    P of one (x - e) h, so a window one value short at either end misses
    a hit; for the smaller bounds the same roots lie outside the window.
    5 is a root inside every window, 5000 and -2^40 outside all.
    x^2 - (2^60 - 1) and x^4 - (2^60 - 1) take their largest |f(a)| at
    a = 0, inside the window, not at an end.
    """
    rng = random.Random(2**64)

    def cofactor(top):
        while True:
            h = [rng.randrange(-(2**20), 2**20 + 1) for _ in range(rng.randrange(1, 12))] + [1]
            if top is None or all(evaluate(h, a) % top for a in range(top)):
                return h

    pool = [[rng.randrange(-(2**64), 2**64 + 1) for _ in range(deg)] + [rng.randrange(1, 2**64 + 1)] for deg in range(13)]
    for top in (97, 997, 4093):
        for end in (-(top // 2), top - 1 - top // 2):
            pool.append(mul([-end, 1], cofactor(top)))
    for root in (5, 5000, -(2**40)):
        pool.append(mul([-root, 1], cofactor(None)))
    pool += [[-(2**60 - 1), 0, 1], [-(2**60 - 1), 0, 0, 0, 1]]
    return [normalize(f) for f in pool]


def test_batched_root_hits_matches_a_root_search():
    primes = primes_up_to(4093)
    for f in root_hits_pool():
        values = [evaluate(f, a) for a in range(primes[-1])]
        # brute force: some a < p with p | f(a)
        hit = [p for p in primes if any(v % p == 0 for v in values[:p])]
        for bound in (100, 1000, 4093):
            counted = primes_up_to(bound)
            assert factorint._batched_root_hits(f, counted) == len([p for p in hit if p <= bound]), (f, bound)


def test_root_hits_pool_reaches_every_window_case():
    pool = root_hits_pool()
    assert {degree(f) for f in pool} == set(range(13))
    assert max(abs(c) for f in pool for c in f) <= 2**64
    for bound in (100, 1000, 4093):
        top = primes_up_to(bound)[-1]
        window = range(-(top // 2), top - top // 2)
        assert len(window) == top
        for end in (window[0], window[-1]):
            # the end is the only root of some f mod the largest prime
            assert any(evaluate(f, end) == 0 and sum(evaluate(f, a) % top == 0 for a in window) == 1 for f in pool)
        for f in pool[-2:]:
            sizes = [abs(evaluate(f, a)) for a in window]
            assert max(sizes) > max(sizes[0], sizes[-1])
    for root in (5, 5000, -(2**40)):
        assert any(evaluate(f, root) == 0 for f in pool)


def test_batched_root_hits_slices_stay_about_as_long_as_the_modulus(monkeypatch):
    # f is 1 at both ends of the window at 4093 and about 2^200 inside it: slices
    # sized from the end values would multiply all 4093 values in one product
    primes = primes_up_to(4093)
    top = primes[-1]
    lo, hi = -(top // 2), top - 1 - top // 2
    rng = random.Random(4093)
    h = [rng.randrange(-(2**64), 2**64 + 1) for _ in range(10)] + [1]
    f = mul(mul([-lo, 1], [-hi, 1]), h)
    f[0] += 1
    assert evaluate(f, lo) == evaluate(f, hi) == 1 and evaluate(f, 0).bit_length() > 60
    lengths = []

    def prod(values):
        out = math.prod(values)
        lengths.append(out.bit_length())
        return out

    monkeypatch.setattr(factorint, "math", type("math", (), {"prod": staticmethod(prod)}))
    factorint._batched_root_hits(f, primes)
    # the first product is the modulus
    assert max(lengths[1:]) <= 2 * lengths[0]


@pytest.mark.parametrize("D", [-1, 2, 3, -3, 5, 12, -163, 1001])
def test_quadratic_root_density_is_the_legendre_count(D):
    # disc(x^2 - D) = 4D; for an odd prime p not dividing D, x^2 - D has a root
    # mod p iff D is a nonzero square mod p
    odd = [p for p in primes_up_to(10_000) if p > 2 and D % p]
    hits = sum(legendre(D, p) == 1 for p in odd)
    assert root_density([-D, 0, 1], 10_000) == Fraction(hits, len(odd))


def test_root_density_refuses_a_bound_with_no_unramified_prime():
    # x^2 - c with c the product of the primes <= 100: every such prime divides 4c
    c = math.prod(primes_up_to(100))
    with pytest.raises(ValueError, match="every prime <= 100 divides the discriminant"):
        root_density([-c, 0, 1], 100)
    assert root_density([-c, 0, 1], 101) == Fraction(legendre(c, 101) == 1, 1)


# -- long coefficients: ramification read modulo the primes counted -----------
#
# root_density reduces a coefficient of prime_bound bits or more modulo M, the
# product of the primes <= bound, before its discriminant; exact_density is the
# route without that reduction, with every prime tested by the Frobenius gcd.

LONG_BOUNDS = (100, 1000, 4093, 4099)


def exact_density(f, bound):
    disc = discriminant(f) or discriminant(squarefree_part(f))
    unramified = [p for p in primes_up_to(bound) if disc % p]
    if not unramified:
        raise ValueError(f"every prime <= {bound} divides the discriminant")
    return Fraction(sum(_gf_small_factor(zm_reduce(f, p), p, 1) for p in unramified), len(unramified))


def long_coefficient(rng, bits):
    return (rng.getrandbits(bits - 1) | 1 << (bits - 1)) * rng.choice((-1, 1))


def long_density_pool(bound):
    """A squarefree cubic with coefficients of bound and bound - 1 bits, and the square of a long quadratic."""
    rng = random.Random(bound)
    g = [long_coefficient(rng, bound), long_coefficient(rng, bound - 1), 1]
    return [
        [long_coefficient(rng, bound), long_coefficient(rng, bound - 1), 7, 1],
        [long_coefficient(rng, bound - 1), -3, long_coefficient(rng, bound - 1), 1],
        mul(g, g),
    ]


@pytest.mark.parametrize("bound", LONG_BOUNDS)
def test_long_coefficient_density_matches_the_exact_discriminant(bound):
    pool = long_density_pool(bound)
    assert [max(abs(c) for c in f).bit_length() >= bound for f in pool] == [True, False, True]
    assert discriminant(pool[0]) and discriminant(pool[1]) and not discriminant(pool[2])
    for f in pool:
        assert root_density(f, bound) == exact_density(f, bound), f
    # x^2 - c with M | c: every counted prime divides the reduced discriminant, and the exact one
    c = math.prod(primes_up_to(bound)) * long_coefficient(random.Random(-bound), bound)
    for referee in (root_density, exact_density):
        with pytest.raises(ValueError, match=f"every prime <= {bound} divides the discriminant"):
            referee([-c, 0, 1], bound)


def test_density_discriminant_sees_only_reduced_coefficients(monkeypatch):
    r = random.Random(40)
    f = [r.randrange(10**3999, 10**4000) * r.choice((-1, 1)) for _ in range(8)] + [1]
    half = math.prod(primes_up_to(1000)) // 2
    seen = []

    def spy(g):
        seen.append(max(abs(c) for c in g))
        return discriminant(g)

    monkeypatch.setattr(factorint, "discriminant", spy)
    density = root_density(f, 1000)
    assert seen and max(seen) <= half
    monkeypatch.undo()
    assert density == exact_density(f, 1000)


def test_density_refuses_a_degree_past_the_envelope_before_the_discriminant(monkeypatch):
    def no_discriminant(g):
        raise AssertionError("discriminant ran")

    monkeypatch.setattr(factorint, "discriminant", no_discriminant)
    monkeypatch.setattr(factorint, "squarefree_part", no_discriminant)
    r = random.Random(13)
    f = [r.randint(-9, 9) or 1 for _ in range(MAX_DEGREE + 1)] + [1]
    with pytest.raises(UnsupportedSizeError, match=f"^degree 13 exceeds supported envelope {MAX_DEGREE}$"):
        root_density(f, 1000)
