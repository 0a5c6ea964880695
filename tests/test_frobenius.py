"""The Frobenius table and the coprimality test, against the referee ``factor_mod_p``.

Every mod-p search in ``factorint`` takes x^p from one packed power and
each later x^(p^i) from the Frobenius table (``zm_frobenius_powers``), and
asks only whether a gcd is 1 (``zm_coprime``).  These tests hold the fast
paths to the full factorization over F_p on one seeded pool.  The powers
are first checked against fresh ``zm_pow_mod`` powers, which use no table:
``factor_mod_p`` runs the same distinct-degree split, so a wrong table
could leave its equal-degree split searching forever.
"""

import random

import pytest

from doldseq.factorint import (
    _gf_distinct_degree,
    _gf_small_factor,
    factor_mod_p,
    irreducibility_witness,
)
from doldseq.numth import primes_up_to
from doldseq.polyring import (
    discriminant,
    mul,
    normalize,
    sub,
    zm_coprime,
    zm_divmod,
    zm_frobenius_powers,
    zm_gcd,
    zm_mul,
    zm_pow_mod,
    zm_reduce,
    zm_rem,
)
from test_factorint import gf_degrees

# p = 2 and p = 3 are in it, with every other prime up to 300
PRIMES = primes_up_to(300)


def random_monic(rng, deg):
    return [rng.randint(-9, 9) for _ in range(deg)] + [1]


def frobenius_pool():
    """Monic polynomials of degree 1-12 with coefficients in [-9, 9], products and squares among them."""
    rng = random.Random(1967)
    pool = [random_monic(rng, deg) for deg in range(1, 13) for _ in range(2)]
    for _ in range(6):
        f = [1]
        while len(f) < 7:
            f = mul(f, random_monic(rng, rng.randint(1, 3)))
        pool.append(f)
    for _ in range(3):
        g = random_monic(rng, rng.randint(1, 3))
        pool.append(mul(mul(g, g), random_monic(rng, rng.randint(1, 4))))
    return [normalize(f) for f in pool]


POOL = frobenius_pool()


def referee_degrees(f, p):
    return tuple(sorted(len(g) - 1 for g, e in factor_mod_p(f, p) for _ in range(e)))


def referee_irreducible(f, p):
    return [(len(g) - 1, e) for g, e in factor_mod_p(f, p)] == [(len(f) - 1, 1)]


def divides_then_steps(degrees):
    """Whether the distinct-degree loop on a squarefree f with these factor degrees
    divides f at some step and then takes another step on the smaller f."""
    rest, i, divided = sum(degrees), 1, False
    while rest >= 2 * i:
        if divided:
            return True
        found = degrees.count(i) * i
        rest -= found
        divided = divided or bool(found)
        i += 1
    return False


@pytest.mark.parametrize("index", range(len(POOL)))
def test_frobenius_powers_match_zm_pow_mod(index):
    rng = random.Random(index)
    f = POOL[index]
    x = [0, 1]
    for p in PRIMES[::3] + (PRIMES[-1],):
        for lead in (1, rng.randrange(1, p)):
            # a unit leading coefficient other than 1 is allowed too
            g = zm_reduce([c * lead for c in f], p)
            powers = zm_frobenius_powers(g, p)
            h = next(powers)
            assert h == zm_pow_mod(x, p, g, p), (g, p)
            # past deg g steps every row of the table has been read
            for i in range(2, len(g) + 2):
                prev, h = h, next(powers)
                assert h == zm_pow_mod(prev, p, g, p), (g, p, i)
                if i <= 4:
                    assert h == zm_pow_mod(x, p**i, g, p), (g, p, i)
        # the powers modulo f are the powers modulo every divisor of f after one reduction
        if discriminant(f) % p:
            for i, h in zip(range(1, 5), zm_frobenius_powers(zm_reduce(f, p), p)):
                for block, _ in direct_blocks(f, p):
                    assert zm_rem(h, block, p) == zm_pow_mod(x, p**i, block, p), (f, p, i)


def test_frobenius_powers_of_low_degree():
    # deg f = 0 keeps no slot, deg f = 1 has the one row Q_0 = 1
    assert list(zip(range(3), zm_frobenius_powers([3], 5))) == [(0, []), (1, []), (2, [])]
    assert list(zip(range(3), zm_frobenius_powers([2, 1], 5))) == [(0, [3]), (1, [3]), (2, [3])]
    # nothing is computed before the first power is asked for: a zero modulus polynomial fails only then
    powers = zm_frobenius_powers([], 5)
    with pytest.raises(ZeroDivisionError):
        next(powers)


def test_zm_coprime_matches_gcd():
    rng = random.Random(300)
    for p in (2, 3, 5, 7, 101, 293):
        constants = [[], [1], [rng.randrange(1, p)] if p > 2 else [1]]
        for _ in range(200):
            shared = random_monic(rng, rng.randint(1, 2)) if rng.random() < 0.4 else [1]
            a = zm_mul(shared, [rng.randint(-9, 9) for _ in range(rng.randint(0, 6))], p)
            b = zm_mul(shared, [rng.randint(-9, 9) for _ in range(rng.randint(0, 6))], p)
            pairs = [(a, b), (b, a), (a, rng.choice(constants)), (rng.choice(constants), b)]
            for x, y in pairs:
                assert zm_coprime(x, y, p) == (len(zm_gcd(x, y, p)) == 1), (x, y, p)
        for x in constants:
            for y in constants:
                assert zm_coprime(x, y, p) == (len(zm_gcd(x, y, p)) == 1)
    assert not zm_coprime([], [], 7) and zm_coprime([], [3], 7) and not zm_coprime([], [1, 1], 7)
    # unreduced integer inputs: x^2 + 5 and x - 1 share the root 1 mod 3 only
    assert not zm_coprime([5, 0, 1], [-1, 1], 3) and zm_coprime([5, 0, 1], [-1, 1], 7)


def direct_blocks(f, p):
    """Distinct-degree blocks of squarefree monic f mod p, each x^(p^i) a fresh ``zm_pow_mod``.

    This is the split without the table, so a wrong table row shows here as a
    wrong block instead of an endless equal-degree split under ``factor_mod_p``.
    """
    f, out, i = zm_reduce(f, p), [], 1
    while len(f) > 2 * i:
        g = zm_gcd(f, sub(zm_pow_mod([0, 1], p**i, f, p), [0, 1]), p)
        if len(g) > 1:
            out.append((g, i))
            f = zm_divmod(f, g, p)[0]
        i += 1
    return out + [(f, len(f) - 1)] if len(f) > 1 else out


@pytest.mark.parametrize("index", range(len(POOL)))
def test_distinct_degree_matches_direct_powers(index):
    f = POOL[index]
    disc = discriminant(f)
    for p in PRIMES:
        if disc % p:
            assert _gf_distinct_degree(zm_reduce(f, p), p) == direct_blocks(f, p), (f, p)


@pytest.mark.parametrize("index", range(len(POOL)))
def test_gf_irreducible_and_degrees_match_factor_mod_p(index):
    f = POOL[index]
    disc = discriminant(f)
    for p in PRIMES:
        degrees = gf_degrees(f, p)
        assert degrees == referee_degrees(f, p), (f, p)
        # the witness search tests every prime, p | disc(f) included: an f irreducible mod p is squarefree there
        irreducible = referee_irreducible(f, p)
        assert _gf_small_factor(zm_reduce(f, p), p, (len(f) - 1) // 2) != irreducible, (f, p)
        assert disc % p or not irreducible, (f, p)


def test_pool_reaches_every_case():
    assert {len(f) - 1 for f in POOL} == set(range(1, 13))
    cases = [(f, p) for f in POOL for p in PRIMES]
    assert any(discriminant(f) == 0 for f in POOL)
    assert any(discriminant(f) % p == 0 for f, p in cases if discriminant(f))
    # f shrinks inside the distinct-degree loop and the loop goes on with the table of the input
    squarefree = [referee_degrees(f, p) for f, p in cases if discriminant(f) % p]
    assert sum(map(divides_then_steps, map(list, squarefree))) > 100
    # irreducible mod p at degrees that need three or more Frobenius steps
    assert any(len(d) == 1 and d[0] >= 6 for d in squarefree)


def referee_witness(f, bound):
    disc = discriminant(f)
    for p in primes_up_to(bound):
        if disc % p and referee_irreducible(f, p):
            return p
    return None


def witness_pool():
    """300 squarefree monic polynomials of degree 1-12, coefficients in [-9, 9], some reducible."""
    rng = random.Random(2509)
    pool = []
    while len(pool) < 300:
        if rng.random() < 0.05:
            f = mul(random_monic(rng, rng.randint(1, 3)), random_monic(rng, rng.randint(1, 3)))
        else:
            f = random_monic(rng, rng.randint(1, 12))
        f = normalize(f)
        if discriminant(f):
            pool.append(f)
    return pool


def test_witness_is_the_smallest_irreducible_prime():
    found = set()
    for f in witness_pool():
        witness = irreducibility_witness(f, 300)
        assert witness == referee_witness(f, 300), f
        found.add(witness)
    # the pool has witnesses at p = 2 and p = 3, later ones, and polynomials without any
    assert {2, 3, None} <= found and max(w for w in found if w) > 3


def test_non_squarefree_has_no_witness():
    # g^2 * h stays a product with a repeated factor mod every prime, ramified or not
    rng = random.Random(2810)
    for _ in range(40):
        g = random_monic(rng, rng.randint(1, 3))
        f = normalize(mul(mul(g, g), random_monic(rng, rng.randint(0, 6))))
        assert discriminant(f) == 0
        assert irreducibility_witness(f, 300) is None, f
        assert not any(referee_irreducible(f, p) for p in PRIMES), f
