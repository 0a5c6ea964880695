"""Exact number-theory helpers: examples and arithmetic invariants."""

import math
import random

import pytest

from doldseq import numth
from doldseq.numth import (
    UnsupportedSizeError,
    divisors,
    factorize,
    is_prime,
    legendre,
    mobius,
    p_valuation,
    primes_up_to,
    radical_int,
)


def test_mobius_examples():
    assert mobius(1) == 1
    assert mobius(6) == 1
    assert mobius(12) == 0


def test_mobius_rejects_nonpositive():
    with pytest.raises(ValueError):
        mobius(0)


def test_radical_examples():
    assert radical_int(156) == 78
    assert radical_int(1) == 1
    assert radical_int(2**10 * 3**2) == 6


def test_p_valuation_examples():
    assert p_valuation(2, 156) == 2
    assert p_valuation(3, 9) == 2
    assert p_valuation(5, 7) == 0


def test_p_valuation_errors():
    with pytest.raises(ValueError):
        p_valuation(4, 10)
    with pytest.raises(ValueError):
        p_valuation(2, 0)


def test_legendre_examples():
    for p in (3, 5, 7, 11, 13):
        assert legendre(1, p) == 1
    assert legendre(2, 7) == 1
    assert legendre(156, 7) == legendre(2, 7)


def test_legendre_rejects_two_and_composites():
    with pytest.raises(ValueError):
        legendre(3, 2)
    with pytest.raises(ValueError):
        legendre(3, 9)


def test_primes_up_to_examples():
    assert primes_up_to(10) == (2, 3, 5, 7)
    assert primes_up_to(2) == (2,)
    assert len(primes_up_to(30)) == 10


def test_prime_table_grows_on_demand(monkeypatch):
    def naive_is_prime(n):
        return n > 1 and all(n % q for q in range(2, math.isqrt(n) + 1))

    # start from the empty table of a fresh import, whatever earlier tests grew
    monkeypatch.setattr(numth, "_table", ())
    monkeypatch.setattr(numth, "_table_limit", 0)
    for limit in (10, 50_000, 30, 10_000):
        primes = primes_up_to(limit)
        assert type(primes) is tuple
        assert primes == tuple(n for n in range(limit + 1) if naive_is_prime(n))
    with pytest.raises(ValueError):
        primes_up_to(1)

    monkeypatch.setattr(numth, "_table", ())
    monkeypatch.setattr(numth, "_table_limit", 0)
    assert factorize(1) == []
    assert factorize(2) == [(2, 1)]
    assert factorize(3) == [(3, 1)]
    # the square root of 10007 * 10009 lies past the first table
    assert factorize(10007 * 10009) == [(10007, 1), (10009, 1)]


def test_is_prime_matches_sieve():
    sieve = set(primes_up_to(2000))
    for n in range(2001):
        assert is_prime(n) == (n in sieve)


# psi_12 and psi_13: the least strong pseudoprimes to the prime bases 2..37 and 2..41
PSI_12 = 399165290221 * 798330580441
PSI_13 = 1287836182261 * 2575672364521


def test_guard_is_not_an_input_error():
    # a handler of malformed input (except ValueError) must never swallow a size guard
    assert not issubclass(UnsupportedSizeError, ValueError)


def test_is_prime_refutes_psi_12():
    assert PSI_12 == 318665857834031151167461
    assert not is_prime(PSI_12)
    # both factors lie past the trial-division limit, so no factorization is claimed
    with pytest.raises(UnsupportedSizeError):
        factorize(PSI_12)
    # a prime cofactor below psi_13 is still proven prime
    assert is_prime(2**61 - 1)
    assert factorize(3 * (2**61 - 1)) == [(3, 1), (2**61 - 1, 1)]


def test_is_prime_and_factorize_refuse_psi_13():
    assert PSI_13 == 3317044064679887385961981
    with pytest.raises(UnsupportedSizeError):
        is_prime(PSI_13)
    with pytest.raises(UnsupportedSizeError):
        factorize(PSI_13)
    # trial division alone still factors a large number
    assert factorize(2**100 * 3) == [(2, 100), (3, 1)]


def test_mobius_multiplicative_on_coprime_pairs():
    rng = random.Random(11)
    for _ in range(200):
        m = rng.randrange(1, 10_000)
        n = rng.randrange(1, 10_000)
        if math.gcd(m, n) != 1:
            continue
        assert mobius(m * n) == mobius(m) * mobius(n)


def test_mobius_divisor_sum():
    assert sum(mobius(d) for d in divisors(1)) == 1
    for n in range(2, 10_001):
        assert sum(mobius(d) for d in divisors(n)) == 0


def test_radical_divides_and_is_squarefree():
    for n in range(1, 10_001):
        r = radical_int(n)
        assert n % r == 0
        assert mobius(r) != 0


def test_legendre_euler_criterion():
    rng = random.Random(7)
    odd_primes = [p for p in primes_up_to(500) if p > 2]
    for _ in range(200):
        p = rng.choice(odd_primes)
        a = rng.randrange(-1000, 1000)
        assert legendre(a, p) % p == pow(a % p, (p - 1) // 2, p)
        assert (legendre(a, p) == 0) == (a % p == 0)


def test_factorize_reconstructs():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randrange(1, 10**9)
        prod = 1
        for p, e in factorize(n):
            assert is_prime(p)
            prod *= p**e
        assert prod == n


def test_factorize_guard_on_hard_semiprime():
    # both factors prime and above the trial-division limit
    with pytest.raises(UnsupportedSizeError):
        factorize(1_000_003 * 1_000_033)


def test_divisors_examples():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]

