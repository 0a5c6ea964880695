"""Elementary exact number theory: the prime table, factoring helpers, Mobius, Legendre."""

from __future__ import annotations

import bisect
import math


class UnsupportedSizeError(RuntimeError):
    """Input exceeds the size envelope this package commits to: the one guard type, for every size limit.

    Not a ValueError, so no handler of malformed input catches it: the
    CLI's InputError gives exit 1, and this gives exit 2.
    """


# The one prime table: every prime <= _table_limit, built on first use and grown on demand.
_table: tuple[int, ...] = ()
_table_limit = 0


def primes_up_to(limit: int) -> tuple[int, ...]:
    """Every prime <= limit, ascending, cut from the shared table.

    A limit past the table sieves a new one to at least twice the old
    limit (10,000 the first time), so the table grows a bounded number of times.
    """
    global _table, _table_limit
    if limit < 2:
        raise ValueError("sieve limit must be at least 2")
    if limit > _table_limit:
        _table_limit = max(limit, 2 * _table_limit, 10_000)
        flags = bytearray([1]) * (_table_limit + 1)
        flags[0] = flags[1] = 0
        for p in range(2, math.isqrt(_table_limit) + 1):
            if flags[p]:
                flags[p * p :: p] = bytes(len(range(p * p, _table_limit + 1, p)))
        _table = tuple(i for i in range(_table_limit + 1) if flags[i])
    return _table[: bisect.bisect_right(_table, limit)]


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_13: the bases above prove primality below it (see is_prime)
_MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with the prime bases 2..41, proven for every n < psi_13.

    psi_13 = 3317044064679887385961981 = 1287836182261 * 2575672364521 is
    the least strong pseudoprime to all thirteen bases (Sorenson and
    Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 86,
    2017); the bases 2..37 alone stop being a proof at psi_12 =
    318665857834031151167461 = 399165290221 * 798330580441.  An n >= psi_13
    raises UnsupportedSizeError rather than get a probable-prime answer.
    """
    if n >= _MR_LIMIT:
        raise UnsupportedSizeError(f"primality is proven only below {_MR_LIMIT}, not for a {n.bit_length()}-bit number")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_TRIAL_LIMIT = 10**6


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 by trial division, as (prime, exponent) pairs.

    Only meant for the desk-scale integers this package factors
    (discriminants, bounds); raises UnsupportedSizeError when a cofactor
    survives trial division to 10**6 and is not prime, or is too large
    for ``is_prime`` to prove it prime (psi_13 or more).
    """
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    out: list[tuple[int, int]] = []
    for p in primes_up_to(max(2, min(math.isqrt(n), _TRIAL_LIMIT))):
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    if n > 1:
        if n >= _TRIAL_LIMIT**2 and not is_prime(n):
            raise UnsupportedSizeError(f"cannot factor remaining cofactor {n}")
        out.append((n, 1))
    return out


def mobius(n: int) -> int:
    """Mobius function: 0 on non-squarefree n, else (-1)^(prime count)."""
    if n < 1:
        raise ValueError("mobius requires n >= 1")
    fac = factorize(n)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def radical_int(n: int) -> int:
    """Greatest squarefree divisor of n >= 1."""
    if n < 1:
        raise ValueError("radical requires n >= 1")
    out = 1
    for p, _ in factorize(n):
        out *= p
    return out


def p_valuation(p: int, n: int) -> int:
    """Largest k with p**k dividing n; n must be nonzero."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p, in {-1, 0, 1}."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, ascending."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)

