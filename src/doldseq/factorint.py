"""Factorization of monic integer polynomials and mod-p diagnostics.

The integer route is classical Zassenhaus: squarefree split, factorization
modulo a prime that keeps the polynomial squarefree, Hensel lifting past
the Mignotte coefficient bound, then exhaustive subset recombination.
Everything is deterministic: the randomized equal-degree splitting is
seeded from the input.

Only the Hensel seeds of ``factor_over_Z`` need the mod-p factors
themselves, so only that path calls ``factor_mod_p``.  The witness
search, ``degree_pattern`` and the splitting-degree search in ``dold``
need just the factor degrees, which ``_gf_degrees`` reads off the
squarefree and distinct-degree splits without equal-degree splitting.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .numth import UnsupportedSizeError, is_prime, primes_up_to, small_primes
from .polyring import (
    IntPoly,
    add,
    degree,
    derivative,
    discriminant,
    divmod_exact,
    gcd_monic,
    is_monic,
    mul,
    normalize,
    squarefree_part,
    sub,
    zm_derivative,
    zm_divmod,
    zm_gcd,
    zm_monic,
    zm_mul,
    zm_mulmod,
    zm_pow_mod,
    zm_reduce,
    zm_rem,
)

MAX_DEGREE = 12
MAX_COEFF = 10**6
# Largest prime search bound of irreducibility_witness and root_density;
# both sieve every prime up to the bound before they test the first one.
MAX_PRIME_BOUND = 10**5

# Global override for the equal-degree-splitting seed; None keeps the
# per-input derivation.  The CLI's --seed flag sets it for one command.
DEFAULT_SEED: int | None = None


@dataclass(frozen=True)
class Factorization:
    """Monic irreducible factors with multiplicities; their product is the (monic) input."""

    factors: tuple[tuple[tuple[int, ...], int], ...]

    def expand(self) -> IntPoly:
        out: IntPoly = [1]
        for f, e in self.factors:
            for _ in range(e):
                out = mul(out, list(f))
        return out

    def is_irreducible(self) -> bool:
        return len(self.factors) == 1 and self.factors[0][1] == 1


@dataclass(frozen=True)
class FactorPattern:
    """Multiset of mod-p irreducible factor degrees; Frobenius cycle type at unramified p."""

    prime: int
    pattern: tuple[int, ...]
    ramified: bool


def _sort_key(coeffs: tuple[int, ...]):
    return (len(coeffs), coeffs)


# -- factorization over F_p --------------------------------------------------
#
# The _gf_* helpers work on kernel lists modulo a prime p that the caller
# has already checked.


def _gf_squarefree_list(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """Squarefree decomposition of monic f over F_p (Yun with p-th root descent)."""
    out: list[tuple[list[int], int]] = []
    mult = 1
    while len(f) > 1:
        d = zm_derivative(f, p)
        if not d:
            # a polynomial with zero derivative is g(x^p), and c^(1/p) = c in F_p
            f = f[::p]
            mult *= p
            continue
        g = zm_gcd(f, d, p)
        w = zm_divmod(f, g, p)[0]
        i = 1
        while len(w) > 1:
            y = zm_gcd(w, g, p)
            z = zm_divmod(w, y, p)[0]
            if len(z) > 1:
                out.append((zm_monic(z, p), i * mult))
            w = y
            g = zm_divmod(g, y, p)[0]
            i += 1
        f = g
    return out


def _gf_distinct_degree(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """Split squarefree monic f into products of irreducibles of equal degree."""
    out = []
    h = x = [0, 1]
    i = 1
    while len(f) > 2 * i:
        h = zm_pow_mod(h, p, f, p)
        g = zm_gcd(f, sub(h, x), p)
        if len(g) > 1:
            out.append((g, i))
            f = zm_divmod(f, g, p)[0]
            h = zm_rem(h, f, p)
        i += 1
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _gf_degrees(f: list[int], p: int) -> tuple[int, ...]:
    """Sorted degrees, with multiplicity, of the monic irreducible factors of monic f over F_p.

    A distinct-degree block of total degree D holds D/d factors of degree
    d, so the degrees need no equal-degree splitting.
    """
    degrees: list[int] = []
    for sqf, mult in _gf_squarefree_list(zm_reduce(f, p), p):
        for block, d in _gf_distinct_degree(sqf, p):
            degrees += [d] * ((len(block) - 1) // d * mult)
    degrees.sort()
    return tuple(degrees)


def _gf_equal_degree(f: list[int], d: int, p: int, rng: random.Random) -> list[list[int]]:
    """Cantor-Zassenhaus split of monic squarefree f, all factors of degree d."""
    if len(f) - 1 == d:
        return [f]
    while True:
        r = zm_reduce([rng.randrange(p) for _ in range(len(f) - 1)], p)
        if len(r) < 2:
            continue
        if p == 2:
            # trace map r + r^2 + ... + r^(2^(d-1))
            t = acc = r
            for _ in range(d - 1):
                t = zm_mulmod(t, t, f, p)
                acc = add(acc, t)
            g = zm_gcd(f, acc, p)
        else:
            g = zm_gcd(f, r, p)
            if not 1 < len(g) < len(f):
                g = zm_gcd(f, sub(zm_pow_mod(r, (p**d - 1) // 2, f, p), [1]), p)
        if 1 < len(g) < len(f):
            h = zm_divmod(f, g, p)[0]
            return _gf_equal_degree(g, d, p, rng) + _gf_equal_degree(h, d, p, rng)


def factor_mod_p(f: list[int], p: int, seed: int | None = None) -> list[tuple[list[int], int]]:
    """Complete factorization of f over F_p, for p prime, into monic irreducibles.

    Output is sorted canonically (degree, then coefficients) regardless of
    the internal randomness, which is seeded from the reduced coefficients
    unless an explicit seed is given.
    """
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    f = zm_reduce(f, p)
    if not f:
        raise ValueError("cannot factor the zero polynomial")
    if seed is None:
        seed = DEFAULT_SEED
    if seed is None:
        seed = hash((p, *f)) & 0x7FFFFFFF
    rng = random.Random(seed)
    out: list[tuple[list[int], int]] = []
    for sqf, mult in _gf_squarefree_list(zm_monic(f, p), p):
        for block, d in _gf_distinct_degree(sqf, p):
            for irr in _gf_equal_degree(block, d, p, rng):
                out.append((irr, mult))
    out.sort(key=lambda t: _sort_key(t[0]))
    return out


# -- Hensel lifting ----------------------------------------------------------


def _hensel_pair(f: list[int], g: list[int], h: list[int], s: list[int], t: list[int], p: int, k: int):
    """Lift f = g*h (mod p) with s*g + t*h = 1 (mod p) to modulus p**k.

    All of g, h monic; quadratic lifting.  Returns (g, h) mod p**k.
    """
    pk = p**k
    m = p
    while m < pk:
        m = min(m * m, pk)
        e = zm_reduce(sub(f, mul(g, h)), m)
        q, r = zm_divmod(mul(s, e), h, m)
        g = zm_reduce(add(g, add(mul(t, e), mul(q, g))), m)
        h = zm_reduce(add(h, r), m)
        if m == pk:
            break
        b = zm_reduce(sub(add(mul(s, g), mul(t, h)), [1]), m)
        c, d = zm_divmod(mul(s, b), h, m)
        s = zm_reduce(sub(s, d), m)
        t = zm_reduce(sub(t, add(mul(t, b), mul(c, g))), m)
    return g, h


def hensel_lift(f: IntPoly, factors_mod_p: list[list[int]], p: int, k: int) -> list[list[int]]:
    """Lift a coprime monic factorization of f mod p to mod p**k.

    The seeds are integer lists, read mod p and made monic; they must be
    pairwise coprime mod p with product congruent to f.
    Each returned factor is congruent to its seed mod p and their product
    is congruent to f mod p**k.
    """
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    seeds = [zm_monic(zm_reduce(g, p), p) for g in factors_mod_p]
    prod = [1]
    for g in seeds:
        prod = zm_mul(prod, g, p)
    if prod != zm_monic(zm_reduce(f, p), p):
        raise ValueError("seed product does not match the polynomial mod p")
    for i in range(len(seeds)):
        for j in range(i + 1, len(seeds)):
            if len(zm_gcd(seeds[i], seeds[j], p)) != 1:
                raise ValueError("seed factors are not pairwise coprime mod p")
    if k < 1:
        raise ValueError("target exponent must be positive")
    pk = p**k

    def lift(target: list[int], parts: list[list[int]]) -> list[list[int]]:
        if len(parts) == 1:
            return [zm_reduce(target, pk)]
        half = len(parts) // 2
        g = [1]
        for q in parts[:half]:
            g = zm_mul(g, q, p)
        h = [1]
        for q in parts[half:]:
            h = zm_mul(h, q, p)
        s, t = _gf_bezout(g, h, p)
        gl, hl = _hensel_pair(zm_reduce(target, pk), g, h, s, t, p, k)
        return lift(gl, parts[:half]) + lift(hl, parts[half:])

    return lift(normalize(f), seeds)


def _gf_bezout(g: list[int], h: list[int], p: int) -> tuple[list[int], list[int]]:
    """s, t with s*g + t*h = 1 over F_p, for coprime g, h."""
    r0, r1 = g, h
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = zm_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, zm_reduce(sub(s0, mul(q, s1)), p)
        t0, t1 = t1, zm_reduce(sub(t0, mul(q, t1)), p)
    if len(r0) != 1:
        raise ValueError("polynomials are not coprime mod p")
    inv = [pow(r0[0], -1, p)]
    return zm_mul(s0, inv, p), zm_mul(t0, inv, p)


# -- factorization over Z ----------------------------------------------------


def _symmetric(c: int, m: int) -> int:
    c %= m
    return c - m if c > m // 2 else c


def _mignotte_bound(f: IntPoly) -> int:
    norm = math.isqrt(sum(c * c for c in f)) + 1
    return 2 ** len(f) * norm


def _squarefree_decomposition(f: IntPoly) -> list[tuple[IntPoly, int]]:
    """Yun's algorithm for monic f over Z: pairwise coprime squarefree parts."""
    out = []
    g = gcd_monic(f, derivative(f))
    w = divmod_exact(f, g)[0]
    i = 1
    while degree(w) > 0:
        y = gcd_monic(w, g)
        z = divmod_exact(w, y)[0]
        if degree(z) > 0:
            out.append((z, i))
        w = y
        g = divmod_exact(g, y)[0]
        i += 1
    return out


def _good_prime(f: IntPoly) -> int:
    fd = derivative(f)
    for p in small_primes(10_000):
        if len(zm_gcd(f, fd, p)) == 1:
            return p
    raise UnsupportedSizeError("no squarefree-preserving prime below 10000")


def _factor_squarefree_over_Z(f: IntPoly, seed: int | None) -> list[IntPoly]:
    """Irreducible monic factors of a monic squarefree f over Z."""
    if degree(f) == 1:
        return [f]
    p = _good_prime(f)
    modular = factor_mod_p(f, p, seed=seed)
    if len(modular) == 1:
        return [f]
    bound = 2 * _mignotte_bound(f)
    k = 1
    while p**k <= bound:
        k += 1
    lifted = hensel_lift(f, [g for g, _ in modular], p, k)
    m = p**k

    remaining = list(range(len(lifted)))
    result: list[IntPoly] = []
    rest = list(f)
    size = 1
    while 2 * size <= len(remaining):
        for subset in itertools.combinations(remaining, size):
            cand = [1]
            for idx in subset:
                cand = zm_mul(cand, lifted[idx], m)
            cand_z = normalize([_symmetric(c, m) for c in cand])
            dm = divmod_exact(rest, cand_z)
            if dm is not None and not dm[1]:
                result.append(cand_z)
                rest = dm[0]
                remaining = [i for i in remaining if i not in subset]
                break
        else:
            size += 1
    if degree(rest) > 0:
        result.append(rest)
    return result


def factor_over_Z(f: IntPoly, seed: int | None = None, disc: int | None = None) -> Factorization:
    """Factor a monic integer polynomial into monic irreducibles over Z.

    Supported envelope: degree <= 12, coefficients up to 1e6 in magnitude;
    outside it an UnsupportedSizeError is raised, never a wrong answer.
    A caller that already holds the discriminant of f passes it as disc.
    """
    f = normalize(f)
    if not is_monic(f):
        raise ValueError("factor_over_Z requires a monic polynomial")
    if degree(f) > MAX_DEGREE:
        raise UnsupportedSizeError(f"degree {degree(f)} exceeds supported envelope {MAX_DEGREE}")
    if any(abs(c) > MAX_COEFF for c in f):
        raise UnsupportedSizeError(f"coefficient magnitude exceeds supported envelope {MAX_COEFF}")
    if degree(f) == 0:
        return Factorization(())
    # a nonzero discriminant means f is already squarefree
    if disc is None:
        disc = discriminant(f)
    parts = [(f, 1)] if disc else _squarefree_decomposition(f)
    factors: list[tuple[tuple[int, ...], int]] = []
    for sqf, mult in parts:
        for irr in _factor_squarefree_over_Z(sqf, seed):
            factors.append((tuple(irr), mult))
    factors.sort(key=lambda t: _sort_key(t[0]))
    return Factorization(tuple(factors))


# -- Frobenius-flavored diagnostics -----------------------------------------


def _check_prime_bound(bound: int) -> None:
    if bound > MAX_PRIME_BOUND:
        raise UnsupportedSizeError(f"prime bound {bound} exceeds supported envelope {MAX_PRIME_BOUND}")


def irreducibility_witness(f: IntPoly, search_bound: int, disc: int | None = None) -> int | None:
    """Smallest prime p <= bound with f squarefree and irreducible mod p.

    Such a p certifies that f stays irreducible modulo infinitely many
    primes (the mod-p factor degrees are the Frobenius cycle type, and a
    full-length cycle occurs with positive density).  None means no
    witness up to the bound: inconclusive.  A caller that already holds
    the discriminant of f passes it as disc.  A bound above
    MAX_PRIME_BOUND raises UnsupportedSizeError.
    """
    f = normalize(f)
    if disc is None:
        disc = discriminant(f)
    if disc == 0:
        raise ValueError("irreducibility_witness requires a squarefree polynomial")
    if search_bound < 2:
        raise ValueError("search bound must be at least 2")
    _check_prime_bound(search_bound)
    irreducible = (degree(f),)
    for p in primes_up_to(search_bound).primes:
        if disc % p and _gf_degrees(f, p) == irreducible:
            return p
    return None


def degree_pattern(f: IntPoly, p: int) -> FactorPattern:
    """Degrees (with multiplicity) of the irreducible mod-p factors of f."""
    f = normalize(f)
    disc = discriminant(f)
    if disc == 0:
        raise ValueError("degree_pattern requires a squarefree polynomial")
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    return FactorPattern(prime=p, pattern=_gf_degrees(f, p), ramified=disc % p == 0)


def _has_root_mod_p(f: list[int], p: int) -> bool:
    # f has a root in F_p iff gcd(f, x^p - x) is nontrivial
    x = [0, 1]
    return len(zm_gcd(f, sub(zm_pow_mod(x, p, f, p), x), p)) > 1


def root_density(f: IntPoly, prime_bound: int) -> Fraction:
    """Fraction of unramified primes p <= bound for which f has a root mod p.

    The bound runs from 100 to MAX_PRIME_BOUND; above it UnsupportedSizeError is raised.
    """
    if prime_bound < 100:
        raise ValueError("prime bound must be at least 100")
    _check_prime_bound(prime_bound)
    f = normalize(f)
    disc = discriminant(squarefree_part(f))
    hits = 0
    total = 0
    for p in primes_up_to(prime_bound).primes:
        if disc % p == 0:
            continue
        total += 1
        if _has_root_mod_p(zm_reduce(f, p), p):
            hits += 1
    return Fraction(hits, total)
