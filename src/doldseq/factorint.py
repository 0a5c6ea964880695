"""Factorization of monic integer polynomials and mod-p diagnostics.

The integer route is classical Zassenhaus on the squarefree part:
factorization modulo the first prime not dividing its discriminant (so it
stays squarefree there), Hensel lifting past the Mignotte coefficient
bound, then exhaustive subset recombination.  An input with a zero
discriminant takes the same route through its squarefree part, and the
multiplicities are read by exact division afterwards.  The integer
roots of a monic polynomial are its linear factors over Z, so this route
finds them too, at any coefficient size: ``factor_over_Z`` caps only the
degree, and ``dold`` reads the rational roots of a quartic's resolvent
cubic from it.  Everything is deterministic: the randomized equal-degree
splitting is seeded from the input.

Only the Hensel seeds of ``factor_over_Z`` need the mod-p factors
themselves, so only that path calls ``factor_mod_p``.  The witness
search needs just whether f is irreducible mod p, which
``_gf_irreducible`` answers by distinct-degree steps that stop at the
first factor, and ``root_density`` needs just whether f has a root mod
p: one product of values of f for the small primes, gcd(f, x^p - x) for
the others.  On these paths x^p mod (f, p) is one packed power per
prime, and each later x^(p^i) is one product with the Frobenius table of
f, both from ``polyring.zm_frobenius_powers``.  A gcd that is only
tested for being 1 is ``polyring.zm_coprime``, which makes nothing monic.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from fractions import Fraction
from typing import NamedTuple

from .numth import UnsupportedSizeError, is_prime, primes_up_to
from .polyring import (
    IntPoly,
    add,
    degree,
    discriminant,
    divmod_exact,
    is_monic,
    mul,
    normalize,
    squarefree_part,
    sub,
    zm_coprime,
    zm_derivative,
    zm_divmod,
    zm_frobenius_powers,
    zm_gcd,
    zm_monic,
    zm_mul,
    zm_mulmod,
    zm_pow_mod,
    zm_reduce,
)

# factor_over_Z's degree cap, which bounds its subset recombination; past it UnsupportedSizeError
MAX_DEGREE = 12
# Largest prime search bound of irreducibility_witness and root_density;
# both grow the shared prime table to the bound before they test the first prime.
MAX_PRIME_BOUND = 10**5
# root_density tests the unramified primes up to _BATCH_PRIME_LIMIT with one
# product and the larger ones one at a time, unless a coefficient of f is longer
# than _BATCH_COEFF_BITS: the product's cost grows with the length of f's values.
# Up to these two limits the product was measured cheaper than the per-prime gcds
# for degrees 2-12; past either, the gcds won for some degree.
_BATCH_PRIME_LIMIT = 4096
_BATCH_COEFF_BITS = 64


class Factorization(NamedTuple):
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
    """Split squarefree monic f into products of irreducibles of equal degree.

    Step i needs x^(p^i) modulo the current f.  The powers come from the
    Frobenius table of the input f, so they are reduced modulo the input.
    The current f divides the input, so each is also x^(p^i) modulo the
    current f once the gcd reduces it there.
    """
    out = []
    x = [0, 1]
    powers = zm_frobenius_powers(f, p)
    i = 1
    while len(f) > 2 * i:
        g = zm_gcd(f, sub(next(powers), x), p)
        if len(g) > 1:
            out.append((g, i))
            f = zm_divmod(f, g, p)[0]
        i += 1
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _gf_irreducible(f: list[int], p: int) -> bool:
    """Whether f, reduced and monic over F_p, is irreducible there (Ben-Or's test).

    The witness search calls it on a monic integer f reduced mod p, which
    keeps its degree d.  Proof that the early exit is exact:

    1. x^(p^i) - x is the product of the monic irreducibles over F_p whose
       degree divides i, so gcd(f, x^(p^i) - x) is nontrivial iff f has an
       irreducible factor of degree dividing i.
    2. A reducible f of degree d, squarefree or not, has an irreducible
       factor of degree <= d/2, which divides its own i <= d/2.

    So f is irreducible iff the gcd is 1 for every i <= d/2, and the first
    nontrivial gcd already proves it reducible.  Unlike ``factor_mod_p``
    this needs no squarefree split and no further distinct-degree step.
    Each gcd is only tested for being 1 (``zm_coprime``), and the powers
    come from ``zm_frobenius_powers``, so a search that stops at the first
    step builds no table rows.
    """
    x = [0, 1]
    for _, h in zip(range((len(f) - 1) // 2), zm_frobenius_powers(f, p)):
        if not zm_coprime(f, sub(h, x), p):
            return False
    return True


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


def factor_mod_p(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """Complete factorization of f over F_p, for p prime, into monic irreducibles.

    Output is sorted canonically (degree, then coefficients) regardless of
    the internal randomness, which is seeded from p and the reduced
    coefficients.
    """
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    f = zm_reduce(f, p)
    if not f:
        raise ValueError("cannot factor the zero polynomial")
    rng = random.Random(hash((p, *f)) & 0x7FFFFFFF)
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
            if not zm_coprime(seeds[i], seeds[j], p):
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


def _factor_squarefree_over_Z(f: IntPoly, disc: int) -> list[IntPoly]:
    """Irreducible monic factors of a monic squarefree f over Z, given disc = disc(f) != 0.

    f is monic, so f mod p keeps its degree and disc(f) mod p is its
    discriminant: f stays squarefree mod p iff p does not divide disc.
    """
    if degree(f) == 1:
        return [f]
    p = next((p for p in primes_up_to(10_000) if disc % p), None)
    if p is None:
        raise UnsupportedSizeError("no squarefree-preserving prime below 10000")
    modular = factor_mod_p(f, p)
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
            quotient, remainder = divmod_exact(rest, cand_z)
            if not remainder:
                result.append(cand_z)
                rest = quotient
                remaining = [i for i in remaining if i not in subset]
                break
        else:
            size += 1
    if degree(rest) > 0:
        result.append(rest)
    return result


def factor_over_Z(f: IntPoly, disc: int | None = None) -> Factorization:
    """Factor a monic integer polynomial into monic irreducibles over Z.

    Any coefficient size; a degree above MAX_DEGREE raises UnsupportedSizeError,
    never a wrong answer.  A caller that already holds disc(f) passes it as disc.
    """
    f = normalize(f)
    if not is_monic(f):
        raise ValueError("factor_over_Z requires a monic polynomial")
    if degree(f) > MAX_DEGREE:
        raise UnsupportedSizeError(f"degree {degree(f)} exceeds supported envelope {MAX_DEGREE}")
    if degree(f) == 0:
        return Factorization(())
    # a nonzero discriminant means f is already squarefree, so every multiplicity is 1
    if disc is None:
        disc = discriminant(f)
    if disc:
        irreducibles = _factor_squarefree_over_Z(f, disc)
    else:
        g = squarefree_part(f)
        irreducibles = _factor_squarefree_over_Z(g, discriminant(g))
    factors: list[tuple[tuple[int, ...], int]] = []
    for irr in irreducibles:
        mult = 1
        if not disc:
            # irr divides f; each further exact division by it adds one to its multiplicity
            quotient, rest = divmod_exact(divmod_exact(f, irr)[0], irr)
            while not rest:
                mult += 1
                quotient, rest = divmod_exact(quotient, irr)
        factors.append((tuple(irr), mult))
    factors.sort(key=lambda t: _sort_key(t[0]))
    return Factorization(tuple(factors))


# -- Frobenius-flavored diagnostics -----------------------------------------


def _check_prime_bound(bound: int) -> None:
    if bound > MAX_PRIME_BOUND:
        raise UnsupportedSizeError(f"prime bound {bound} exceeds supported envelope {MAX_PRIME_BOUND}")


def irreducibility_witness(f: IntPoly, search_bound: int) -> int | None:
    """Smallest prime p <= bound with monic f irreducible mod p.

    Such a p certifies that f stays irreducible modulo infinitely many
    primes (the mod-p factor degrees are the Frobenius cycle type, and a
    full-length cycle occurs with positive density).  None means no
    witness up to the bound: inconclusive.  Each prime is tested by
    ``_gf_irreducible``, with no discriminant: an f irreducible mod p is
    squarefree there, and a non-squarefree f has no witness.  A bound
    above MAX_PRIME_BOUND raises UnsupportedSizeError.
    """
    f = normalize(f)
    if not is_monic(f) or degree(f) < 1:
        raise ValueError("irreducibility_witness requires a monic polynomial of positive degree")
    if search_bound < 2:
        raise ValueError("search bound must be at least 2")
    _check_prime_bound(search_bound)
    for p in primes_up_to(search_bound):
        if _gf_irreducible(zm_reduce(f, p), p):
            return p
    return None


def _has_root_mod_p(f: list[int], p: int) -> bool:
    # f has a root in F_p iff gcd(f, x^p - x) is nontrivial
    x = [0, 1]
    return not zm_coprime(f, sub(zm_pow_mod(x, p, f, p), x), p)


def _batched_root_hits(f: IntPoly, primes: list[int]) -> int:
    """How many of the ascending primes p have a root of f in F_p, from one product.

    Let M be the product of the primes and P the largest, and
    R = prod_{a=0}^{P-1} f(a) mod M.  Then p | R iff f has a root in F_p:
    p | M, so p | R iff p divides some f(a) with a < P; f(a) = f(a mod p)
    (mod p), and a runs over every residue mod p since p <= P.  An integer
    root r gives p | f(r mod p) for every p, so every prime is a hit, as
    it should be (R is 0 when 0 <= r < P).

    The values f(0..P-1) come from Horner steps across all a at once, and
    their running product is reduced mod M once per block about as long
    as M.  With log M about P, that is about P * log f(P) * P bit
    operations, roughly deg(f) * bound^2 * log(bound) for short
    coefficients, done in C, against one Frobenius power per prime for
    ``_has_root_mod_p``: about pi(bound) * deg(f)^2 * log(bound)
    interpreted steps.
    """
    top = primes[-1]
    modulus = math.prod(primes)
    width = modulus.bit_length()
    values = [f[-1]] * top
    for c in reversed(f[:-1]):
        values = [v * a + c for a, v in enumerate(values)]
    product = block = 1
    for v in values:
        block *= v
        if block.bit_length() > width:
            product = product * block % modulus
            block = 1
    product = product * block % modulus
    return sum(product % p == 0 for p in primes)


def root_density(f: IntPoly, prime_bound: int) -> Fraction:
    """Fraction of unramified primes p <= bound for which f has a root mod p.

    The primes up to _BATCH_PRIME_LIMIT are tested together by one
    product (``_batched_root_hits``), and each prime above it by a
    Frobenius gcd (``_has_root_mod_p``): the product's cost grows with the
    square of the largest prime it covers, the gcd's only with its log.
    A coefficient longer than _BATCH_COEFF_BITS sends every prime to the gcd.
    The bound runs from 100 to MAX_PRIME_BOUND; above it UnsupportedSizeError
    is raised.  A ValueError names the bound when every prime up to it
    divides the discriminant, so no prime is counted.
    """
    if prime_bound < 100:
        raise ValueError("prime bound must be at least 100")
    _check_prime_bound(prime_bound)
    f = normalize(f)
    # ramification is read from the squarefree part, which is f itself when disc(f) != 0
    disc = discriminant(f) or discriminant(squarefree_part(f))
    unramified = [p for p in primes_up_to(prime_bound) if disc % p]
    if not unramified:
        raise ValueError(f"every prime <= {prime_bound} divides the discriminant; no unramified prime to count")
    cut = 0
    if max(abs(c) for c in f).bit_length() <= _BATCH_COEFF_BITS:
        cut = bisect.bisect_right(unramified, _BATCH_PRIME_LIMIT)
    hits = _batched_root_hits(f, unramified[:cut]) if cut else 0
    hits += sum(_has_root_mod_p(zm_reduce(f, p), p) for p in unramified[cut:])
    return Fraction(hits, len(unramified))
