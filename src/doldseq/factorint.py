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
themselves.  It reads them from the distinct- and equal-degree splits
directly, at a prime where f is squarefree, and lifts them with the tree
lift under ``hensel_lift``; ``factor_mod_p`` and ``hensel_lift`` are the
validating public entries to the same routines.  The witness
search and ``root_density`` ask one question, whether f has a factor of
degree <= k mod p (k = deg(f) // 2, and k = 1), which
``_gf_small_factor`` answers by distinct-degree steps that stop at the
first factor; ``root_density`` tests its small primes by one product of
values of f instead, and reads ramification from f reduced modulo the
product of the primes it counts.  On these paths x^p mod (f, p) is one
packed power per prime, and each later x^(p^i) is one product with the
Frobenius table of f, both from ``polyring.zm_frobenius_powers``.  A gcd
that is only tested for being 1 is ``polyring.zm_coprime``.
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
    evaluate,
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

# Degree cap of factor_over_Z, which bounds its subset recombination, and of
# root_density, which bounds its discriminant; past it UnsupportedSizeError
MAX_DEGREE = 12
# Largest prime search bound of irreducibility_witness and root_density;
# both grow the shared prime table to the bound before they test the first prime.
MAX_PRIME_BOUND = 10**5
# root_density tests the unramified primes up to _BATCH_PRIME_LIMIT with one
# product and the larger ones one at a time, unless a coefficient of f is longer
# than _BATCH_COEFF_BITS: the product's cost grows with the length of f's values.
# Measured in process, interleaved, at degrees 2, 4, 8 and 12 with one-digit
# coefficients: the product over the primes to 4096 took 0.19-0.25 of the time of
# their gcds; carried on to 8192 it took 0.63-0.77 of the time of the gcds it
# replaced, and on to 16384 1.04-1.18.  At bound 16384, a limit of 8192 took
# 0.83-0.91 of the time of a limit of 4096, and 12288 took 0.88-0.97.  With 32-bit
# coefficients 8192 against 4096 read 0.79-1.06; with 64-bit ones 0.96-1.36, the
# loss at degrees 2 and 4.  The limit stays at 4096: a higher one trades short
# coefficients against long ones, and no benchmark workload runs a bound above
# 1000 to say which the requests carry.
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


def _gf_small_factor(f: list[int], p: int, k: int) -> bool:
    """Whether f, reduced and monic over F_p, has an irreducible factor of degree <= k there.

    Ben-Or's steps i = 1..k, stopping at the first gcd(f, x^(p^i) - x) != 1:

    1. x^(p^i) - x is the product of the monic irreducibles over F_p whose
       degree divides i, so step i finds exactly the factors of f whose
       degree divides i, and a factor of degree e <= k shows up at step e.
    2. A reducible f of degree d, squarefree or not, has an irreducible
       factor of degree <= d/2.

    So f of degree d is irreducible iff k = d // 2 answers False (the
    witness search), and has a root iff k = 1 answers True
    (``root_density``); neither needs a squarefree split.  The powers come
    from ``zm_frobenius_powers``, which builds no table rows before step
    2, and each gcd is only ``zm_coprime``'s yes or no.
    """
    x = [0, 1]
    for _, h in zip(range(k), zm_frobenius_powers(f, p)):
        if not zm_coprime(f, sub(h, x), p):
            return True
    return False


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


def _gf_split(f: list[int], p: int) -> list[list[int]]:
    """Monic irreducible factors over F_p of monic f, squarefree there, unsorted.

    The distinct-degree split groups them by degree and the equal-degree
    splits take each group apart, drawing from a generator seeded from p
    and f, so the order is the same on every run.
    """
    rng = random.Random(hash((p, *f)) & 0x7FFFFFFF)
    return [irr for block, d in _gf_distinct_degree(f, p) for irr in _gf_equal_degree(block, d, p, rng)]


def factor_mod_p(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """Complete factorization of f over F_p, for p prime, into monic irreducibles.

    Output is sorted canonically (degree, then coefficients) regardless of
    the internal randomness, which is seeded from p and each squarefree part.
    """
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    f = zm_reduce(f, p)
    if not f:
        raise ValueError("cannot factor the zero polynomial")
    out = [(irr, mult) for sqf, mult in _gf_squarefree_list(zm_monic(f, p), p) for irr in _gf_split(sqf, p)]
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
    return _hensel_tree(normalize(f), seeds, p, k)


def _hensel_tree(f: list[int], seeds: list[list[int]], p: int, k: int) -> list[list[int]]:
    """``hensel_lift`` without its checks: monic seeds, pairwise coprime mod p, with product f mod p.

    The seeds are split in two halves, the pair of half products is lifted
    by ``_hensel_pair``, and each half recurses on its lifted product.
    """
    if len(seeds) == 1:
        return [zm_reduce(f, p**k)]
    half = len(seeds) // 2
    g = [1]
    for q in seeds[:half]:
        g = zm_mul(g, q, p)
    h = [1]
    for q in seeds[half:]:
        h = zm_mul(h, q, p)
    s, t = _gf_bezout(g, h, p)
    gl, hl = _hensel_pair(zm_reduce(f, p**k), g, h, s, t, p, k)
    return _hensel_tree(gl, seeds[:half], p, k) + _hensel_tree(hl, seeds[half:], p, k)


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


def _factor_squarefree_over_Z(f: IntPoly, disc: int) -> list[IntPoly]:
    """Irreducible monic factors of a monic squarefree f over Z, given disc = disc(f) != 0.

    f is monic, so f mod p keeps its degree and disc(f) mod p is its
    discriminant: f stays squarefree mod p iff p does not divide disc.  So
    at the first such p the distinct- and equal-degree splits factor f mod
    p with no squarefree split (``_gf_split``); their seeds are monic and
    pairwise coprime, and ``_hensel_tree`` lifts them with no checks.  The
    factors are left unsorted: recombination finds the same irreducible
    factors in any order.

    The lift goes to the least p^k > B = 2 C(d-1, (d-1)//2) (isqrt(|f|_2^2) + 1)
    for d = deg f (Mignotte).  Every candidate g that recombination tests
    is monic, of degree m <= d - 1 (a proper subset of the lifted factors),
    and if it divides f then:

    1. M(g) <= M(f), for the Mahler measure M(h) = |lead h| * prod max(1, |root|):
       M is multiplicative and M(f/g) >= 1 for an integer f/g.
    2. M(f) <= |f|_2 (Landau).
    3. |g_j| <= C(m, j) M(g), since g_j is a signed sum of C(m, j) products
       of m - j roots, each at most M(g) in size; and C(m, j) <= C(d - 1, (d - 1)//2).

    So |g_j| <= C(d - 1, (d - 1)//2) |f|_2 < B/2 < p^k/2, and g is the
    symmetric residue of its product of lifted factors: a true factor is
    never missed.  The margin is not slack: one step less can leave every
    true factor outside the symmetric range.  x^2 - 9 lifts from p = 5 to
    k = 2, and at k = 1 its factors x -+ 3 both read x +- 2, so f would be
    called irreducible.
    """
    d = degree(f)
    if d == 1:
        return [f]
    p = next((p for p in primes_up_to(10_000) if disc % p), None)
    if p is None:
        raise UnsupportedSizeError("no squarefree-preserving prime below 10000")
    seeds = _gf_split(zm_reduce(f, p), p)
    # irreducible mod p, so over Z; the lift and recombination would return f too,
    # at 1.1x the time on irreducible inputs of degree 3-8
    if len(seeds) == 1:
        return [f]
    bound = 2 * math.comb(d - 1, (d - 1) // 2) * (math.isqrt(sum(c * c for c in f)) + 1)
    k = 1
    while p**k <= bound:
        k += 1
    lifted = _hensel_tree(f, seeds, p, k)
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
    ``_gf_small_factor`` with k = deg(f) // 2, with no discriminant: an f
    irreducible mod p is squarefree there, and a non-squarefree f has no
    witness.  A bound above MAX_PRIME_BOUND raises UnsupportedSizeError.
    """
    f = normalize(f)
    if not is_monic(f) or degree(f) < 1:
        raise ValueError("irreducibility_witness requires a monic polynomial of positive degree")
    if search_bound < 2:
        raise ValueError("search bound must be at least 2")
    _check_prime_bound(search_bound)
    half = degree(f) // 2
    for p in primes_up_to(search_bound):
        if not _gf_small_factor(zm_reduce(f, p), p, half):
            return p
    return None


def _batched_root_hits(f: IntPoly, primes: list[int]) -> int:
    """How many of the ascending primes p have a root of f in F_p, from one product.

    Let M be the product of the primes and P the largest, and R the
    product of f(a) mod M over the P consecutive integers
    a = -(P // 2) .. P - 1 - P // 2.  Then p | R iff f has a root in F_p:
    p | M, so p | R iff p divides some f(a); f(a) = f(a mod p) (mod p),
    and a runs over every residue mod p since p <= P.  An integer root r
    gives p | f(r mod p) for every p, so every prime is a hit, as it
    should be (R is 0 when r is in the window).

    The window is centred on 0, where the values are shortest.  They come
    from the d + 1 forward differences of f at the window's start, d =
    deg f, by d running sums (``itertools.accumulate``) across the window,
    and they are multiplied in slices, each reduced mod M once.  A slice
    holds as many values as M has bits per bit of a bound on every |f(a)|
    in the window, f's absolute coefficients at its farther end, so no
    slice is much longer than M wherever f's largest values lie.  When
    P < d the window runs on to d values, and a value longer than M makes
    a slice of its own: neither changes which primes divide R.  With log M
    about P, that is about P * log f(P) * P bit operations, roughly deg(f)
    * bound^2 * log(bound) for short coefficients, all in C, against one
    Frobenius power per prime for ``_gf_small_factor``: about pi(bound) *
    deg(f)^2 * log(bound) interpreted steps.
    """
    top = primes[-1]
    modulus = math.prod(primes)
    d = len(f) - 1
    start = -(top // 2)
    row = [evaluate(f, start + i) for i in range(d + 1)]
    heads = []
    for _ in range(d + 1):
        heads.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    # the d-th difference is constant; each running sum turns the k-th into the (k-1)-th
    values = [heads.pop()] * (top - d)
    for head in reversed(heads):
        values = list(itertools.accumulate(values, initial=head))
    # |f(a)| <= sum |c_i| * |a|^i over the window, however the values cancel
    bits = evaluate([abs(c) for c in f], max(-start, start + len(values) - 1)).bit_length()
    size = max(1, modulus.bit_length() // max(bits, 1))
    product = 1
    for i in range(0, len(values), size):
        product = product * math.prod(values[i : i + size]) % modulus
    return sum(product % p == 0 for p in primes)


def root_density(f: IntPoly, prime_bound: int) -> Fraction:
    """Fraction of unramified primes p <= bound for which f has a root mod p.

    The primes up to _BATCH_PRIME_LIMIT are tested together by one
    product (``_batched_root_hits``), and each prime above it by step 1 of
    ``_gf_small_factor``, gcd(f, x^p - x) = 1: the product's cost grows
    with the square of the largest prime it covers, the gcd's only with
    its log.  A coefficient longer than _BATCH_COEFF_BITS sends every
    prime to the gcd.

    Ramification is read modulo M, the product of the primes <= bound.
    disc is an integer polynomial in the coefficients, so for g = f
    (mod M) a prime p | M divides disc(g) iff it divides disc(f), and g
    has a root mod p iff f has.  When a coefficient has prime_bound bits
    or more, g is f in the symmetric range mod M and the discriminant and
    root tests read g; a shorter coefficient is its own residue, since
    M > 2^x for x >= 41 (theta(x) > x(1 - 1/ln x), Rosser & Schoenfeld
    1962) and the bound is at least 100.  Only when every prime divides
    disc(g), as when disc(f) = 0, is disc(f) itself computed.

    The bound runs from 100 to MAX_PRIME_BOUND, and the degree of f up to
    MAX_DEGREE; past either UnsupportedSizeError is raised before any
    work.  A ValueError names the bound when every prime up to it
    divides the discriminant, so no prime is counted.
    """
    if prime_bound < 100:
        raise ValueError("prime bound must be at least 100")
    _check_prime_bound(prime_bound)
    f = normalize(f)
    if degree(f) > MAX_DEGREE:
        raise UnsupportedSizeError(f"degree {degree(f)} exceeds supported envelope {MAX_DEGREE}")
    primes = primes_up_to(prime_bound)
    g, unramified = f, []
    if max(map(abs, f), default=0).bit_length() >= prime_bound:
        modulus = math.prod(primes)
        # the leading coefficient stays as it is, so discriminant() still refuses a non-monic f
        g = [_symmetric(c, modulus) for c in f[:-1]] + f[-1:]
        disc = discriminant(g)
        unramified = [p for p in primes if disc % p]
    if not unramified:
        # ramification is read from the squarefree part, which is f itself when disc(f) != 0
        disc = discriminant(f) or discriminant(squarefree_part(f))
        unramified = [p for p in primes if disc % p]
    if not unramified:
        raise ValueError(f"every prime <= {prime_bound} divides the discriminant; no unramified prime to count")
    cut = 0
    if max(abs(c) for c in g).bit_length() <= _BATCH_COEFF_BITS:
        cut = bisect.bisect_right(unramified, _BATCH_PRIME_LIMIT)
    hits = _batched_root_hits(g, unramified[:cut]) if cut else 0
    hits += sum(_gf_small_factor(zm_reduce(g, p), p, 1) for p in unramified[cut:])
    return Fraction(hits, len(unramified))
