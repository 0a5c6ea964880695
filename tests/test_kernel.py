"""The dense Z/m kernel, checked against naive Z[x] arithmetic followed by reduction."""

import itertools
import random

import pytest

from doldseq.factorint import factor_mod_p, hensel_lift
from doldseq.polyring import (
    ModPoly,
    derivative,
    divmod_exact,
    mul,
    normalize,
    zm_derivative,
    zm_divmod,
    zm_gcd,
    zm_monic,
    zm_mul,
    zm_mulmod,
    zm_pow_mod,
    zm_rem,
)

PRIMES = [2, 3, 5, 7, 13, 101]
PRIME_POWERS = [4, 8, 9, 25, 27, 125, 7**3, 101**2]


def reduce(f, m):
    return normalize([c % m for c in f])


def random_poly(rng, m, deg):
    # unreduced integer coefficients, so the kernel's own reduction is exercised
    return [rng.randrange(-3 * m, 3 * m) for _ in range(deg + 1)]


def random_divisor(rng, m, deg):
    """A divisor with a unit leading coefficient mod m, not necessarily monic."""
    while True:
        lead = rng.randrange(1, m)
        try:
            pow(lead, -1, m)
        except ValueError:
            continue
        return [rng.randrange(m) for _ in range(deg)] + [lead]


def naive_divmod(f, g, m):
    """Divide through the monic associate of g with Z[x] divmod_exact, then reduce."""
    inv = pow(g[-1], -1, m)
    g_monic = [c * inv % m for c in g[:-1]] + [1]
    q, r = divmod_exact(normalize(f), g_monic)
    return reduce([c * inv for c in q], m), reduce(r, m)


def naive_pow_mod(f, e, h, m):
    out = [1]
    for _ in range(e):
        out = naive_divmod(mul(out, f), h, m)[1]
    return out


def monic_polys(p, deg):
    for low in itertools.product(range(p), repeat=deg):
        yield list(low) + [1]


def naive_gcd(f, g, p):
    """Monic common divisor of largest degree, found by exhaustive search over F_p."""
    f, g = reduce(f, p), reduce(g, p)
    if not g:
        return reduce([c * pow(f[-1], -1, p) for c in f], p) if f else []
    if not f:
        return naive_gcd(g, f, p)
    for deg in range(min(len(f), len(g)) - 1, 0, -1):
        for d in monic_polys(p, deg):
            if not naive_divmod(f, d, p)[1] and not naive_divmod(g, d, p)[1]:
                return d
    return [1]


@pytest.mark.parametrize("m", PRIMES + PRIME_POWERS)
def test_kernel_matches_naive_arithmetic(m):
    rng = random.Random(1000 + m)
    for _ in range(40):
        f = random_poly(rng, m, rng.randrange(0, 9))
        g = random_poly(rng, m, rng.randrange(0, 6))
        h = random_divisor(rng, m, rng.randrange(1, 6))
        assert zm_mul(f, g, m) == reduce(mul(f, g), m)
        q, r = zm_divmod(f, h, m)
        assert (q, r) == naive_divmod(f, h, m)
        assert zm_rem(f, h, m) == r
        assert len(r) < len(h)
        assert zm_mulmod(f, g, h, m) == naive_divmod(mul(f, g), h, m)[1]
        e = rng.randrange(0, 30)
        assert zm_pow_mod(f, e, h, m) == naive_pow_mod(f, e, h, m)
        assert zm_derivative(f, m) == reduce(derivative(f), m)
        monic = zm_monic(reduce(h, m), m)
        assert monic[-1] == 1 and reduce(mul(monic, [h[-1]]), m) == reduce(h, m)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_kernel_gcd_matches_exhaustive_search(p):
    rng = random.Random(2000 + p)
    for _ in range(30):
        common = random_divisor(rng, p, rng.randrange(0, 3))
        f = mul(common, random_poly(rng, p, rng.randrange(0, 3)))
        g = mul(common, random_poly(rng, p, rng.randrange(0, 3)))
        assert zm_gcd(f, g, p) == naive_gcd(f, g, p)


def test_kernel_rejects_zero_and_non_unit_divisors():
    with pytest.raises(ZeroDivisionError):
        zm_rem([1, 2, 3], [], 7)
    with pytest.raises(ValueError):
        zm_rem([1, 2, 3], [1, 3], 9)  # 3 is not a unit mod 9


def test_composite_modulus_rejected_at_public_entry_points():
    with pytest.raises(ValueError):
        factor_mod_p([1, 1], 6)
    with pytest.raises(ValueError):
        hensel_lift([2, -3, 1], [[-1, 1], [-2, 1]], 6, 2)
    with pytest.raises(ValueError):
        ModPoly.make([1, 1], 6)
    # an object built without ``make`` is still rejected when it is used
    raw = ModPoly(6, (1, 1))
    with pytest.raises(ValueError):
        raw.mul(raw)


def repeated_mulmod(f, e, h, m):
    out = zm_rem([1], h, m)
    for _ in range(e):
        out = zm_mulmod(out, f, h, m)
    return out


@pytest.mark.parametrize("m", PRIMES + PRIME_POWERS)
def test_pow_mod_matches_repeated_multiplication(m):
    # the base x (also unreduced, as 1 + m) takes the shift step, any other base a full product
    rng = random.Random(3000 + m)
    for _ in range(30):
        h = random_divisor(rng, m, rng.randrange(1, 8))
        for f in ([0, 1], [0, 1 + m], random_poly(rng, m, rng.randrange(0, 8))):
            for e in [0, 1, 2, 3, rng.randrange(4, 400)]:
                assert zm_pow_mod(f, e, h, m) == repeated_mulmod(f, e, h, m), (f, e, h)
