"""Exact univariate polynomial arithmetic over Z and Z/m.

Integer polynomials are plain lists of ints in ascending degree order
(``[c0, c1, ..., cd]`` with ``cd != 0`` unless the polynomial is zero).
Polynomials over Z/m use the same lists with the ``zm_*`` kernel, for
any modulus m; a prime modulus is checked where it enters, at
``factorint.factor_mod_p`` and ``factorint.hensel_lift``.
"""

from __future__ import annotations

import operator
from typing import Callable, Iterator, NamedTuple

from .numth import is_prime

IntPoly = list[int]


# -- basic Z[x] arithmetic ---------------------------------------------------


def _trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def normalize(f: list[int]) -> IntPoly:
    """Strip trailing zero coefficients."""
    return _trim(list(f))


def degree(f: IntPoly) -> int:
    """Degree; -1 for the zero polynomial."""
    return len(normalize(f)) - 1


def is_monic(f: IntPoly) -> bool:
    f = normalize(f)
    return bool(f) and f[-1] == 1


def add(f: IntPoly, g: IntPoly) -> IntPoly:
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, b in enumerate(g):
        out[i] += b
    return _trim(out)


def sub(f: IntPoly, g: IntPoly) -> IntPoly:
    out = list(f) + [0] * (len(g) - len(f))
    for i, b in enumerate(g):
        out[i] -= b
    return _trim(out)


def mul(f: IntPoly, g: IntPoly) -> IntPoly:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g, i):
                out[j] += a * b
    return _trim(out)


def evaluate(f: IntPoly, x: int) -> int:
    out = 0
    for c in reversed(f):
        out = out * x + c
    return out


def derivative(f: IntPoly) -> IntPoly:
    return normalize([i * c for i, c in enumerate(f)][1:])


def divmod_exact(f: IntPoly, g: IntPoly) -> tuple[IntPoly, IntPoly]:
    """Quotient and remainder of f by monic g over Z; the remainder has degree < deg g."""
    g = normalize(g)
    if not is_monic(g):
        raise ValueError("divmod_exact requires a monic divisor")
    r = list(f)
    q = [0] * max(len(f) - len(g) + 1, 1)
    while len(normalize(r)) >= len(g):
        r = normalize(r)
        shift = len(r) - len(g)
        c = r[-1]
        q[shift] = c
        for i, b in enumerate(g):
            r[shift + i] -= c * b
    return normalize(q), normalize(r)


# -- power sums, determinants, discriminants and squarefree parts ----------


def _eliminate(m: list[list[int]]) -> tuple[int, int]:
    """Bareiss elimination of m (no fewer columns than rows) in place; returns (r, sign).

    Step k swaps a nonzero entry of column k up to m[k][k], then sets
    m[i][j] = (m[i][j] m[k][k] - m[i][k] m[k][j]) / prev for i, j > k, a
    minor of the swapped m (Sylvester's identity), so exact.  r is the
    first column with no nonzero entry in rows r and below (else the row
    count); rows 0..r-1 are triangular there with nonzero pivots.
    """
    n = len(m)
    sign = prev = 1
    for k in range(n):
        if not m[k][k]:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return k, sign
        top = m[k]
        pivot = top[k]
        for i in range(k + 1, n):
            row = m[i]
            a = row[k]
            for j in range(k + 1, len(top)):
                row[j] = (row[j] * pivot - a * top[j]) // prev
        prev = pivot
    return n, sign


def bareiss_det(matrix: list[list[int]]) -> int:
    """Exact determinant of a square integer matrix by fraction-free elimination."""
    m = [row[:] for row in matrix]
    r, sign = _eliminate(m)
    if r < len(m):
        return 0
    return sign * m[-1][-1] if m else 1


def discriminant(f: IntPoly) -> int:
    """Discriminant of monic f: prod (a_i - a_j)^2 over root pairs i < j.

    Returns 1 for degrees 0 and 1 by convention.  For degree d >= 2 it is
    the determinant of the d x d Hankel matrix H[i][j] = s_(i+j) of the
    root power sums, s_0 = d (the trace form of Q[x]/(f); Cohen, A Course
    in Computational Algebraic Number Theory, ch. 4).  Proof: let V be
    the Vandermonde matrix V[i][j] = a_j^i of the roots a_0..a_(d-1).
    Then (V V^T)[i][j] = sum_k a_k^i a_k^j = s_(i+j), so H = V V^T and
    det H = det(V)^2 = prod_(i<j) (a_i - a_j)^2, with no sign factor.
    The s_k are integers by Newton's identities (power_sums).
    """
    f = normalize(f)
    if not f:
        raise ValueError("zero polynomial has no discriminant")
    if not is_monic(f):
        raise ValueError("discriminant requires a monic polynomial")
    d = len(f) - 1
    if d <= 1:
        return 1
    s = [d, *power_sums(f, 2 * d - 2)]
    return bareiss_det([s[i : i + d] for i in range(d)])


def squarefree_part(f: IntPoly) -> IntPoly:
    """Monic product of the distinct irreducible factors of monic f.

    Degrees 0 and 1 return f.  Otherwise, with d = deg f, it is the
    minimal polynomial g = x^r + c_(r-1) x^(r-1) + ... + c_0 of the root
    power sums s_0 = d, s_1..s_(2d-1), from one ``_eliminate`` of the
    d x (d + 1) Hankel matrix H[i][j] = s_(i+j).  Proof: let a_l be the
    r distinct roots, m_l their multiplicities and V_k[i][l] = a_l^i for
    i < k (0^0 = 1: a zero root counts in s_0).  As s_n = sum_l m_l a_l^n,
    H[:, :r] = V_d diag(m) V_r^T has rank r (distinct nodes, r <= d), and
    sum_j g_j s_(n+j) = sum_l m_l a_l^n g(a_l) = 0 for all n makes column
    r equal -sum_(j<r) c_j H[:, j].  So r is the first column without a
    pivot.  Rows 0..r-1 of the result combine rows of H, so c solves
    U c = -u for U their (triangular, nonsingular) columns 0..r-1 and u
    their column r: back substitution from c_(r-1) down.  By Gauss's
    lemma the monic factor g of the monic integer f is integral, so each
    division is exact.  Newton's identities make the s_n integers.
    """
    f = normalize(f)
    if not f:
        raise ValueError("zero polynomial has no squarefree part")
    if not is_monic(f):
        raise ValueError("squarefree_part requires a monic polynomial")
    d = len(f) - 1
    if d <= 1:
        return f
    s = [d, *power_sums(f, 2 * d - 1)]
    h = [s[i : i + d + 1] for i in range(d)]
    r, _ = _eliminate(h)
    low = [0] * r
    for k in range(r - 1, -1, -1):
        low[k] = -sum(map(operator.mul, h[k][k + 1 : r + 1], [*low[k + 1 :], 1])) // h[k][k]
    return [*low, 1]


def power_sums(f: IntPoly, count: int) -> list[int]:
    """Sums of n-th powers of the roots of monic f, for n = 1..count.

    Seeds from the Newton identities, then extends with the linear
    recurrence whose characteristic polynomial is f.  Roots are never
    constructed.
    """
    f = normalize(f)
    if not is_monic(f):
        raise ValueError("power_sums requires a monic polynomial")
    if count < 1:
        raise ValueError("count must be positive")
    d = degree(f)
    c = f[:-1]  # c[i] multiplies x^i
    sums: list[int] = []
    for k in range(1, min(count, d) + 1):
        s = -k * c[d - k]
        for i in range(1, k):
            s -= c[d - i] * sums[k - i - 1]
        sums.append(s)
    for k in range(d + 1, count + 1):
        s = 0
        for i in range(1, d + 1):
            s -= c[d - i] * sums[k - i - 1]
        sums.append(s)
    return sums


# -- dense Z/m kernel -------------------------------------------------------
#
# Ascending lists over Z/m for any modulus m: p for mod-p factoring, p**k
# for Hensel lifting.  Inputs may be unreduced Z[x] results (``mul``,
# ``add``); outputs are reduced once per coefficient and trimmed.  Divisors
# need a unit leading coefficient.  Nothing here tests m for primality:
# factor_mod_p and hensel_lift do, where a modulus enters.


def zm_reduce(f: list[int], m: int) -> list[int]:
    return _trim([a % m for a in f])


def zm_mul(f: list[int], g: list[int], m: int) -> list[int]:
    return zm_reduce(mul(f, g), m)


def _divide(r: list[int], g: list[int], m: int, q: list[int] | None) -> list[int]:
    # Long division of r (overwritten) by g, quotient digits into q when given.
    dg = len(g) - 1
    if dg < 0:
        raise ZeroDivisionError("polynomial division by zero")
    inv = 1 if g[-1] == 1 else pow(g[-1], -1, m)
    low = g[:-1]
    for k in range(len(r) - 1 - dg, -1, -1):
        c = r[k + dg] * inv % m
        if c:
            if q is not None:
                q[k] = c
            for j, b in enumerate(low, k):
                r[j] -= c * b
    return zm_reduce(r[:dg], m)


def zm_divmod(f: list[int], g: list[int], m: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of f by g over Z/m; g trimmed with a unit leading coefficient."""
    q = [0] * max(len(f) - len(g) + 1, 0)
    r = _divide(list(f), g, m, q)
    return _trim(q), r


def zm_rem(f: list[int], g: list[int], m: int) -> list[int]:
    return _divide(list(f), g, m, None)


def zm_mulmod(f: list[int], g: list[int], h: list[int], m: int) -> list[int]:
    """f * g reduced modulo h over Z/m."""
    return _divide(mul(f, g), h, m, None)


def _pack(coeffs: list[int], width: int) -> int:
    # coeffs[i] in bits [width*i, width*(i+1)); each must be in [0, 2**width)
    x = 0
    for c in reversed(coeffs):
        x = x << width | c
    return x


def _unpack(acc: int, width: int, d: int, m: int) -> list[int]:
    # slots 0 .. d-1 of acc, reduced mod m and trimmed
    mask = (1 << width) - 1
    return _trim([(acc >> (width * i) & mask) % m for i in range(d)])


def _packed_pow_mod(f: list[int], e: int, h: list[int], m: int) -> tuple[int, int, Callable[[int], int]]:
    # f**e mod h packed, with slots in [0, 2m); its slot width; the packed reduction mod h
    d = len(h) - 1
    if e == 0:
        f = [1]
    # an f shorter than h is its own remainder; zm_rem also rejects h = []
    base = zm_rem(f, h, m) if len(f) > d else [c % m for c in f]
    lead_inv = pow(h[-1], -1, m)
    neg = [-c * lead_inv % m for c in h[:-1]]  # -(h_0 .. h_(d-1)) of the monic h
    # g = 1/rev(h) mod x**(d-1): g_0 = 1, g_n = sum of -h_(d-i) * g_(n-i) over 1 <= i <= n
    g = [1] if d > 1 else []
    for n in range(1, d - 1):
        g.append(sum(map(operator.mul, neg[d - n :], g)) % m)

    V = (4 * (d + 1) * m * m).bit_length()
    W = 2 * V
    mu = (1 << V) // m
    low_slots = (1 << (W * d)) - 1
    # V one-bits at the bottom of each slot that a product can fill
    q_bits = ((1 << V) - 1) * (((1 << (W * 2 * d)) - 1) // ((1 << W) - 1))
    ginv = _pack(g[::-1], W) << W
    neg_low = _pack(neg, W)
    high, q_shift = W * d, W * max(d - 1, 0)

    def fold(t: int) -> int:
        # three Barrett steps: on T, on the quotient Q, on the remainder
        t -= ((t * mu >> V) & q_bits) * m
        q = (t >> high) * ginv >> q_shift
        q -= ((q * mu >> V) & q_bits) * m
        r = (t + q * neg_low) & low_slots
        return r - ((r * mu >> V) & q_bits) * m

    packed = acc = _pack(base, W)
    for bit in bin(e)[3:]:
        acc = fold(acc * acc)
        if bit == "1":
            acc = fold(acc * packed)
    return acc, W, fold


def zm_pow_mod(f: list[int], e: int, h: list[int], m: int) -> list[int]:
    """f**e mod h over Z/m, squaring left to right on packed integers.

    f**0 is 1 reduced mod h, so it is [] when h is a unit constant.
    ``zm_frobenius_powers`` takes x**p from the same code and keeps its
    packed reduction for the later Frobenius powers, so a Frobenius
    search pays for this set-up once per prime.

    Packing (Kronecker substitution).  Let d = deg h.  A polynomial
    a_0 + ... + a_(d-1) x**(d-1) is the int sum of a_i * 2**(W*i): slot
    i holds a_i in W bits.  While every slot stays in [0, 2**W), adding
    and multiplying packed ints adds and multiplies the polynomials, and
    shifts and masks select runs of slots.  Each square, and each
    multiplication by the base, is one int multiply T = A*B followed by
    the packed reduction below.  Slots need not be fully reduced: the
    running power keeps them in [0, 2m), the base in [0, m).

    Reduction.  h is made monic.  For T of degree <= 2d - 2, T = Q*h + R
    with deg Q <= d - 2 and deg R < d.  Reversing coefficients gives
    rev(T) = rev(Q) * rev(h) mod x**(d-1), and rev(h) has constant term
    1, so rev(Q) = rev(T) * g mod x**(d-1) with g = 1/rev(h) mod
    x**(d-1).  Written out, Q_j = sum_k g_k * T_(d+j+k): the
    correlation of the high slots H = T >> W*d with g.  Packing g
    reversed, g_k at slot d-1-k, puts Q_j at slot d-1+j of H*G, so
    Q = (H*G) >> W*(d-1) is one multiply.  Then R = T - Q*h agrees with
    T + Q*N on the low d slots, where N = -(h_0 .. h_(d-1)) mod m has
    slots in [0, m): one more multiply, every term nonnegative, so no
    slot ever borrows.  For d <= 1, G and Q are 0; for d = 0 no slot is
    kept at all.

    Barrett step (Barrett 1986).  With 2**V > 4(d + 1) m**2, W = 2V and
    mu = floor(2**V / m), a slot x < 2**V becomes x - q*m with
    q = floor(x*mu / 2**V).  Since q <= x/m, q never overshoots and the
    slot stays >= 0; since q > x*mu/2**V - 1 >= x/m - x/2**V - 1
    > x/m - 2, it ends below 2m.  Packed, X*mu has slots
    x_i*mu < 2**(2V) = 2**W, so (X*mu) >> V leaves floor(x_i*mu / 2**V)
    < 2**V in the low V bits of slot i (slot i + 1 starts W - V = V bits
    higher): one mask reads every q_i, and X - Q*m subtracts
    q_i*m <= x_i within each slot.

    No slot overflows.  A slot of a product sums at most d terms:
    T = A*A has slots below d(2m)**2 = 4d m**2, T = A*base below
    2d m**2.  After a Barrett step T has slots below 2m, so H*G has
    slots below (d - 1)(2m)m, and after a Barrett step Q has slots
    below 2m.  The low slots of T + Q*N are then below
    2m + (d - 1)(2m)m <= 2d m**2.  Every value is below 2**V <= 2**W
    before its Barrett step, so the last step returns the power to
    [0, 2m).
    """
    acc, width, _ = _packed_pow_mod(f, e, h, m)
    return _unpack(acc, width, len(h) - 1, m)


def zm_frobenius_powers(f: list[int], p: int) -> Iterator[list[int]]:
    """x^(p^i) mod f over F_p for i = 1, 2, ..., for p prime and f trimmed with a unit leading coefficient.

    Nothing is computed before the first power is asked for.  x^p is one
    ``zm_pow_mod`` power, whose packed set-up is kept.  The second power
    first builds the Frobenius table of f, the rows Q_j = x^(jp) mod f
    for j < deg f: Q_0 = 1, Q_1 = x^p and Q_j = Q_(j-1) * Q_1 mod f, one
    packed multiply and reduction each.  Every later power is then
    h^p = sum_j h_j * Q_j for the previous power h, one dot product of
    packed ints: with the h_j in [0, p) and row slots in [0, 2p), a slot
    of the sum is below 2 deg(f) p^2 < 2**W, so no slot carries into the
    next.

    Proof that h^p = sum_j h_j * Q_j mod f.  Over F_p, (a + b)^p =
    a^p + b^p: every middle binomial coefficient C(p, i), 0 < i < p, is
    divisible by p.  And c^p = c for c in F_p (Fermat).  So h |-> h^p is
    F_p-linear, and (sum_j h_j x^j)^p = sum_j h_j^p x^(jp) =
    sum_j h_j x^(jp), which is sum_j h_j Q_j modulo f.  A congruence mod
    f holds mod every divisor g of f, so these powers reduced mod g are
    x^(p^i) mod g: the table of f stays valid while a factorization
    splits pieces off f.
    """
    x1, width, fold = _packed_pow_mod([0, 1], p, f, p)
    d = len(f) - 1
    h = _unpack(x1, width, d, p)
    yield h
    rows = [1, x1][:d]
    while len(rows) < d:
        rows.append(fold(rows[-1] * x1))
    while True:
        h = _unpack(sum(map(operator.mul, h, rows)), width, d, p)
        yield h


def zm_monic(f: list[int], m: int) -> list[int]:
    """f scaled to leading coefficient 1; f trimmed with a unit leading coefficient."""
    if not f:
        return []
    inv = pow(f[-1], -1, m)
    return [a * inv % m for a in f]


def zm_gcd(f: list[int], g: list[int], m: int) -> list[int]:
    """Monic gcd over Z/m, for m prime (every nonzero remainder must be unit-led)."""
    a, b = zm_reduce(f, m), zm_reduce(g, m)
    while b:
        a, b = b, zm_rem(a, b, m)
    return zm_monic(a, m)


def zm_coprime(f: list[int], g: list[int], m: int) -> bool:
    """Whether gcd(f, g) over Z/m is 1, for m prime; the same as ``len(zm_gcd(f, g, m)) == 1``.

    Euclid runs only until the remainder is a constant and nothing is
    made monic: a nonzero constant remainder is a unit, so the gcd is 1;
    a zero remainder leaves the gcd equal to the last divisor up to a
    unit, which is 1 only when that divisor is a constant.
    """
    a, b = zm_reduce(f, m), zm_reduce(g, m)
    while len(b) > 1:
        # a is a fresh list each round, so _divide may overwrite it
        a, b = b, _divide(a, b, m, None)
    return len(b) == 1 or len(a) == 1


def zm_derivative(f: list[int], m: int) -> list[int]:
    return zm_reduce(derivative(f), m)


# -- prime-field polynomials -------------------------------------------------


class ModPoly(NamedTuple):
    """Dense polynomial over F_p; coefficients ascending, fully reduced.

    The library no longer uses it: mod-p factoring and Hensel lifting
    work on kernel lists.  Only ``make`` and ``mul`` remain, because the
    benchmark's span tracer looks the class up and its self-test calls
    both.  Removing the class waits on a benchmark change that replaces
    the ``ModPoly`` metrics with plain-list ones.  ``make`` is the
    validating constructor and ``mul`` builds its result through it, so
    a composite modulus is rejected however the object was made.
    """

    modulus: int
    coeffs: tuple[int, ...]

    @staticmethod
    def make(coeffs: list[int], p: int) -> "ModPoly":
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        return ModPoly(p, tuple(zm_reduce(coeffs, p)))

    def mul(self, other: "ModPoly") -> "ModPoly":
        if self.modulus != other.modulus:
            raise ValueError("modulus mismatch")
        return ModPoly.make(mul(self.coeffs, other.coeffs), self.modulus)


def poly_to_string(f: IntPoly, var: str = "x") -> str:
    """Human-readable rendering, highest degree first."""
    f = normalize(f)
    if not f:
        return "0"
    parts = []
    for i in range(len(f) - 1, -1, -1):
        c = f[i]
        if c == 0:
            continue
        if i == 0:
            term = str(abs(c))
        else:
            mag = "" if abs(c) == 1 else str(abs(c)) + "*"
            term = f"{mag}{var}" + (f"^{i}" if i > 1 else "")
        if not parts:
            parts.append(("-" if c < 0 else "") + term)
        else:
            parts.append(("- " if c < 0 else "+ ") + term)
    return " ".join(parts)
