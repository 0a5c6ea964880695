"""Exact univariate polynomial arithmetic over Z, Q and prime fields.

Integer polynomials are plain lists of ints in ascending degree order
(``[c0, c1, ..., cd]`` with ``cd != 0`` unless the polynomial is zero).
Polynomials over Z/m use the same lists with the ``zm_*`` kernel, for
any modulus m.  Prime-field polynomials are also wrapped in
:class:`ModPoly`, which pins a modulus checked prime once, at
``ModPoly.make`` or ``mod_reduce``, and keeps all residues reduced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

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


def divmod_exact(f: IntPoly, g: IntPoly) -> tuple[IntPoly, IntPoly] | None:
    """Quotient and remainder of f by monic g over Z.

    Returns None if g is not monic. Remainder has degree < deg g.
    """
    g = normalize(g)
    if not is_monic(g):
        return None
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


def content(f: IntPoly) -> int:
    return math.gcd(*f) if f else 0


def gcd_monic(f: IntPoly, g: IntPoly) -> IntPoly:
    """Monic gcd over Q; for monic integer inputs the result has integer coefficients."""
    a = [Fraction(c) for c in normalize(f)]
    b = [Fraction(c) for c in normalize(g)]
    while b:
        # remainder of a by b over Q
        r = list(a)
        while len(r) >= len(b) and any(r):
            while r and r[-1] == 0:
                r.pop()
            if len(r) < len(b):
                break
            c = r[-1] / b[-1]
            shift = len(r) - len(b)
            for i, bc in enumerate(b):
                r[shift + i] -= c * bc
        while r and r[-1] == 0:
            r.pop()
        a, b = b, r
    if not a:
        return []
    lead = a[-1]
    monic = [c / lead for c in a]
    den = math.lcm(*[c.denominator for c in monic])
    if den != 1:
        # gcd of monic integer polynomials is integral; clear denominators
        # defensively for general inputs and re-primitivize.
        ints = [int(c * den) for c in monic]
        cont = content(ints)
        return normalize([c // cont for c in ints])
    return normalize([int(c) for c in monic])


def squarefree_part(f: IntPoly) -> IntPoly:
    """Monic product of the distinct irreducible factors of monic f."""
    f = normalize(f)
    if not f:
        raise ValueError("zero polynomial has no squarefree part")
    if not is_monic(f):
        raise ValueError("squarefree_part requires a monic polynomial")
    if degree(f) == 0:
        return [1]
    g = gcd_monic(f, derivative(f))
    q, r = divmod_exact(f, g)
    assert not r
    return q


# -- resultants and discriminants -------------------------------------------


def sylvester_matrix(f: IntPoly, g: IntPoly) -> list[list[int]]:
    """Sylvester matrix of (f, g): deg g rows of f's coefficients then deg f rows of g's."""
    f = normalize(f)
    g = normalize(g)
    m, n = len(f) - 1, len(g) - 1
    size = m + n
    rows = []
    fd = list(reversed(f))
    gd = list(reversed(g))
    for i in range(n):
        rows.append([0] * i + fd + [0] * (n - 1 - i))
    for i in range(m):
        rows.append([0] * i + gd + [0] * (m - 1 - i))
    assert all(len(r) == size for r in rows)
    return rows


def bareiss_det(matrix: list[list[int]]) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    m = [row[:] for row in matrix]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def resultant(f: IntPoly, g: IntPoly) -> int:
    """res(f, g) = lc(g)^deg f * product of f over the roots of g.

    Computed as a fraction-free Sylvester determinant.  With this
    orientation res(x - a, x - b) = b - a.
    """
    f = normalize(f)
    g = normalize(g)
    if not f or not g:
        raise ValueError("resultant of a zero polynomial")
    if degree(f) == 0:
        return f[0] ** degree(g)
    if degree(g) == 0:
        return g[0] ** degree(f)
    return bareiss_det(sylvester_matrix(g, f))


def discriminant(f: IntPoly) -> int:
    """Discriminant of monic f: prod (a_i - a_j)^2 over root pairs.

    Returns 1 for degrees 0 and 1 by convention.
    """
    f = normalize(f)
    if not f:
        raise ValueError("zero polynomial has no discriminant")
    if not is_monic(f):
        raise ValueError("discriminant requires a monic polynomial")
    d = degree(f)
    if d <= 1:
        return 1
    res = resultant(f, derivative(f))
    return (-1) ** (d * (d - 1) // 2) * res


# -- power sums --------------------------------------------------------------


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
    if d == 0:
        return [0] * count
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
# ModPoly.make, mod_reduce and hensel_lift do, where a modulus enters.


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


def _square(f: list[int]) -> list[int]:
    # f*f over Z with each cross product formed once and doubled
    n = len(f)
    out = [0] * (2 * n - 1)  # [] for the zero polynomial
    for i in range(n):
        a = f[i]
        if a:
            out[2 * i] += a * a
            twice = a + a
            for j in range(i + 1, n):
                out[i + j] += twice * f[j]
    return out


def zm_pow_mod(f: list[int], e: int, h: list[int], m: int) -> list[int]:
    """f**e mod h over Z/m, squaring left to right.

    A multiplication by the base is a one-slot shift when the base is x,
    as in the Frobenius powers x**p of mod-p factoring.
    """
    if e == 0:
        return [1]
    base = zm_rem(f, h, m)
    shift = base == [0, 1]
    result = base
    for bit in bin(e)[3:]:
        result = _divide(_square(result), h, m, None)
        if bit == "1":
            result = _divide([0, *result] if shift else mul(result, base), h, m, None)
    return result


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


def zm_derivative(f: list[int], m: int) -> list[int]:
    return zm_reduce(derivative(f), m)


# -- prime-field polynomials -------------------------------------------------


@dataclass(frozen=True)
class ModPoly:
    """Dense polynomial over F_p; coefficients ascending, fully reduced.

    A thin wrapper over the Z/m kernel.  ``make`` is the validating
    constructor; every method builds its result through it, so a
    composite modulus is rejected however the object was made.
    """

    modulus: int
    coeffs: tuple[int, ...]

    @staticmethod
    def make(coeffs: list[int], p: int) -> "ModPoly":
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        return ModPoly(p, tuple(zm_reduce(coeffs, p)))

    @property
    def deg(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def _check(self, other: "ModPoly") -> None:
        if self.modulus != other.modulus:
            raise ValueError("modulus mismatch")

    def _wrap(self, c: list[int]) -> "ModPoly":
        return ModPoly.make(c, self.modulus)

    def add(self, other: "ModPoly") -> "ModPoly":
        self._check(other)
        return self._wrap(add(self.coeffs, other.coeffs))

    def sub(self, other: "ModPoly") -> "ModPoly":
        self._check(other)
        return self._wrap(sub(self.coeffs, other.coeffs))

    def mul(self, other: "ModPoly") -> "ModPoly":
        self._check(other)
        return self._wrap(mul(self.coeffs, other.coeffs))

    def divmod(self, other: "ModPoly") -> tuple["ModPoly", "ModPoly"]:
        self._check(other)
        q, r = zm_divmod(self.coeffs, other.coeffs, self.modulus)
        return self._wrap(q), self._wrap(r)

    def rem(self, other: "ModPoly") -> "ModPoly":
        self._check(other)
        return self._wrap(zm_rem(self.coeffs, other.coeffs, self.modulus))

    def monic(self) -> "ModPoly":
        return self._wrap(zm_monic(self.coeffs, self.modulus))

    def gcd(self, other: "ModPoly") -> "ModPoly":
        self._check(other)
        return self._wrap(zm_gcd(self.coeffs, other.coeffs, self.modulus))

    def pow_mod(self, exponent: int, modpoly: "ModPoly") -> "ModPoly":
        """self**exponent reduced modulo modpoly, by repeated squaring."""
        self._check(modpoly)
        return self._wrap(zm_pow_mod(self.coeffs, exponent, modpoly.coeffs, self.modulus))

    def derivative(self) -> "ModPoly":
        return self._wrap(derivative(self.coeffs))

    def evaluate(self, x: int) -> int:
        return evaluate(self.coeffs, x) % self.modulus


def mod_reduce(f: IntPoly, p: int) -> ModPoly:
    """Coefficientwise reduction of f modulo the prime p."""
    return ModPoly.make(f, p)


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
