"""Dold and sign condition scans, fail-factor bounds and the consolidated report.

A sequence A satisfies the Dold condition when n divides
S_n = sum over d | n of mu(n/d) * A_d, for every n; equivalently when
p^k divides A_{p^k s} - A_{p^{k-1} s} for every prime power p^k and
p-coprime s.  The fail factor of A is the least positive c such that
c*A satisfies the condition (infinite when no c works).  Each violating
index n forces n / gcd(n, S_n) to divide any repairing c, so the lcm of
these deficiencies is a certified lower bound; the theoretical multiples
of fail come from the structure of the characteristic polynomial.
"""

from __future__ import annotations

import math
import operator
from decimal import Decimal, localcontext
from typing import NamedTuple

from .factorint import Factorization, factor_over_Z
from .numth import divisors, factorize, mobius, p_valuation, primes_up_to, radical_int
from .polyring import discriminant
from .recurrence import (
    EXACT,
    Analysis,
    RecurrenceSpec,
    SequenceView,
    StructureVerdict,
    analyze,
    convenient_check,
    structure_test,
)

DEFAULT_HORIZON = 200
DEFAULT_PRIME_BOUND = 1000


class DoldViolation(NamedTuple):
    """Index n with n not dividing S_n; deficiency is the forced repair multiple."""

    n: int
    mobius_sum: Decimal  # S_n, an exact integral Decimal
    deficiency: int


class ClassificationRow(NamedTuple):
    """Most specific case-table row applicable to a recurrence."""

    row_id: str
    condition: str
    details: dict


class FailReport(NamedTuple):
    verdict: str  # "almost-dold" | "not-almost-dold"
    horizon: int
    empirical_lower: int
    upper_bounds: tuple[tuple[str, int], ...]
    exact: int | None
    infinite: bool
    structure: StructureVerdict
    classification: ClassificationRow
    violations: tuple[DoldViolation, ...]
    sign_violations: tuple[int, ...]  # indices n with S_n < 0
    per_prime: tuple[tuple[int, int, int], ...]  # (p, min exponent, max exponent)


def mobius_sum(view: SequenceView, n: int) -> int:
    """S_n = sum over d | n of mu(n/d) * A_d, for a single index."""
    if n < 1:
        raise ValueError("indices start at 1")
    return sum(mobius(n // d) * view.term(d) for d in divisors(n))


def mobius_sums(terms: list[Decimal]) -> list[Decimal]:
    """[S_1, ..., S_N] for terms A_1..A_N (exact integral Decimals), by Mobius inversion one prime at a time.

    As Dirichlet series, sum S_n n^-s = (sum A_n n^-s) / zeta(s), and
    1/zeta(s) is the Euler product over primes p of (1 - p^-s).  So the
    sums start as the terms A_1..A_N, and each prime p <= N applies its
    factor: S_kp -= S_k for every k <= N/p, all read before the step
    writes (both slices are copies).  The factors commute, and only
    primes p <= N touch an index <= N, so after the last prime S_n is
    sum over d | n of mu(n/d) A_d.  That is sum over p <= N of floor(N/p),
    about N ln ln N big-number subtractions (2,126 at N = 1000, 4,454 at
    N = 2000), each step one C-level map over two slices, with no mu table
    and no factoring.
    """
    horizon = len(terms)
    sums = [Decimal(0), *terms]
    if horizon >= 2:
        with localcontext(EXACT):
            for p in primes_up_to(horizon):
                sums[p::p] = map(operator.sub, sums[p::p], sums[1 : horizon // p + 1])
    return sums[1:]


class DoldScan(NamedTuple):
    """Dold and sign results of one pass over S_1..S_horizon."""

    violations: tuple[DoldViolation, ...]
    sign_violations: tuple[int, ...]  # indices n with S_n < 0
    empirical_lower: int  # lcm of the deficiencies; divides the fail factor


def scan(terms: list[Decimal]) -> DoldScan:
    """Dold violations and sign violations of terms A_1..A_N in one loop, then the empirical lower bound.

    The terms are exact integral Decimals, as `SequenceView.terms`,
    `recurrence.power_terms` and `recurrence.exact_terms` return them.
    """
    violations = []
    negative = []
    with localcontext(EXACT):
        for n, s in enumerate(mobius_sums(terms), start=1):
            r = s % n
            if r:
                violations.append(DoldViolation(n, s, n // math.gcd(n, int(r))))
            if s < 0:
                negative.append(n)
    # the lower bound as one lcm over the distinct deficiencies; math.lcm() of nothing is 1
    return DoldScan(tuple(violations), tuple(negative), math.lcm(*{v.deficiency for v in violations}))


def prime_power_check(view: SequenceView, p: int, k: int, s: int) -> bool:
    """True iff p^k divides A_{p^k s} - A_{p^(k-1) s}; requires p coprime to s."""
    if s % p == 0:
        raise ValueError("s must not be divisible by p")
    return (view.term(p**k * s) - view.term(p ** (k - 1) * s)) % p**k == 0


# -- classification and theoretical bounds -----------------------------------


def _is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def classify(analysis: Analysis, prime_bound: int = DEFAULT_PRIME_BOUND) -> ClassificationRow:
    """Assign the most specific case-table row to the recurrence."""
    d = analysis.spec.order
    disc = analysis.disc
    details: dict = {"order": d, "discriminant": disc}
    if d == 1:
        return ClassificationRow("order-1", "always almost satisfies", details)
    if d == 2:
        if _is_square(disc):
            return ClassificationRow(
                "order-2-reducible", "square discriminant; almost iff single-coefficient form", details
            )
        return ClassificationRow(
            "order-2-irreducible", "non-square discriminant; almost iff both root coefficients equal", details
        )
    status, payload = convenient_check(analysis, prime_bound)
    details["convenient"] = status
    if status == "certified":
        details["witness"] = payload
        return ClassificationRow("convenient", "almost iff all root coefficients equal", details)
    if analysis.factorization.is_irreducible():
        return ClassificationRow("irreducible", "almost iff all root coefficients equal", details)
    if disc != 0:
        return ClassificationRow(
            "nonzero-discriminant", "almost iff coefficients constant on each irreducible factor", details
        )
    return ClassificationRow("any", "almost iff constant coefficients on each distinct factor", details)


def table_bounds(analysis: Analysis, verdict: StructureVerdict) -> list[tuple[str, int]]:
    """Every applicable theoretical multiple of the fail factor, labeled.

    Only meaningful when the structure verdict is positive (the bounds are
    vacuous otherwise).  Absolute values are taken throughout since the
    recursion coefficients may be negative while fail is positive.

    ``order-1-radical`` is the exact fail factor of an order-1 recurrence
    U_n = u*r^(n-1): the product of the primes p dividing r but not u.
    The Dold condition asks p^k | c*(U_{p^k s} - U_{p^(k-1) s}) for every
    prime p, k >= 1 and p-coprime s; the conditions at p involve c only
    through v_p(c), so fail is the product of the least exponents each
    prime needs.  For each p:

    - p does not divide r: the difference is
      u*r^(p^(k-1) s - 1)*(r^(p^(k-1)(p-1) s) - 1), and p^k divides the
      last factor by Euler's theorem, so p need not divide c.
    - p divides r and u: v_p(U_n) >= n, so both terms have
      v_p >= p^(k-1) >= k, and again p need not divide c.
    - p divides r but not u: U_p - U_1 = u*(r^(p-1) - 1) = -u (mod p),
      so p must divide c; and once it does, v_p(c*U_n) >= n, so the
      previous case's argument holds for c*U.
    """
    if not verdict.almost:
        return []
    d = analysis.spec.order
    r = analysis.spec.coefficients
    disc = analysis.disc
    bounds: list[tuple[str, int]] = []
    if d == 1:
        bounds.append(("order-1", abs(r[0])))
        u = analysis.spec.initial[0]
        bounds.append(("order-1-radical", math.prod(p for p, _ in factorize(abs(r[0])) if u % p)))
    if analysis.factorization.is_irreducible():
        # gcd(r_1, 2 r_2, ..., d r_d); appending the discriminant would not
        # change the gcd, so it is never included.
        bounds.append(("gcd", math.gcd(*((i + 1) * abs(c) for i, c in enumerate(r)))))
    if d == 2 and disc != 0:
        if _is_square(disc):
            bounds.append(("order-2-scaled", abs(r[1]) * radical_int(disc)))
        else:
            bounds.append(("order-2-scaled", 2 * abs(r[1]) * radical_int(abs(disc))))
    if disc != 0:
        bounds.append(("discriminant", abs(r[d - 1] * disc)))
    # f is its own squarefree part when disc != 0; else that is the product of its distinct factors
    sf_disc = disc or discriminant(Factorization(tuple((g, 1) for g, _ in analysis.factorization.factors)).expand())
    bounds.append(("squarefree-discriminant", abs(r[d - 1] * sf_disc)))
    bounds.append(("denominator", math.lcm(*(l.denominator for _, l in verdict.coefficients))))
    return bounds


def fail_report(
    spec: RecurrenceSpec, horizon: int = DEFAULT_HORIZON, prime_bound: int = DEFAULT_PRIME_BOUND
) -> FailReport:
    """Full analysis of a recurrence-backed sequence: the fail factor bracketed as L | fail | G.

    Runs the structure test, classification (searching witness primes up
    to prime_bound), theoretical bounds and the empirical scan.  The lower
    end L is the scan's lcm of the deficiencies n / gcd(n, S_n), each of
    which divides any repairing c.  The upper end G is the gcd of the
    proof-backed bounds (0 when none is proven): the factors c that repair
    A are closed under gcd (n | c*S_n and n | c'*S_n give n | gcd(c, c')*S_n),
    so fail divides every proven bound and hence G.  The fail factor is
    declared exact iff L == G.

    per_prime has a row (p, v_p(L), v_p(G)) for each prime p of G, and
    v_p(fail) lies between the two.  A prime not dividing G needs no row:
    fail | G settles its exponent at 0.  With no proven bound there is no
    G and no row.
    """
    if horizon < 1:
        raise ValueError("horizon must be positive")
    analysis = analyze(spec)
    verdict = structure_test(analysis)
    classification = classify(analysis, prime_bound)
    result = scan(SequenceView(spec).terms(horizon))
    bounds = table_bounds(analysis, verdict)  # empty for a refuted verdict
    lower = result.empirical_lower
    upper = math.gcd(*(b for _, b in bounds))
    return FailReport(
        verdict="almost-dold" if verdict.almost else "not-almost-dold",
        horizon=horizon,
        empirical_lower=lower,
        upper_bounds=tuple(bounds),
        exact=lower if lower == upper else None,
        infinite=not verdict.almost,
        structure=verdict,
        classification=classification,
        violations=result.violations,
        sign_violations=result.sign_violations,
        per_prime=tuple((p, p_valuation(p, lower), e) for p, e in factorize(upper)) if upper else (),
    )


# -- power subsequences ------------------------------------------------------


class PowerBound(NamedTuple):
    """Upper bound for the fail factor of the n**t-sampled subsequence."""

    bound: int
    radical: int
    degree_multiple: int
    heuristic: bool


def _splitting_degree_multiple(factorization: Factorization) -> int:
    """A multiple of the degree over Q of the splitting field of a squarefree f: a product over its factors g.

    G = Gal(g) permutes the k = deg g roots, so G lies in S_k, and in A_k
    iff disc(g) is a square (odd permutations negate the Vandermonde
    product); by Lagrange |G| divides k!, or k!/2.  For k <= 2 the
    splitting field is Q(root), of degree k.  For k = 4 and
    g = x^4 + a x^3 + b x^2 + c x + d, G is V4, C4, D4, A4 or S4, and the
    resolvent cubic y^3 - b y^2 + (ac - 4d) y - (a^2 d - 4bd + c^2) has the
    roots r1 r2 + r3 r4, r1 r3 + r2 r4 and r1 r4 + r2 r3, and a root is
    rational iff G fixes it.  V4 fixes all three, C4 and D4 the pairing
    their 4-cycle keeps, A4 and S4 none; V4 and A4 lie in A_4, the others
    do not.  So g gives 4, 8, or 12 or 24 as disc(g) is a square or not,
    when the resolvent has three, one or no rational roots (Kappe & Warren
    1989, "An elementary test for the Galois group of a quartic
    polynomial", Amer. Math. Monthly 96).  The resolvent shares the
    discriminant of g: (r1 r2 + r3 r4) - (r1 r3 + r2 r4) = (r1 - r4)(r2 - r3),
    and likewise for the other two pairs, so the product of its squared
    root differences is disc(g) != 0.  It is therefore squarefree, and
    being monic its rational roots are integers: they are its linear
    factors over Z, which ``factor_over_Z`` finds from disc(g) at any
    coefficient size.  The splitting field of f is the compositum of
    those of its factors, so its group embeds in the product of theirs by
    restriction, and its order divides the product.
    """
    m = 1
    for g, _ in factorization.factors:
        k = len(g) - 1
        disc = discriminant(list(g))
        halve = 1 + _is_square(disc)  # 2 when G lies in A_k
        if k <= 2:
            m *= k
        elif k == 4:
            d, c, b, a, _ = g
            resolvent = [-(a * a * d - 4 * b * d + c * c), a * c - 4 * d, -b, 1]
            rational = sum(len(h) == 2 for h, _ in factor_over_Z(resolvent, disc).factors)
            m *= {3: 4, 1: 8}.get(rational, 24 // halve)
        else:
            m *= math.factorial(k) // halve
    return m


def power_fail_bound(analysis: Analysis, t: int) -> PowerBound | None:
    """Fail-factor multiple for the subsequence sampled at indices n**t.

    Requires a nonzero discriminant.  The multiplier is
    |r_d * disc * rad(disc)|, offered when t is a multiple of
    ``_splitting_degree_multiple``, hence of the splitting-field degree.
    Above order 2 it stays flagged as a heuristic: the power-subsequence
    statement is not quoted.  The radical of the characteristic
    discriminant stands in for the radical of the splitting-field
    discriminant: every prime ramified in the splitting field divides the
    polynomial discriminant.
    """
    if t < 1:
        raise ValueError("exponent must be positive")
    d = analysis.spec.order
    disc = analysis.disc
    if disc == 0:
        raise ValueError("power-subsequence bound requires a nonzero discriminant")
    m = _splitting_degree_multiple(analysis.factorization)
    if t % m:
        return None
    radical = radical_int(abs(disc))
    return PowerBound(
        bound=abs(analysis.spec.coefficients[d - 1] * disc) * radical,
        radical=radical,
        degree_multiple=m,
        heuristic=d > 2,
    )
