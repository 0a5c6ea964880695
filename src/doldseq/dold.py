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

import functools
import math
import operator
from dataclasses import dataclass
from decimal import Decimal, localcontext
from typing import NamedTuple

from .factorint import _gf_degrees
from .numth import divisors, factorize, gcd_list, lcm_list, mobius, p_valuation, primes_up_to, radical_int
from .polyring import IntPoly, degree, discriminant, mul
from .recurrence import (
    EXACT,
    Analysis,
    RecurrenceSpec,
    SequenceView,
    StructureVerdict,
    analyze,
    convenient_check,
    sequence_view,
    structure_test,
)

DEFAULT_HORIZON = 200


class DoldViolation(NamedTuple):
    """Index n with n not dividing S_n; deficiency is the forced repair multiple."""

    n: int
    mobius_sum: Decimal  # S_n, an exact integral Decimal
    deficiency: int


@dataclass(frozen=True)
class ClassificationRow:
    """Most specific case-table row applicable to a recurrence."""

    row_id: str
    condition: str
    details: dict


@dataclass(frozen=True)
class FailReport:
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


def mobius_sums(view: SequenceView, horizon: int) -> list[Decimal]:
    """[S_1, ..., S_horizon] as exact integral Decimals, by Mobius inversion one prime at a time.

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
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    sums = [Decimal(0), *view.terms(horizon)]
    if horizon >= 2:
        with localcontext(EXACT):
            for p in primes_up_to(horizon).primes:
                sums[p::p] = map(operator.sub, sums[p::p], sums[1 : horizon // p + 1])
    return sums[1:]


class DoldScan(NamedTuple):
    """Dold and sign results of one pass over S_1..S_horizon.

    A NamedTuple, not a frozen dataclass: it is as immutable and about
    ten times cheaper to create at import.
    """

    violations: tuple[DoldViolation, ...]
    sign_violations: tuple[int, ...]  # indices n with S_n < 0
    empirical_lower: int  # lcm of the deficiencies; divides the fail factor


def scan(view: SequenceView, horizon: int) -> DoldScan:
    """Dold violations, sign violations and the empirical lower bound up to horizon, in one loop."""
    violations = []
    negative = []
    lower = 1
    with localcontext(EXACT):
        for n, s in enumerate(mobius_sums(view, horizon), start=1):
            r = s % n
            if r:
                deficiency = n // math.gcd(n, int(r))
                violations.append(DoldViolation(n, s, deficiency))
                lower = math.lcm(lower, deficiency)
            if s < 0:
                negative.append(n)
    return DoldScan(tuple(violations), tuple(negative), lower)


def prime_power_check(view: SequenceView, p: int, k: int, s: int) -> bool:
    """True iff p^k divides A_{p^k s} - A_{p^(k-1) s}; requires p coprime to s."""
    if s % p == 0:
        raise ValueError("s must not be divisible by p")
    return (view.term(p**k * s) - view.term(p ** (k - 1) * s)) % p**k == 0


# -- classification and theoretical bounds -----------------------------------


def _is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def classify(analysis: Analysis, prime_bound: int = 300) -> ClassificationRow:
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
    """
    if not verdict.almost:
        return []
    d = analysis.spec.order
    r = analysis.spec.coefficients
    disc = analysis.disc
    bounds: list[tuple[str, int]] = []
    if d == 1:
        bounds.append(("order-1", abs(r[0])))
    m = len(verdict.coefficients)
    irreducible = m == 1 and degree(list(verdict.coefficients[0][0])) == d
    if irreducible:
        # gcd(r_1, 2 r_2, ..., d r_d); appending the discriminant would not
        # change the gcd, so it is never included.
        bounds.append(("gcd", gcd_list([(i + 1) * abs(c) for i, c in enumerate(r)])))
    if d == 2 and disc != 0:
        if _is_square(disc):
            bounds.append(("order-2-scaled", abs(r[1]) * radical_int(disc)))
        else:
            bounds.append(("order-2-scaled", 2 * abs(r[1]) * radical_int(abs(disc))))
    if disc != 0:
        bounds.append(("discriminant", abs(r[d - 1] * disc)))
    # with a nonzero discriminant the polynomial is its own squarefree part
    sf_disc = disc or discriminant(functools.reduce(mul, (list(f) for f, _ in analysis.factorization.factors)))
    bounds.append(("squarefree-discriminant", abs(r[d - 1] * sf_disc)))
    bounds.append(("denominator", lcm_list([l.denominator for _, l in verdict.coefficients])))
    return bounds


def _per_prime_resolution(lower: int, bounds: list[tuple[str, int]]) -> tuple[tuple[int, int, int], ...]:
    if not bounds:
        return ()
    best = min(b for _, b in bounds)
    out = []
    for p, _ in factorize(best):
        lo = p_valuation(p, lower) if lower else 0
        hi = min(p_valuation(p, b) for _, b in bounds if b)
        out.append((p, lo, hi))
    return tuple(out)


def fail_report(
    spec: RecurrenceSpec, horizon: int = DEFAULT_HORIZON, max_bits: int | None = None, prime_bound: int = 300
) -> FailReport:
    """Full analysis of a recurrence-backed sequence.

    Runs the structure test, classification (searching witness primes up
    to prime_bound), theoretical bounds and the empirical scan; declares
    the fail factor exact only when the empirical lower bound meets a
    proof-backed upper bound.
    """
    if horizon < 1:
        raise ValueError("horizon must be positive")
    kwargs = {} if max_bits is None else {"max_bits": max_bits}
    analysis = analyze(spec)
    verdict = structure_test(analysis)
    classification = classify(analysis, prime_bound)
    result = scan(sequence_view(spec, **kwargs), horizon)
    bounds = table_bounds(analysis, verdict)  # empty for a refuted verdict
    lower = result.empirical_lower
    return FailReport(
        verdict="almost-dold" if verdict.almost else "not-almost-dold",
        horizon=horizon,
        empirical_lower=lower,
        upper_bounds=tuple(bounds),
        exact=lower if bounds and lower == min(b for _, b in bounds) else None,
        infinite=not verdict.almost,
        structure=verdict,
        classification=classification,
        violations=result.violations,
        sign_violations=result.sign_violations,
        per_prime=_per_prime_resolution(lower, bounds),
    )


# -- power subsequences ------------------------------------------------------


@dataclass(frozen=True)
class PowerBound:
    """Upper bound for the fail factor of the n**t-sampled subsequence."""

    bound: int
    radical: int
    degree_multiple: int
    heuristic: bool


def _splitting_degree_multiple(cpoly: IntPoly, disc: int, prime_bound: int = 1000) -> int:
    """lcm of mod-p factor degrees at primes p <= prime_bound not dividing disc, capped at d!.

    cpoly must be squarefree (disc != 0).  For order <= 2 this equals the
    splitting-field degree; beyond that it is a lower-bound heuristic for it.
    """
    cap = math.factorial(degree(cpoly))
    m = 1
    for p in primes_up_to(prime_bound).primes:
        if disc % p == 0:
            continue
        m = lcm_list([m, *_gf_degrees(cpoly, p)])
        if m >= cap:
            return cap
    return m


def power_fail_bound(analysis: Analysis, t: int) -> PowerBound | None:
    """Fail-factor multiple for the subsequence sampled at indices n**t.

    Requires a nonzero discriminant.  The multiplier is
    |r_d * disc * rad(disc)|, offered when t is a multiple of the
    splitting-field degree (exact for order <= 2, a degree-pattern
    heuristic above that, flagged as such).  The radical of the
    characteristic discriminant stands in for the radical of the
    splitting-field discriminant: every prime ramified in the splitting
    field divides the polynomial discriminant.
    """
    if t < 1:
        raise ValueError("exponent must be positive")
    d = analysis.spec.order
    disc = analysis.disc
    if disc == 0:
        raise ValueError("power-subsequence bound requires a nonzero discriminant")
    radical = radical_int(abs(disc))
    if d <= 2:
        m = 1 if (d == 1 or _is_square(disc)) else 2
    else:
        m = _splitting_degree_multiple(analysis.cpoly, disc)
    if t % m:
        return None
    return PowerBound(
        bound=abs(analysis.spec.coefficients[d - 1] * disc) * radical,
        radical=radical,
        degree_multiple=m,
        heuristic=d > 2,
    )
