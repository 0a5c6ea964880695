"""Dold/sign scans, fail-factor bounds, classification, and reports."""

import functools
import math
import random

import pytest

from doldseq.cli import parse_bfile
from doldseq.dold import (
    _splitting_degree_multiple,
    classify,
    fail_report,
    mobius_sum,
    mobius_sums,
    power_fail_bound,
    prime_power_check,
    scan,
    table_bounds,
)
from doldseq.factorint import Factorization, factor_over_Z
from doldseq.numth import divisors, factorize, mobius, p_valuation, primes_up_to
from doldseq.polyring import discriminant, mul
from doldseq.recurrence import (
    MAX_COEFF,
    SequenceView,
    analyze,
    exact_terms,
    make_recurrence,
    power_terms,
    square_disc_family,
    structure_test,
)
from test_factorint import gf_degrees, random_irreducible, random_monic


def test_mobius_sum_examples(fibonacci, example_seq):
    assert mobius_sum(SequenceView(fibonacci), 3) == 1  # F_3 - F_1
    assert mobius_sum(SequenceView(example_seq), 2) == 23  # 25 - 2
    const = SequenceView(make_recurrence([1], [7]))
    assert mobius_sum(const, 6) == 0
    with pytest.raises(ValueError):
        mobius_sum(const, 0)


def _recurrence_case(spec, horizon):
    """A_1..A_N of a recurrence, with the referees mobius_sum and prime_power_check on its view."""
    view = SequenceView(spec)
    return view.terms(horizon), functools.partial(mobius_sum, view), functools.partial(prime_power_check, view)


def _list_case(terms, ints):
    """Terms as a scan reads them, with S_n and the p^k congruences computed here from their int values."""

    def sum_at(n):
        return sum(mobius(n // d) * ints[d - 1] for d in divisors(n))

    def congruence(p, k, s):  # for p not dividing s
        return (ints[p**k * s - 1] - ints[p ** (k - 1) * s - 1]) % p**k == 0

    return terms, sum_at, congruence


def _power_case(spec, t, horizon):
    """A_(n**t) for n <= N, read by power_terms, against ints read one index at a time."""
    view = SequenceView(spec)
    return _list_case(power_terms(view, t, horizon), [view.term(n**t) for n in range(1, horizon + 1)])


def _seeded_views(seed):
    """Recurrence, int-list and power-subsequence terms of order 1-3 (N <= 300), each with its referees.

    The first, a constant 1, has S_1 = 1 and S_n = 0 after it: no violation.
    """
    rng = random.Random(seed)
    yield _list_case(exact_terms([1] * 60), [1] * 60)
    for order in (1, 2, 3):
        coeffs = [rng.randint(-9, 9) for _ in range(order - 1)] + [rng.choice([-3, -2, -1, 1, 2, 3])]
        initial = [rng.randint(-9, 9) for _ in range(order)]
        spec = make_recurrence(coeffs, initial)
        ints = [SequenceView(spec).term(n) for n in range(1, 301)]
        yield _recurrence_case(spec, 300)
        yield _list_case(exact_terms(ints), ints)
        yield _power_case(spec, 2, 40)
        yield _power_case(spec, 3, 12)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_scan_matches_per_index_mobius_sum(seed):
    for terms, sum_at, _ in _seeded_views(seed):
        horizon = len(terms)
        reference = [sum_at(n) for n in range(1, horizon + 1)]
        # the smallest horizons, a prime and a prime square, then the full one
        for h in (1, 2, 3, 4, 97, 121, horizon):
            if h <= horizon:
                assert mobius_sums(terms[:h]) == reference[:h]
        result = scan(terms)
        expected = [(n, s, n // math.gcd(n, s)) for n, s in enumerate(reference, start=1) if s % n]
        assert [(v.n, v.mobius_sum, v.deficiency) for v in result.violations] == expected
        assert list(result.sign_violations) == [n for n, s in enumerate(reference, start=1) if s < 0]
        running = 1  # the lower bound accumulated one violation at a time
        for _, _, deficiency in expected:
            running = math.lcm(running, deficiency)
        assert result.empirical_lower == running


def test_mobius_sums_match_an_int_reference_at_a_long_horizon():
    # ints generated here, not through view.term(n), which is quadratic on long terms
    coeffs, initial, horizon = [3, 5, 7], [1, 2, 3], 2000
    terms = list(initial)
    while len(terms) < horizon:
        terms.append(sum(c * terms[-i] for i, c in enumerate(coeffs, start=1)))
    mu = [0, *(mobius(n) for n in range(1, horizon + 1))]
    reference = [0] * (horizon + 1)
    for d in range(1, horizon + 1):
        for k, n in enumerate(range(d, horizon + 1, d), start=1):
            reference[n] += mu[k] * terms[d - 1]
    assert mobius_sums(SequenceView(make_recurrence(coeffs, initial)).terms(horizon)) == reference[1:]


def test_scan_horizon_edges():
    assert mobius_sums([]) == []
    assert scan([]) == scan(exact_terms([1] * 60)) == ((), (), 1)
    assert mobius_sums(exact_terms([5])) == [5]


def test_dold_violations_examples(lucas, example_seq, fibonacci):
    assert scan(SequenceView(lucas).terms(300)).violations == ()
    vs = scan(SequenceView(example_seq).terms(3)).violations
    assert [(v.n, v.deficiency) for v in vs] == [(2, 2), (3, 3)]
    vf = scan(SequenceView(fibonacci).terms(3)).violations
    assert [(v.n, v.deficiency) for v in vf] == [(3, 3)]


def test_prime_power_check_examples(example_seq, lucas, fibonacci):
    assert prime_power_check(SequenceView(example_seq), 13, 1, 1) is True
    lv = SequenceView(lucas)
    assert lv.term(8) - lv.term(4) == 40
    assert prime_power_check(lv, 2, 3, 1) is True
    assert prime_power_check(SequenceView(fibonacci), 3, 1, 1) is False
    with pytest.raises(ValueError):
        prime_power_check(lv, 3, 1, 6)


def test_sign_violations_examples():
    powers = exact_terms([2**n for n in range(1, 101)])
    assert scan(powers).sign_violations == ()
    assert scan(exact_terms([5] * 100)).sign_violations == ()
    assert 2 in scan(exact_terms([1, 0, 0, 0])).sign_violations


def test_empirical_fail_lower_examples(example_seq, lucas):
    assert scan(SequenceView(example_seq).terms(200)).empirical_lower % 6 == 0
    assert scan(SequenceView(lucas).terms(300)).empirical_lower == 1
    assert scan(SequenceView(square_disc_family(6)).terms(50)).empirical_lower % 6 == 0


def test_table_bounds_examples(example_seq, order4_seq, lucas):
    ex = dict(table_bounds(analyze(example_seq), structure_test(analyze(example_seq))))
    assert ex["gcd"] == 6
    assert ex["order-2-scaled"] == 468
    assert ex["denominator"] == 6
    o4 = dict(table_bounds(analyze(order4_seq), structure_test(analyze(order4_seq))))
    assert o4["gcd"] == 4
    lu = dict(table_bounds(analyze(lucas), structure_test(analyze(lucas))))
    assert lu["gcd"] == 1


def test_table_bounds_repeated_factor():
    # U_n = 1 + 2^n; characteristic polynomial (x - 1)^2 (x - 2), squarefree part x^2 - 3x + 2
    spec = make_recurrence([4, -5, 2], [3, 5, 9])
    bounds = dict(table_bounds(analyze(spec), structure_test(analyze(spec))))
    assert "discriminant" not in bounds
    assert bounds["squarefree-discriminant"] == 2  # |r_3| * disc(x^2 - 3x + 2) = 2 * 1


def test_table_bounds_vacuous_for_refuted(fibonacci):
    assert table_bounds(analyze(fibonacci), structure_test(analyze(fibonacci))) == []


def test_classify_examples(example_seq, order4_seq):
    assert classify(analyze(example_seq)).row_id == "order-2-irreducible"
    assert classify(analyze(square_disc_family(6))).row_id == "order-2-reducible"
    row = classify(analyze(order4_seq))
    assert row.row_id == "irreducible"
    assert row.details["convenient"] == "no-witness"
    assert classify(analyze(make_recurrence([3], [1]))).row_id == "order-1"


def test_fail_report_examples(example_seq, fibonacci):
    ex = fail_report(example_seq, horizon=200)
    assert ex.verdict == "almost-dold" and ex.exact == 6 and not ex.infinite
    fib = fail_report(fibonacci, horizon=50)
    assert fib.verdict == "not-almost-dold" and fib.infinite and fib.exact is None
    d1 = fail_report(make_recurrence([3], [1]), horizon=50)
    bounds = dict(d1.upper_bounds)
    assert d1.empirical_lower == 3 and bounds["order-1"] == 3 and bounds["denominator"] == 3
    assert d1.exact == 3


def test_fail_report_bound_consistency(example_seq, order4_seq, lucas):
    for spec in (example_seq, order4_seq, lucas, square_disc_family(4), make_recurrence([3], [1])):
        report = fail_report(spec, horizon=100)
        assert report.verdict == "almost-dold"
        for _, bound in report.upper_bounds:
            assert bound % report.empirical_lower == 0
        if report.exact is not None:
            assert report.exact == report.empirical_lower


def test_order_1_radical_is_the_scan_lower_bound():
    # U_n = u r^(n-1): at N = 200 the scan sees index p for every prime p | r (|r| <= 30)
    grid = [v for v in range(-30, 31) if v]
    for r in grid:
        for u in grid:
            analysis = analyze(make_recurrence([r], [u]))
            bounds = dict(table_bounds(analysis, structure_test(analysis)))
            radical = bounds["order-1-radical"]
            assert radical == scan(SequenceView(analysis.spec).terms(200)).empirical_lower, (r, u)
            assert bounds["order-1"] % radical == 0, (r, u)


def _p_random_pool(seed, draws):
    """The almost-Dold fail reports of a P-random pool: order 1-3, coefficients and initial terms in [-9, 9], N = 200."""
    rng = random.Random(seed)
    for _ in range(draws):
        order = rng.randint(1, 3)
        coeffs = [rng.randint(-9, 9) for _ in range(order)]
        initial = [rng.randint(-9, 9) for _ in range(order)]
        if coeffs[-1] == 0:
            coeffs[-1] = 1
        report = fail_report(make_recurrence(coeffs, initial), horizon=200)
        if report.verdict == "almost-dold":
            yield report


# Only the gcd of its bounds closes this bracket: L = G = 2, the smallest bound is 4.
GCD_CLOSED = make_recurrence([-2, 3], [9, -6])


def test_fail_bracket_on_a_seeded_pool():
    reports = [*_p_random_pool(1, 600), fail_report(GCD_CLOSED, horizon=200)]
    assert len(reports) == 242
    for report in reports:
        lower = report.empirical_lower
        upper = math.gcd(*(b for _, b in report.upper_bounds))
        assert upper % lower == 0
        assert (report.exact is not None) == (lower == upper)
        assert report.exact in (None, lower)
        assert [p for p, _, _ in report.per_prime] == [p for p, _ in factorize(upper)]
        for p, lo, hi in report.per_prime:
            assert lo == p_valuation(p, lower) <= hi == p_valuation(p, upper)
    gcd_closed = reports[-1]
    assert gcd_closed.exact == 2 < min(b for _, b in gcd_closed.upper_bounds)
    assert sum(len(r.per_prime) > 1 for r in reports) > 0  # rows beyond the first prime are checked too


def test_power_fail_bound_examples(order4_variant, fibonacci):
    b = power_fail_bound(analyze(order4_variant), 4)
    assert b is not None
    assert b.radical == 6
    assert b.bound == 1 * 147456 * 6
    assert b.heuristic is True
    fib2 = power_fail_bound(analyze(fibonacci), 2)
    assert fib2 is not None and fib2.bound == 25 and fib2.degree_multiple == 2 and not fib2.heuristic
    assert power_fail_bound(analyze(fibonacci), 3) is None
    with pytest.raises(ValueError):
        power_fail_bound(analyze(make_recurrence([4, -4], [2, 8])), 2)  # zero discriminant
    with pytest.raises(ValueError):
        power_fail_bound(analyze(fibonacci), 0)


# -- the splitting-degree multiple behind power bounds -----------------------

# (f ascending, Galois group, proven multiple): exact except C4, which shares D4's 8
KNOWN_GROUPS = [
    ([1, -3, 0, 1], "C3", 3),
    ([-2, 0, 0, 1], "S3", 6),
    ([1, 0, -10, 0, 1], "V4", 4),
    ([12, 8, 0, 0, 1], "A4", 12),
    ([1, 1, 0, 0, 1], "S4", 24),
    (mul([-2, 0, 1], [-3, 0, 1]), "C2 x C2, two factors", 4),
    ([-1, -1, 0, 0, 0, 1], "S5", 120),
    ([-2, 0, 0, 0, 1], "D4", 8),
    ([2, 0, -4, 0, 1], "C4", 8),
]


@pytest.mark.parametrize("f,group,multiple", KNOWN_GROUPS, ids=[g for _, g, _ in KNOWN_GROUPS])
def test_splitting_degree_multiple_of_known_groups(f, group, multiple):
    assert _splitting_degree_multiple(factor_over_Z(f)) == multiple


def test_splitting_degree_multiple_past_the_resolvent_envelope():
    # x^4 - 300001 (D4, order 8) and sqrt(2) + sqrt(602) (V4, order 4): the
    # resolvents' lowest nonzero coefficients, 1200004 and -1739520000, are
    # past MAX_COEFF, analyze's envelope for recurrence coefficients, not the resolvent's
    for f, multiple in (([-300001, 0, 0, 0, 1], 8), ([360000, 0, -1208, 0, 1], 4)):
        d, c, b, a, _ = f
        low = next(v for v in [-(a * a * d - 4 * b * d + c * c), a * c - 4 * d, -b] if v)
        assert abs(low) > MAX_COEFF
        assert _splitting_degree_multiple(factor_over_Z(f)) == multiple


def cubic_integer_roots(f):
    """Integer roots of a monic cubic f (ascending), by bisection on its monotone pieces.

    The critical points of f are x = (-2 a2 -+ sqrt(D)) / 6, with D = 4 a2^2 - 12 a1
    the discriminant of f' = 3x^2 + 2 a2 x + a1.  Their floor and ceiling
    come from ceil(sqrt(D)) alone, since (m - sqrt(D)) / 6 and
    (m - ceil(sqrt(D))) / 6 have the same floor for an integer m.  Every
    integer root lies within the Cauchy bound 1 + max |a_i|.
    """
    a0, a1, a2, _ = f

    def value(x):
        return ((x + a2) * x + a1) * x + a0

    bound = 1 + max(abs(a0), abs(a1), abs(a2))
    pieces = [(-bound, bound, 1)]
    crit = 4 * a2 * a2 - 12 * a1
    if crit > 0:
        root = math.isqrt(crit)
        root += root * root < crit
        left = (-2 * a2 - root) // 6  # floor of the smaller critical point
        right = -((2 * a2 - root) // 6)  # ceiling of the larger one
        pieces = [(-bound, left, 1), (left + 1, right - 1, -1), (right, bound, 1)]
    roots = set()
    for lo, hi, sign in pieces:
        lo, hi = max(lo, -bound), min(hi, bound)
        if lo > hi:
            continue
        # the least x in [lo, hi] with sign * f(x) >= 0, or hi
        while lo < hi:
            mid = (lo + hi) // 2
            if sign * value(mid) < 0:
                lo = mid + 1
            else:
                hi = mid
        if value(lo) == 0:
            roots.add(lo)
    return sorted(roots)


def test_cubic_integer_roots_referee():
    rng = random.Random(26)
    for _ in range(200):
        roots = [rng.randint(-10**6, 10**6) for _ in range(3)]
        if rng.random() < 0.2:
            roots[1] = roots[0]
        f = mul(mul([-roots[0], 1], [-roots[1], 1]), [-roots[2], 1])
        assert cubic_integer_roots(f) == sorted(set(roots)), roots
        # x^2 + 1 has no real root, x^2 - 2 no rational one
        for quadratic in ([1, 0, 1], [-2, 0, 1]):
            assert cubic_integer_roots(mul([-roots[0], 1], quadratic)) == [roots[0]]
    assert cubic_integer_roots([1, 1, 0, 1]) == []


def resolvent_pool():
    """Seeded quartics with nonzero discriminant: random ones, and x^4 + a x^2 + b past the envelope."""
    rng = random.Random(2609)
    pool = [[rng.randint(-10**6, 10**6) for _ in range(4)] + [1] for _ in range(60)]
    for _ in range(60):
        a = rng.randint(-10**6, 10**6)
        b = rng.randint(1, 1000) ** 2 if rng.random() < 0.5 else rng.randint(-10**6, 10**6)
        pool.append([b, 0, a, 0, 1])
    return [g for g in pool if discriminant(g)]


def test_resolvent_rational_roots_match_the_bisection_referee():
    counts = set()
    wide = 0
    for g in resolvent_pool():
        d, c, b, a, _ = g
        resolvent = [-(a * a * d - 4 * b * d + c * c), a * c - 4 * d, -b, 1]
        disc = discriminant(g)
        assert discriminant(resolvent) == disc, g
        rational = len(cubic_integer_roots(resolvent))
        counts.add(rational)
        wide += max(map(abs, resolvent)) > MAX_COEFF
        halve = 1 + (disc > 0 and math.isqrt(disc) ** 2 == disc)
        expected = {3: 4, 1: 8}.get(rational, 24 // halve)
        assert _splitting_degree_multiple(Factorization(((tuple(g), 1),))) == expected, g
    assert counts == {0, 1, 3}
    assert wide >= 60


def test_splitting_degree_multiple_is_a_multiple_of_the_frobenius_exponent():
    # the lcm of the mod-p factor degrees is the exponent of the Frobenius
    # classes seen, which divides the order of the Galois group
    rng = random.Random(2309)
    pool = [random_monic(rng, deg) for deg in range(3, 9) for _ in range(5)]
    pool += [mul(random_irreducible(rng, rng.choice([2, 3, 4])), random_irreducible(rng, 2)) for _ in range(6)]
    gaps = 0
    for f in pool:
        disc = discriminant(f)
        if not disc:
            continue
        exponent = math.lcm(*(d for p in primes_up_to(1000) if disc % p for d in gf_degrees(f, p)))
        multiple = _splitting_degree_multiple(factor_over_Z(f))
        assert multiple % exponent == 0, f
        gaps += multiple != exponent
    assert gaps


def test_power_fail_bound_needs_the_proven_degree():
    v4 = analyze(make_recurrence([0, 10, 0, -1], [1, 0, 9, 0]))  # x^4 - 10x^2 + 1, degree 4
    assert power_fail_bound(v4, 2) is None
    assert power_fail_bound(v4, 4).degree_multiple == 4
    # order <= 2: 1 for order 1 and for a square discriminant, else 2, as before
    for r1 in range(-4, 5):
        if r1:
            assert power_fail_bound(analyze(make_recurrence([r1], [1])), 1).degree_multiple == 1
        for r2 in (-3, -1, 1, 2, 6):
            analysis = analyze(make_recurrence([r1, r2], [1, 1]))
            if analysis.disc:
                expected = 1 if math.isqrt(max(analysis.disc, 0)) ** 2 == analysis.disc else 2
                assert power_fail_bound(analysis, 2).degree_multiple == expected, (r1, r2)


def test_power_scan_sampled_indices(lucas):
    # a fully Dold-clean sequence stays clean on sampled indices n^t
    base = SequenceView(lucas)
    for t in (2, 3, 4):
        horizon = int(2000 ** (1 / t))
        assert scan(power_terms(base, t, horizon)).violations == ()


def test_integer_power_sequences_pass_all_checks():
    for x in range(-3, 4):
        assert scan(exact_terms([x**n for n in range(1, 301)])).violations == ()


def _differential_views(seed):
    """Order 1-3 sequences with negative and zero terms: recurrence, int list, b-file Decimals and powers t = 2, 3."""
    rng = random.Random(seed)
    specs = [make_recurrence([0, -1], [0, 1]), make_recurrence([1, -1], [0, -2])]  # periodic, with zero terms
    for order in (1, 2, 3):
        coeffs = [rng.randint(-4, 4) for _ in range(order - 1)] + [rng.choice([-3, -2, -1, 1, 2, 3])]
        initial = [rng.choice([-1, 1]) * rng.randint(1, 9) for _ in range(order)]
        initial[rng.randrange(order)] = 0 if order > 1 else initial[0]
        specs.append(make_recurrence(coeffs, initial))
    for spec in specs:
        ints = [SequenceView(spec).term(n) for n in range(1, 201)]
        bfile = parse_bfile("# seeded\n" + "".join(f"{n} {v}\n" for n, v in enumerate(ints, start=1)))
        yield _recurrence_case(spec, 200)
        yield _list_case(exact_terms(ints), ints)
        yield _list_case([v for _, v in bfile.entries], ints)
        yield _power_case(spec, 2, 30)
        yield _power_case(spec, 3, 9)


@pytest.mark.parametrize("seed", [11, 12, 13, 14])
def test_decimal_scan_agrees_with_the_int_referees(seed):
    """scan on Decimal values against S_n and the p^k congruences computed on int terms.

    For each prime p, p^v_p(n) divides S_n for every n <= N exactly when
    p^k divides A_(p^k s) - A_(p^(k-1) s) for every p^k s <= N with p not
    dividing s, so the primes in the deficiencies are the primes whose
    congruences fail.
    """
    for terms, sum_at, congruence in _differential_views(seed):
        horizon = len(terms)
        sums = [sum_at(n) for n in range(1, horizon + 1)]
        assert all(type(s) is int for s in sums)
        result = scan(terms)
        expected = [(n, s, n // math.gcd(n, s)) for n, s in enumerate(sums, start=1) if s % n]
        assert [(v.n, v.mobius_sum, v.deficiency) for v in result.violations] == expected
        assert list(result.sign_violations) == [n for n, s in enumerate(sums, start=1) if s < 0]
        for p in primes_up_to(horizon):
            congruences_hold = all(
                congruence(p, k, s)
                for k in range(1, horizon.bit_length())
                for s in range(1, horizon // p**k + 1)
                if s % p
            )
            assert congruences_hold == (result.empirical_lower % p != 0), (p, horizon)
