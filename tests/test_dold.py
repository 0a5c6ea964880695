"""Dold/sign scans, fail-factor bounds, classification, and reports."""

import math
import random

import pytest

from doldseq.cli import parse_bfile
from doldseq.dold import (
    classify,
    dold_violations,
    empirical_fail_lower,
    fail_report,
    mobius_sum,
    mobius_sums,
    power_fail_bound,
    prime_power_check,
    raw_report,
    scan,
    sign_violations,
    table_bounds,
)
from doldseq.numth import mobius, primes_up_to
from doldseq.recurrence import (
    analyze,
    make_recurrence,
    power_subsequence,
    raw_view,
    sequence_view,
    square_disc_family,
    structure_test,
)


def test_mobius_sum_examples(fibonacci, example_seq):
    assert mobius_sum(sequence_view(fibonacci), 3) == 1  # F_3 - F_1
    assert mobius_sum(sequence_view(example_seq), 2) == 23  # 25 - 2
    const = raw_view([7] * 10)
    assert mobius_sum(const, 6) == 0
    with pytest.raises(ValueError):
        mobius_sum(const, 0)


def _seeded_views(seed):
    """Recurrence, raw and power-subsequence views of order 1-3, with a horizon each (N <= 300)."""
    rng = random.Random(seed)
    for order in (1, 2, 3):
        coeffs = [rng.randint(-9, 9) for _ in range(order - 1)] + [rng.choice([-3, -2, -1, 1, 2, 3])]
        initial = [rng.randint(-9, 9) for _ in range(order)]
        spec = make_recurrence(coeffs, initial)
        yield sequence_view(spec), 300
        yield raw_view([sequence_view(spec).term(n) for n in range(1, 301)]), 300
        yield power_subsequence(sequence_view(spec), 2), 40
        yield power_subsequence(sequence_view(spec), 3), 12


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_scan_matches_per_index_mobius_sum(seed):
    for view, horizon in _seeded_views(seed):
        reference = [mobius_sum(view, n) for n in range(1, horizon + 1)]
        # the smallest horizons, a prime and a prime square, then the full one
        for h in (1, 2, 3, 4, 97, 121, horizon):
            if h <= horizon:
                assert mobius_sums(view, h) == reference[:h]
        result = scan(view, horizon)
        expected = [(n, s, n // math.gcd(n, s)) for n, s in enumerate(reference, start=1) if s % n]
        assert [(v.n, v.mobius_sum, v.deficiency) for v in result.violations] == expected
        assert list(result.sign_violations) == [n for n, s in enumerate(reference, start=1) if s < 0]
        assert result.empirical_lower == math.lcm(1, *(d for _, _, d in expected))


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
    assert mobius_sums(sequence_view(make_recurrence(coeffs, initial)), horizon) == reference[1:]


def test_scan_horizon_edges():
    view = raw_view([1, 2, 3])
    assert mobius_sums(view, 0) == []
    assert scan(view, 0).violations == () and scan(view, 0).empirical_lower == 1
    with pytest.raises(ValueError):
        mobius_sums(view, -1)


def test_dold_violations_examples(lucas, example_seq, fibonacci):
    assert dold_violations(sequence_view(lucas), 300) == []
    vs = dold_violations(sequence_view(example_seq), 3)
    assert [(v.n, v.deficiency) for v in vs] == [(2, 2), (3, 3)]
    vf = dold_violations(sequence_view(fibonacci), 3)
    assert [(v.n, v.deficiency) for v in vf] == [(3, 3)]


def test_prime_power_check_examples(example_seq, lucas, fibonacci):
    assert prime_power_check(sequence_view(example_seq), 13, 1, 1) is True
    lv = sequence_view(lucas)
    assert lv.term(8) - lv.term(4) == 40
    assert prime_power_check(lv, 2, 3, 1) is True
    assert prime_power_check(sequence_view(fibonacci), 3, 1, 1) is False
    with pytest.raises(ValueError):
        prime_power_check(lv, 3, 1, 6)


def test_sign_violations_examples():
    powers = raw_view([2**n for n in range(1, 101)])
    assert sign_violations(powers, 100) == []
    assert sign_violations(raw_view([5] * 100), 100) == []
    assert 2 in sign_violations(raw_view([1, 0, 0, 0]), 4)


def test_empirical_fail_lower_examples(example_seq, lucas):
    assert empirical_fail_lower(sequence_view(example_seq), 200) % 6 == 0
    assert empirical_fail_lower(sequence_view(lucas), 300) == 1
    assert empirical_fail_lower(sequence_view(square_disc_family(6)), 50) % 6 == 0


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


def test_raw_report_unknown_verdict():
    report = raw_report(raw_view([1, 1, 2, 3, 5]), 5)
    assert report.verdict == "unknown"
    assert report.upper_bounds == ()


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


def test_power_scan_sampled_indices(lucas):
    # a fully Dold-clean sequence stays clean on sampled indices n^t
    base = sequence_view(lucas)
    for t in (2, 3, 4):
        horizon = int(2000 ** (1 / t))
        view = power_subsequence(base, t)
        assert dold_violations(view, horizon) == []


def test_integer_power_sequences_pass_all_checks():
    for x in range(-3, 4):
        view = raw_view([x**n for n in range(1, 301)])
        assert dold_violations(view, 300) == []


def _differential_views(seed):
    """Order 1-3 sequences with negative and zero terms, as recurrence, raw (int and b-file) and power views."""
    rng = random.Random(seed)
    specs = [make_recurrence([0, -1], [0, 1]), make_recurrence([1, -1], [0, -2])]  # periodic, with zero terms
    for order in (1, 2, 3):
        coeffs = [rng.randint(-4, 4) for _ in range(order - 1)] + [rng.choice([-3, -2, -1, 1, 2, 3])]
        initial = [rng.choice([-1, 1]) * rng.randint(1, 9) for _ in range(order)]
        initial[rng.randrange(order)] = 0 if order > 1 else initial[0]
        specs.append(make_recurrence(coeffs, initial))
    for spec in specs:
        ints = [sequence_view(spec).term(n) for n in range(1, 201)]
        bfile = parse_bfile("# seeded\n" + "".join(f"{n} {v}\n" for n, v in enumerate(ints, start=1)))
        yield sequence_view(spec), 200
        yield raw_view(ints), 200
        yield raw_view([v for _, v in bfile.entries]), 200
        yield power_subsequence(sequence_view(spec), 2), 30
        yield power_subsequence(sequence_view(spec), 3), 9


@pytest.mark.parametrize("seed", [11, 12, 13, 14])
def test_decimal_scan_agrees_with_the_int_referees(seed):
    """scan on Decimal values against mobius_sum and prime_power_check, which work on int terms.

    For each prime p, p^v_p(n) divides S_n for every n <= N exactly when
    p^k divides A_(p^k s) - A_(p^(k-1) s) for every p^k s <= N with p not
    dividing s, so the primes in the deficiencies are the primes whose
    congruences fail.
    """
    for view, horizon in _differential_views(seed):
        sums = [mobius_sum(view, n) for n in range(1, horizon + 1)]
        assert all(type(s) is int for s in sums)
        result = scan(view, horizon)
        expected = [(n, s, n // math.gcd(n, s)) for n, s in enumerate(sums, start=1) if s % n]
        assert [(v.n, v.mobius_sum, v.deficiency) for v in result.violations] == expected
        assert list(result.sign_violations) == [n for n, s in enumerate(sums, start=1) if s < 0]
        for p in primes_up_to(horizon).primes:
            congruences_hold = all(
                prime_power_check(view, p, k, s)
                for k in range(1, horizon.bit_length())
                for s in range(1, horizon // p**k + 1)
                if s % p
            )
            assert congruences_hold == (result.empirical_lower % p != 0), (p, horizon)
