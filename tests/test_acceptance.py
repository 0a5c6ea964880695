"""Acceptance gate: the ten headline checks, one pass/fail line each.

Every test here prints ``PASS criterion N: <summary>`` on success (or a
FAIL line before the assertion error), so a plain ``pytest -s`` run shows
the acceptance status at a glance.
"""

import contextlib
import random
from fractions import Fraction

from doldseq.dold import fail_report, power_fail_bound, scan, table_bounds
from doldseq.factorint import factor_over_Z, root_density
from doldseq.numth import factorize, mobius, primes_up_to, radical_int
from doldseq.polyring import discriminant, mul, normalize
from doldseq.recurrence import (
    analyze,
    make_recurrence,
    power_subsequence,
    raw_view,
    scaled_view,
    sequence_view,
    square_disc_family,
    structure_test,
    trace_sequence,
)
from test_factorint import factorization_multiset, kronecker_factor
from test_polyring import leibniz_det

from doldseq.polyring import derivative, sylvester_matrix


@contextlib.contextmanager
def criterion(number, summary):
    try:
        yield
    except Exception:
        print(f"FAIL criterion {number}: {summary}")
        raise
    print(f"PASS criterion {number}: {summary}")


def test_criterion_1_worked_example():
    with criterion(1, "order-2 example: U_3 = 306, bounds 6 and 468, exact fail 6"):
        spec = make_recurrence([12, 3], [2, 25])
        assert sequence_view(spec).term(3) == 306
        bounds = dict(table_bounds(analyze(spec), structure_test(analyze(spec))))
        assert bounds["gcd"] == 6
        assert bounds["order-2-scaled"] == 468
        assert 468 == 2**2 * 3**2 * 13
        report = fail_report(spec, horizon=200)
        assert report.empirical_lower % 6 == 0
        assert report.exact == 6


def test_criterion_2_fibonacci_and_lucas():
    with criterion(2, "Fibonacci fail is infinite; Lucas is clean with fail 1"):
        fib = make_recurrence([1, 1], [1, 1])
        assert not structure_test(analyze(fib)).almost
        assert fail_report(fib, horizon=50).infinite
        lucas = make_recurrence([1, 1], [1, 3])
        assert scan(sequence_view(lucas), 300).violations == ()
        report = fail_report(lucas, horizon=300)
        assert dict(report.upper_bounds)["gcd"] == 1
        assert report.exact == 1


def test_criterion_3_order_4_example():
    with criterion(3, "order-4 example: single-factor decomposition l = 1/4, 2 | fail | 4"):
        spec = make_recurrence([0, 10, 0, -1], [0, 5, 0, 49])
        verdict = structure_test(analyze(spec))
        assert verdict.almost
        assert verdict.coefficients == (((1, 0, -10, 0, 1), Fraction(1, 4)),)
        report = fail_report(spec, horizon=60)
        assert dict(report.upper_bounds)["gcd"] == 4
        lower = report.empirical_lower
        assert lower % 2 == 0 and 4 % lower == 0


def test_criterion_4_power_subsequence():
    with criterion(4, "power subsequence t=4: refuted base, empirical fail 6 = radical bound"):
        spec = make_recurrence([0, 10, 0, -1], [1, 0, 9, 0])
        assert not structure_test(analyze(spec)).almost
        view = power_subsequence(sequence_view(spec), 4)
        lower = scan(view, 6).empirical_lower
        assert lower == 6
        assert discriminant([1, 0, -10, 0, 1]) == 147456
        assert radical_int(147456) == 6
        bound = power_fail_bound(analyze(spec), 4)
        assert bound is not None and bound.radical == 6
        # the empirical value meets the radical, but the bound is heuristic,
        # so the report does not claim it as an exact fail
        assert lower == bound.radical


def test_criterion_5_square_discriminant_family():
    with criterion(5, "square-discriminant family: every p | delta divides the lower bound"):
        for delta in range(2, 31):
            lower = scan(sequence_view(square_disc_family(delta)), 50).empirical_lower
            for p, _ in factorize(delta):
                assert lower % p == 0, (delta, p, lower)


def first_mobius_failure(view, horizon):
    for n in range(1, horizon + 1):
        s = sum(mobius(n // d) * view.term(d) for d in range(1, n + 1) if n % d == 0)
        if s % n:
            return n
    return None


def first_prime_power_failure(view, horizon):
    worst = None
    for p in primes_up_to(horizon).primes:
        k = 1
        while p**k <= horizon:
            for s in range(1, horizon // p**k + 1):
                if s % p == 0:
                    continue
                n = p**k * s
                if (view.term(n) - view.term(n // p)) % p**k:
                    if worst is None or n < worst:
                        worst = n
            k += 1
    return worst


def test_criterion_6_prime_power_equivalence():
    with criterion(6, "Mobius-sum and prime-power formulations agree on 100 random sequences"):
        rng = random.Random(2024)
        for _ in range(100):
            terms = [rng.randrange(-50, 51) for _ in range(300)]
            view = raw_view(terms)
            assert first_mobius_failure(view, 300) == first_prime_power_failure(view, 300)


def random_irreducible(rng, deg, bound=5):
    while True:
        f = [rng.randrange(-bound, bound + 1) for _ in range(deg)] + [1]
        if f[0] != 0 and factor_over_Z(normalize(f)).is_irreducible():
            return normalize(f)


def test_criterion_7_multiplier_suites():
    with criterion(7, "scaled-sequence suites: every certified multiplier repairs its scan"):
        rng = random.Random(7)
        # integer-root quadratics scaled by |r_2| * rad(|disc|)
        done = 0
        while done < 50:
            a, b = rng.sample(range(-9, 10), 2)
            if a == 0 or b == 0:
                continue
            spec = make_recurrence([a + b, -a * b], [rng.randrange(-9, 10), rng.randrange(-9, 10)])
            disc = (a - b) ** 2
            c = abs(spec.coefficients[1]) * radical_int(disc)
            scaled = scaled_view(sequence_view(spec), c, 200)
            assert scan(scaled, 200).violations == (), (a, b, spec.initial)
            done += 1
        # non-square-discriminant quadratics with equal root coefficients,
        # scaled by |2 r_2| * rad(|disc|)
        done = 0
        while done < 50:
            f = random_irreducible(rng, 2, bound=9)
            disc = discriminant(f)
            if disc >= 0 and int(abs(disc) ** 0.5 + 0.5) ** 2 == disc:
                continue
            k = rng.randrange(1, 6)
            tr = trace_sequence(f).view
            spec = make_recurrence(list(tr.spec.coefficients), [k * tr.term(1), k * tr.term(2)])
            if spec.coefficients[1] == 0:
                continue
            c = abs(2 * spec.coefficients[1]) * radical_int(abs(disc))
            scaled = scaled_view(sequence_view(spec), c, 200)
            assert scan(scaled, 200).violations == (), (f, k)
            done += 1
        # square-index subsequences of arbitrary quadratics, scaled by
        # |r_2 * disc| * rad(|disc|)
        done = 0
        while done < 30:
            r1 = rng.randrange(-9, 10)
            r2 = rng.randrange(-9, 10)
            if r2 == 0:
                continue
            spec = make_recurrence([r1, r2], [rng.randrange(-9, 10), rng.randrange(-9, 10)])
            disc = r1 * r1 + 4 * r2
            if disc == 0:
                continue
            c = abs(r2 * disc) * radical_int(abs(disc))
            squares = power_subsequence(sequence_view(spec), 2)
            scaled = scaled_view(squares, c, 12)
            assert scan(scaled, 12).violations == (), (r1, r2, spec.initial)
            done += 1
        # trace sequences of irreducibles are Dold-clean unscaled
        for _ in range(50):
            f = random_irreducible(rng, rng.randrange(1, 6))
            tr = trace_sequence(f).view
            assert scan(tr, 200).violations == (), f


def test_criterion_8_factorization():
    with criterion(8, "factorization: 200 random round-trips and full quartic oracle sweep"):
        rng = random.Random(88)
        for _ in range(200):
            f = [1]
            while True:
                g = random_irreducible(rng, rng.randrange(1, 4), bound=6)
                if len(mul(f, g)) - 1 > 6:
                    break
                f = mul(f, g)
                if rng.random() < 0.3:
                    break
            if len(f) == 1:
                continue
            fz = factor_over_Z(f)
            assert fz.expand() == f
        count = 0
        for c3 in range(-6, 7):
            for c2 in range(-6, 7):
                for c1 in range(-6, 7):
                    for c0 in range(-6, 7):
                        f = [c0, c1, c2, c3, 1]
                        assert factorization_multiset(factor_over_Z(f)) == kronecker_factor(f), f
                        count += 1
        assert count == 13**4
        for c1 in range(-6, 7):
            for c0 in range(-6, 7):
                for f in ([c0, 1], [c0, c1, 1], [c0, c1, 0, 1]):
                    assert factorization_multiset(factor_over_Z(f)) == kronecker_factor(f), f


def test_criterion_9_discriminants():
    with criterion(9, "discriminants 147456 and 156 via both computation paths"):
        f = [1, 0, -10, 0, 1]
        assert discriminant(f) == 147456
        res = leibniz_det(sylvester_matrix(derivative(f), f))
        assert (-1) ** (4 * 3 // 2) * res == 147456
        g = [-3, -12, 1]
        assert discriminant(g) == 156
        res_g = leibniz_det(sylvester_matrix(derivative(g), g))
        assert (-1) ** (2 * 1 // 2) * res_g == 156


def test_criterion_10_root_densities():
    with criterion(10, "mod-p root densities: 1/2 and 1/4 profiles, linears always 1"):
        d2 = float(root_density([1, 0, 1], 10_000))
        assert 0.45 <= d2 <= 0.55, d2
        d4 = float(root_density([1, 0, -10, 0, 1], 10_000))
        assert 0.20 <= d4 <= 0.30, d4
        for a in range(-5, 6):
            assert root_density([a, 1], 10_000) == 1
