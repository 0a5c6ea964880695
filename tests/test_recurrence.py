"""Recurrence views, trace sequences, and the structure test."""

import random
from decimal import Decimal
from fractions import Fraction

import pytest

from doldseq import recurrence
from doldseq.factorint import factor_over_Z, irreducibility_witness
from doldseq.numth import UnsupportedSizeError
from doldseq.polyring import mul, normalize, power_sums
from doldseq.dold import mobius_sums
from doldseq.recurrence import (
    analyze,
    SequenceView,
    char_poly,
    convenient_check,
    exact_terms,
    make_recurrence,
    power_terms,
    square_disc_family,
    structure_test,
    trace_sequence,
)


def random_irreducible(rng, deg, bound=5):
    while True:
        f = [rng.randrange(-bound, bound + 1) for _ in range(deg)] + [1]
        if f[0] != 0 and factor_over_Z(normalize(f)).is_irreducible():
            return normalize(f)


# -- construction ------------------------------------------------------------


def test_make_recurrence_validation():
    with pytest.raises(ValueError):
        make_recurrence([1, 2], [1])
    with pytest.raises(ValueError):
        make_recurrence([], [])
    with pytest.raises(ValueError):
        make_recurrence([1, 0], [1, 2])


def test_char_poly_examples(example_seq, order4_seq):
    assert char_poly(example_seq) == [-3, -12, 1]
    assert char_poly(order4_seq) == [1, 0, -10, 0, 1]
    assert char_poly(make_recurrence([8, -7], [6, 41])) == [7, -8, 1]


def test_analyze_refuses_the_envelope_before_the_discriminant(monkeypatch):
    def discriminant(f):
        raise AssertionError("discriminant ran for a spec outside the envelope")

    monkeypatch.setattr(recurrence, "discriminant", discriminant)
    with pytest.raises(UnsupportedSizeError, match="^degree 13 exceeds supported envelope 12$"):
        analyze(make_recurrence([1] * 13, [1] * 13))
    with pytest.raises(UnsupportedSizeError, match="^coefficient magnitude exceeds supported envelope 1000000$"):
        analyze(make_recurrence([1, -(10**6 + 1)], [1, 1]))
    # the degree is refused first, as factor_over_Z refused it
    with pytest.raises(UnsupportedSizeError, match="^degree 13 "):
        analyze(make_recurrence([10**7] * 13, [1] * 13))
    # at the envelope's edges the discriminant runs
    with pytest.raises(AssertionError):
        analyze(make_recurrence([10**6] * 12, [1] * 12))


def test_term_examples(example_seq, fibonacci, order4_seq):
    assert SequenceView(example_seq).term(3) == 306
    assert SequenceView(fibonacci).term(10) == 55
    assert SequenceView(order4_seq).term(6) == 485


def test_term_guard(monkeypatch):
    # a budget of one Decimal(1): term n = 10^(n-1) fits its inline words up to 76 digits
    monkeypatch.setattr(recurrence, "MAX_TERM_BITS", 8 * Decimal(1).__sizeof__())
    view = SequenceView(make_recurrence([10], [1]))
    assert view.term(76) == 10**75
    with pytest.raises(UnsupportedSizeError, match="term 77 needs over "):
        view.term(100)
    with pytest.raises(ValueError):
        view.term(0)


def test_raw_view_bounds():
    # given terms bound their own scan: the horizon is the length of the list
    terms = exact_terms([5, 6, 7])
    assert terms[1] == 6
    assert mobius_sums(terms) == [5, 1, 2]
    assert mobius_sums(terms[:2]) == [5, 1]


# -- trace sequences ---------------------------------------------------------


def test_trace_sequence_examples():
    lucas = trace_sequence([-1, -1, 1])
    assert [lucas.term(n) for n in range(1, 6)] == [1, 3, 4, 7, 11]
    const = trace_sequence([-1, 1])
    assert [const.term(n) for n in range(1, 5)] == [1, 1, 1, 1]
    ex = trace_sequence([-3, -12, 1])
    assert [ex.term(n) for n in range(1, 4)] == [12, 150, 1836]
    assert ex.term(3) == 6 * 306


# -- structure test ----------------------------------------------------------


def test_structure_test_examples(fibonacci, example_seq, order4_variant):
    fib = structure_test(analyze(fibonacci))
    assert not fib.almost and fib.refutation_index == 2
    ex = structure_test(analyze(example_seq))
    assert ex.almost
    assert ex.coefficients == (((-3, -12, 1), Fraction(1, 6)),)
    assert not structure_test(analyze(order4_variant)).almost
    # U_n = n * 2^n: repeated root, degree-1 polynomial coefficient
    assert not structure_test(analyze(make_recurrence([4, -4], [2, 8]))).almost


def test_structure_soundness_to_200(example_seq, order4_seq):
    for spec in (example_seq, order4_seq, square_disc_family(6)):
        verdict = structure_test(analyze(spec))
        assert verdict.almost
        view = SequenceView(spec)
        traces = [(trace_sequence(list(f)), l) for f, l in verdict.coefficients]
        for n in range(1, 201):
            assert Fraction(view.term(n)) == sum(l * t.term(n) for t, l in traces)


def test_trace_sequences_feed_back_with_coefficient_one():
    rng = random.Random(83)
    for _ in range(10):
        f = random_irreducible(rng, rng.randrange(1, 5))
        verdict = structure_test(analyze(trace_sequence(f).spec))
        assert verdict.almost
        assert verdict.coefficients == ((tuple(f), Fraction(1)),)


def test_certified_convenient_implies_single_factor(fibonacci):
    rng = random.Random(89)
    specs = [fibonacci]
    for _ in range(10):
        f = random_irreducible(rng, rng.randrange(2, 5))
        specs.append(trace_sequence(f).spec)
    for spec in specs:
        status, _ = convenient_check(analyze(spec), 300)
        if status != "certified":
            continue
        verdict = structure_test(analyze(spec))
        if verdict.almost:
            assert len(verdict.coefficients) == 1


def referee_rank(rows):
    """Rank over Q of a list of Fraction rows, by plain Gaussian elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def spec_of(f, initial):
    d = len(f) - 1
    return make_recurrence([-f[d - i] for i in range(1, d + 1)], initial)


def structure_pool():
    """Seeded specs of order 1..6: random, repeated-factor products, and combinations of trace sequences."""
    rng = random.Random(131)
    pool = []
    for _ in range(40):
        d = rng.randrange(1, 7)
        coeffs = [rng.randrange(-5, 6) for _ in range(d - 1)] + [rng.choice([-3, -2, -1, 1, 2, 3])]
        pool.append(make_recurrence(coeffs, [rng.randrange(-9, 10) for _ in range(d)]))
    while len(pool) < 120:
        f = [1]
        gens = []
        while len(f) < 5:
            g = random_irreducible(rng, rng.randrange(1, 3), bound=3)
            if g in gens:
                continue
            gens.append(g)
            for _ in range(rng.randrange(1, 3)):
                f = mul(f, g)
        if len(f) - 1 > 6:
            continue
        d = len(f) - 1
        if len(pool) < 80:
            # a repeated factor with random initial terms
            pool.append(spec_of(f, [rng.randrange(-9, 10) for _ in range(d)]))
            continue
        # sum l_i V^(i) with rational l_i, kept when its first d terms are integers
        traces = [power_sums(g, d) for g in gens]
        den = rng.choice([1, 2, 3, 4])
        weights = [Fraction(rng.randrange(-6, 7), den) for _ in gens]
        initial = [sum(l * t[n] for l, t in zip(weights, traces)) for n in range(d)]
        if all(u.denominator == 1 for u in initial):
            pool.append(spec_of(f, [int(u) for u in initial]))
    return pool


def test_structure_test_matches_rank_referee():
    refutations = set()
    almost = 0
    for spec in structure_pool():
        analysis = analyze(spec)
        gens = [list(g) for g, _ in analysis.factorization.factors]
        d = spec.order
        traces = [power_sums(g, 2 * d) for g in gens]
        P = [[Fraction(t[n]) for t in traces] for n in range(d)]
        PU = [row + [Fraction(u)] for row, u in zip(P, spec.initial)]
        expected = next((n for n in range(1, d + 1) if referee_rank(PU[:n]) > referee_rank(P[:n])), None)
        verdict = structure_test(analysis)
        assert verdict.refutation_index == expected, spec
        assert verdict.almost == (expected is None), spec
        if verdict.almost:
            almost += 1
            assert [list(g) for g, _ in verdict.coefficients] == gens
            terms = SequenceView(spec).terms(2 * d)
            for n in range(2 * d):
                assert sum(l * t[n] for (_, l), t in zip(verdict.coefficients, traces)) == int(terms[n]), spec
        else:
            refutations.add(expected)
    # the pool reaches both verdicts and refutes at several indices
    assert almost >= 40 and len(refutations) >= 3


def test_convenient_check_examples(fibonacci, order4_seq):
    assert convenient_check(analyze(fibonacci), 100) == ("certified", 2)
    assert convenient_check(analyze(order4_seq), 1000) == ("no-witness", 1000)
    assert convenient_check(analyze(make_recurrence([3], [1])), 100) == ("certified", 2)
    # repeated factor: (x - 2)^2 can never be irreducible mod an unramified p
    assert convenient_check(analyze(make_recurrence([4, -4], [2, 8])), 100) == ("not-convenient", None)


def test_reducible_shortcut_agrees_with_witness_search():
    # a reducible squarefree polynomial is reported without a search;
    # the full search over the same primes is the reference
    rng = random.Random(97)
    checked = 0
    while checked < 20:
        f = [1]
        for _ in range(rng.randrange(2, 4)):
            f = mul(f, random_irreducible(rng, rng.randrange(1, 4)))
        spec = make_recurrence([-c for c in reversed(f[:-1])], [1] * (len(f) - 1))
        analysis = analyze(spec)
        assert analysis.cpoly == f
        if analysis.disc == 0:
            continue
        assert convenient_check(analysis, 200) == ("no-witness", 200)
        assert irreducibility_witness(f, 200) is None
        checked += 1


# -- power subsequences and the square-discriminant family -------------------


def test_power_subsequence_examples(fibonacci, order4_variant):
    fib = SequenceView(fibonacci)
    assert power_terms(fib, 2, 3)[2] == fib.term(9) == 34
    assert power_terms(fib, 1, 5) == fib.terms(5)
    base = SequenceView(order4_variant)
    assert power_terms(base, 4, 2)[1] == base.term(16)
    assert power_terms(base, 3, 0) == []
    with pytest.raises(ValueError):
        power_terms(fib, 0, 3)


def test_square_disc_family_examples():
    f6 = square_disc_family(6)
    assert f6.coefficients == (8, -7) and f6.initial == (6, 41)
    f1 = square_disc_family(1)
    assert f1.coefficients == (3, -2) and f1.initial == (1, 1)
    assert all(SequenceView(f1).term(n) == 1 for n in range(1, 11))
    f2 = square_disc_family(2)
    assert f2.coefficients == (4, -3) and f2.initial == (2, 5)
    with pytest.raises(ValueError):
        square_disc_family(0)


def test_square_disc_family_closed_form():
    for delta in range(1, 31):
        view = SequenceView(square_disc_family(delta))
        for n in range(1, 31):
            expected = Fraction(1, delta) + Fraction(delta - 1, delta) * (delta + 1) ** n
            assert view.term(n) == expected


def test_recurrence_fidelity(example_seq, fibonacci, order4_seq):
    rng = random.Random(97)
    specs = [example_seq, fibonacci, order4_seq, square_disc_family(5)]
    for _ in range(5):
        d = rng.randrange(1, 4)
        coeffs = [rng.randrange(-3, 4) for _ in range(d - 1)] + [rng.choice([-2, -1, 1, 2])]
        initial = [rng.randrange(-5, 6) for _ in range(d)]
        specs.append(make_recurrence(coeffs, initial))
    for spec in specs:
        view = SequenceView(spec)
        d = spec.order
        for n in range(d + 1, 201):
            assert view.term(n) == sum(c * view.term(n - i - 1) for i, c in enumerate(spec.coefficients))
