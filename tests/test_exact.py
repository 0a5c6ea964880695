"""Exact integral Decimal values: conversion, the term-bit guard, negative zero and context isolation."""

import decimal
import random
from decimal import Decimal

import pytest

from doldseq import cli
from doldseq.dold import fail_report, mobius_sums, scan
from doldseq.recurrence import (
    EXACT,
    TermSizeExceeded,
    decimal_bit_length,
    make_recurrence,
    power_subsequence,
    raw_view,
    sequence_view,
)


def is_exact(value) -> bool:
    """An integral Decimal with exponent 0 and no negative zero."""
    return type(value) is Decimal and value.as_tuple().exponent == 0 and not (value.is_zero() and value.is_signed())


# -- conversion --------------------------------------------------------------


def test_raw_view_converts_ints_and_integral_decimals():
    given = [0, -7, 2**200, True, Decimal("1E+3"), Decimal("-0"), Decimal("5"), Decimal("-12"), Decimal("3.000")]
    view = raw_view(given)
    values = view.terms(len(given))
    assert values == [0, -7, 2**200, 1, 1000, 0, 5, -12, 3]
    assert all(is_exact(v) for v in values)
    ints = [view.term(n) for n in range(1, len(given) + 1)]
    assert ints == values and all(type(v) is int for v in ints)


@pytest.mark.parametrize("value", [Decimal("1.5"), Decimal("NaN"), Decimal("sNaN"), Decimal("-Infinity"), 1.0, "7"])
def test_raw_view_rejects_non_integers(value):
    with pytest.raises((ValueError, TypeError)):
        raw_view([1, value, 3])


def test_terms_is_a_copy_of_the_prefix():
    spec = make_recurrence([1, 1], [1, 1])
    view = sequence_view(spec)
    first = view.terms(10)
    assert first == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
    first[0] = Decimal(99)
    assert view.terms(3) == [1, 1, 2] and view.terms(0) == []
    with pytest.raises(ValueError):
        view.terms(-1)
    with pytest.raises(IndexError, match="only 2 terms"):
        raw_view([1, 2]).terms(3)
    square = power_subsequence(view, 2)
    assert square.terms(4) == [view.term(n * n) for n in range(1, 5)]
    assert square.term(4) == 987


def test_decimal_bit_length_matches_int():
    rng = random.Random(4)
    values = [0, 1, -1, 2, 3]
    for k in (1, 2, 3, 10, 63, 64, 65, 100, 1000, 4000):
        values += [2**k - 1, 2**k, 2**k + 1, -(2**k), 10**k, -(10**k) + 1]
    values += [rng.randrange(-(10**300), 10**300) for _ in range(200)]
    for v in values:
        assert decimal_bit_length(Decimal(v)) == v.bit_length(), v


# -- the term-bit guard ------------------------------------------------------


@pytest.mark.parametrize("bits", [0, 1, 3, 64, 100, 1000])
@pytest.mark.parametrize("sign", [1, -1])
def test_guard_fires_iff_a_term_reaches_two_to_the_budget(bits, sign):
    # U_n = U_(n-1): every generated term equals the initial one
    under = sequence_view(make_recurrence([1], [sign * (2**bits - 1)]), max_bits=bits)
    assert under.terms(4) == [sign * (2**bits - 1)] * 4
    at = sequence_view(make_recurrence([1], [sign * 2**bits]), max_bits=bits)
    with pytest.raises(TermSizeExceeded) as info:
        at.terms(2)
    assert str(info.value) == f"term 2 needs {bits + 1} bits (budget {bits})"
    if bits:
        # U_n = 2 U_(n-1) from +-1: term n is +-2^(n-1), over budget first at n = bits + 1
        doubling = sequence_view(make_recurrence([2], [sign]), max_bits=bits)
        assert doubling.terms(bits)[-1] == sign * 2 ** (bits - 1)
        with pytest.raises(TermSizeExceeded, match=f"term {bits + 1} needs {bits + 1} bits"):
            doubling.terms(bits + 1)


def test_guard_with_a_negative_budget_fires_on_the_first_generated_term():
    view = sequence_view(make_recurrence([1, 1], [0, 0]), max_bits=-3)
    assert view.terms(2) == [0, 0]
    with pytest.raises(TermSizeExceeded, match="term 3 needs 0 bits"):
        view.terms(3)


def test_guard_at_the_default_budget():
    # term n is 2^(65536 (n - 1)); term 17 is exactly 2^(2^20), the default budget
    view = sequence_view(make_recurrence([2**65536], [1]))
    assert decimal_bit_length(view.terms(16)[-1]) == 2**20 - 65535
    with pytest.raises(TermSizeExceeded) as info:
        view.terms(17)
    assert str(info.value) == f"term 17 needs {2**20 + 1} bits (budget {2**20})"


# -- negative zero and the caller's decimal context ---------------------------

# coefficients and initial terms that multiply negative coefficients by zero terms
ZERO_PRODUCTS = [([0, -1], [0, 1]), ([-3], [0]), ([-2, -1], [0, 0]), ([2, -5, -1], [0, 3, 0])]


@pytest.mark.parametrize("coeffs,initial", ZERO_PRODUCTS)
def test_no_negative_zero(coeffs, initial):
    view = sequence_view(make_recurrence(coeffs, initial))
    assert all(is_exact(v) for v in view.terms(60))
    assert all(is_exact(s) for s in mobius_sums(view, 60))
    assert all(is_exact(v.mobius_sum) for v in scan(view, 60).violations)


def test_negative_zero_never_prints(run_cli, tmp_path):
    code, out = run_cli(["gen", "--coeffs", "0,-1", "--initial", "0,1", "--horizon", "12"])
    assert code == 0 and '"-0"' not in out
    assert cli.loads_report(out)["terms"] == [0, 1, 0, -1] * 3
    assert cli.dumps_report({"v": Decimal("-0"), "w": [Decimal("-0")]}) == '{\n  "v": "0",\n  "w": [\n    "0"\n  ]\n}'
    path = tmp_path / "b.txt"
    path.write_text("1 -0\n2 -0\n3 -0\n4 5\n")
    code, out = run_cli(["bfile-check", str(path), "--horizon", "4"])
    assert code == 0 and "-0" not in out


def _results():
    spec = make_recurrence([0, -1, 2], [0, 3, -2])
    view = sequence_view(spec)
    raw = raw_view([0, -1, 0, 5, -4, 0, 7, 0, -9, 1] * 6)
    return (
        scan(view, 200),
        scan(power_subsequence(sequence_view(spec), 2), 20),
        fail_report(make_recurrence([12, 3], [2, 25]), horizon=100),
        scan(raw, 60),
        mobius_sums(view, 200),
        [view.term(n) for n in range(1, 201)],
        [str(v) for v in view.terms(200)],
    )


def test_the_callers_context_is_neither_used_nor_changed():
    expected = _results()
    with decimal.localcontext() as caller:
        caller.prec = 5
        caller.rounding = decimal.ROUND_FLOOR
        caller.clear_traps()
        assert str(Decimal(0) + Decimal("-0")) == "-0"  # the rounding under which 0 + -0 is -0
        caller.clear_flags()
        assert _results() == expected
        assert decimal.getcontext() is caller
        assert (caller.prec, caller.rounding) == (5, decimal.ROUND_FLOOR)
        assert not any(caller.traps.values()) and not any(caller.flags.values())
    assert EXACT.prec == decimal.MAX_PREC and not any(EXACT.flags.values())
