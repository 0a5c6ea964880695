"""Exact integral Decimal values: conversion, the term and cache guards, negative zero and context isolation."""

import decimal
import json
from decimal import Decimal

import pytest

from doldseq import cli, recurrence
from doldseq.dold import fail_report, mobius_sums, scan
from doldseq.numth import UnsupportedSizeError
from doldseq.recurrence import (
    EXACT,
    SequenceView,
    exact_terms,
    make_recurrence,
    power_terms,
)


def is_exact(value) -> bool:
    """An integral Decimal with exponent 0 and no negative zero."""
    return type(value) is Decimal and value.as_tuple().exponent == 0 and not (value.is_zero() and value.is_signed())


# -- conversion --------------------------------------------------------------


# raw values are those a caller hands in, such as b-file terms; exact_terms converts them


def test_raw_view_converts_ints_and_integral_decimals():
    given = [0, -7, 2**200, True, Decimal("1E+3"), Decimal("-0"), Decimal("5"), Decimal("-12"), Decimal("3.000")]
    values = exact_terms(given)
    assert values == [0, -7, 2**200, 1, 1000, 0, 5, -12, 3]
    assert all(is_exact(v) for v in values)


@pytest.mark.parametrize("value", [Decimal("1.5"), Decimal("NaN"), Decimal("sNaN"), Decimal("-Infinity"), 1.0, "7"])
def test_raw_view_rejects_non_integers(value):
    with pytest.raises((ValueError, TypeError)):
        exact_terms([1, value, 3])


def test_terms_is_a_copy_of_the_prefix():
    spec = make_recurrence([1, 1], [1, 1])
    view = SequenceView(spec)
    first = view.terms(10)
    assert first == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
    first[0] = Decimal(99)
    assert view.terms(3) == [1, 1, 2] and view.terms(0) == []
    with pytest.raises(ValueError):
        view.terms(-1)
    squares = power_terms(view, 2, 4)
    assert squares == [view.term(n * n) for n in range(1, 5)]
    assert squares[3] == 987
    squares[0] = Decimal(99)
    assert power_terms(view, 2, 1) == [1] and view.terms(1) == [1]


# -- the term-bit guard ------------------------------------------------------


@pytest.mark.parametrize("bits", [0, 1, 3, 64, 100, 1000])
@pytest.mark.parametrize("sign", [1, -1])
def test_guard_fires_iff_a_term_passes_the_budget(monkeypatch, bits, sign):
    # U_n = U_(n-1): every generated term is +-2^bits, each of the same storage
    spec = make_recurrence([1], [sign * 2**bits])
    storage = 8 * SequenceView(spec).terms(2)[1].__sizeof__()
    # U_n = 2 U_(n-1) from +-1: term n is +-2^(n-1), over the budget first where its storage passes that of 2^bits
    # (read from generated terms: a Decimal built from an int may take more words than one computed)
    doubling = make_recurrence([2], [sign])
    sizes = [8 * v.__sizeof__() for v in SequenceView(doubling).terms(bits + 300)]
    over = next(n for n, size in enumerate(sizes, start=1) if size > storage)
    assert over > bits + 1
    monkeypatch.setattr(recurrence, "MAX_TERM_BITS", storage)  # each +-2^bits at the budget
    assert SequenceView(spec).terms(4) == [sign * 2**bits] * 4
    assert SequenceView(doubling).terms(over - 1)[-1] == sign * 2 ** (over - 2)
    with pytest.raises(UnsupportedSizeError, match=f"term {over} needs over {storage} bits"):
        SequenceView(doubling).terms(over)
    monkeypatch.setattr(recurrence, "MAX_TERM_BITS", storage - 64)  # each +-2^bits one word over it
    with pytest.raises(UnsupportedSizeError) as info:
        SequenceView(spec).terms(2)
    assert str(info.value) == f"term 2 needs over {storage - 64} bits (per-term budget)"


def test_guard_with_a_negative_budget_fires_on_the_first_generated_term(monkeypatch):
    monkeypatch.setattr(recurrence, "MAX_TERM_BITS", -3)
    view = SequenceView(make_recurrence([1, 1], [0, 0]))
    assert view.terms(2) == [0, 0]
    with pytest.raises(UnsupportedSizeError, match="term 3 needs over -3 bits"):
        view.terms(3)


def test_cache_budget_stops_generation(monkeypatch):
    # each term is charged its storage, 8 * v.__sizeof__() bits; the terms 10^j of
    # U_n = 10^(n-1) with j < 26 all take the size of Decimal(1), so a budget of 25 of
    # those allows 25 terms, not 26
    unit = Decimal(1).__sizeof__()
    budget = 8 * 25 * unit
    monkeypatch.setattr(recurrence, "MAX_CACHE_BITS", budget)
    view = SequenceView(make_recurrence([10], [1]))
    assert view.terms(25)[-1] == 10**24
    with pytest.raises(UnsupportedSizeError) as info:
        view.terms(26)
    assert str(info.value) == f"terms 1 to 26 need over {budget} bits (cache budget)"
    # the guard fires only past the budget: terms 1..26 take more than that
    assert 8 * sum(Decimal(10**j).__sizeof__() for j in range(26)) > budget
    # the kept terms still count when the view is asked again
    with pytest.raises(UnsupportedSizeError, match="terms 1 to 26 "):
        view.terms(40)


def test_cache_budget_counts_one_digit_terms(monkeypatch):
    # a constant sequence never grows a digit, and still meets the budget
    unit = Decimal(1).__sizeof__()
    monkeypatch.setattr(recurrence, "MAX_CACHE_BITS", 8 * 1000 * unit)
    view = SequenceView(make_recurrence([1], [1]))
    assert view.terms(1000) == [1] * 1000
    with pytest.raises(UnsupportedSizeError, match="terms 1 to 1001 "):
        view.terms(1001)


def test_guard_at_the_default_budget():
    assert recurrence.MAX_TERM_BITS == 2**20
    # term n is 2^(65536 (n - 1)); term 17, 2^(2^20), is the first whose storage passes 2^20 bits
    view = SequenceView(make_recurrence([2**65536], [1]))
    assert 8 * view.terms(16)[-1].__sizeof__() <= 2**20
    with pytest.raises(UnsupportedSizeError) as info:
        view.terms(17)
    assert str(info.value) == f"term 17 needs over {2**20} bits (per-term budget)"


# -- negative zero and the caller's decimal context ---------------------------

# coefficients and initial terms that multiply negative coefficients by zero terms
ZERO_PRODUCTS = [([0, -1], [0, 1]), ([-3], [0]), ([-2, -1], [0, 0]), ([2, -5, -1], [0, 3, 0])]


@pytest.mark.parametrize("coeffs,initial", ZERO_PRODUCTS)
def test_no_negative_zero(coeffs, initial):
    view = SequenceView(make_recurrence(coeffs, initial))
    assert all(is_exact(v) for v in view.terms(60))
    assert all(is_exact(s) for s in mobius_sums(view.terms(60)))
    assert all(is_exact(v.mobius_sum) for v in scan(view.terms(60)).violations)


def test_negative_zero_never_prints(run_cli, tmp_path):
    code, out = run_cli(["gen", "--coeffs", "0,-1", "--initial", "0,1", "--horizon", "12"])
    assert code == 0 and '"-0"' not in out
    assert json.loads(out)["terms"] == ["0", "1", "0", "-1"] * 3
    assert cli.dumps_report({"v": Decimal("-0"), "w": [Decimal("-0")]}) == '{\n  "v": "0",\n  "w": [\n    "0"\n  ]\n}'
    path = tmp_path / "b.txt"
    path.write_text("1 -0\n2 -0\n3 -0\n4 5\n")
    code, out = run_cli(["bfile-check", str(path), "--horizon", "4"])
    assert code == 0 and "-0" not in out


def _results():
    spec = make_recurrence([0, -1, 2], [0, 3, -2])
    view = SequenceView(spec)
    raw = exact_terms([0, -1, 0, 5, -4, 0, 7, 0, -9, 1] * 6)
    return (
        scan(view.terms(200)),
        scan(power_terms(SequenceView(spec), 2, 20)),
        fail_report(make_recurrence([12, 3], [2, 25]), horizon=100),
        scan(raw),
        mobius_sums(view.terms(200)),
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
