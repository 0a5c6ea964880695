"""The one-pass report writer against json.dumps of the two-pass encoding it replaced."""

import json
import random
import sys
from decimal import Decimal
from fractions import Fraction
from typing import NamedTuple

import pytest

from doldseq.cli import dumps_report
from doldseq.dold import DoldViolation
from doldseq.numth import UnsupportedSizeError


def reference(obj):
    """The former two-pass encoder's first pass, kept as the oracle: ints become decimal strings."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, (str, float)):
        return obj
    if isinstance(obj, int):
        try:
            return str(obj)
        except ValueError:
            limit = sys.get_int_max_str_digits()
            message = f"report holds an integer over the {limit}-digit limit for decimal output"
            raise UnsupportedSizeError(message) from None
    if isinstance(obj, Decimal):
        return str(int(obj))
    if isinstance(obj, dict):
        return {str(k): reference(v) for k, v in obj.items()}
    if isinstance(obj, tuple) and hasattr(obj, "_asdict"):
        return reference(obj._asdict())
    if isinstance(obj, (list, tuple)):
        return [reference(v) for v in obj]
    if isinstance(obj, Fraction):
        return {"numerator": str(obj.numerator), "denominator": str(obj.denominator)}
    return obj


STRINGS = [
    "",
    "plain",
    'say "hi"',
    "back\\slash",
    "tab\tnew\nline\rret",
    "\x00\x01\x1f\x7f",
    "/slash",
    "café",
    "Möbius μ(n)",
    "日本語",
    "emoji \U0001f600",
    "lone \ud800 surrogate",
]
FLOATS = [0.0, -0.0, 1.5, -2.25, 1e300, 1e-300, 0.1, float("nan"), float("inf"), float("-inf")]


def random_int(rng):
    bits = rng.choice([0, 1, 8, 64, 200, 3000])
    return rng.choice([1, -1]) * rng.getrandbits(bits) if bits else 0


def random_key(rng):
    return rng.choice([rng.choice(STRINGS), random_int(rng), True, False, None, 2.5])


class Pair(NamedTuple):
    first: object
    second: object


class Empty(NamedTuple):
    pass


def random_record(rng, depth, kind):
    if kind == "violation":
        return DoldViolation(random_int(rng), random_decimal(rng), random_int(rng))
    if kind == "pair":
        return Pair(random_doc(rng, depth), random_doc(rng, depth))
    return Empty()


RECORD_KINDS = ["violation", "pair", "empty"]


def random_records(rng, depth):
    """A list of records: empty, one, many of one type, or mixed with other records and plain tuples."""
    count = rng.choice([0, 1, rng.randrange(2, 12)])
    if rng.random() < 0.5:
        kind = rng.choice(RECORD_KINDS)
        return [random_record(rng, depth, kind) for _ in range(count)]
    records = [random_record(rng, depth, rng.choice(RECORD_KINDS)) for _ in range(count)]
    return [tuple(r) if rng.random() < 0.3 else r for r in records]


def random_decimal(rng):
    return Decimal(random_int(rng)) if rng.random() < 0.8 else Decimal("-0")


def random_doc(rng, depth):
    kinds = ["int", "decimal", "str", "const", "float", "fraction"]
    if depth > 0:
        kinds += ["dict", "list", "tuple", "empty", "record", "records"]
    kind = rng.choice(kinds)
    if kind == "int":
        return random_int(rng)
    if kind == "decimal":
        return random_decimal(rng)
    if kind == "record":
        return random_record(rng, depth - 1, rng.choice(RECORD_KINDS))
    if kind == "records":
        return random_records(rng, depth - 1)
    if kind == "str":
        return rng.choice(STRINGS) + chr(rng.randrange(0x20, 0x3000))
    if kind == "const":
        return rng.choice([True, False, None])
    if kind == "float":
        return rng.choice(FLOATS + [rng.uniform(-1e6, 1e6)])
    if kind == "fraction":
        return Fraction(random_int(rng), rng.randrange(1, 10**30))
    if kind == "empty":
        return rng.choice([{}, [], ()])
    items = [random_doc(rng, depth - 1) for _ in range(rng.randrange(1, 5))]
    if kind == "dict":
        return {random_key(rng): v for v in items}
    return items if kind == "list" else tuple(items)


def test_writer_matches_the_two_pass_encoding():
    rng = random.Random(2024)
    for _ in range(400):
        doc = {"schema_version": "1", "body": random_doc(rng, 4)}
        assert dumps_report(doc) == json.dumps(reference(doc), indent=2)


def test_writer_on_scalars_and_empty_containers():
    scalars = [0, -7, 10**40, True, False, None, "x", 1.25, Fraction(-3, 4), {}, [], (), {"a": {}}, [[], ()]]
    records = [Empty(), [Empty()], Pair(1, Empty()), [DoldViolation(3, Decimal("-0"), 3)], DoldViolation(1, Decimal(5), 1)]
    for doc in scalars + records:
        assert dumps_report(doc) == json.dumps(reference(doc), indent=2)


@pytest.mark.parametrize("value", [object(), {1, 2}, b"bytes", 1j])
def test_writer_rejects_unknown_types(value):
    with pytest.raises(TypeError):
        json.dumps(reference({"x": value}), indent=2)
    with pytest.raises(TypeError):
        dumps_report({"x": [value]})


DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not 0 < DIGIT_LIMIT <= 4300, reason="needs the interpreter's default int-to-str digit limit")
def test_writer_turns_an_over_limit_int_into_a_guard_error():
    big = 10**5000
    long = Decimal("9" * (DIGIT_LIMIT + 1))
    for doc in [
        {"a": big},
        {"a": [1, {"b": -big}]},
        [big],
        {"x": Fraction(big, 7)},
        {"x": Fraction(1, big)},
        {"a": long},
        {"v": [DoldViolation(1, Decimal(0), 1), DoldViolation(2, -long, 2)]},
        {"v": DoldViolation(2, long, 2)},
        [Pair(1, 2), Pair(-big, 2)],
        [Pair(1, Pair(big, 2))],
    ]:
        with pytest.raises(UnsupportedSizeError, match=f"over the {DIGIT_LIMIT}-digit limit"):
            dumps_report(doc)
