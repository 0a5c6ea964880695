"""The library's result records are immutable NamedTuples that keep their methods and defaults."""

from fractions import Fraction

import pytest

from doldseq.cli import BFile, parse_bfile
from doldseq.dold import ClassificationRow, FailReport, PowerBound, classify, fail_report, power_fail_bound
from doldseq.factorint import Factorization, factor_over_Z
from doldseq.polyring import ModPoly
from doldseq.recurrence import RecurrenceSpec, StructureVerdict, analyze, make_recurrence, structure_test

ORDER4 = make_recurrence([0, 10, 0, -1], [1, 0, 9, 0])

RECORDS = {
    BFile: lambda: parse_bfile("1 1\n2 3\n"),
    ModPoly: lambda: ModPoly.make([1, 7], 5),
    Factorization: lambda: factor_over_Z([2, -3, 1]),
    ClassificationRow: lambda: classify(analyze(make_recurrence([3], [1]))),
    FailReport: lambda: fail_report(make_recurrence([3], [1]), horizon=10),
    PowerBound: lambda: power_fail_bound(analyze(ORDER4), 4),
    RecurrenceSpec: lambda: make_recurrence([1, 1], [1, 3]),
    StructureVerdict: lambda: structure_test(analyze(make_recurrence([1, 1], [1, 3]))),
}


@pytest.mark.parametrize("kind", RECORDS, ids=lambda kind: kind.__name__)
def test_record_is_an_immutable_tuple(kind):
    record = RECORDS[kind]()
    assert type(record) is kind
    first = kind._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, first, getattr(record, first))
    with pytest.raises(AttributeError):
        record.extra = 1
    values = tuple(record)
    assert record == values and len(values) == len(kind._fields)
    assert kind(*values) == record


def test_structure_verdict_defaults():
    assert StructureVerdict(almost=False) == (False, (), None)
    verdict = StructureVerdict(True, (((-1, 1), Fraction(1, 2)),))
    assert verdict.refutation_index is None


def test_recurrence_spec_order_and_unpacking():
    spec = make_recurrence([0, 10, 0, -1], [1, 0, 9, 0])
    assert spec.order == 4
    coefficients, initial = spec
    assert coefficients == (0, 10, 0, -1) and initial == (1, 0, 9, 0)


def test_factorization_expand_and_irreducible():
    f = [-2, 1, -2, 1]  # (x - 2)(x^2 + 1)
    split = factor_over_Z(f)
    assert split.expand() == f and not split.is_irreducible()
    assert Factorization((((-2, 1), 2),)).expand() == [4, -4, 1]
    assert not Factorization((((-2, 1), 2),)).is_irreducible()
    assert Factorization((((1, 0, 1), 1),)).is_irreducible()
