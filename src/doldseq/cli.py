"""Command-line front end: ingestion, subcommand dispatch, report emission.

Reports are JSON by default, with every integer rendered as a decimal
string so that arbitrary-precision terms survive any consumer.  Exit
codes: 0 analysis completed (whatever the verdict), 1 input error,
2 resource-guard stop.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from decimal import MAX_EMAX, Decimal
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from . import dold, factorint, recurrence
from .factorint import root_density
from .numth import UnsupportedSizeError
from .polyring import normalize, poly_to_string
from .recurrence import TermSizeExceeded, decimal_bit_length

SCHEMA_VERSION = "1"


class InputError(ValueError):
    pass


@dataclasses.dataclass(frozen=True)
class BFile:
    """Parsed OEIS-style b-file: (index, value) entries, each value an exact integral Decimal."""

    entries: tuple[tuple[int, Decimal], ...]
    offset: int


# The interpreter's int-to-str digit limit (0: none); missing before Python 3.10.7.
_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)
_ZERO = Decimal(0)


def _parse_value(token: str, limit: int) -> Decimal:
    """The integer int(token) denotes, as an exact Decimal; ValueError wherever int() raises one.

    Plain ASCII digits, the bulk of any b-file, go straight to Decimal in
    linear time (bytes.isdigit tests them several times faster than
    str.isdigit).  Anything else (underscores, non-ASCII digits, or more
    than `limit` digits) goes through int() itself, so the same tokens are
    accepted and rejected as by int().
    """
    digits = token[1:] if token[:1] in "+-" else token
    if digits.isascii() and digits.encode().isdigit() and not (limit and len(digits) > limit):
        return Decimal(token) or _ZERO  # "-0" is zero
    return Decimal(int(token))


def parse_bfile(text: str) -> BFile:
    entries: list[tuple[int, Decimal]] = []
    limit = _digit_limit()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise InputError(f"line {lineno}: expected 'index value', got {line!r}")
        try:
            n, value = int(parts[0]), _parse_value(parts[1], limit)
        except ValueError:
            raise InputError(f"line {lineno}: non-integer field in {line!r}") from None
        if entries and n <= entries[-1][0]:
            if any(m == n for m, _ in entries):
                raise InputError(f"line {lineno}: duplicate index {n}")
            raise InputError(f"line {lineno}: indices must be strictly increasing")
        entries.append((n, value))
    if not entries:
        raise InputError("b-file contains no entries")
    return BFile(tuple(entries), entries[0][0])


# -- serialization -----------------------------------------------------------


def _too_long(bits: int, limit: int) -> UnsupportedSizeError:
    return UnsupportedSizeError(f"report holds a {bits}-bit integer, over the {limit}-digit limit for decimal output")


def _int_text(value: int) -> str:
    try:
        return str(value)
    except ValueError:  # over the interpreter's int-to-str digit limit, which is left as set
        raise _too_long(value.bit_length(), _digit_limit()) from None


def _decimal_text(value: Decimal, limit: int) -> str:
    """The digits of an integral Decimal with exponent 0, under the interpreter's int digit limit (0: none)."""
    if limit and value.adjusted() >= limit:
        raise _too_long(decimal_bit_length(value), limit)
    return str(value) if value else "0"  # never "-0"


_INF = float("inf")


def _float_text(value: float) -> str:
    # the spellings json.dumps uses
    if value != value:
        return "NaN"
    if value == _INF:
        return "Infinity"
    if value == -_INF:
        return "-Infinity"
    return float.__repr__(value)


def _record_template(kind: type, member_kinds: tuple[type, ...], nl: str) -> str | None:
    """A %-template writing a record of NamedTuple type kind at indent nl, as an object keyed by its _fields.

    It quotes each member's str(), which is its JSON text only for an int
    or an integral Decimal: None unless member_kinds, the types of the
    record's members, are all int or Decimal.
    """
    if not member_kinds or not all(k is int or k is Decimal for k in member_kinds):
        return None
    inner = nl + "  "
    return "{" + ",".join(f'{inner}{_quote(name)}: "%s"' for name in kind._fields) + nl + "}"


def _write(obj, out: list[str], nl: str) -> None:
    """Append the indent=2 JSON text of obj to out; nl is a newline plus the current indent.

    Ints (not bools) and integral Decimals become decimal strings, a
    Fraction becomes {"numerator", "denominator"}, a NamedTuple becomes an
    object keyed by its _fields, other tuples become lists and dict keys
    go through str().  Int and Decimal members of a dict or list, the bulk
    of a scan report, are written in place rather than through a recursive
    call.  So is a record in a list whose members are all ints and
    Decimals, such as a scan's Dold violation: one %-format on a template
    built once per record type in the list.
    """
    if isinstance(obj, str):
        out.append(_quote(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(f'"{_int_text(obj)}"')
    elif isinstance(obj, Decimal):
        out.append(f'"{_decimal_text(obj, _digit_limit())}"')
    elif isinstance(obj, float):
        out.append(_float_text(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        limit = _digit_limit()
        inner = nl + "  "
        sep = "{" + inner
        for key, value in obj.items():
            kind = type(value)
            if kind is int:
                out.append(f'{sep}{_quote(str(key))}: "{_int_text(value)}"')
            elif kind is Decimal:
                out.append(f'{sep}{_quote(str(key))}: "{_decimal_text(value, limit)}"')
            else:
                out.append(f"{sep}{_quote(str(key))}: ")
                _write(value, out, inner)
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(obj, tuple) and hasattr(obj, "_fields"):
        _write(dict(zip(obj._fields, obj)), out, nl)
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        limit = _digit_limit()
        cap = limit or MAX_EMAX  # a Decimal member with adjusted() >= cap goes the checked way
        inner = nl + "  "
        # the last record type and member types met in this list, their template and Decimal members
        record_type = record_kinds = template = None
        decimal_slots: list[int] = []
        sep = "[" + inner
        for value in obj:
            kind = type(value)
            if kind is int:
                out.append(f'{sep}"{_int_text(value)}"')
            elif kind is Decimal:
                out.append(f'{sep}"{_decimal_text(value, limit)}"')
            elif kind is record_type or (issubclass(kind, tuple) and hasattr(kind, "_fields")):
                kinds = tuple(map(type, value))
                if kind is not record_type or kinds != record_kinds:
                    record_type, record_kinds = kind, kinds
                    template = _record_template(kind, kinds, inner)
                    decimal_slots = [i for i, k in enumerate(kinds) if k is Decimal]
                # a zero Decimal may be -0 and a long one over the limit; an int over it makes % raise
                checked = template is None
                for i in decimal_slots:
                    member = value[i]
                    if not member or member.adjusted() >= cap:
                        checked = True
                if not checked:
                    try:
                        out.append(sep + template % value)
                    except ValueError:
                        checked = True
                if checked:
                    out.append(sep)
                    _write(value, out, inner)
            else:
                out.append(sep)
                _write(value, out, inner)
            sep = "," + inner
        out.append(nl + "]")
    elif isinstance(obj, Fraction):
        _write({"numerator": obj.numerator, "denominator": obj.denominator}, out, nl)
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _maybe_int(value):
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            return value
    return value


# Fields whose values are genuine strings, never encoded integers.
_STRING_FIELDS = frozenset(
    {
        "schema_version",
        "command",
        "verdict",
        "label",
        "row",
        "condition",
        "status",
        "error",
        "factor",
        "poly",
        "convenient",
        "exactness_source",
        "bound_note",
    }
)


def _decode(obj, key=None):
    """Inverse of dumps_report for round-tripping reports: decimal strings become ints."""
    if isinstance(obj, dict):
        return {k: _decode(v, k) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_decode(v, key) for v in obj]
    if key in _STRING_FIELDS:
        return obj
    return _maybe_int(obj)


def dumps_report(doc: dict) -> str:
    """The report as indent=2 JSON text, with every integer as a decimal string, in one pass."""
    out: list[str] = []
    _write(doc, out, "\n")
    return "".join(out)


def loads_report(text: str) -> dict:
    return _decode(json.loads(text))


def _structure_doc(verdict):
    if verdict.almost:
        return {
            "almost": True,
            "coefficients": [
                {"factor": poly_to_string(list(f)), "factor_coeffs": list(f), "value": l}
                for f, l in verdict.coefficients
            ],
        }
    return {"almost": False, "refutation_index": verdict.refutation_index}


def _fail_doc(report: dold.FailReport) -> dict:
    return {
        "verdict": report.verdict,
        "horizon": report.horizon,
        "empirical_lower": report.empirical_lower,
        "fail": "infinity" if report.infinite else (report.exact if report.exact is not None else None),
        "exact": report.exact,
        "upper_bounds": [{"label": label, "value": value} for label, value in report.upper_bounds],
        "violations": report.violations,
        "per_prime": [{"prime": p, "min_exponent": lo, "max_exponent": hi} for p, lo, hi in report.per_prime],
        "structure": _structure_doc(report.structure),
        "classification": {
            "row": report.classification.row_id,
            "condition": report.classification.condition,
            "details": report.classification.details,
        },
    }


# -- argument handling -------------------------------------------------------


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(part.strip()) for part in text.split(",") if part.strip()]
    except ValueError:
        raise InputError(f"expected a comma-separated integer list, got {text!r}") from None


def _spec_ints(doc: dict, key: str) -> list[int]:
    """doc[key] as ints: a JSON list of integers (not booleans) or strings int() reads."""
    values = doc[key]
    if not isinstance(values, list) or not all(type(c) is int or type(c) is str for c in values):
        raise TypeError(f"{key!r} must be a list of integers or integer strings")
    return [int(c) for c in values]


def _load_spec(args) -> recurrence.RecurrenceSpec:
    if args.spec:
        try:
            with open(args.spec) as fh:
                doc = json.load(fh)
            coeffs = _spec_ints(doc, "coeffs")
            initial = _spec_ints(doc, "initial")
        except (OSError, KeyError, ValueError, TypeError) as exc:
            raise InputError(f"malformed recurrence document: {exc}") from None
    else:
        if not args.coeffs or not args.initial:
            raise InputError("provide --coeffs and --initial, or --spec FILE")
        coeffs = _parse_int_list(args.coeffs)
        initial = _parse_int_list(args.initial)
    try:
        return recurrence.make_recurrence(coeffs, initial)
    except ValueError as exc:
        raise InputError(str(exc)) from None


def _view(args, spec) -> recurrence.SequenceView:
    return recurrence.sequence_view(spec, max_bits=args.max_bits)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later call.

    Parsing never mutates it: each parse_args returns a fresh Namespace.
    """
    parser = argparse.ArgumentParser(prog="doldseq", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", default=True, help="machine-readable output (default)")
    common.add_argument("--human", action="store_true", help="line-oriented human output")
    common.add_argument("--horizon", type=int, default=dold.DEFAULT_HORIZON, help="scan horizon N")
    common.add_argument("--max-bits", type=int, default=recurrence.DEFAULT_MAX_BITS, help="per-term bit budget")
    common.add_argument("--prime-bound", type=int, default=1000, help="prime search bound X")
    common.add_argument("--seed", type=int, default=None, help="factorization determinism override")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    def with_spec(p):
        p.add_argument("--coeffs", help="recursion coefficients r1,...,rd")
        p.add_argument("--initial", help="initial terms U1,...,Ud")
        p.add_argument("--spec", help="JSON recurrence document {\"coeffs\": [...], \"initial\": [...]}")
        return p

    with_spec(add_parser("gen", help="generate exact terms"))
    with_spec(add_parser("check", help="Dold and sign condition scan"))
    with_spec(add_parser("fail", help="full fail-factor report"))
    with_spec(add_parser("classify", help="case-table classification"))
    power = with_spec(add_parser("power", help="analysis of the subsequence at indices n**t"))
    power.add_argument("--t", type=int, required=True)
    family = add_parser("family", help="order-2 family with square discriminant delta**2")
    family.add_argument("--delta", type=int, required=True)
    with_spec(add_parser("witness", help="irreducibility-witness (convenient) check"))
    density = add_parser("density", help="mod-p root density diagnostic")
    density.add_argument("--poly", required=True, help="monic polynomial coefficients c0,c1,...,1 ascending")
    bfile = add_parser("bfile-check", help="Dold and sign scan of an OEIS-style b-file")
    bfile.add_argument("file")
    return parser


# -- subcommand bodies -------------------------------------------------------


def _echo(spec) -> dict:
    return {"coeffs": list(spec.coefficients), "initial": list(spec.initial)}


def _cmd_gen(args) -> dict:
    spec = _load_spec(args)
    view = _view(args, spec)
    return {"input": _echo(spec), "terms": view.terms(args.horizon)}


def _cmd_check(args) -> dict:
    spec = _load_spec(args)
    result = dold.scan(_view(args, spec), args.horizon)
    return {
        "input": _echo(spec),
        "horizon": args.horizon,
        "dold_violations": result.violations,
        "sign_violations": result.sign_violations,
    }


def _cmd_fail(args) -> dict:
    spec = _load_spec(args)
    report = dold.fail_report(spec, horizon=args.horizon, max_bits=args.max_bits, prime_bound=args.prime_bound)
    return {"input": _echo(spec), **_fail_doc(report)}


def _cmd_classify(args) -> dict:
    spec = _load_spec(args)
    row = dold.classify(recurrence.analyze(spec), prime_bound=args.prime_bound)
    return {"input": _echo(spec), "row": row.row_id, "condition": row.condition, "details": row.details}


def _cmd_power(args) -> dict:
    if args.t < 1:
        raise InputError(f"--t must be at least 1, got {args.t}")
    spec = _load_spec(args)
    analysis = recurrence.analyze(spec)
    sub_view = recurrence.power_subsequence(_view(args, spec), args.t)
    verdict = recurrence.structure_test(analysis)
    result = dold.scan(sub_view, args.horizon)
    lower = result.empirical_lower
    doc: dict = {
        "input": _echo(spec),
        "t": args.t,
        "horizon": args.horizon,
        "row": "power-subsequence",
        "base_structure": _structure_doc(verdict),
        "dold_violations": result.violations,
        "empirical_lower": lower,
    }
    try:
        bound = dold.power_fail_bound(analysis, args.t)
    except ValueError as exc:
        doc["bound"] = None
        doc["bound_note"] = str(exc)
        return doc
    if bound is None:
        doc["bound"] = None
        doc["bound_note"] = "exponent is not a multiple of the splitting-field degree"
        return doc
    doc["bound"] = {
        "value": bound.bound,
        "radical": bound.radical,
        "degree_multiple": bound.degree_multiple,
        "heuristic": bound.heuristic,
    }
    if not bound.heuristic and lower == bound.bound:
        doc["fail"] = lower
        doc["exactness_source"] = "empirical lower bound meets the proven power-subsequence bound"
    else:
        doc["fail"] = None
    return doc


def _cmd_family(args) -> dict:
    try:
        spec = recurrence.square_disc_family(args.delta)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    report = dold.fail_report(spec, horizon=args.horizon, max_bits=args.max_bits)
    return {
        "delta": args.delta,
        "coeffs": list(spec.coefficients),
        "initial": list(spec.initial),
        "report": _fail_doc(report),
    }


def _cmd_witness(args) -> dict:
    spec = _load_spec(args)
    status, payload = recurrence.convenient_check(recurrence.analyze(spec), args.prime_bound)
    doc = {"input": _echo(spec), "status": status}
    if status == "certified":
        doc["witness"] = payload
    elif status == "no-witness":
        doc["searched_up_to"] = payload
    return doc


def _cmd_density(args) -> dict:
    coeffs = _parse_int_list(args.poly)
    poly = normalize(coeffs)
    if not poly or poly[-1] != 1:
        raise InputError("--poly must be monic (last coefficient 1)")
    if args.prime_bound < 100:
        raise InputError(f"--prime-bound must be at least 100 for density, got {args.prime_bound}")
    density = root_density(poly, args.prime_bound)
    return {
        "poly": poly_to_string(poly),
        "prime_bound": args.prime_bound,
        "density": density,
        "value": float(density),
    }


def _cmd_bfile(args) -> dict:
    try:
        with open(args.file) as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(str(exc)) from None
    bfile = parse_bfile(text)
    warnings = []
    if bfile.offset != 1:
        warnings.append(
            f"b-file offset is {bfile.offset}; terms re-based to start at index 1 "
            "(the Dold condition is index-sensitive)"
        )
    terms = []
    expected = bfile.offset
    for n, value in bfile.entries:
        if n != expected:
            warnings.append(f"non-contiguous at index {n}; analysis limited to the first {len(terms)} terms")
            break
        terms.append(value)
        expected += 1
    horizon = min(args.horizon, len(terms))
    result = dold.scan(recurrence.raw_view(terms, max_bits=args.max_bits), horizon)
    return {
        "entries": len(bfile.entries),
        "contiguous": len(terms) == len(bfile.entries),
        "offset": bfile.offset,
        "warnings": warnings,
        "horizon": horizon,
        "verdict": "unknown",  # a bare sequence carries no structure to decide from
        "empirical_lower": result.empirical_lower,
        "dold_violations": result.violations,
        "sign_violations": result.sign_violations,
    }


_COMMANDS = {
    "gen": _cmd_gen,
    "check": _cmd_check,
    "fail": _cmd_fail,
    "classify": _cmd_classify,
    "power": _cmd_power,
    "family": _cmd_family,
    "witness": _cmd_witness,
    "density": _cmd_density,
    "bfile-check": _cmd_bfile,
}


def _human_text(value, nested: bool = False) -> str:
    """One value of a decoded JSON report as plain text: JSON spellings for true, false and null.

    A dict is its `key: value` pairs and a list its members, comma-separated;
    nested inside another value they are wrapped in {} and [].
    """
    if isinstance(value, dict):
        text = ", ".join(f"{key}: {_human_text(v, True)}" for key, v in value.items())
        return "{" + text + "}" if nested else text
    if isinstance(value, list):
        text = ", ".join(_human_text(v, True) for v in value)
        return "[" + text + "]" if nested else text
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _humanize(doc: dict, indent: int = 0) -> str:
    """A decoded JSON report as `key: value` lines; a dict, or a list holding dicts or lists, spans lines."""
    lines = []
    pad = "  " * indent
    for key, value in doc.items():
        if isinstance(value, dict) and value:
            lines.append(f"{pad}{key}:")
            lines.append(_humanize(value, indent + 1))
        elif isinstance(value, list) and any(isinstance(v, (dict, list)) for v in value):
            lines.append(f"{pad}{key}:")
            lines.extend(f"{pad}  - {_human_text(v)}" for v in value)
        else:
            text = _human_text(value)
            lines.append(f"{pad}{key}: {text}" if text else f"{pad}{key}:")
    return "\n".join(lines)


def run_command(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    saved_seed = factorint.DEFAULT_SEED
    if args.seed is not None:
        factorint.DEFAULT_SEED = args.seed
    try:
        if args.horizon < 1:
            raise InputError(f"--horizon must be at least 1, got {args.horizon}")
        if args.prime_bound < 2 and args.command in ("fail", "classify", "witness"):
            raise InputError(f"--prime-bound must be at least 2, got {args.prime_bound}")
        doc = {"schema_version": SCHEMA_VERSION, "command": args.command, **_COMMANDS[args.command](args)}
        text = dumps_report(doc)
        if args.human:
            text = _humanize(json.loads(text))
    except InputError as exc:
        print(dumps_report({"schema_version": SCHEMA_VERSION, "command": args.command, "error": str(exc)}))
        return 1
    except (TermSizeExceeded, UnsupportedSizeError) as exc:
        print(
            dumps_report(
                {"schema_version": SCHEMA_VERSION, "command": args.command, "error": str(exc), "guard": True}
            )
        )
        return 2
    finally:
        factorint.DEFAULT_SEED = saved_seed
    print(text)
    return 0


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
