"""Command-line front end: ingestion, subcommand dispatch, report emission.

Reports are JSON by default, with every integer rendered as a decimal
string so that arbitrary-precision terms survive any consumer.  Exit
codes: 0 analysis completed (whatever the verdict), 1 input error
(InputError), 2 resource-guard stop (numth.UnsupportedSizeError, the one
guard type, which is not a ValueError, so no input-error handler catches it).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from decimal import MAX_EMAX, Decimal
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from typing import NamedTuple

from . import dold, recurrence
from .factorint import root_density
from .numth import UnsupportedSizeError
from .polyring import normalize, poly_to_string

SCHEMA_VERSION = "1"


class InputError(ValueError):
    pass


class BFile(NamedTuple):
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
    str.isdigit), and anything else through int() itself.  A token of
    int()'s digits, Unicode decimal digits with single underscores between
    them, of more than `limit` digits raises UnsupportedSizeError, the
    guard stop, as such an integer could not be written back.
    """
    digits = token[1:] if token[:1] in "+-" else token
    plain = digits.isascii() and digits.encode().isdigit()
    count = len(digits) - digits.count("_") if plain or all(map(str.isdecimal, digits.split("_"))) else 0
    if limit and count > limit:
        raise UnsupportedSizeError(f"a {count}-digit value, over the {limit}-digit limit for decimal input")
    if plain:
        return Decimal(token) or _ZERO  # "-0" is zero
    return Decimal(int(token))


def _parse_int(token: str) -> int:
    """int(token), for an integer given outside a b-file; a token longer than the digit limit goes to _parse_value."""
    limit = _digit_limit()
    if not limit or len(token) <= limit:
        return int(token)  # too short to pass the limit
    return int(_parse_value(token.strip(), limit))  # int() allows surrounding spaces


def _excerpt(line: str) -> str:
    """The line quoted, cut to its first 40 characters, so that an error message stays short."""
    return repr(line) if len(line) <= 40 else repr(line[:40]) + "..."


def parse_bfile(text: str) -> BFile:
    entries: list[tuple[int, Decimal]] = []
    limit = _digit_limit()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise InputError(f"line {lineno}: expected 'index value', got {_excerpt(line)}")
        try:
            n, value = int(parts[0]), _parse_value(parts[1], limit)
        except UnsupportedSizeError as exc:
            raise UnsupportedSizeError(f"line {lineno}: {exc}") from None
        except ValueError:
            raise InputError(f"line {lineno}: non-integer field in {_excerpt(line)}") from None
        if entries and n <= entries[-1][0]:
            if any(m == n for m, _ in entries):
                raise InputError(f"line {lineno}: duplicate index in {_excerpt(line)}")
            raise InputError(f"line {lineno}: indices must be strictly increasing")
        entries.append((n, value))
    if not entries:
        raise InputError("b-file contains no entries")
    return BFile(tuple(entries), entries[0][0])


# -- serialization -----------------------------------------------------------


def _too_long(limit: int) -> UnsupportedSizeError:
    return UnsupportedSizeError(f"report holds an integer over the {limit}-digit limit for decimal output")


def _int_text(value: int) -> str:
    try:
        return str(value)
    except ValueError:  # over the interpreter's int-to-str digit limit, which is left as set
        raise _too_long(_digit_limit()) from None


def _decimal_text(value: Decimal, limit: int) -> str:
    """The digits of an integral Decimal with exponent 0, under the interpreter's int digit limit (0: none)."""
    if limit and value.adjusted() >= limit:
        raise _too_long(limit)
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
    go through str().  Int and Decimal members of a list, the bulk of a
    scan report, are written in place rather than through a recursive
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
        inner = nl + "  "
        sep = "{" + inner
        for key, value in obj.items():
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


def dumps_report(doc: dict) -> str:
    """The report as indent=2 JSON text, with every integer as a decimal string, in one pass."""
    out: list[str] = []
    _write(doc, out, "\n")
    return "".join(out)


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
        "fail": "infinity" if report.infinite else report.exact,
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
        return [_parse_int(part) for part in text.split(",")]  # int() strips spaces and refuses an empty field
    except ValueError:
        raise InputError(f"expected a comma-separated integer list, got {_excerpt(text)}") from None


_SPEC_SHAPE = "the document must be a JSON object with 'coeffs' and 'initial' lists"


def _spec_ints(doc: object, key: str) -> list[int]:
    """doc[key] as ints: a JSON list of integers (not booleans) or strings _parse_int reads."""
    if not isinstance(doc, dict):
        raise TypeError(_SPEC_SHAPE)
    if key not in doc:
        raise TypeError(f"{_SPEC_SHAPE}; {key!r} is missing")
    values = doc[key]
    if not isinstance(values, list) or not all(type(c) is int or type(c) is str for c in values):
        raise TypeError(f"{key!r} must be a list of integers or integer strings")
    try:
        return [c if type(c) is int else _parse_int(member := c) for c in values]  # member names the string read last
    except ValueError:
        raise ValueError(f"{key!r} holds a non-integer string {_excerpt(member)}") from None


def _load_spec(args) -> recurrence.RecurrenceSpec:
    if args.spec:
        try:
            with open(args.spec) as fh:
                doc = json.load(fh, parse_int=_parse_int)
            coeffs = _spec_ints(doc, "coeffs")
            initial = _spec_ints(doc, "initial")
        except (OSError, ValueError, TypeError) as exc:
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


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand's parser: an argument error raises InputError, reported as that subcommand's JSON error."""

    def error(self, message):
        raise InputError(message)


def _int_flag(text: str) -> int:
    """An int-valued flag's value, read by _parse_int; a non-integer is argparse's error, quoting 40 characters."""
    try:
        return _parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_excerpt(text)}") from None


_FLAGS = {
    "--horizon": {"type": _int_flag, "default": dold.DEFAULT_HORIZON, "help": "scan horizon N"},
    "--prime-bound": {"type": _int_flag, "default": dold.DEFAULT_PRIME_BOUND, "help": "prime search bound X"},
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later call.

    Parsing never mutates it.  Each subcommand declares only the flags it reads.
    """
    parser = argparse.ArgumentParser(prog="doldseq", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_SubcommandParser)

    def add_parser(name, help, *flags, spec=True):
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        if spec:
            p.add_argument("--coeffs", help="recursion coefficients r1,...,rd")
            p.add_argument("--initial", help="initial terms U1,...,Ud")
            p.add_argument("--spec", help="JSON recurrence document {\"coeffs\": [...], \"initial\": [...]}")
        p.add_argument("--human", action="store_true", help="line-oriented human output")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        return p

    add_parser("gen", "generate exact terms", "--horizon")
    add_parser("check", "Dold and sign condition scan", "--horizon")
    add_parser("fail", "full fail-factor report", "--horizon", "--prime-bound")
    add_parser("classify", "case-table classification", "--prime-bound")
    power = add_parser("power", "analysis of the subsequence at indices n**t", "--horizon")
    power.add_argument("--t", type=_int_flag, required=True)
    family = add_parser("family", "order-2 family with square discriminant delta**2", "--horizon", spec=False)
    family.add_argument("--delta", type=_int_flag, required=True)
    add_parser("witness", "irreducibility-witness (convenient) check", "--prime-bound")
    density = add_parser("density", "mod-p root density diagnostic", "--prime-bound", spec=False)
    density.add_argument("--poly", required=True, help="monic polynomial coefficients c0,c1,...,1 ascending")
    bfile = add_parser("bfile-check", "Dold and sign scan of an OEIS-style b-file", "--horizon", spec=False)
    bfile.add_argument("file")
    return parser


def _at_least(flag: str, value: int, least: int, note: str = "") -> int:
    """value, once checked to be at least `least`; an InputError names the flag otherwise."""
    if value < least:
        raise InputError(f"{flag} must be at least {least}{note}, got {value}")
    return value


# -- subcommand bodies -------------------------------------------------------


def _echo(spec) -> dict:
    return {"coeffs": list(spec.coefficients), "initial": list(spec.initial)}


def _cmd_gen(args) -> dict:
    horizon = _at_least("--horizon", args.horizon, 1)
    spec = _load_spec(args)
    view = recurrence.SequenceView(spec)
    return {"input": _echo(spec), "terms": view.terms(horizon)}


def _cmd_check(args) -> dict:
    horizon = _at_least("--horizon", args.horizon, 1)
    spec = _load_spec(args)
    result = dold.scan(recurrence.SequenceView(spec).terms(horizon))
    return {
        "input": _echo(spec),
        "horizon": horizon,
        "dold_violations": result.violations,
        "sign_violations": result.sign_violations,
    }


def _cmd_fail(args) -> dict:
    horizon, prime_bound = _at_least("--horizon", args.horizon, 1), _at_least("--prime-bound", args.prime_bound, 2)
    spec = _load_spec(args)
    report = dold.fail_report(spec, horizon=horizon, prime_bound=prime_bound)
    return {"input": _echo(spec), **_fail_doc(report)}


def _cmd_classify(args) -> dict:
    prime_bound = _at_least("--prime-bound", args.prime_bound, 2)
    spec = _load_spec(args)
    row = dold.classify(recurrence.analyze(spec), prime_bound=prime_bound)
    return {"input": _echo(spec), "row": row.row_id, "condition": row.condition, "details": row.details}


def _cmd_power(args) -> dict:
    horizon, t = _at_least("--horizon", args.horizon, 1), _at_least("--t", args.t, 1)
    spec = _load_spec(args)
    analysis = recurrence.analyze(spec)
    verdict = recurrence.structure_test(analysis)
    result = dold.scan(recurrence.power_terms(recurrence.SequenceView(spec), t, horizon))
    lower = result.empirical_lower
    doc: dict = {
        "input": _echo(spec),
        "t": t,
        "horizon": horizon,
        "row": "power-subsequence",
        "base_structure": _structure_doc(verdict),
        "dold_violations": result.violations,
        "empirical_lower": lower,
    }
    try:
        bound = dold.power_fail_bound(analysis, t)
    except ValueError as exc:  # a zero discriminant
        doc["bound"] = None
        doc["bound_note"] = str(exc)
        return doc
    if bound is None:
        doc["bound"] = None
        doc["bound_note"] = "exponent is not a multiple of the proven splitting-degree multiple"
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
    horizon = _at_least("--horizon", args.horizon, 1)
    try:
        spec = recurrence.square_disc_family(args.delta)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    report = dold.fail_report(spec, horizon=horizon)
    return {
        "delta": args.delta,
        "coeffs": list(spec.coefficients),
        "initial": list(spec.initial),
        "report": _fail_doc(report),
    }


def _cmd_witness(args) -> dict:
    prime_bound = _at_least("--prime-bound", args.prime_bound, 2)
    spec = _load_spec(args)
    status, payload = recurrence.convenient_check(recurrence.analyze(spec), prime_bound)
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
    prime_bound = _at_least("--prime-bound", args.prime_bound, 100, " for density")
    try:
        density = root_density(poly, prime_bound)
    except ValueError as exc:  # every prime up to the bound is ramified
        raise InputError(str(exc)) from None
    return {
        "poly": poly_to_string(poly),
        "prime_bound": prime_bound,
        "density": density,
        "value": float(density),
    }


def _cmd_bfile(args) -> dict:
    horizon = _at_least("--horizon", args.horizon, 1)
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
    horizon = min(horizon, len(terms))
    result = dold.scan(terms[:horizon])  # parse_bfile has made every value exact
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
    """Print the report of one invocation and return its exit code; a bad subcommand argument is an input error."""
    # argparse sets args.command before the subcommand's parser reads the
    # rest, so an InputError that parser raises still names the subcommand.
    args = argparse.Namespace()
    try:
        try:
            _, unread = build_parser().parse_known_args(argv, args)
        except SystemExit as exc:
            return 1 if exc.code else 0
        if unread:  # the subcommand's parser hands back what it does not know
            raise InputError(f"unrecognized arguments: {' '.join(unread)}")
        doc = {"schema_version": SCHEMA_VERSION, "command": args.command, **_COMMANDS[args.command](args)}
        text = dumps_report(doc)
        if args.human:
            text = _humanize(json.loads(text))
    except InputError as exc:
        print(dumps_report({"schema_version": SCHEMA_VERSION, "command": args.command, "error": str(exc)}))
        return 1
    except UnsupportedSizeError as exc:
        doc = {"schema_version": SCHEMA_VERSION, "command": args.command, "error": str(exc), "guard": True}
        print(dumps_report(doc))
        return 2
    print(text)
    return 0


def main() -> None:
    try:
        code = run_command(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early; with stdout pointed at devnull the
        # flush at interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 128 + 13  # as if killed by SIGPIPE
    sys.exit(code)


if __name__ == "__main__":
    main()
