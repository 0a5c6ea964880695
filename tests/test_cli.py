"""Command-line interface: b-file parsing, report format, exit codes, goldens."""

import argparse
import collections
import json
import os
import pathlib
import subprocess
import sys
from decimal import Decimal

import jsonschema
import pytest

import doldseq
from doldseq import cli, dold, factorint, polyring, recurrence
from doldseq.cli import InputError, dumps_report, parse_bfile
from doldseq.recurrence import SequenceView

HERE = pathlib.Path(__file__).parent
SCHEMA = json.loads((HERE.parent / "docs" / "report.schema.json").read_text())


def validate(out: str):
    jsonschema.validate(json.loads(out), SCHEMA)


# -- b-file parsing ----------------------------------------------------------


def test_parse_bfile_fibonacci_prefix():
    bf = parse_bfile("1 1\n2 1\n3 2\n")
    assert bf.entries == ((1, 1), (2, 1), (3, 2))
    assert bf.offset == 1


def test_parse_bfile_comment_and_single_entry():
    bf = parse_bfile("# comment\n1 5\n")
    assert bf.entries == ((1, 5),)


def test_parse_bfile_non_contiguous():
    # a gap is not a parse error; bfile-check cuts the contiguous prefix
    bf = parse_bfile("1 1\n3 2\n")
    assert bf.entries == ((1, 1), (3, 2)) and bf.offset == 1


def test_parse_bfile_errors():
    with pytest.raises(InputError, match="line 2"):
        parse_bfile("1 1\n2 x\n")
    with pytest.raises(InputError, match="line 1"):
        parse_bfile("1 1 1\n")
    with pytest.raises(InputError, match="duplicate"):
        parse_bfile("1 1\n1 2\n")
    with pytest.raises(InputError, match="increasing"):
        parse_bfile("3 1\n2 2\n")
    with pytest.raises(InputError):
        parse_bfile("# nothing\n")


def _int_or_none(token):
    try:
        return int(token)
    except ValueError:
        return None


_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
# "1e3", "NaN" and "1.0" are Decimal syntax that int() rejects
BFILE_TOKENS = ["+5", "-0", "007", "1_000", "\u0661\u0662\u0663", "1e3", "1.0", "NaN", "inf", "0x10", "-12", "1__0", "+"]
BFILE_TOKENS += ["9" * (_LIMIT + 1), "0" * _LIMIT + "1", "-" + "9" * _LIMIT, "7" * _LIMIT]


@pytest.mark.parametrize("token", BFILE_TOKENS, ids=range(len(BFILE_TOKENS)))
def test_bfile_values_are_read_as_int_reads_them(run_cli, tmp_path, token):
    """A b-file value is accepted exactly where int() accepts it, with int()'s value, and otherwise is an input error."""
    path = tmp_path / "b.txt"
    path.write_text(f"1 3\n2 {token}\n3 4\n")
    code, out = run_cli(["bfile-check", str(path)])
    value = _int_or_none(token)
    digits = token.lstrip("+-")
    if value is None and digits.isascii() and digits.isdigit():
        # int() refuses a plain digit string only for its length: a guard stop, not an input error
        assert code == 2
        doc = json.loads(out)
        assert doc["guard"] is True
        assert doc["error"] == f"line 2: a {len(digits)}-digit value, over the {_LIMIT}-digit limit for decimal input"
        return
    if value is None:
        assert code == 1
        assert json.loads(out)["error"] == f"line 2: non-integer field in '2 {token}'"
        return
    assert parse_bfile(path.read_text()).entries[1][1] == value
    plain = tmp_path / "plain.txt"
    plain.write_text(f"1 3\n2 {value}\n3 4\n")
    assert (code, out) == run_cli(["bfile-check", str(plain)])
    assert code == 0


def test_bfile_over_long_value_is_a_short_guard_stop(run_cli, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_digit_limit", lambda: 4300)
    path = tmp_path / "b.txt"
    path.write_text("1 3\n2 " + "7" * 5000 + "\n3 4\n")
    code, out = run_cli(["bfile-check", str(path)])
    assert code == 2
    doc = json.loads(out)
    assert doc["guard"] is True
    assert doc["error"] == "line 2: a 5000-digit value, over the 4300-digit limit for decimal input"
    validate(out)


@pytest.mark.parametrize(
    "line, message",
    [
        ("2 " + "7" * 5000 + "x", "line 2: non-integer field in '2 " + "7" * 38 + "'..."),
        ("2 7 " + "7" * 5000, "line 2: expected 'index value', got '2 7 " + "7" * 36 + "'..."),
        ("1 " + "7" * 5000, "line 2: duplicate index in '1 " + "7" * 38 + "'..."),
    ],
    ids=["non-integer", "three-fields", "duplicate"],
)
def test_bfile_errors_quote_a_bounded_prefix(run_cli, tmp_path, monkeypatch, line, message):
    monkeypatch.setattr(cli, "_digit_limit", lambda: 0)  # no limit: the long value itself is no error
    path = tmp_path / "b.txt"
    path.write_text(f"1 3\n{line}\n")
    code, out = run_cli(["bfile-check", str(path)])
    assert code == 1
    assert json.loads(out)["error"] == message
    validate(out)


# -- serialization -----------------------------------------------------------


def test_report_round_trip():
    doc = {
        "schema_version": "1",
        "command": "gen",
        "terms": [2**100, -3, 0],
        "nested": {"value": 10**30},
        "flag": True,
    }
    # every integer reads back as the decimal string the schema specifies
    assert json.loads(dumps_report(doc)) == {
        "schema_version": "1",
        "command": "gen",
        "terms": [str(2**100), "-3", "0"],
        "nested": {"value": str(10**30)},
        "flag": True,
    }


# -- golden files for the documented invocations -----------------------------
#
# golden/manifest.txt lists them, and says why each is there; the CI
# console-script step runs the same list.  Its paths are relative to golden/.

GOLDEN = HERE / "golden"
GOLDEN_CASES = [
    (name, argv)
    for line in (GOLDEN / "manifest.txt").read_text().splitlines()
    if line.strip() and not line.startswith("#")
    for name, *argv in [line.split()]
]


@pytest.mark.parametrize("name,argv", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden_invocations(run_cli, monkeypatch, name, argv):
    monkeypatch.chdir(GOLDEN)
    code, out = run_cli(argv)
    assert code == 0
    assert out == (GOLDEN / f"{name}.json").read_text()
    validate(out)


@pytest.mark.parametrize("name,argv", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden_human_invocations(run_cli, monkeypatch, name, argv):
    monkeypatch.chdir(GOLDEN)
    code, out = run_cli([*argv, "--human"])
    assert code == 0
    assert out == (GOLDEN / f"{name}.human.txt").read_text()


def test_golden_manifest_lists_every_golden():
    names = {str(path.relative_to(GOLDEN).with_suffix("")) for path in GOLDEN.rglob("*.json")}
    assert sorted(names) == sorted(name for name, _ in GOLDEN_CASES)


def test_golden_key_facts(run_cli):
    _, out = run_cli(GOLDEN_CASES[0][1])
    assert json.loads(out)["exact"] == "6"
    _, out = run_cli(GOLDEN_CASES[1][1])
    assert "3" in [v["n"] for v in json.loads(out)["dold_violations"]]
    _, out = run_cli(GOLDEN_CASES[2][1])
    doc = json.loads(out)
    # 6 meets only the radical of a heuristic bound, so it is not claimed as exact
    assert doc["empirical_lower"] == "6" and doc["fail"] is None
    assert "exactness_source" not in doc
    assert doc["bound"]["degree_multiple"] == "4"
    cases = dict(GOLDEN_CASES)
    doc = json.loads(run_cli(cases["power_order4_t2"])[1])
    assert doc["bound"] is None and doc["empirical_lower"] == "6"
    doc = json.loads(run_cli(cases["power/quartic_d4_t8"])[1])
    assert doc["bound"]["degree_multiple"] == "8"
    doc = json.loads(run_cli(cases["fail/repeated_quadratic"])[1])
    assert doc["exact"] == "2"
    assert doc["structure"]["coefficients"][0]["value"] == {"numerator": "1", "denominator": "2"}
    doc = json.loads(run_cli(cases["fail/repeated_root_refuted"])[1])
    assert doc["structure"] == {"almost": False, "refutation_index": "3"}
    # a polynomial and its square have the same roots, hence the same density
    squared = json.loads(run_cli(cases["algebra/density_biquadratic_squared"])[1])["density"]
    assert squared == json.loads(run_cli(cases["algebra/density_biquadratic"])[1])["density"]
    assert squared == {"numerator": "18", "denominator": "83"}
    doc = json.loads(run_cli(cases["algebra/classify_repeated_root"])[1])
    assert doc["row"] == "any" and doc["details"]["discriminant"] == "0"


def test_squarefree_part_runs_once_per_request(run_cli, monkeypatch):
    calls = []

    def counted(f, real=polyring.squarefree_part):
        calls.append(f)
        return real(f)

    for module in (polyring, factorint, recurrence, dold, cli):
        if hasattr(module, "squarefree_part"):
            monkeypatch.setattr(module, "squarefree_part", counted)
    cases = dict(GOLDEN_CASES)
    # a zero discriminant: factor_over_Z takes the squarefree part, table_bounds reads its factors
    for name in ("fail/repeated_quadratic", "algebra/density_biquadratic_squared"):
        calls.clear()
        code, out = run_cli(cases[name])
        assert code == 0 and out == (GOLDEN / f"{name}.json").read_text()
        assert len(calls) == 1, name


def test_fail_is_exact_when_the_lower_bound_meets_the_gcd_of_the_bounds(run_cli):
    # no single bound is 2, but fail divides every bound, hence their gcd 2
    doc = json.loads(run_cli(["fail", "--coeffs=-2,3", "--initial=-1,-4"])[1])
    assert [b["value"] for b in doc["upper_bounds"]] == ["6", "48", "48", "4"]
    assert doc["empirical_lower"] == "2"
    assert doc["exact"] == "2" and doc["fail"] == "2"


# -- exit-code contract ------------------------------------------------------


def test_exit_code_zero_regardless_of_verdict(run_cli):
    code, out = run_cli(["fail", "--coeffs", "1,1", "--initial", "1,1"])
    assert code == 0
    assert json.loads(out)["fail"] == "infinity"
    validate(out)


def test_exit_code_one_on_input_error(run_cli):
    code, out = run_cli(["fail", "--coeffs", "1,x", "--initial", "1,1"])
    assert code == 1
    assert "error" in json.loads(out)
    validate(out)
    code, _ = run_cli(["fail", "--coeffs", "1,1"])
    assert code == 1
    code, _ = run_cli(["fail", "--coeffs", "1,0", "--initial", "1,1"])
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--coeffs", "1,,1", "--initial", "1,1"],
        ["check", "--coeffs", "1,1", "--initial", "1,1,"],
        ["fail", "--coeffs", ",1", "--initial", "1"],
        ["density", "--poly=1,,0,1"],
    ],
    ids=["check-coeffs", "check-initial-trailing", "fail-leading", "density"],
)
def test_empty_list_field_is_input_error(run_cli, argv):
    # an empty field is not dropped: "1,,1" is not the list 1,1
    code, out = run_cli(argv)
    assert code == 1
    doc = json.loads(out)
    assert doc["command"] == argv[0]
    assert "comma-separated integer list" in doc["error"]
    validate(out)


@pytest.mark.parametrize("value", ["7" * 5000, "7" * 5000 + "x"], ids=["digits", "non-integer"])
def test_long_list_error_quotes_a_bounded_prefix(run_cli, value):
    if value.isdigit() and not cli._digit_limit():
        pytest.skip("no int-str digit limit: a 5,000-digit coefficient is valid")
    code, out = run_cli(["check", "--coeffs", value, "--initial", "1"])
    if value.isdigit():
        # an integer over the int-str digit limit is a guard stop on every input route
        assert code == 2 and json.loads(out)["guard"] is True
    else:
        assert code == 1
        assert json.loads(out)["error"] == "expected a comma-separated integer list, got '" + "7" * 40 + "'..."
    assert len(out.encode()) < 200
    validate(out)
    # an argument of 40 characters or fewer is quoted whole
    short = "7" * 38 + ",x"
    code, out = run_cli(["check", "--coeffs", short, "--initial", "1"])
    assert json.loads(out)["error"] == f"expected a comma-separated integer list, got {short!r}"


def test_list_fields_may_carry_spaces(run_cli):
    assert run_cli(["check", "--coeffs", " 1, 1", "--initial", "1 ,1 ", "--horizon", "50"]) == run_cli(
        GOLDEN_CASES[1][1]
    )


def test_exit_code_one_on_unknown_flag(run_cli, capsys):
    code = __import__("doldseq.cli", fromlist=["run_command"]).run_command(["fail", "--bogus"])
    capsys.readouterr()
    assert code == 1


def test_exit_code_two_on_guard(run_cli, monkeypatch):
    argv = ["gen", "--coeffs", "10", "--initial", "1", "--horizon", "100"]
    assert run_cli(argv)[0] == 0
    monkeypatch.setattr(recurrence, "MAX_TERM_BITS", 8 * Decimal(1).__sizeof__())
    code, out = run_cli(argv)
    assert code == 2
    doc = json.loads(out)
    assert doc.get("guard") is True
    validate(out)


def test_exit_code_two_on_the_cache_budget(run_cli, monkeypatch):
    argv = ["gen", "--coeffs", "10", "--initial", "1", "--horizon", "100"]
    assert run_cli(argv)[0] == 0
    # 25 terms of the size of Decimal(1): U_26 = 10^25 still has that size
    budget = 8 * 25 * Decimal(1).__sizeof__()
    monkeypatch.setattr(recurrence, "MAX_CACHE_BITS", budget)
    code, out = run_cli(argv)
    assert code == 2
    doc = json.loads(out)
    assert doc["guard"] is True and doc["error"] == f"terms 1 to 26 need over {budget} bits (cache budget)"
    validate(out)


def test_check_guard_document_unchanged(run_cli, monkeypatch):
    # a budget of one Decimal(1): term 77, 10^76, is the first past its inline words
    budget = 8 * Decimal(1).__sizeof__()
    monkeypatch.setattr(recurrence, "MAX_TERM_BITS", budget)
    code, out = run_cli(["check", "--coeffs", "10", "--initial", "1", "--horizon", "100"])
    assert code == 2
    assert out == (
        '{\n  "schema_version": "1",\n  "command": "check",\n'
        f'  "error": "term 77 needs over {budget} bits (per-term budget)",\n  "guard": true\n}}\n'
    )
    validate(out)


def test_guard_in_the_power_bound_is_not_an_input_note(run_cli):
    # the discriminant's cofactor 19910031605694313409 survives trial division and is not prime
    code, out = run_cli(["power", "--t", "6", "--coeffs=-500953,242858,141331", "--initial", "1,0,0", "--horizon", "2"])
    assert code == 2
    doc = json.loads(out)
    assert doc["guard"] is True and doc["error"] == "cannot factor remaining cofactor 19910031605694313409"
    validate(out)


@pytest.mark.parametrize("t", ["5", "7"])
def test_power_offers_no_bound_without_factoring_the_discriminant(run_cli, t):
    # t is not a multiple of 6, the splitting-degree multiple, so the radical of the discriminant is never needed
    code, out = run_cli(["power", "--t", t, "--coeffs=-500953,242858,141331", "--initial", "1,0,0", "--horizon", "2"])
    assert code == 0, out
    doc = json.loads(out)
    assert doc["bound"] is None
    assert doc["bound_note"] == "exponent is not a multiple of the proven splitting-degree multiple"
    validate(out)


def _file(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _spec(tmp_path, member):
    """A --spec document whose one initial term is the JSON text `member`."""
    return ["--spec", _file(tmp_path, "rec.json", f'{{"coeffs": [1], "initial": [{member}]}}')]


# Every route by which an integer enters from outside, as argv reading `token` as one integer.
INTEGER_ROUTES = {
    "--coeffs": lambda token, tmp: ["check", "--coeffs", token, "--initial", "1"],
    "--initial": lambda token, tmp: ["check", "--coeffs", "1", "--initial", token],
    "--poly": lambda token, tmp: ["density", f"--poly={token},1"],
    "spec-string": lambda token, tmp: ["gen", *_spec(tmp, f'"{token}"')],
    "spec-number": lambda token, tmp: ["gen", *_spec(tmp, token)],
    "--horizon": lambda token, tmp: ["check", "--coeffs", "1", "--initial", "1", "--horizon", token],
    "--prime-bound": lambda token, tmp: ["classify", "--coeffs", "1", "--initial", "1", "--prime-bound", token],
    "--t": lambda token, tmp: ["power", "--coeffs", "1", "--initial", "1", "--t", token],
    "--delta": lambda token, tmp: ["family", "--delta", token],
    "b-file": lambda token, tmp: ["bfile-check", _file(tmp, "b.txt", f"1 3\n2 {token}\n")],
}


@pytest.mark.parametrize("route", INTEGER_ROUTES)
def test_over_limit_integer_is_a_short_guard_stop_on_every_route(run_cli, tmp_path, monkeypatch, route):
    monkeypatch.setattr(cli, "_digit_limit", lambda: 4300)
    # int()'s spellings of one 5000-digit value; a JSON number has only the plain one
    spellings = ["7" * 5000, "_".join("7" * 5000), "\u0667" * 5000]
    for token in spellings[: 1 if route == "spec-number" else None]:
        argv = INTEGER_ROUTES[route](token, tmp_path)
        code, out = run_cli(argv)
        assert code == 2, out[:300]
        doc = json.loads(out)
        assert doc["guard"] is True and doc["command"] == argv[0]
        assert "a 5000-digit value, over the 4300-digit limit for decimal input" in doc["error"]
        assert len(out.encode()) < 200
        validate(out)


@pytest.mark.parametrize("token", ["7" * 5000 + ".5", "1.5", "x"], ids=["long", "fraction", "letter"])
@pytest.mark.parametrize("route", INTEGER_ROUTES)
def test_non_integer_is_an_input_error_on_every_route(run_cli, tmp_path, monkeypatch, route, token):
    monkeypatch.setattr(cli, "_digit_limit", lambda: 4300)
    code, out = run_cli(INTEGER_ROUTES[route](token, tmp_path))
    assert code == 1
    assert "guard" not in json.loads(out)
    # the token is quoted at most 40 characters long
    assert len(out.encode()) < 200, out[:300]
    validate(out)


def test_int_flag_error_quotes_a_bounded_prefix(run_cli):
    argv = ["check", "--coeffs", "1", "--initial", "1", "--horizon"]
    assert json.loads(run_cli([*argv, "abc"])[1])["error"] == "argument --horizon: invalid int value: 'abc'"
    code, out = run_cli([*argv, "7" * 5000 + "x"])
    assert code == 1
    assert json.loads(out)["error"] == "argument --horizon: invalid int value: '" + "7" * 40 + "'..."


# A valid invocation of every subcommand; tests append the flags they try.
SUBCOMMAND_ARGV = {
    "gen": ["gen", "--coeffs", "1,1", "--initial", "1,1"],
    "check": ["check", "--coeffs", "1,1", "--initial", "1,1"],
    "fail": ["fail", "--coeffs", "1,1", "--initial", "1,1"],
    "classify": ["classify", "--coeffs", "1,1", "--initial", "1,1"],
    "power": ["power", "--t", "2", "--coeffs", "1,1", "--initial", "1,1"],
    "family": ["family", "--delta", "3"],
    "witness": ["witness", "--coeffs", "1,1", "--initial", "1,1"],
    "density": ["density", "--poly", "1,0,1", "--prime-bound", "100"],
    "bfile-check": ["bfile-check", "BFILE"],
}


# The flags each subcommand reads, besides --human (all of them) and its own inputs.
SUBCOMMAND_FLAGS = {
    "gen": {"--horizon"},
    "check": {"--horizon"},
    "fail": {"--horizon", "--prime-bound"},
    "classify": {"--prime-bound"},
    "power": {"--horizon"},
    "family": {"--horizon"},
    "witness": {"--prime-bound"},
    "density": {"--prime-bound"},
    "bfile-check": {"--horizon"},
}


def _subcommand_argv(command, tmp_path):
    bfile = tmp_path / "b.txt"
    bfile.write_text("1 1\n2 3\n3 4\n")
    return [str(bfile) if a == "BFILE" else a for a in SUBCOMMAND_ARGV[command]]


@pytest.mark.parametrize("command", sorted(c for c, flags in SUBCOMMAND_FLAGS.items() if "--horizon" in flags))
def test_nonpositive_horizon_is_an_input_error(run_cli, tmp_path, command):
    argv = _subcommand_argv(command, tmp_path)
    code, _ = run_cli([*argv, "--horizon", "2"])
    assert code == 0
    for horizon in ("0", "-5"):
        code, out = run_cli([*argv, "--horizon", horizon])
        assert code == 1, (command, horizon)
        assert json.loads(out)["error"] == f"--horizon must be at least 1, got {horizon}"
        validate(out)


# Every (subcommand, flag it does not read) pair, over the flags some subcommand
# reads and the deleted --json, --seed and --max-bits; then bad values and an unknown flag.
UNREAD_FLAGS = [
    (command, [flag, "5"])
    for command, flags in SUBCOMMAND_FLAGS.items()
    for flag in ("--horizon", "--max-bits", "--prime-bound", "--seed")
    if flag not in flags
] + [(command, ["--json"]) for command in SUBCOMMAND_FLAGS]
ARGUMENT_ERRORS = UNREAD_FLAGS + [
    ("fail", ["--horizon", "abc"]),
    ("density", ["--prime-bound", "1e3"]),
    ("family", ["--delta", "x"]),
    ("check", ["--bogus"]),
    ("power", ["--t"]),
]
MISSING_INPUTS = [
    ("power", ["power", "--coeffs", "1,1", "--initial", "1,1"]),
    ("family", ["family"]),
    ("density", ["density"]),
    ("bfile-check", ["bfile-check"]),
]


def _assert_input_error_of(command, capsys, code):
    out, err = capsys.readouterr()
    assert code == 1
    assert err == ""
    doc = json.loads(out)
    assert doc["command"] == command and doc["error"]
    assert set(doc) == {"schema_version", "command", "error"}
    validate(out)


@pytest.mark.parametrize(
    "command,extra", ARGUMENT_ERRORS, ids=[" ".join([c, *e]) for c, e in ARGUMENT_ERRORS]
)
def test_argument_error_is_an_input_error_of_the_subcommand(capsys, tmp_path, command, extra):
    argv = _subcommand_argv(command, tmp_path)
    if "--horizon" in SUBCOMMAND_FLAGS[command]:
        argv += ["--horizon", "2"]
    assert cli.run_command(argv) == 0
    capsys.readouterr()
    _assert_input_error_of(command, capsys, cli.run_command([*argv, *extra]))


@pytest.mark.parametrize("command,argv", MISSING_INPUTS, ids=[c for c, _ in MISSING_INPUTS])
def test_missing_required_input_is_an_input_error(capsys, command, argv):
    _assert_input_error_of(command, capsys, cli.run_command(argv))
    assert cli.run_command([*argv, "-h"]) == 0  # help still prints and exits 0
    assert "usage: doldseq " + command in capsys.readouterr().out


def test_missing_or_unknown_subcommand_prints_usage(capsys):
    for argv in ([], ["--horizon", "5", "check"], ["bogus"], ["--human"]):
        assert cli.run_command(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: doldseq"), argv
    assert cli.run_command(["-h"]) == 0
    assert capsys.readouterr().out.startswith("usage: doldseq")


def test_parser_declares_only_the_flags_each_subcommand_reads():
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    pairs = set()
    for command, parser in sub.choices.items():
        for action in parser._actions:
            for flag in set(action.option_strings) & {"--human", "--horizon", "--max-bits", "--prime-bound"}:
                pairs.add((command, flag))
    assert pairs == {(c, f) for c, flags in SUBCOMMAND_FLAGS.items() for f in flags | {"--human"}}
    assert len(pairs) == 19


@pytest.mark.parametrize(
    "argv,full,abbreviated",
    [
        (["check", "--coeffs", "1,1", "--initial", "1,1"], ["--horizon", "5"], ["--hor", "5"]),
        (["witness"], ["--spec", "SPEC"], ["--s", "SPEC"]),
    ],
    ids=["check --hor", "witness --s"],
)
def test_abbreviated_flag_is_an_input_error(run_cli, tmp_path, argv, full, abbreviated):
    # argparse would otherwise read an unambiguous prefix as the whole flag
    spec = tmp_path / "rec.json"
    spec.write_text(json.dumps({"coeffs": [1, 1], "initial": [1, 1]}))
    full, abbreviated = ([str(spec) if a == "SPEC" else a for a in flags] for flags in (full, abbreviated))
    assert run_cli([*argv, *full])[0] == 0
    code, out = run_cli([*argv, *abbreviated])
    assert code == 1
    error = f"unrecognized arguments: {' '.join(abbreviated)}"
    assert json.loads(out) == {"schema_version": "1", "command": argv[0], "error": error}
    validate(out)


def test_top_level_flag_is_not_abbreviated(capsys):
    # argparse would otherwise read --he as --help: print the usage and exit 0 without running check
    code = cli.run_command(["--he", "check", "--coeffs", "1,1", "--initial", "1,1"])
    out = capsys.readouterr().out
    assert code == 1
    assert json.loads(out) == {"schema_version": "1", "command": "check", "error": "unrecognized arguments: --he"}
    validate(out)
    assert cli.run_command(["--he"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: doldseq")
    for flag in ("-h", "--help"):
        assert cli.run_command([flag]) == 0
        assert capsys.readouterr().out.startswith("usage: doldseq")


def test_power_nonpositive_exponent_is_an_input_error(run_cli):
    for t in ("0", "-2"):
        code, out = run_cli(["power", "--t", t, "--coeffs", "1,1", "--initial", "1,1", "--horizon", "5"])
        assert code == 1
        assert json.loads(out)["error"] == f"--t must be at least 1, got {t}"
        validate(out)


def test_check_reads_each_term_once(run_cli, monkeypatch):
    # one bulk read of A_1..A_N, and no per-index reads
    calls = []
    for name in ("term", "terms"):
        original = getattr(SequenceView, name)

        def counting(self, n, _name=name, _original=original):
            calls.append((_name, n))
            return _original(self, n)

        monkeypatch.setattr(SequenceView, name, counting)
    code, _ = run_cli(["check", "--coeffs", "12,3", "--initial", "2,25", "--horizon", "300"])
    assert code == 0
    assert calls == [("terms", 300)]


# x^3 - 2x^2 + 1 = (x - 1)(x^2 - x - 1) is reducible; x^4 - 10x^2 + 1 is
# irreducible with no witness prime.
ANALYSIS_SPECS = [["--coeffs", "2,0,-1", "--initial", "1,2,3"], ["--coeffs", "0,10,0,-1", "--initial", "0,5,0,49"]]
ANALYSIS_COMMANDS = [["fail", "--horizon", "20"], ["classify"], ["witness"], ["power", "--t", "2", "--horizon", "5"]]


@pytest.mark.parametrize("spec", ANALYSIS_SPECS, ids=["reducible", "irreducible"])
@pytest.mark.parametrize("command", ANALYSIS_COMMANDS, ids=[c[0] for c in ANALYSIS_COMMANDS])
def test_one_analysis_per_request(run_cli, monkeypatch, command, spec):
    # each characteristic polynomial made, and each polynomial factored
    seen = collections.defaultdict(list)
    for owner, name in ((recurrence, "char_poly"), (factorint, "factor_over_Z")):
        original = getattr(owner, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            result = _original(*args, **kwargs)
            seen[_name].append(result if _name == "char_poly" else args[0])
            return result

        for module in (doldseq, recurrence, factorint, dold, cli):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    code, _ = run_cli([*command, *spec])
    assert code == 0
    (cpoly,) = seen["char_poly"]
    # power on x^4 - 10x^2 + 1 also factors the quartic's resolvent cubic
    assert seen["factor_over_Z"].count(cpoly) == 1


# x^3 - 2x^2 - 2x - 2 is irreducible, with witness prime 17
@pytest.mark.parametrize(
    "argv",
    [["classify", "--coeffs", "0,10,0,-1", "--initial", "0,5,0,49"], ["witness", "--coeffs", "2,2,2", "--initial", "1,0,0"]],
    ids=["classify", "witness"],
)
def test_one_discriminant_per_request(run_cli, monkeypatch, argv):
    calls = []
    original = polyring.discriminant

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (doldseq, polyring, recurrence, factorint, dold, cli):
        if getattr(module, "discriminant", None) is original:
            monkeypatch.setattr(module, "discriminant", counting)
    code, _ = run_cli(argv)
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["classify", "fail", "witness"])
def test_prime_bound_below_two_is_an_input_error(run_cli, command):
    argv = SUBCOMMAND_ARGV[command]
    code, _ = run_cli([*argv, "--prime-bound", "2"])
    assert code == 0
    for bound in ("1", "0", "-3"):
        code, out = run_cli([*argv, "--prime-bound", bound])
        assert code == 1, (command, bound)
        assert json.loads(out)["error"] == f"--prime-bound must be at least 2, got {bound}"
        validate(out)


# x^3 - x^2 - x - 1 is irreducible over Z, so the first three search witness primes up to --prime-bound.
# x^3 - 2x^2 + 1 = (x - 1)(x^2 - x - 1) is reducible and (x - 1)^2, (x - 1)^3 are not squarefree:
# no prime is searched for them, so no report may name a bound above the ceiling as searched.
PRIME_BOUND_ARGV = {
    "fail": ["fail", "--coeffs", "1,1,1", "--initial", "1,1,1", "--horizon", "5"],
    "classify": ["classify", "--coeffs", "1,1,1", "--initial", "1,1,1"],
    "witness": ["witness", "--coeffs", "1,1,1", "--initial", "1,1,1"],
    "density": ["density", "--poly=5,1"],
    "witness-reducible": ["witness", "--coeffs", "2,0,-1", "--initial", "1,2,3"],
    "witness-repeated-factor": ["witness", "--coeffs", "2,-1", "--initial", "1,2"],
    "classify-reducible": ["classify", "--coeffs", "2,0,-1", "--initial", "1,2,3"],
    "classify-repeated-factor": ["classify", "--coeffs", "3,-3,1", "--initial", "1,2,3"],
}


@pytest.mark.parametrize("command", sorted(PRIME_BOUND_ARGV))
def test_prime_bound_above_the_ceiling_is_a_guard_stop(run_cli, monkeypatch, command):
    argv = PRIME_BOUND_ARGV[command]
    ceiling = factorint.MAX_PRIME_BOUND
    code, _ = run_cli([*argv, "--prime-bound", str(ceiling)])
    assert code == 0

    primes_up_to = factorint.primes_up_to

    def no_sieve_past_the_ceiling(limit):
        if limit > ceiling:
            raise AssertionError(f"sieve up to {limit} built past the ceiling")
        return primes_up_to(limit)

    # the guard stops the request before any prime past the ceiling is sieved;
    # factoring over Z still reads the shared table below it
    monkeypatch.setattr(factorint, "primes_up_to", no_sieve_past_the_ceiling)
    for bound in (ceiling + 1, 10**9):
        code, out = run_cli([*argv, "--prime-bound", str(bound)])
        assert code == 2, (command, bound)
        doc = json.loads(out)
        assert doc["guard"] is True and f"prime bound {bound} exceeds" in doc["error"]
        validate(out)


# x^3 - 2x^2 - 2x - 2 is irreducible mod 17 and at no smaller unramified prime.
@pytest.mark.parametrize("bound,row", [("13", "irreducible"), ("17", "convenient")])
def test_fail_classifies_with_the_given_prime_bound(run_cli, bound, row):
    spec = ["--coeffs", "2,2,2", "--initial", "1,0,0", "--prime-bound", bound]
    _, out = run_cli(["classify", *spec])
    classified = json.loads(out)
    _, out = run_cli(["fail", *spec, "--horizon", "20"])
    assert classified["row"] == row
    assert json.loads(out)["classification"] == {k: classified[k] for k in ("row", "condition", "details")}


@pytest.mark.parametrize("heuristic", [True, False])
def test_power_claims_exact_fail_only_from_a_proven_bound(run_cli, monkeypatch, heuristic):
    # a bound equal to the golden input's empirical lower bound 6
    monkeypatch.setattr(dold, "power_fail_bound", lambda analysis, t: dold.PowerBound(6, 6, 2, heuristic))
    code, out = run_cli(GOLDEN_CASES[2][1])
    assert code == 0
    validate(out)
    doc = json.loads(out)
    assert doc["empirical_lower"] == "6" and doc["bound"]["heuristic"] is heuristic
    if heuristic:
        assert doc["fail"] is None and "exactness_source" not in doc
    else:
        assert doc["fail"] == "6" and "exactness_source" in doc


DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not 0 < DIGIT_LIMIT <= 4300, reason="needs the interpreter's default int-to-str digit limit")
@pytest.mark.parametrize("output", [[], ["--human"]], ids=["json", "human"])
def test_report_over_the_digit_limit_is_a_guard_stop(run_cli, output):
    # the Mobius sums of this subsequence run to about 4800 decimal digits
    code, out = run_cli(["power", "--t", "3", "--coeffs", "3,1", "--initial", "1,1", "--horizon", "30", *output])
    assert code == 2
    doc = json.loads(out)
    assert doc["guard"] is True and f"{DIGIT_LIMIT}-digit limit" in doc["error"]
    validate(out)
    assert sys.get_int_max_str_digits() == DIGIT_LIMIT


# -- parser reuse ------------------------------------------------------------

# One process, one parser: flags of one call must not reach the next.
REUSE_SEQUENCE = [
    ["power", "--t", "3", "--coeffs", "1,1", "--initial", "1,1", "--horizon", "8"],
    ["check", "--coeffs", "1,1", "--initial", "1,3", "--horizon", "20"],
    ["power", "--coeffs", "1,1", "--initial", "1,1"],  # --t is required again: exit 1
    ["classify", "--human", "--coeffs", "12,3", "--initial", "2,25"],
    ["classify", "--coeffs", "12,3", "--initial", "2,25"],
    ["fail", "--bogus"],  # argparse error: exit 1
    ["witness", "--coeffs", "2,2,2", "--initial", "1,0,0", "--prime-bound", "20"],
    ["witness", "--coeffs", "2,2,2", "--initial", "1,0,0"],
    ["gen", "--horizon", "4", "--coeffs", "1,1", "--initial", "1,1"],
    ["gen", "--coeffs", "1,1", "--initial", "1,1"],
]


def test_one_parser_serves_an_interleaved_sequence(capsys, monkeypatch):
    def run(argv):
        code = cli.run_command(argv)
        out, err = capsys.readouterr()
        return code, out, err

    fresh = []
    for argv in REUSE_SEQUENCE:
        cli.build_parser.cache_clear()
        fresh.append(run(argv))
    assert [r[0] for r in fresh] == [0, 0, 1, 0, 0, 1, 0, 0, 0, 0]

    builds = []
    original_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(kwargs.get("prog"))
        original_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    reused = []
    for argv in REUSE_SEQUENCE:
        reused.append(run(argv))
        assert builds.count("doldseq") == 1
    built_by_first_call = len(builds)
    assert reused == fresh
    assert len(builds) == built_by_first_call
    cli.build_parser.cache_clear()


def test_parser_is_not_built_at_import():
    src = pathlib.Path(doldseq.__file__).parent.parent
    probe = "import doldseq.cli as c; print(c.build_parser.cache_info().currsize)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    assert done.stdout.strip() == "0"


def test_closed_stdout_exits_141_without_traceback():
    # the report (about 1 MB) outgrows the pipe's buffer, so the write fails once the reader is gone
    src = pathlib.Path(doldseq.__file__).parent.parent
    argv = ["gen", "--coeffs", "1,1", "--initial", "1,1", "--horizon", "3000"]
    probe = "from doldseq.cli import main; main()"  # main reads the arguments after -c
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.Popen(
        [sys.executable, "-c", probe, *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    )
    assert proc.stdout.read(10) == b'{\n  "schem'
    proc.stdout.close()
    assert proc.stderr.read() == b""
    assert proc.wait(timeout=60) == 141


# -- flags and input channels ------------------------------------------------


def test_flags_accepted_before_and_after_subcommand(run_cli):
    code1, out1 = run_cli(["check", "--coeffs", "1,1", "--initial", "1,3", "--horizon", "40"])
    code2, out2 = run_cli(["check", "--horizon", "40", "--coeffs", "1,1", "--initial", "1,3"])
    assert code1 == code2 == 0
    assert out1 == out2


def test_spec_file_input(run_cli, tmp_path):
    spec = tmp_path / "rec.json"
    spec.write_text(json.dumps({"coeffs": ["12", "3"], "initial": ["2", "25"]}))
    code, out = run_cli(["fail", "--spec", str(spec)])
    assert code == 0
    assert json.loads(out)["exact"] == "6"
    # plain JSON integers, alone or mixed with decimal strings, read the same
    for doc in ({"coeffs": [12, 3], "initial": [2, 25]}, {"coeffs": ["12", 3], "initial": [2, "25"]}):
        spec.write_text(json.dumps(doc))
        assert run_cli(["fail", "--spec", str(spec)]) == (code, out)


@pytest.mark.parametrize(
    "value",
    [[1.5, 1.9], [1.0, 1.0], [True, True], True, None, [None, 1], [[1], [1]], "11", {"0": 1, "1": 1}],
    ids=["floats", "integral-floats", "bools", "bool", "null", "null-member", "nested", "bare-string", "object"],
)
@pytest.mark.parametrize("key", ["coeffs", "initial"])
def test_spec_file_rejects_non_integer_lists(run_cli, tmp_path, key, value):
    doc = {"coeffs": [1, 1], "initial": [1, 1], key: value}
    spec = tmp_path / "rec.json"
    spec.write_text(json.dumps(doc))
    code, out = run_cli(["gen", "--spec", str(spec), "--horizon", "5"])
    assert code == 1
    assert "malformed recurrence document" in json.loads(out)["error"]
    validate(out)


@pytest.mark.parametrize(
    "doc,missing",
    [([1, 2], None), (5, None), ("11", None), (None, None), ({"coeffs": [1, 1]}, "initial"), ({"initial": [1, 1]}, "coeffs")],
    ids=["list", "number", "string", "null", "no-initial", "no-coeffs"],
)
def test_spec_file_must_be_an_object_with_both_lists(run_cli, tmp_path, doc, missing):
    spec = tmp_path / "rec.json"
    spec.write_text(json.dumps(doc))
    code, out = run_cli(["gen", "--spec", str(spec), "--horizon", "5"])
    assert code == 1
    shape = "malformed recurrence document: the document must be a JSON object with 'coeffs' and 'initial' lists"
    assert json.loads(out)["error"] == (shape if missing is None else f"{shape}; {missing!r} is missing")
    validate(out)


def test_human_output(run_cli):
    code, out = run_cli(["classify", "--human", "--coeffs", "12,3", "--initial", "2,25"])
    assert code == 0
    assert "order-2-irreducible" in out


# -- remaining subcommands ---------------------------------------------------


def test_gen_terms(run_cli):
    code, out = run_cli(["gen", "--coeffs", "12,3", "--initial", "2,25", "--horizon", "3"])
    assert code == 0
    assert json.loads(out)["terms"] == ["2", "25", "306"]
    validate(out)


def test_family_subcommand(run_cli):
    code, out = run_cli(["family", "--delta", "6"])
    assert code == 0
    doc = json.loads(out)
    assert doc["coeffs"] == ["8", "-7"] and doc["initial"] == ["6", "41"]
    assert int(doc["report"]["empirical_lower"]) % 6 == 0
    validate(out)


def test_family_scans_the_requested_horizon(run_cli):
    code, out = run_cli(["family", "--delta", "3", "--horizon", "80"])
    assert code == 0
    assert json.loads(out)["report"]["horizon"] == "80"


def test_witness_subcommand(run_cli):
    code, out = run_cli(["witness", "--coeffs", "1,1", "--initial", "1,1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "certified" and doc["witness"] == "2"
    validate(out)


def test_density_subcommand(run_cli):
    code, out = run_cli(["density", "--poly", "1,0,1", "--prime-bound", "500"])
    assert code == 0
    doc = json.loads(out)
    assert 0.3 < doc["value"] < 0.7
    validate(out)
    code, _ = run_cli(["density", "--poly", "1,0,2"])
    assert code == 1


def test_density_prime_bound_below_100_is_an_input_error(run_cli):
    code, out = run_cli(["density", "--poly", "1,0,1", "--prime-bound", "99"])
    assert code == 1
    assert "--prime-bound must be at least 100" in json.loads(out)["error"]
    validate(out)
    code, out = run_cli(["density", "--poly", "1,0,1", "--prime-bound", "100"])
    assert code == 0
    assert json.loads(out)["prime_bound"] == "100"


def test_density_with_no_unramified_prime_is_an_input_error(run_cli):
    # the constant term is minus the product of the primes <= 100, so each of them divides the discriminant
    poly = "--poly=-2305567963945518424753102147331756070,0,1"
    code, out = run_cli(["density", poly, "--prime-bound", "100"])
    assert code == 1
    assert "every prime <= 100" in json.loads(out)["error"]
    validate(out)
    code, out = run_cli(["density", poly, "--prime-bound", "101"])
    assert code == 0
    assert json.loads(out)["density"] == {"numerator": "0", "denominator": "1"}


def test_bfile_check_powers_of_two(run_cli, tmp_path):
    path = tmp_path / "b.txt"
    path.write_text("".join(f"{n} {2**n}\n" for n in range(1, 61)))
    code, out = run_cli(["bfile-check", str(path), "--horizon", "60"])
    assert code == 0
    doc = json.loads(out)
    assert doc["dold_violations"] == [] and doc["sign_violations"] == []
    assert doc["contiguous"] is True and doc["warnings"] == []
    # a bare sequence gets no verdict and no upper bound
    assert doc["verdict"] == "unknown" and "upper_bounds" not in doc
    validate(out)


def test_bfile_check_offset_rebased_with_warning(run_cli, tmp_path):
    path = tmp_path / "b.txt"
    path.write_text("0 1\n1 2\n2 4\n")
    code, out = run_cli(["bfile-check", str(path)])
    assert code == 0
    doc = json.loads(out)
    assert doc["offset"] == "0"
    assert any("re-based" in w for w in doc["warnings"])


def test_bfile_check_non_contiguous_limited(run_cli, tmp_path):
    path = tmp_path / "b.txt"
    path.write_text("1 1\n3 2\n")
    code, out = run_cli(["bfile-check", str(path)])
    assert code == 0
    doc = json.loads(out)
    assert doc["contiguous"] is False
    assert doc["horizon"] == "1"
    assert any("non-contiguous" in w for w in doc["warnings"])


def test_bfile_check_missing_file(run_cli):
    code, _ = run_cli(["bfile-check", "/nonexistent/b.txt"])
    assert code == 1


def test_all_subcommand_outputs_validate(run_cli):
    invocations = [
        ["gen", "--coeffs", "1,1", "--initial", "1,3", "--horizon", "5"],
        ["check", "--coeffs", "12,3", "--initial", "2,25", "--horizon", "30"],
        ["fail", "--coeffs", "3", "--initial", "1", "--horizon", "30"],
        ["classify", "--coeffs", "8,-7", "--initial", "6,41"],
        ["power", "--t", "2", "--coeffs", "1,1", "--initial", "1,1", "--horizon", "5"],
        ["family", "--delta", "3"],
        ["witness", "--coeffs", "0,10,0,-1", "--initial", "0,5,0,49"],
        ["density", "--poly=-3,1", "--prime-bound", "300"],
    ]
    for argv in invocations:
        code, out = run_cli(argv)
        assert code == 0, argv
        validate(out)
