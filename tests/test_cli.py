"""Command-line interface: b-file parsing, report format, exit codes, goldens."""

import argparse
import collections
import json
import os
import pathlib
import subprocess
import sys

import jsonschema
import pytest

import doldseq
from doldseq import cli, dold, factorint, polyring, recurrence
from doldseq.cli import InputError, dumps_report, loads_report, parse_bfile
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
    if value is None:
        assert code == 1
        assert json.loads(out)["error"] == f"line 2: non-integer field in '2 {token}'"
        return
    assert parse_bfile(path.read_text()).entries[1][1] == value
    plain = tmp_path / "plain.txt"
    plain.write_text(f"1 3\n2 {value}\n3 4\n")
    assert (code, out) == run_cli(["bfile-check", str(plain)])
    assert code == 0


# -- serialization -----------------------------------------------------------


def test_report_round_trip():
    doc = {
        "schema_version": "1",
        "command": "gen",
        "terms": [2**100, -3, 0],
        "nested": {"value": 10**30},
        "flag": True,
    }
    assert loads_report(dumps_report(doc)) == doc


# -- golden files for the documented invocations -----------------------------

GOLDEN_CASES = [
    ("fail_example", ["fail", "--coeffs", "12,3", "--initial", "2,25", "--horizon", "200"]),
    ("check_fibonacci", ["check", "--coeffs", "1,1", "--initial", "1,1", "--horizon", "50"]),
    ("power_order4", ["power", "--t", "4", "--coeffs", "0,10,0,-1", "--initial", "1,0,9,0", "--horizon", "6"]),
]


@pytest.mark.parametrize("name,argv", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden_invocations(run_cli, name, argv):
    code, out = run_cli(argv)
    assert code == 0
    assert out == (HERE / "golden" / f"{name}.json").read_text()
    validate(out)


@pytest.mark.parametrize("name,argv", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden_human_invocations(run_cli, name, argv):
    code, out = run_cli([*argv, "--human"])
    assert code == 0
    assert out == (HERE / "golden" / f"{name}.human.txt").read_text()


def test_golden_key_facts(run_cli):
    _, out = run_cli(GOLDEN_CASES[0][1])
    assert loads_report(out)["exact"] == 6
    _, out = run_cli(GOLDEN_CASES[1][1])
    assert 3 in [v["n"] for v in loads_report(out)["dold_violations"]]
    _, out = run_cli(GOLDEN_CASES[2][1])
    doc = loads_report(out)
    # 6 meets only the radical of a heuristic bound, so it is not claimed as exact
    assert doc["empirical_lower"] == 6 and doc["fail"] is None
    assert "exactness_source" not in doc


# -- exit-code contract ------------------------------------------------------


def test_exit_code_zero_regardless_of_verdict(run_cli):
    code, out = run_cli(["fail", "--coeffs", "1,1", "--initial", "1,1"])
    assert code == 0
    assert loads_report(out)["fail"] == "infinity"
    validate(out)


def test_exit_code_one_on_input_error(run_cli):
    code, out = run_cli(["fail", "--coeffs", "1,x", "--initial", "1,1"])
    assert code == 1
    assert "error" in loads_report(out)
    validate(out)
    code, _ = run_cli(["fail", "--coeffs", "1,1"])
    assert code == 1
    code, _ = run_cli(["fail", "--coeffs", "1,0", "--initial", "1,1"])
    assert code == 1


def test_exit_code_one_on_unknown_flag(run_cli, capsys):
    code = __import__("doldseq.cli", fromlist=["run_command"]).run_command(["fail", "--bogus"])
    capsys.readouterr()
    assert code == 1


def test_exit_code_two_on_guard(run_cli):
    code, out = run_cli(["gen", "--coeffs", "10", "--initial", "1", "--horizon", "100", "--max-bits", "64"])
    assert code == 2
    doc = loads_report(out)
    assert doc.get("guard") is True
    validate(out)


def test_check_guard_document_unchanged(run_cli):
    code, out = run_cli(["check", "--coeffs", "10", "--initial", "1", "--horizon", "100", "--max-bits", "64"])
    assert code == 2
    assert out == (
        '{\n  "schema_version": "1",\n  "command": "check",\n'
        '  "error": "term 21 needs 67 bits (budget 64)",\n  "guard": true\n}\n'
    )
    validate(out)


# A valid invocation of every subcommand; --horizon is appended by the test.
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


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_ARGV))
def test_nonpositive_horizon_is_an_input_error(run_cli, tmp_path, command):
    bfile = tmp_path / "b.txt"
    bfile.write_text("1 1\n2 3\n3 4\n")
    argv = [str(bfile) if a == "BFILE" else a for a in SUBCOMMAND_ARGV[command]]
    code, _ = run_cli([*argv, "--horizon", "2"])
    assert code == 0
    for horizon in ("0", "-5"):
        code, out = run_cli([*argv, "--horizon", horizon])
        assert code == 1, (command, horizon)
        assert json.loads(out)["error"] == f"--horizon must be at least 1, got {horizon}"
        validate(out)


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
    calls = collections.Counter()
    for owner, name in ((recurrence, "char_poly"), (factorint, "factor_over_Z")):
        original = getattr(owner, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in (doldseq, recurrence, factorint, dold, cli):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    code, _ = run_cli([*command, *spec])
    assert code == 0
    assert calls == {"char_poly": 1, "factor_over_Z": 1}


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

    def no_sieve(limit):
        raise AssertionError(f"sieve up to {limit} built past the ceiling")

    # the guard stops the request before any prime is sieved
    monkeypatch.setattr(factorint, "primes_up_to", no_sieve)
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
    classified = loads_report(out)
    _, out = run_cli(["fail", *spec, "--horizon", "20"])
    assert classified["row"] == row
    assert loads_report(out)["classification"] == {k: classified[k] for k in ("row", "condition", "details")}


@pytest.mark.parametrize("heuristic", [True, False])
def test_power_claims_exact_fail_only_from_a_proven_bound(run_cli, monkeypatch, heuristic):
    # a bound equal to the golden input's empirical lower bound 6
    monkeypatch.setattr(dold, "power_fail_bound", lambda analysis, t: dold.PowerBound(6, 6, 2, heuristic))
    code, out = run_cli(GOLDEN_CASES[2][1])
    assert code == 0
    validate(out)
    doc = loads_report(out)
    assert doc["empirical_lower"] == 6 and doc["bound"]["heuristic"] is heuristic
    if heuristic:
        assert doc["fail"] is None and "exactness_source" not in doc
    else:
        assert doc["fail"] == 6 and "exactness_source" in doc


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
    ["witness", "--seed", "5", "--coeffs", "2,2,2", "--initial", "1,0,0", "--prime-bound", "20"],
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
    assert loads_report(out)["exact"] == 6
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
    assert "malformed recurrence document" in loads_report(out)["error"]
    validate(out)


def test_human_output(run_cli):
    code, out = run_cli(["classify", "--human", "--coeffs", "12,3", "--initial", "2,25"])
    assert code == 0
    assert "order-2-irreducible" in out


def test_seed_flag_accepted(run_cli):
    code, out = run_cli(["classify", "--seed", "7", "--coeffs", "0,10,0,-1", "--initial", "0,5,0,49"])
    assert code == 0
    assert loads_report(out)["row"] == "irreducible"


def test_seed_flag_does_not_outlive_the_command(run_cli):
    code, _ = run_cli(["classify", "--seed", "7", "--coeffs", "0,10,0,-1", "--initial", "0,5,0,49"])
    assert code == 0
    assert factorint.DEFAULT_SEED is None
    code, _ = run_cli(["classify", "--seed", "7"])  # input error: no recurrence given
    assert code == 1
    assert factorint.DEFAULT_SEED is None


# -- remaining subcommands ---------------------------------------------------


def test_gen_terms(run_cli):
    code, out = run_cli(["gen", "--coeffs", "12,3", "--initial", "2,25", "--horizon", "3"])
    assert code == 0
    assert loads_report(out)["terms"] == [2, 25, 306]
    validate(out)


def test_family_subcommand(run_cli):
    code, out = run_cli(["family", "--delta", "6"])
    assert code == 0
    doc = loads_report(out)
    assert doc["coeffs"] == [8, -7] and doc["initial"] == [6, 41]
    assert doc["report"]["empirical_lower"] % 6 == 0
    validate(out)


def test_family_scans_the_requested_horizon(run_cli):
    code, out = run_cli(["family", "--delta", "3", "--horizon", "80"])
    assert code == 0
    assert loads_report(out)["report"]["horizon"] == 80


def test_witness_subcommand(run_cli):
    code, out = run_cli(["witness", "--coeffs", "1,1", "--initial", "1,1"])
    assert code == 0
    doc = loads_report(out)
    assert doc["status"] == "certified" and doc["witness"] == 2
    validate(out)


def test_density_subcommand(run_cli):
    code, out = run_cli(["density", "--poly", "1,0,1", "--prime-bound", "500"])
    assert code == 0
    doc = loads_report(out)
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
    assert loads_report(out)["prime_bound"] == 100


def test_bfile_check_powers_of_two(run_cli, tmp_path):
    path = tmp_path / "b.txt"
    path.write_text("".join(f"{n} {2**n}\n" for n in range(1, 61)))
    code, out = run_cli(["bfile-check", str(path), "--horizon", "60"])
    assert code == 0
    doc = loads_report(out)
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
    doc = loads_report(out)
    assert doc["offset"] == 0
    assert any("re-based" in w for w in doc["warnings"])


def test_bfile_check_non_contiguous_limited(run_cli, tmp_path):
    path = tmp_path / "b.txt"
    path.write_text("1 1\n3 2\n")
    code, out = run_cli(["bfile-check", str(path)])
    assert code == 0
    doc = loads_report(out)
    assert doc["contiguous"] is False
    assert doc["horizon"] == 1
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
