"""doldseq benchmark: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 30 --trace 0

Run from the root of a doldseq checkout; the package is imported from
its `src/` directory.  One client sends requests to
`doldseq.cli.run_command` in a closed loop (no threads, no think time),
in whole passes through the seed's request pool until `--seconds` of
request time have been spent.  Stdout is captured in memory, so JSON
encoding is timed and terminal I/O is not.  Every distinct report is
checked afterwards by the stdlib-only oracle in `oracle.py`.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
and traced passes and prints the per-layer metrics instead.  A summary
table comes first; the last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import oracle
import spans
import stats
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_RUNS = 21
SETUP_PROBE = (
    "import sys, time; sys.path.insert(0, {src!r}); "
    "t = time.perf_counter(); import doldseq.cli; print(time.perf_counter() - t)"
)
EXPECTED_EXIT = 0  # every generated request is valid input


@dataclass(frozen=True)
class Outcome:
    index: int  # position in the pool
    latency: float
    code: int | None  # exit code; None when run_command raised
    error: str | None  # the exception, when it raised
    digest: bytes
    nbytes: int


class Runner:
    def __init__(self, cli, pool: list[workloads.Request], workdir: Path):
        self.cli = cli
        self.pool = pool
        self.workdir = workdir
        self.stored: dict[tuple[int, bytes], Path] = {}  # one file per distinct report

    def call(self, argv) -> tuple[float, int | None, str | None, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            start = time.perf_counter()
            try:
                code, error = self.cli.run_command(list(argv)), None
            except Exception as exc:  # a traceback: the request failed
                code, error = None, f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - start
        return latency, code, error, buf.getvalue()

    def run_pass(self, tracer: spans.Tracer | None = None) -> list[Outcome]:
        out = []
        for i, req in enumerate(self.pool):
            latency, code, error, text = self.call(req.argv)
            if tracer is not None:
                tracer.collect()
            data = text.encode()
            digest = hashlib.blake2b(data, digest_size=16).digest()
            if error is None and (i, digest) not in self.stored:
                path = self.workdir / f"report{len(self.stored)}.json"
                path.write_bytes(data)
                self.stored[i, digest] = path
            out.append(Outcome(i, latency, code, error, digest, len(data)))
        return out

    def verify(self) -> dict[tuple[int, bytes], list[str]]:
        return {key: oracle.check(self.pool[key[0]], path.read_text()) for key, path in self.stored.items()}


def failure(o: Outcome, problems: dict) -> str | None:
    """Why the request failed, or None when its report is correct."""
    if o.error is not None:
        return "traceback"
    if o.code != EXPECTED_EXIT:
        return "exit-code"
    if problems[o.index, o.digest]:
        return "oracle"
    return None


def measure_setup() -> list[float]:
    """Seconds for a fresh interpreter to import doldseq.cli, once per launch.

    One launch first, untimed, so that byte-code compilation (paid once
    per checkout, not per call) stays out of the figure.
    """
    argv = [sys.executable, "-I", "-c", SETUP_PROBE.format(src=str(SRC))]
    times = []
    for i in range(SETUP_RUNS + 1):
        done = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=60)
        if i:
            times.append(float(done.stdout))
    return times


def import_cli():
    if not (SRC / "doldseq" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no doldseq sources under {SRC}; run from a doldseq checkout")
    sys.path.insert(0, str(SRC))
    from doldseq import cli

    if Path(cli.__file__).resolve().parent != SRC / "doldseq":
        raise SystemExit(f"perfbench: imported doldseq from {cli.__file__}, not from {SRC}")
    return cli


def family_table(pool, outcomes, problems) -> list[str]:
    rows: dict[str, list] = {}
    for o in outcomes:
        row = rows.setdefault(pool[o.index].family, [[], Counter()])
        row[0].append(o.latency)
        row[1][failure(o, problems)] += 1
    lines = [f"  {'family':28} {'n':>5} {'failed':>6} {'p50 ms':>10} {'max ms':>10}"]
    for family in sorted(rows):
        lat, kinds = rows[family]
        failed = sum(v for k, v in kinds.items() if k)
        lines.append(
            f"  {family:28} {len(lat):5d} {failed:6d} {1e3 * statistics.median(lat):10.2f} {1e3 * max(lat):10.2f}"
        )
    return lines


def end_to_end(runner: Runner, seconds: float):
    setup = measure_setup()
    outcomes: list[Outcome] = []
    busy = 0.0
    passes = 0
    while busy < seconds or not passes:
        batch = runner.run_pass()
        outcomes += batch
        busy += sum(o.latency for o in batch)
        passes += 1
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems = runner.verify()
    kinds = [failure(o, problems) for o in outcomes]
    ok = [o.latency for o, k in zip(outcomes, kinds) if k is None]
    failed = len(outcomes) - len(ok)
    n = len(outcomes)
    p50, p90 = (stats.percentile(ok, failed, q) for q in (0.5, 0.9))
    metrics = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "latency_p50_ms": {"value": None if p50 is None else 1e3 * p50, "unit": "ms"},
        "latency_p90_ms": {"value": None if p90 is None else 1e3 * p90, "unit": "ms"},
        "goodput_rps": {"value": len(ok) / busy, "unit": "1/s"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "latency_p50_ms": f"{n} samples, {stats.samples_beyond(n, 0.5)} above",
        "latency_p90_ms": f"{n} samples, {stats.samples_beyond(n, 0.9)} above",
        "goodput_rps": f"{len(ok)} correct in {busy:.2f} s of requests",
        "peak_rss_mb": "peak RSS of this process",
    }
    lines = [f"passes {passes} x {len(runner.pool)} requests"]
    for name, m in metrics.items():
        value = "unresolved" if m["value"] is None else f"{m['value']:.6g}"
        lines.append(f"  {name:16} {value:>12} {m['unit']:3}  ({notes[name]})")
    lines.append(f"  {'error_rate':16} {failed / n:>12.6g} {'':3}  ({failed} of {n} failed: {dict(Counter(kinds))})")
    lines += family_table(runner.pool, outcomes, problems)
    errors = Counter(o.error[:120] for o in outcomes if o.error)
    lines += [f"  traceback x{count}: {msg}" for msg, count in errors.items()]
    lines += [f"  oracle: {runner.pool[i].argv}: {p}" for (i, _), ps in problems.items() for p in ps]
    return metrics, outcomes, lines, kinds


def per_layer(runner: Runner, seconds: float):
    tracer = spans.Tracer()
    outcomes: list[Outcome] = []
    untraced = traced = 0.0
    passes = 0
    while untraced + traced < seconds or not passes:
        batch = runner.run_pass()
        untraced += sum(o.latency for o in batch)
        outcomes += batch
        tracer.install()
        try:
            batch = runner.run_pass(tracer)
        finally:
            tracer.uninstall()
        traced += sum(o.latency for o in batch)
        outcomes += batch
        passes += 1
    out_bytes = sum(o.nbytes for o in batch)
    problems = runner.verify()
    kinds = [failure(o, problems) for o in outcomes]
    calls, self_s = tracer.calls, tracer.self_s
    requests = len(runner.pool)
    indices = sum(r.horizon for r in runner.pool)

    def per_pass(counter, name):
        return counter[name] / passes

    witness, fmp = "factorint.irreducibility_witness", "factorint.factor_mod_p"
    metrics = {
        "numth.is_prime.calls": (per_pass(calls, "numth.is_prime"), "count"),
        "numth.is_prime.self_s": (per_pass(self_s, "numth.is_prime"), "s"),
        "polyring.ModPoly.make.calls": (per_pass(calls, "polyring.ModPoly.make"), "count"),
        "polyring.ModPoly.self_s": (tracer.layer_self_s("polyring.ModPoly") / passes, "s"),
        "factorint.factor_mod_p.calls": (per_pass(calls, fmp), "count"),
        "factorint.factor_mod_p.self_s": (per_pass(self_s, fmp), "s"),
        "factorint.hensel_lift.self_s": (per_pass(self_s, "factorint.hensel_lift"), "s"),
        "factorint.irreducibility_witness.primes_per_call": (
            tracer.child_calls[witness, fmp] / max(calls[witness], 1),
            "primes/call",
        ),
        "numth.factorize.calls": (per_pass(calls, "numth.factorize"), "count"),
        "numth.mobius.calls": (per_pass(calls, "numth.mobius"), "count"),
        "numth.divisors.calls": (per_pass(calls, "numth.divisors"), "count"),
        "dold.mobius_sum.calls": (per_pass(calls, "dold.mobius_sum"), "count"),
        "dold.mobius_sum.self_s": (per_pass(self_s, "dold.mobius_sum"), "s"),
        "dold.mobius_sum.calls_per_index": (per_pass(calls, "dold.mobius_sum") / max(indices, 1), "calls/index"),
        "factorint.factor_over_Z.calls_per_request": (
            per_pass(calls, "factorint.factor_over_Z") / requests,
            "calls/request",
        ),
        "polyring.discriminant.calls_per_request": (per_pass(calls, "polyring.discriminant") / requests, "calls/request"),
        "recurrence.SequenceView.term.calls": (per_pass(calls, spans.TERM), "count"),
        "recurrence.SequenceView.term.self_s": (per_pass(self_s, spans.TERM), "s"),
        "recurrence.term_bits_max": (tracer.term_bits_max, "bits"),
        "recurrence.structure_test.self_s": (per_pass(self_s, "recurrence.structure_test"), "s"),
        "cli.dumps_report.self_s": (per_pass(self_s, "cli.dumps_report"), "s"),
        "cli.parse_bfile.self_s": (per_pass(self_s, "cli.parse_bfile"), "s"),
        "cli.output_bytes": (out_bytes, "bytes"),
    }
    layer_total = {layer: tracer.layer_self_s(layer) / passes for layer in spans.LAYERS}
    for layer, value in layer_total.items():
        metrics[f"{layer}.self_s"] = (value, "s")
    metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")
    total = sum(layer_total.values()) or 1.0
    lines = [f"passes {passes} untraced + {passes} traced x {requests} requests; figures per pass"]
    lines += [f"  {name:50} {value:>14.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines.append("  layer shares of traced self time: " + ", ".join(
        f"{layer} {100 * v / total:.1f}%" for layer, v in layer_total.items()
    ))
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, outcomes, lines, kinds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.POOLS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    cli = import_cli()
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        pool = workloads.build(args.workload, args.seed, workdir)
        runner = Runner(cli, pool, workdir)
        measure = per_layer if args.trace else end_to_end
        metrics, outcomes, lines, kinds = measure(runner, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}: " + lines[0])
    print("\n".join(lines[1:]))
    wrong = sum(k in ("exit-code", "oracle") for k in kinds)
    result = {
        "correct": wrong == 0,
        "attempted": len(outcomes),
        "failed": sum(k is not None for k in kinds),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
