"""Tests of the benchmark's own code: percentiles, failure ranking, oracle, tracer.

    python3 perfbench/selftest.py

The file name keeps these tests out of the package's pytest run.
"""

from __future__ import annotations

import json
import sys
import tempfile
import unittest
from collections import Counter
from pathlib import Path

import oracle
import run
import spans
import stats
import workloads

GOLDEN = run.ROOT / "tests" / "golden"


def golden_request(doc: dict) -> workloads.Request:
    spec = doc["input"]
    return workloads.Request(
        kind=doc["command"],
        argv=(),
        family="golden",
        coeffs=tuple(int(c) for c in spec["coeffs"]),
        initial=tuple(int(c) for c in spec["initial"]),
        horizon=int(doc["horizon"]),
        t=int(doc.get("t", 1)),
    )


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        data = [float(x) for x in range(10, 0, -1)]
        self.assertEqual(stats.percentile(data, 0, 0.5), 5.0)
        self.assertEqual(stats.percentile(data, 0, 0.9), 9.0)
        self.assertEqual(stats.percentile(data, 0, 1.0), 10.0)
        self.assertEqual(stats.percentile([3.0], 0, 0.9), 3.0)

    def test_failures_rank_above_every_success(self):
        # 1 failure in 10: p90 is still the 9th-fastest success.
        self.assertEqual(stats.percentile([float(x) for x in range(1, 10)], 1, 0.9), 9.0)
        # 2 failures in 10: more than 10% failed, so p90 is unresolved.
        self.assertIsNone(stats.percentile([float(x) for x in range(1, 9)], 2, 0.9))
        # a failure is slower than any success, however slow
        self.assertEqual(stats.percentile([1.0, 1e9], 2, 0.5), 1e9)
        self.assertIsNone(stats.percentile([1.0, 2.0], 3, 0.5))
        self.assertIsNone(stats.percentile([], 0, 0.5))

    def test_rejects_bad_quantile(self):
        for q in (0, -0.1, 1.5):
            with self.assertRaises(ValueError):
                stats.percentile([1.0], 0, q)

    def test_samples_beyond(self):
        self.assertEqual(stats.samples_beyond(100, 0.9), 10)
        self.assertEqual(stats.samples_beyond(100, 0.5), 50)
        self.assertEqual(stats.samples_beyond(0, 0.9), 0)


class FailureAccountingTest(unittest.TestCase):
    def outcome(self, code=0, error=None):
        return run.Outcome(index=0, latency=0.1, code=code, error=error, digest=b"d", nbytes=1)

    def test_each_kind(self):
        clean, wrong = {(0, b"d"): []}, {(0, b"d"): ["differs"]}
        self.assertIsNone(run.failure(self.outcome(), clean))
        self.assertEqual(run.failure(self.outcome(code=None, error="ValueError: x"), {}), "traceback")
        self.assertEqual(run.failure(self.outcome(code=1), clean), "exit-code")
        self.assertEqual(run.failure(self.outcome(), wrong), "oracle")


class OracleReferenceTest(unittest.TestCase):
    def test_mobius(self):
        self.assertEqual(oracle.mobius_table(10), [0, 1, -1, -1, 0, -1, 1, -1, 0, 0, 1])

    def test_necklace_sums_are_dold(self):
        # A_n = 2^n is the trace sequence of x - 2: n divides every S_n.
        violations, negative = oracle.dold_scan([2**n for n in range(1, 60)])
        self.assertEqual((violations, negative), ([], []))

    def test_structure(self):
        self.assertTrue(oracle.structure_almost((1, 1), (1, 3)))  # Lucas
        self.assertFalse(oracle.structure_almost((1, 1), (1, 1)))  # Fibonacci
        self.assertTrue(oracle.structure_almost((12, 3), (2, 25)))
        self.assertTrue(oracle.structure_almost((0, 10, 0, -1), (0, 20, 0, 196)))  # trace of x^4-10x^2+1
        self.assertFalse(oracle.structure_almost((0, 10, 0, -1), (1, 0, 9, 0)))
        # (x-1)^2: U_n = n is not a combination of the trace of x - 1
        self.assertFalse(oracle.structure_almost((2, -1), (1, 2)))
        self.assertTrue(oracle.structure_almost((2, -1), (3, 3)))

    def test_distinct_factors(self):
        f = oracle.char_poly((0, 10, 0, -1))
        self.assertEqual(oracle.distinct_factors(f), [f])
        # (x^2 + 1)(x^2 - 2) = x^4 - x^2 - 2
        self.assertCountEqual(oracle.distinct_factors([-2, 0, -1, 0, 1]), [[1, 0, 1], [-2, 0, 1]])
        # (x - 1)^2 (x + 2)
        self.assertCountEqual(oracle.distinct_factors([2, -3, 0, 1]), [[-1, 1], [2, 1]])

    def test_mod_p(self):
        biquadratic = [1, 0, -10, 0, 1]
        for p in oracle.primes_upto(200):
            if oracle.squarefree_mod(biquadratic, p):
                self.assertFalse(oracle.irreducible_mod(biquadratic, p), p)
        self.assertTrue(oracle.irreducible_mod([1, 0, 1], 3))
        self.assertFalse(oracle.irreducible_mod([1, 0, 1], 5))
        self.assertTrue(oracle.irreducible_mod([1, 1, 0, 1], 2))  # x^3 + x + 1
        self.assertTrue(oracle.has_root_mod([1, 0, 1], 5))
        self.assertFalse(oracle.has_root_mod([1, 0, 1], 7))
        self.assertEqual(oracle.squarefree_part([2, -3, 0, 1]), [-2, 1, 1])

    def test_residue_scan_matches_exact_scan(self):
        coeffs, initial, t, horizon = (3, -1, 2), (1, -2, 5), 2, 12
        a = oracle.terms(coeffs, initial, horizon**t)
        for m in (1, 7, 12):
            self.assertEqual(oracle.term_mod(coeffs, initial, 100, m), a[99] % m)
        exact, _ = oracle.dold_scan([a[n**t - 1] for n in range(1, horizon + 1)])
        self.assertEqual(oracle.power_deficiencies(coeffs, initial, t, horizon), [(n, d) for n, _, d in exact])


class OracleGoldenTest(unittest.TestCase):
    """The committed golden reports are known-good answers."""

    def goldens(self):
        paths = sorted(GOLDEN.glob("*.json"))
        self.assertTrue(paths)
        for path in paths:
            text = path.read_text()
            yield path.name, golden_request(json.loads(text)), text

    def test_goldens_pass(self):
        for name, req, text in self.goldens():
            with self.subTest(name):
                self.assertEqual(oracle.check(req, text), [])

    def test_wrong_deficiency_is_caught(self):
        for name, req, text in self.goldens():
            doc = json.loads(text)
            key = "violations" if req.kind == "fail" else "dold_violations"
            doc[key][0]["deficiency"] = str(int(doc[key][0]["deficiency"]) + 1)
            with self.subTest(name):
                self.assertTrue(oracle.check(req, json.dumps(doc)))

    def test_wrong_verdict_is_caught(self):
        doc = json.loads((GOLDEN / "fail_example.json").read_text())
        doc["verdict"] = "not-almost-dold"
        doc["structure"] = {"almost": False, "refutation_index": "1"}
        self.assertTrue(oracle.check(golden_request(doc), json.dumps(doc)))

    def test_power_fields_left_open_are_not_pinned(self):
        # A residue scan may report S_n mod n, and exactness may be withdrawn.
        doc = json.loads((GOLDEN / "power_order4.json").read_text())
        for v in doc["dold_violations"]:
            v["mobius_sum"] = str(int(v["mobius_sum"]) % int(v["n"]))
        doc["fail"] = None
        self.assertEqual(oracle.check(golden_request(doc), json.dumps(doc)), [])

    def test_error_report_is_caught(self):
        req = golden_request(json.loads((GOLDEN / "check_fibonacci.json").read_text()))
        self.assertTrue(oracle.check(req, '{"command": "check", "error": "boom"}'))
        self.assertTrue(oracle.check(req, "not json"))


class AlgebraOracleTest(unittest.TestCase):
    def request(self, kind, poly, bound):
        d = len(poly) - 1
        coeffs = tuple(-poly[d - i] for i in range(1, d + 1))
        return workloads.Request(kind, (), "t", coeffs, (0,) * d, prime_bound=bound, poly=tuple(poly))

    def test_witness(self):
        req = self.request("witness", [1, 1, 0, 1], 50)  # x^3 + x + 1, irreducible mod 2
        self.assertEqual(oracle.check(req, '{"command": "witness", "status": "certified", "witness": "2"}'), [])
        self.assertTrue(oracle.check(req, '{"command": "witness", "status": "certified", "witness": "3"}'))
        self.assertTrue(oracle.check(req, '{"command": "witness", "status": "no-witness", "searched_up_to": "50"}'))
        biq = self.request("witness", [1, 0, -10, 0, 1], 50)
        self.assertEqual(oracle.check(biq, '{"command": "witness", "status": "no-witness", "searched_up_to": "50"}'), [])

    def test_density(self):
        # x^2 + 1 has a root mod p exactly for p = 1 mod 4; p = 2 is ramified.
        req = self.request("density", [1, 0, 1], 100)
        good = '{"command": "density", "density": {"numerator": "11", "denominator": "24"}}'
        self.assertEqual(oracle.check(req, good), [])
        self.assertTrue(oracle.check(req, good.replace('"11"', '"12"')))


class WorkloadTest(unittest.TestCase):
    def test_same_seed_same_pool_and_fixed_composition(self):
        a = workloads.build("algebra", 3, Path("."))
        self.assertEqual(a, workloads.build("algebra", 3, Path(".")))
        b = workloads.build("algebra", 4, Path("."))
        self.assertNotEqual([r.argv for r in a], [r.argv for r in b])
        self.assertEqual(Counter(r.family for r in a), Counter(r.family for r in b))

    def test_scan_bfiles_and_bands(self):
        with tempfile.TemporaryDirectory() as tmp:
            pool = workloads.build("scan", 5, Path(tmp))
            for req in pool:
                self.assertTrue(0.2 <= workloads.growth(req.coeffs, req.initial) < 1.1)
                if req.kind == "bfile-check":
                    lines = Path(req.argv[1]).read_text().splitlines()[1:]
                    self.assertEqual(len(lines), req.horizon)
                    first = [int(line.split()[1]) for line in lines[:5]]
                    self.assertEqual(first, oracle.terms(req.coeffs, req.initial, 5))

    def test_negative_lists_use_equals_form(self):
        for req in workloads.build("power", 1, Path(".")):
            self.assertFalse(any(arg.startswith("-") and arg[1:2].isdigit() for arg in req.argv))


class TracerTest(unittest.TestCase):
    def test_wraps_every_namespace_and_restores(self):
        sys.path.insert(0, str(run.SRC))
        from doldseq import dold, numth, polyring, recurrence

        original = numth.mobius
        tracer = spans.Tracer()
        tracer.install()
        try:
            self.assertIsNot(dold.mobius, original)
            self.assertIs(dold.mobius, numth.mobius)
            view = recurrence.sequence_view(recurrence.make_recurrence([1, 1], [1, 3]))
            dold.mobius_sum(view, 12)
            polyring.ModPoly.make([1, 2], 5).mul(polyring.ModPoly.make([3], 5))
            tracer.collect()
        finally:
            tracer.uninstall()
        self.assertIs(dold.mobius, original)
        self.assertIs(numth.mobius, original)
        self.assertEqual(tracer.calls["dold.mobius_sum"], 1)
        self.assertEqual(tracer.calls["numth.divisors"], 1)
        self.assertEqual(tracer.calls["numth.mobius"], 6)  # once per divisor of 12
        self.assertEqual(tracer.calls["recurrence.SequenceView.term"], 6)
        self.assertEqual(tracer.child_calls["dold.mobius_sum", "numth.mobius"], 6)
        self.assertGreaterEqual(tracer.calls["polyring.ModPoly.make"], 3)
        self.assertEqual(tracer.calls["polyring.ModPoly.mul"], 1)
        self.assertEqual(tracer.term_bits_max, 9)  # L_12 = 322
        for name, value in tracer.self_s.items():
            self.assertGreaterEqual(value, 0.0, name)


if __name__ == "__main__":
    unittest.main()
