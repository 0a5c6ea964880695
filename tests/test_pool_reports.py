"""Every report of the benchmark's `scan` and `algebra` pools, seeds 1-4, byte for byte.

The pools come from ``perfbench/workloads.py``, run in one process as the
benchmark runs them.  The digest is the sha256 over each request's exit
code and stdout, in pool order.  A change that alters a report on purpose
updates POOL_REPORTS_SHA256 and says why.
"""

import contextlib
import hashlib
import importlib
import io
import pathlib

from doldseq import cli

PERFBENCH = pathlib.Path(__file__).parent.parent / "perfbench"
POOLS = ("scan", "algebra")
SEEDS = (1, 2, 3, 4)
POOL_REPORTS_SHA256 = "de32c18a48610d037501f45d2ab88329b8e96a3e854b2fa7cb9a1667f4553d11"


def test_pool_reports_are_unchanged(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    digest = hashlib.sha256()
    for workload in POOLS:
        for seed in SEEDS:
            workdir = tmp_path / f"{workload}{seed}"
            workdir.mkdir()
            for request in workloads.build(workload, seed, workdir):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.run_command(list(request.argv))
                digest.update(f"{code}\n{out.getvalue()}".encode())
    assert digest.hexdigest() == POOL_REPORTS_SHA256
