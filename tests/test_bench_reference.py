"""The benchmark's output checks, run in-process on its job lists.

perfbench/workloads.py holds SHA-256 digests of known-good CLI output and
property checks (Uglov set = FLOTW set, sorted a-value tables, the paper's
rank-4 matrices, unit bar diagonals, canonical coefficients in qZ[q]).
Running its `tiny` jobs of all three workloads, and the full-size jobs of
one seed (the ones a benchmark run times), here makes any byte drift in
`uglov-set`, `avalue`, `crystal`, `decomp` or `bar` output, and any broken
`canonical` element, fail the test suite, not only a benchmark run.  The
module is loaded read-only from its file; nothing under perfbench/ is
written.
"""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

from qfock.cli import main

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def _run_and_check(workloads, jobs, capsys):
    assert jobs
    for job in jobs:
        code = main(list(job.argv))
        out, err = capsys.readouterr()
        assert (code, err) == (0, ""), job.argv
        assert workloads.check(job, out) == [], job.argv


@pytest.mark.parametrize("workload", ["combinatorics", "decomp-paper", "wedge-cold"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_tiny_jobs_pass_the_benchmark_checks(workloads, workload, seed, capsys, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the checks may prepend src/
    _run_and_check(workloads, workloads.WORKLOADS[workload](random.Random(seed), tiny=True), capsys)


@pytest.mark.parametrize("workload", ["combinatorics", "decomp-paper", "wedge-cold"])
def test_full_jobs_pass_the_benchmark_checks(workloads, workload, capsys, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    _run_and_check(workloads, workloads.WORKLOADS[workload](random.Random(1)), capsys)
