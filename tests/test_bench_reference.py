"""The benchmark's output checks, run in-process on its job lists.

perfbench/workloads.py holds SHA-256 digests of known-good CLI output and
property checks (Uglov set = FLOTW set, sorted a-value tables, the paper's
rank-4 matrices, unit bar diagonals, canonical coefficients in qZ[q]).
Running its `tiny` jobs of all three workloads, and the full-size jobs of
one seed (the ones a benchmark run times), here makes any byte drift in
`uglov-set`, `avalue`, `crystal`, `decomp` or `bar` output, and any broken
`canonical` element, fail the test suite, not only a benchmark run.
perfbench/tracer.py names the functions it wraps and the caches it reads
by strings, so a rename in src/ would silently zero a per-layer metric;
its targets are resolved here too.  Both modules are loaded read-only from
their files; nothing under perfbench/ is written.
"""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

from qfock.canonical import CanonicalBasis
from qfock.cli import main
from qfock.wedge import WedgeEngine

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = PERFBENCH / "workloads.py"

# The trace targets whose code has left src/ and that the tracer still
# names (it warns about each); a target that stops resolving is not added
# here but mended in the tracer.
STALE_TARGETS = {
    ("qfock.cli", "_payload_csv"),
    ("qfock.cli", "_payload_latex"),
    ("qfock.cli", "_wedge_vector_text"),
    ("qfock.partitions", "addable_nodes"),
    ("qfock.partitions", "removable_nodes"),
    ("qfock.crystal", "good_node"),
    ("qfock.wedge", "WedgeEngine.insert"),
    ("qfock.wedge", "WedgeEngine.bar_vector"),
    ("qfock.laurent", "LaurentPoly.eval_one"),
    ("qfock.laurent", "LaurentPoly.truncate_positive"),
    ("qfock.laurent", "LaurentPoly.bar"),
    ("qfock.wedge", "vector_to_json"),
    ("qfock.fock", "fock_to_json"),
}


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


def test_trace_targets_resolve_but_for_the_known_stale_ones():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)

    def found(module_name, attr):
        owner, name = tracer._resolve(module_name, attr)
        return owner is not None and getattr(owner, name, None) is not None

    missing = {(m, attr) for m, attr, _layer, _counter in tracer.TARGETS if not found(m, attr)}
    assert missing <= STALE_TARGETS
    assert all(found(m, cls + ".__init__") for m, cls in tracer.INSTANCES)
    # the caches the tracer reads off each registered instance
    reader = tracer.Tracer()
    reader.instances = [WedgeEngine(4, 2), CanonicalBasis(4, 2)]
    reader.gauges()
    assert reader.warnings == []
