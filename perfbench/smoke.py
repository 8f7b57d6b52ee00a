"""Smoke test of the benchmark itself, at tiny sizes (about half a minute).

    python3 perfbench/smoke.py

Shows that every workload passes its checks, that a corrupted output, a
non-zero exit, a timeout and a memory-limit kill each count as failures,
and that the traced run reports every per-layer metric with repeatable
counts.
"""

from __future__ import annotations

import json
import random
import sys
import time
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())

# Runs qfock.cli.main and prints its output with the first "1" made a "2".
CORRUPT = (
    "import contextlib, io, sys\n"
    "import qfock.cli\n"
    "buf = io.StringIO()\n"
    "with contextlib.redirect_stdout(buf):\n"
    "    rc = qfock.cli.main(sys.argv[1:])\n"
    "sys.stdout.write(buf.getvalue().replace('1', '2', 1))\n"
    "sys.exit(rc)\n"
)


def tiny_jobs(workload, seed=7):
    return workloads.WORKLOADS[workload](random.Random(seed), tiny=True)


def new_tally():
    return run.Tally(time.monotonic() + 120)


class EndToEnd(unittest.TestCase):
    def test_every_workload_passes_at_tiny_size(self):
        names = {m["name"] for m in BENCHMARK["end_to_end"]}
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                tally = new_tally()
                metrics, _raw, passes = run.measure(tiny_jobs(workload), 0, tally)
                self.assertEqual(tally.problems, [])
                self.assertEqual(passes, 1)
                self.assertEqual(set(metrics), names)
                self.assertTrue(all(value > 0 for value, _unit in metrics.values()))

    def test_corrupted_output_is_a_failure(self):
        tally = new_tally()
        run.measure(tiny_jobs("decomp-paper"), 0, tally,
                    command=lambda argv: [sys.executable, "-c", CORRUPT, *argv])
        self.assertGreater(tally.failed / tally.attempted, 0)
        self.assertTrue(any("digest" in p or "paper" in p for p in tally.problems))

    def test_nonzero_exit_is_a_failure(self):
        tally = new_tally()
        run.measure(tiny_jobs("combinatorics"), 0, tally,
                    command=lambda argv: [sys.executable, "-c", "import sys; sys.exit(3)"])
        self.assertEqual(tally.failed, tally.attempted)

    def test_timeout_and_memory_limit_are_failures(self):
        job = workloads.probe_job()
        tally = new_tally()
        saved = run.JOB_TIMEOUT_S
        run.JOB_TIMEOUT_S = 1.0
        try:
            start = time.monotonic()
            tally.run(job, [sys.executable, "-c", "import time; time.sleep(30)"])
            self.assertLess(time.monotonic() - start, 10)
        finally:
            run.JOB_TIMEOUT_S = saved
        # Larger than the address-space limit, so it fails before touching memory.
        tally.run(job, [sys.executable, "-c", "bytearray(%d)" % (run.ADDRESS_SPACE_LIMIT + (1 << 30))])
        self.assertEqual(tally.failed, 2)
        self.assertIn("killed after the timeout", tally.problems[0])
        self.assertIn("MemoryError", tally.problems[1])


class Layers(unittest.TestCase):
    def traced(self, workload):
        tally = new_tally()
        metrics, _passes = run.measure_layers(tiny_jobs(workload), 0, tally)
        self.assertEqual(tally.problems, [])
        self.assertEqual(set(metrics), {m["name"] for m in BENCHMARK["per_layer"]})
        return {name: value for name, (value, _unit) in metrics.items()}

    def test_counts_repeat_and_reach_every_namespace(self):
        first = self.traced("decomp-paper")
        second = self.traced("decomp-paper")
        counts = [m["name"] for m in BENCHMARK["per_layer"] if m["unit"] == "count"]
        self.assertEqual({n: first[n] for n in counts}, {n: second[n] for n in counts})
        for name in ("laurent.mul_calls", "wedge.bar_calls", "wedge.fuel", "canonical.elements",
                     "avalue.a_rel_calls", "abacus.from_pair_calls", "crystal.good_node_calls"):
            self.assertGreater(first[name], 0, name)
        self.assertEqual(first["wedge.fuel"], first["wedge.insert_cache_entries"])
        self.assertEqual(first["fock.apply_f_calls"], 0)

    def test_combinatorics_runs_no_wedge_code(self):
        metrics = self.traced("combinatorics")
        for name, value in metrics.items():
            if name.startswith(("wedge.", "laurent.")):
                self.assertEqual(value, 0, name)
        for name in ("partitions.node_calls", "crystal.uglov_set_s", "crystal.graph_s",
                     "avalue.a_rel_calls", "cli.render_s"):
            self.assertGreater(metrics[name], 0, name)


if __name__ == "__main__":
    unittest.main()
