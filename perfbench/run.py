"""Layered benchmark for qfock.

    python3 perfbench/run.py --workload decomp-paper --seed 1 --seconds 30 --trace 0

Runs one workload as a closed loop: one client, one `python -m qfock.cli`
child at a time, each started after the previous one exited.  Children run
against this checkout's src/, with QFOCK_CACHE_DIR unset, PYTHONHASHSEED
pinned, a wall-clock timeout and an address-space limit.  Every output is
checked (see workloads.py).

--trace 0 repeats the workload's jobs until --seconds have passed and
reports the end-to-end metrics: wall_s and cpu_s (sums over the jobs of
each job's median), peak_rss_mb (largest child), setup_s (median wall time
of a child that computes nothing).  Times are scaled to a reference speed
by calibration children run between the jobs (see measure).  --trace 1
replays the same jobs through qfock.cli.main in a child with and without
the span wrappers of tracer.py and reports the per-layer metrics.  The last
stdout line is one JSON object with the keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

import tracer
import workloads
from workloads import ROOT, SRC

JOB_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 150.0  # launch no child after this; the run must end within 180 s
ADDRESS_SPACE_LIMIT = 2 << 30
PROBES_PER_PASS = 4
CALIBRATE = Path(__file__).resolve().parent / "calibrate.py"
# Wall time of one calibrate.py child on a 2-core Intel Xeon at 2.1 GHz
# with CPython 3.11.7, at a quiet time.  Reported times are scaled to that
# speed.
CALIBRATION_REF_S = 0.125


class Outcome(NamedTuple):
    """What one child did: exit code, outputs, wall and CPU seconds, peak RSS."""

    rc: int
    out: str
    err: str
    wall: float
    cpu: float
    rss_kb: int
    timed_out: bool


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("QFOCK_CACHE_DIR", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # children import from cached bytecode, as installs do
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))


def run_child(cmd, timeout=JOB_TIMEOUT_S) -> Outcome:
    """Run cmd to completion and reap it with os.wait4 for its rusage.
    A timer kills the child after `timeout` seconds."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            preexec_fn=_limit_address_space)
    killed = threading.Event()

    def kill():
        killed.set()
        proc.kill()

    timer = threading.Timer(timeout, kill)
    timer.start()
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
    except BaseException:
        proc.kill()
        raise
    finally:
        # Once joined, the timer cannot fire, so no kill reaches a reaped pid.
        timer.cancel()
        timer.join()
        _pid, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - start
    return Outcome(proc.returncode, out.decode(errors="replace"), err[0].decode(errors="replace"),
                   wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, killed.is_set())


def qfock_command(argv) -> list:
    return [sys.executable, "-m", "qfock.cli", *argv]


def traced_command(argv, traced) -> list:
    return [sys.executable, str(Path(tracer.__file__)), "1" if traced else "0", *argv]


class Tally:
    """Attempted and failed child runs, with the reason for each failure."""

    def __init__(self, deadline):
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run(self, job, cmd):
        """Run one job; returns its Outcome, or None when the run is out of time."""
        self.attempted += 1
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            self._fail(job, ["not started: run deadline reached"])
            return None
        outcome = run_child(cmd, min(JOB_TIMEOUT_S, remaining + 20))
        if outcome.timed_out:
            problems = ["killed after the timeout"]
        elif outcome.rc != 0:
            problems = ["exit code %d: %s" % (outcome.rc, outcome.err.strip()[-300:])]
        else:
            problems = workloads.check(job, outcome.out)
        if problems:
            self._fail(job, problems)
        return outcome

    def _fail(self, job, problems):
        self.failed += 1
        self.problems.append("%s: %s" % (" ".join(job.argv), "; ".join(problems)))


def calibrate() -> Outcome:
    """One run of calibrate.py: how fast the machine runs Python right now."""
    outcome = run_child([sys.executable, str(CALIBRATE)])
    if outcome.rc != 0 or outcome.timed_out:
        raise RuntimeError("calibration run failed: %s" % outcome.err.strip()[-300:])
    return outcome


def measure(jobs, seconds, tally, command=qfock_command):
    """End-to-end metrics, tracing off.

    Each pass runs a few set-up probes and then every job once; passes
    repeat until `seconds` have elapsed.  A calibration child runs before
    and after every child, and the child's times are scaled by
    CALIBRATION_REF_S over the mean of those two: on a shared machine whose
    speed drifts by a third over minutes, that ratio stays steady where raw
    seconds do not.  Returns the metrics, the same sums in raw seconds, and
    the pass count.
    """
    probe = workloads.probe_job()
    tally.run(probe, command(probe.argv))  # warm the file cache and bytecode
    order = [probe] * PROBES_PER_PASS + list(jobs)
    samples = [[] for _ in order]  # per slot: (wall, cpu, scaled wall, scaled cpu)
    peak_kb = 0
    before = calibrate()
    start = time.monotonic()
    passes = 0
    while passes == 0 or time.monotonic() - start < seconds:
        if time.monotonic() >= tally.deadline:
            break
        for slot, job in enumerate(order):
            outcome = tally.run(job, command(job.argv))
            if outcome is None:
                break
            after = calibrate()
            ref_wall = (before.wall + after.wall) / 2
            ref_cpu = (before.cpu + after.cpu) / 2
            samples[slot].append((
                outcome.wall, outcome.cpu,
                outcome.wall * CALIBRATION_REF_S / ref_wall,
                outcome.cpu * CALIBRATION_REF_S / ref_cpu,
            ))
            if slot >= PROBES_PER_PASS:
                peak_kb = max(peak_kb, outcome.rss_kb)
            before = after
        passes += 1

    def job_sum(column):
        return sum(statistics.median(s[column] for s in slot)
                   for slot in samples[PROBES_PER_PASS:] if slot)

    def setup(column):
        values = [s[column] for slot in samples[:PROBES_PER_PASS] for s in slot]
        return statistics.median(values) if values else 0.0

    metrics = {
        "wall_s": (job_sum(2), "s"),
        "cpu_s": (job_sum(3), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MiB"),
        "setup_s": (setup(2), "s"),
    }
    raw = {"wall_s": job_sum(0), "cpu_s": job_sum(1), "setup_s": setup(0)}
    return metrics, raw, passes


def measure_layers(jobs, seconds, tally):
    """Per-layer metrics: each pass runs every job in-process without and
    then with the span wrappers; counts must repeat exactly across passes."""
    passes = []
    start = time.monotonic()
    while not passes or time.monotonic() - start < seconds:
        if time.monotonic() >= tally.deadline:
            break
        plain_s = 0.0
        totals = tracer.empty_totals()
        for job in jobs:
            plain = tally.run(job, traced_command(job.argv, False))
            traced = tally.run(job, traced_command(job.argv, True))
            if plain is None or traced is None:
                break
            plain_s += _trace_record(plain)["main_s"]
            record = _trace_record(traced)
            tracer.add_totals(totals, record)
            for warning in record["warnings"]:
                print("warning: %s" % warning, file=sys.stderr)
        layers = tracer.layer_metrics(totals)
        layers["trace.main_s"] = (totals["main_s"], "s")
        passes.append((layers, totals["main_s"] / plain_s if plain_s else 0.0))
    first = passes[0][0]
    for later, _overhead in passes[1:]:
        moved = [name for name, (value, unit) in first.items()
                 if unit == "count" and later[name][0] != value]
        if moved:
            tally.failed += 1
            tally.problems.append("counts differ between passes: %s" % ", ".join(moved))
    metrics = {}
    for name, (_value, unit) in first.items():
        values = [m[name][0] for m, _o in passes]
        metrics[name] = (values[0] if unit == "count" else statistics.median(values), unit)
    metrics["trace.overhead_ratio"] = (statistics.median(o for _m, o in passes), "ratio")
    return metrics, len(passes)


def _trace_record(outcome) -> dict:
    for line in reversed(outcome.err.splitlines()):
        if line.startswith(tracer.MARK):
            return json.loads(line[len(tracer.MARK):])
    return dict(tracer.empty_totals(), warnings=["traced child left no record"])


def provenance(args) -> dict:
    """Facts recorded beside the numbers; none of them is gated."""
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": _git_commit(),
        "src_lines": src_lines,
    }


def _git_commit():
    """HEAD of the checkout if it is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qfock" / "cli.py").is_file():
        print("perfbench: no qfock sources under %s" % SRC, file=sys.stderr)
        return 2

    jobs = workloads.WORKLOADS[args.workload](random.Random(args.seed))
    tally = Tally(time.monotonic() + RUN_DEADLINE_S)
    raw = {}
    if args.trace:
        metrics, passes = measure_layers(jobs, args.seconds, tally)
    else:
        metrics, raw, passes = measure(jobs, args.seconds, tally)

    for problem in tally.problems:
        print("FAILED %s" % problem, file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print("%-14s %-34s %14.6g %s" % (args.workload, name, value, unit))
    for name, value in raw.items():
        print("%-14s %-34s %14.6g s (unscaled)" % (args.workload, name, value))
    print("%-14s %-34s %14.6g ratio (%d of %d child runs, %d passes)" % (
        args.workload, "failed_ratio", tally.failed / tally.attempted, tally.failed,
        tally.attempted, passes))
    print("provenance " + json.dumps(provenance(args), sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
