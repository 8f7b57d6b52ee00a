"""Rewrite reference.json from the current sources.

    python3 perfbench/record.py

Run this only on a commit whose outputs are known to be right: it records
the pool of canonical-basis labels that wedge-cold draws from, and the
digest of every job that has a key, at full and at smoke-test size.  A job
whose output fails its property checks is not recorded, and the script
exits non-zero.
"""

from __future__ import annotations

import json
import random
import sys

import run
import workloads

POOL_RANKS = (3, 5, 6, 7)


def label_pool() -> dict:
    """Per ambient, the non-Uglov labels of each rank whose wedge degree is
    at most the cap, as [label, rank, fuel] with fuel the straightening
    steps their canonical element costs on a fresh engine."""
    qfock = workloads._qfock()
    from qfock.abacus import degree, from_pair
    from qfock.canonical import CanonicalBasis

    pool = {}
    for e, l, base in workloads.CANONICAL_AMBIENTS:
        entries = []
        for n in POOL_RANKS:
            uglov = qfock.crystal.uglov_set(e, l, base, n)
            for mp in qfock.partitions.multipartitions(l, n):
                if mp in uglov or degree(from_pair(mp, base, e, l)) > workloads.MAX_DEGREE:
                    continue
                basis = CanonicalBasis(e, l)
                basis.element_for_label(mp, base)
                entries.append([qfock.partitions.mp_to_text(mp), n, basis.engine._spent])
        pool["%d %d %s" % (e, l, workloads._charge_text(base))] = sorted(entries)
    return pool


def main() -> int:
    reference = {"label_pool": label_pool(), "digests": {}}
    workloads.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    workloads.reference.cache_clear()
    jobs = [workloads.probe_job()]
    for generate in workloads.WORKLOADS.values():
        for tiny in (False, True):
            jobs += generate(random.Random(0), tiny)
    bad = 0
    for job in jobs:
        if job.key is None or job.key in reference["digests"]:
            continue
        outcome = run.run_child(run.qfock_command(job.argv))
        problems = [] if outcome.rc == 0 else ["exit code %d" % outcome.rc]
        problems += [p for p in workloads.check(job, outcome.out)
                     if "reference digest" not in p]
        if problems:
            bad += 1
            print("NOT RECORDED %s: %s" % (job.key, "; ".join(problems)), file=sys.stderr)
            continue
        reference["digests"][job.key] = workloads.digest(job, outcome.out)
        print("%.2fs %s" % (outcome.wall, job.key))
    workloads.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
