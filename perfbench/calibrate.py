"""A fixed pure-Python workload that measures how fast this machine runs
Python right now.

    python3 perfbench/calibrate.py

It imports nothing from qfock, so no change to the program moves it.  Its
mix resembles qfock's hot paths: sparse {exponent: coefficient} products,
memo dictionaries keyed by tuples, and sorting of tuples.
"""

from __future__ import annotations

ROUNDS = 20


def _mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = e1 + e2
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            elif e in out:
                del out[e]
    return out


def work() -> int:
    checksum = 0
    for r in range(ROUNDS):
        memo = {}
        poly = {0: 1}
        for i in range(1500):
            key = (i % 37, (i * 7 + r) % 41, i % 5)
            hit = memo.get(key)
            if hit is None:
                hit = _mul(poly, {key[0] % 3 - 1: 1, key[2]: -1})
                memo[key] = hit
            poly = hit if len(hit) < 12 else {0: 1}
            checksum += len(hit)
        checksum += sum(k[0] for k in sorted(memo)[:50])
    return checksum


if __name__ == "__main__":
    print(work())
