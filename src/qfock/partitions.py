"""Partitions and l-partitions, their text form, and the semisimplicity
test.

A partition is a tuple of weakly decreasing positive ints, and an
l-partition (multipartition) is an l-tuple of partitions.  Multipartitions
and charges are plain tuples throughout: hashability and cheap equality
matter more than a class wrapper.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations, product


# -- validation helpers ------------------------------------------------------

def is_partition(parts) -> bool:
    return all(isinstance(p, int) and p > 0 for p in parts) and all(
        parts[i] >= parts[i + 1] for i in range(len(parts) - 1)
    )


def check_multipartition(mp):
    for comp in mp:
        if not is_partition(comp):
            raise ValueError("component %r is not a partition" % (comp,))


def rank(mp) -> int:
    return sum(sum(comp) for comp in mp)


def empty_multipartition(l) -> tuple:
    return ((),) * l


# -- enumeration ---------------------------------------------------------------

@lru_cache(maxsize=None)
def partitions(n: int) -> tuple:
    """All partitions of n, descending lex ((n) first, (1,..,1) last)."""
    if n == 0:
        return ((),)
    out = []

    def rec(remaining, maxpart, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for p in range(min(remaining, maxpart), 0, -1):
            prefix.append(p)
            rec(remaining - p, p, prefix)
            prefix.pop()

    rec(n, n, [])
    return tuple(out)


def multipartitions(l: int, n: int) -> list:
    """All l-partitions of rank n, sorted lexicographically as nested tuples.

    The order is fixed only so every rendering of a result set is
    byte-reproducible; nothing downstream depends on which order it is.
    """
    if n < 0:
        raise ValueError("rank must be >= 0")
    if l < 1:
        raise ValueError("need l >= 1")
    # the l-compositions of n: l - 1 bars among n + l - 1 slots, the ranks
    # being the gaps between them
    slots = n + l - 1
    return sorted(chain.from_iterable(
        product(*(partitions(b - a - 1) for a, b in zip((-1,) + bars, bars + (slots,))))
        for bars in combinations(range(slots), l - 1)
    ))


# -- semisimplicity (Ariki's criterion at v = eta_e, x_j = eta_e^{s_j}) -------

def is_split_semisimple(e: int, charge, n: int) -> bool:
    """True iff the specialized Ariki-Koike algebra on n strands is split
    semisimple: e > n, and no pair of charge entries satisfies
    d + s_i = s_j mod e for any |d| < n, i.e. no s_j - s_i mod e or its
    negative is below n: one test per pair, whatever n is."""
    if n < 0:
        raise ValueError("rank must be >= 0")
    return n == 0 or e > n and all(
        min((a - b) % e, (b - a) % e) >= n
        for i, a in enumerate(charge) for b in charge[i + 1:]
    )


# -- text formats ----------------------------------------------------------------

def mp_to_text(mp) -> str:
    """`6,1|2,2|4,1` with `-` for an empty component."""
    return "|".join(map(_part_text, mp))


@lru_cache(maxsize=None)
def _part_text(comp) -> str:
    return ",".join(map(str, comp)) if comp else "-"


def mp_from_text(text: str) -> tuple:
    """Parse `6,1|2,2|4,1`; ValueError unless every component is a
    partition."""
    comps = []
    for chunk in text.split("|"):
        chunk = chunk.strip()
        if chunk in ("-", ""):
            comps.append(())
        else:
            comps.append(tuple(int(p) for p in chunk.split(",")))
    check_multipartition(comps)
    return tuple(comps)


def charge_from_text(text: str) -> tuple:
    return tuple(int(s) for s in text.split(","))
