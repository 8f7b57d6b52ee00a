"""Partitions, l-partitions, nodes, residues, and the semisimplicity test.

Conventions, following the usual multipartition combinatorics:
  * a partition is a tuple of weakly decreasing positive ints;
  * an l-partition (multipartition) is an l-tuple of partitions;
  * a node is (a, b, c) = (row, column, component), all 1-based;
  * the content of (a, b, c) under a charge (s_1, ..., s_l) is b - a + s_c,
    and its residue is the content mod e.

Multipartitions and charges are plain tuples throughout: they are dict keys
in the Fock-space vectors, so hashability and cheap equality matter more
than a class wrapper.
"""

from __future__ import annotations

from functools import lru_cache


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


# -- nodes and residues ------------------------------------------------------

def signature_nodes(mp, charge) -> list:
    """The addable and removable nodes of mp, most 'above' first (by
    content, ties to the larger component), as (content, -component, node,
    is_addable).  No two of them share a content and a component.  Each
    component's run comes presorted from a memo, so the sort merges l
    runs."""
    keyed = []
    for c, comp in enumerate(mp, start=1):
        keyed += _component_nodes(c, charge[c - 1], comp)
    keyed.sort()
    return keyed


@lru_cache(maxsize=None)
def _component_nodes(c: int, s: int, comp) -> tuple:
    """signature_nodes of the partition comp alone, at component c with
    charge entry s, sorted."""
    keyed = []
    last = len(comp)
    for a, p in enumerate(comp, start=1):
        # row a can grow iff it stays weakly below row a-1
        if a == 1 or p < comp[a - 2]:
            keyed.append((p + 1 - a + s, -c, (a, p + 1, c), True))
        if a == last or comp[a] < p:
            keyed.append((p - a + s, -c, (a, p, c), False))
    keyed.append((s - last, -c, (last + 1, 1, c), True))
    keyed.sort()
    return tuple(keyed)


def i_signatures(mp, charge, e):
    """For each residue i, the i-signature of mp: its addable and removable
    i-nodes, most 'above' first, as (node, is_addable) pairs.  One walk over
    mp serves every residue."""
    sigs = [[] for _ in range(e)]
    for cont, _c, node, addable in signature_nodes(mp, charge):
        sigs[cont % e].append((node, addable))
    return sigs


def addable_nodes(mp, i, charge, e):
    """Addable i-nodes, most 'above' first."""
    return [g for g, addable in i_signatures(mp, charge, e)[i] if addable]


def removable_nodes(mp, i, charge, e):
    """Removable i-nodes, most 'above' first."""
    return [g for g, addable in i_signatures(mp, charge, e)[i] if not addable]


def add_node(mp, node):
    """The multipartition with one box added at `node` (must be addable)."""
    a, b, c = node
    comp = list(mp[c - 1])
    if a == len(comp) + 1:
        if b != 1:
            raise ValueError("node %r is not addable to %r" % (node, mp))
        comp.append(1)
    else:
        if comp[a - 1] + 1 != b or (a > 1 and comp[a - 2] < b):
            raise ValueError("node %r is not addable to %r" % (node, mp))
        comp[a - 1] += 1
    return mp[: c - 1] + (tuple(comp),) + mp[c:]


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
    if l < 1 or n < 0:
        raise ValueError("need l >= 1 and n >= 0")
    out = []

    def rec(comp_index, remaining, prefix):
        if comp_index == l - 1:
            for p in partitions(remaining):
                out.append(tuple(prefix) + (p,))
            return
        for k in range(remaining + 1):
            for p in partitions(k):
                prefix.append(p)
                rec(comp_index + 1, remaining - k, prefix)
                prefix.pop()

    rec(0, n, [])
    out.sort()
    return out


# -- semisimplicity (Ariki's criterion at v = eta_e, x_j = eta_e^{s_j}) -------

def is_split_semisimple(e: int, charge, n: int) -> bool:
    """True iff the specialized Ariki-Koike algebra on n strands is split
    semisimple: e > n, and no pair of charge entries satisfies
    d + s_i = s_j mod e for any |d| < n."""
    if n < 0:
        raise ValueError("rank must be >= 0")
    if n == 0:
        return True
    if e <= n:
        return False
    l = len(charge)
    for i in range(l):
        for j in range(l):
            if i == j:
                continue
            for d in range(-(n - 1), n):
                if (d + charge[i] - charge[j]) % e == 0:
                    return False
    return True


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
