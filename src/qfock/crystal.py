"""Crystal combinatorics: normal and good nodes, the Fock crystal graph,
Uglov multipartitions, the FLOTW membership test, and Kleshchev charges.

A removable i-node is normal when it survives the signature reduction: list
every addable and removable i-node from most 'above' to least (the
i-signature), then let each addable node cancel the nearest surviving
removable node above it.  The highest surviving removable node is the good
i-node.  (The prose definition leaves the inclusivity of "between" open;
this cancellation convention is the one pinned by the rank-4 Uglov sets,
the FLOTW equivalence and the per-color degree bounds of the crystal, see
the test suite.)

The reduced signature is the uncancelled addable nodes followed by the
surviving removable ones.  f~_i adds the last uncancelled addable node:
adding an i-node turns it into a removable one and changes the
removability of no other i-node (its neighbours have residues i +- 1), so
mp -> mp + gamma is an edge exactly when gamma becomes the good i-node of
mp + gamma, and only the last uncancelled addable node does.
"""

from __future__ import annotations

from .partitions import (
    add_node,
    empty_multipartition,
    i_signatures,
    mp_to_text,
    multipartitions,
    signature_nodes,
)


def _reduce(sig):
    """Reduce an i-signature.  Returns the last addable node left
    uncancelled (None when every one cancels a removable node) and the
    surviving removable nodes, most 'above' first."""
    survivors = []
    last_addable = None
    for g, addable in sig:
        if not addable:
            survivors.append(g)
        elif survivors:
            survivors.pop()  # addable cancels nearest surviving removable above
        else:
            last_addable = g
    return last_addable, survivors


def good_node(mp, i, charge, e):
    """The highest normal i-node, or None."""
    survivors = _reduce(i_signatures(mp, charge, e)[i])[1]
    return survivors[0] if survivors else None


def good_addable_nodes(mp, charge, e):
    """The nodes gamma such that mp -> mp+gamma is a crystal edge, one per
    color at most, as (i, gamma) pairs in color order.  One pass reduces
    every signature at once, holding per residue that occurs the number of
    surviving removable nodes and the last uncancelled addable node, so the
    cost does not grow with e."""
    survivors = {}
    good = {}
    for cont, _c, node, addable in signature_nodes(mp, charge):
        i = cont % e
        if not addable:
            survivors[i] = survivors.get(i, 0) + 1
        elif survivors.get(i):
            survivors[i] -= 1  # addable cancels nearest surviving removable above
        else:
            good[i] = node
    return sorted(good.items())


def uglov_set(e: int, l: int, charge, n: int) -> set:
    """The rank-n Uglov multipartitions for this charge: layer n of the
    crystal component of the empty multipartition, grown one layer at a
    time from the one before, which is all that is kept."""
    if n < 0:
        raise ValueError("rank must be >= 0")
    layer = {empty_multipartition(l)}
    for _ in range(n):
        layer = {add_node(mp, gamma) for mp in layer
                 for _i, gamma in good_addable_nodes(mp, charge, e)}
    return layer


def flotw_predicate(mp, e: int, charge) -> bool:
    """Membership test for the crystal component when the charge is
    ascending within [0, e): the cyclic row-dominance conditions plus the
    requirement that the right-end residues of the length-k rows never
    exhaust all of {0..e-1}."""
    l = len(charge)
    if not all(0 <= charge[j] <= charge[j + 1] for j in range(l - 1)) or charge[-1] >= e:
        raise ValueError("flotw_predicate needs 0 <= s_1 <= ... <= s_l < e")

    def part(comp, idx):  # 1-based, zero past the end
        return comp[idx - 1] if 1 <= idx <= len(comp) else 0

    # past the longest row both sides of every comparison read 0
    bound = max((len(comp) for comp in mp), default=0) + 1
    for j in range(l - 1):
        for i in range(1, bound):
            if part(mp[j], i) < part(mp[j + 1], i + charge[j + 1] - charge[j]):
                return False
    for i in range(1, bound):
        if part(mp[l - 1], i) < part(mp[0], i + e + charge[0] - charge[l - 1]):
            return False
    lengths = {p for comp in mp for p in comp}
    for k in lengths:
        ends = set()
        for c, comp in enumerate(mp, start=1):
            for a, p in enumerate(comp, start=1):
                if p == k:
                    ends.add((k - a + charge[c - 1]) % e)
        if len(ends) == e:
            return False
    return True


def kleshchev_charge(residues, e: int, l: int, n: int) -> tuple:
    """A widely spread descending charge with the given residues mod e:
    s_j = v_j + (l - j) * 2*n*e.  Gaps of 2ne make the rank <= n crystal
    independent of the spread (the stability tests double the gap)."""
    if len(residues) != l or any(not 0 <= v < e for v in residues):
        raise ValueError("need l residues in [0, e)")
    return tuple(residues[j] + (l - 1 - j) * 2 * n * e for j in range(l))


def crystal_graph(e: int, l: int, charge, n: int) -> dict:
    """The full Fock crystal on ranks <= n plus the component marking.

    Returns {"layers": [sorted vertex lists], "edges": [(mp, i, mu)],
    "uglov": set of component vertices}.  Everything is deterministically
    ordered for reproducible output.
    """
    if n < 0:
        raise ValueError("rank must be >= 0")
    layers = [multipartitions(l, m) for m in range(n + 1)]
    edges = []
    marked = {empty_multipartition(l)}
    for layer in layers[:n]:  # each rank's marks are complete before its edges
        for mp in layer:
            inside = mp in marked
            for i, gamma in good_addable_nodes(mp, charge, e):
                mu = add_node(mp, gamma)
                edges.append((mp, i, mu))
                if inside:
                    marked.add(mu)
    edges.sort()
    return {"layers": layers, "edges": edges, "uglov": marked}


def crystal_to_dot(graph, charge):
    """Graphviz rendering, line by line; vertices labeled by the
    multipartition text form, component vertices drawn solid."""
    yield "digraph crystal {\n  rankdir=TB;\n"
    ids = {}
    for layer in graph["layers"]:
        for mp in layer:
            ids[mp] = "v%d" % len(ids)
            shape = ' style=filled fillcolor="lightgrey"' if mp in graph["uglov"] else ""
            yield '  %s [label="%s"%s];\n' % (ids[mp], mp_to_text(mp), shape)
    for mp, i, mu in graph["edges"]:
        yield '  %s -> %s [label="%d"];\n' % (ids[mp], ids[mu], i)
    yield "}\n"


def crystal_to_json(graph) -> dict:
    """The JSON payload of the graph; its lists are iterators, read from the
    graph's own ordered lists as they are written."""
    text = {mp: mp_to_text(mp) for layer in graph["layers"] for mp in layer}
    return {
        "layers": (map(text.__getitem__, layer) for layer in graph["layers"]),
        "edges": (
            {"from": text[mp], "color": i, "to": text[mu]}
            for mp, i, mu in graph["edges"]
        ),
        "vertices": (
            {"label": text[mp], "uglov": mp in graph["uglov"]}
            for layer in graph["layers"] for mp in layer
        ),
    }
