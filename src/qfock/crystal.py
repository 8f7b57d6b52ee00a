"""Crystal combinatorics: the Fock crystal graph, Uglov multipartitions,
the FLOTW membership test, and Kleshchev charges.

Labels are walked as bead masks on a fock.ChargedAbacus, whose signatures
method reduces every i-signature in one pass and holds the cancellation
convention; f~_i adds the last uncancelled addable i-node, a bead moved one
position up.  Tuples appear only where a result is handed out.
"""

from itertools import islice

from .fock import ChargedAbacus
from .partitions import (
    check_ambient, check_multipartition, empty_multipartition, mp_to_text, multipartitions,
)


def uglov_layer(abacus) -> set:
    """The bead masks of the Uglov multipartitions of the abacus's rank n:
    layer n of the crystal component of the empty multipartition, grown one
    layer at a time from the one before, which is all that is kept."""
    l = abacus.l
    layer = {abacus.mask(empty_multipartition(l))}
    for _ in range(abacus.n):
        layer = {b ^ bit ^ bit >> l for b in layer
                 for bit in abacus.signatures(b)[0].values()}
    return layer


def uglov_set(e: int, l: int, charge, n: int) -> set:
    """The rank-n Uglov multipartitions for this charge."""
    abacus = ChargedAbacus(e, l, charge, n)
    return set(map(abacus.label, uglov_layer(abacus)))


def flotw_predicate(mp, e: int, charge) -> bool:
    """Membership test for the crystal component when the charge is
    ascending within [0, e): the cyclic row-dominance conditions plus the
    requirement that the right-end residues of the length-k rows never
    exhaust all of {0..e-1}."""
    l = len(charge)
    check_ambient(e, l, charge)
    mp = check_multipartition(mp, l)
    if not all(0 <= charge[j] <= charge[j + 1] for j in range(l - 1)) or charge[-1] >= e:
        raise ValueError("flotw_predicate needs 0 <= s_1 <= ... <= s_l < e")

    def part(comp, idx):  # 1-based, zero past the end
        return comp[idx - 1] if 1 <= idx <= len(comp) else 0

    # past the longest row both sides of every comparison read 0; component
    # l compares with component 1 at gap e + s_1 - s_l
    bound = max((len(comp) for comp in mp), default=0) + 1
    ahead = tuple(charge[1:]) + (charge[0] + e,)
    for j in range(l):
        gap = ahead[j] - charge[j]
        for i in range(1, bound):
            if part(mp[j], i) < part(mp[(j + 1) % l], i + gap):
                return False
    for k in {p for comp in mp for p in comp}:
        ends = {(k - a + s) % e for comp, s in zip(mp, charge)
                for a, p in enumerate(comp, start=1) if p == k}
        if len(ends) == e:
            return False
    return True


def kleshchev_charge(residues, e: int, l: int, n: int) -> tuple:
    """A widely spread descending charge with the given residues mod e:
    s_j = v_j + (l - j) * 2*n*e.  Gaps of 2ne make the rank <= n crystal
    independent of the spread (the stability tests double the gap)."""
    check_ambient(e, l, residues)
    if n < 0 or any(not 0 <= v < e for v in residues):
        raise ValueError("need residues in [0, e) and n >= 0")
    return tuple(residues[j] + (l - 1 - j) * 2 * n * e for j in range(l))


def crystal_graph(e: int, l: int, charge, n: int) -> dict:
    """The full Fock crystal on ranks <= n plus the component marking.

    Returns {"layers": [sorted vertex lists], "edges": [(mp, i, mu)],
    "uglov": set of component vertices}.  Everything is deterministically
    ordered for reproducible output.
    """
    abacus = ChargedAbacus(e, l, charge, n)
    layers = [multipartitions(l, m) for m in range(n + 1)]
    label = {abacus.mask(mp): mp for layer in layers for mp in layer}  # rank by rank
    edges = []
    marked = {empty_multipartition(l)}
    # each rank's marks are complete before its edges; rank n has none
    for b, mp in islice(label.items(), len(label) - len(layers[n])):
        inside = mp in marked
        for i, bit in abacus.signatures(b)[0].items():
            mu = label[b ^ bit ^ bit >> l]
            edges.append((mp, i, mu))
            if inside:
                marked.add(mu)
    edges.sort()
    return {"layers": layers, "edges": edges, "uglov": marked}


def crystal_to_dot(graph):
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
