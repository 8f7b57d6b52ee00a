"""The level-l Fock space as formal sums of (multipartition, charge) symbols
and the divided powers of f_i acting on it.

A FockVector is a dict {(mp, charge): LaurentPoly}.  Charges ride on the
keys rather than on an ambient object so that vectors coming back from the
wedge bijection, which mix charges inside one degree component, round-trip
without loss.
"""

from __future__ import annotations

from itertools import combinations

from .laurent import LaurentPoly, _acc
from .partitions import add_node, mp_to_text, signature_nodes


def apply_f(i, vec, e, k=1) -> dict:
    """The divided power f_i^(k) = f_i^k / [k]!: adds every k-set S of
    addable i-nodes with weight q^N, N = sum over gamma in S of N^b_i(mp,
    gamma), minus k(k-1)/2.

    Adding an i-node changes no other i-node's addability or removability
    (its neighbours have residues i +- 1), so N^b_i, the addable minus the
    removable i-nodes of mp below gamma, is counted off the i-signature of
    mp, read once per term from the top down and kept to the i-nodes alone,
    so the cost does not grow with e.  Added one at a time, a node
    of S sees N^b_i two lower for each node of S below it already added;
    summed over the k! orders of S that gives q^(-k(k-1)/2) [k]!, so no
    division is needed."""
    out = {}
    shift = k * (k - 1) // 2
    for (mp, charge), c in vec.items():
        sig = [(node, addable) for cont, _c, node, addable in signature_nodes(mp, charge)
               if cont % e == i]
        below = sum(1 if addable else -1 for _g, addable in sig)  # N_i of mp
        nodes = []
        for gamma, addable in sig:
            if addable:
                below -= 1  # now the nodes below gamma only
                nodes.append((gamma, below))
            else:
                below += 1
        for subset in combinations(nodes, k):
            mu = mp
            for gamma, _b in subset:
                mu = add_node(mu, gamma)
            weight = sum(b for _g, b in subset) - shift
            _acc(out, (mu, charge), c * LaurentPoly({weight: 1}))
    return out


def fock_to_json(vec):
    """The vector's JSON records, sorted by (charge, multipartition), made
    one at a time as they are read."""
    items = sorted(vec.items(), key=lambda kv: (kv[0][1], kv[0][0]))
    return (
        {
            "multipartition": mp_to_text(mp),
            "charge": list(charge),
            "coefficient": c.to_pairs(),
        }
        for (mp, charge), c in items
    )
