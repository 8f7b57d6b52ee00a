"""The level-l Fock space as formal sums of (multipartition, charge) symbols
and the Chevalley action on it.

A FockVector is a dict {(mp, charge): LaurentPoly}.  Charges ride on the
keys rather than on an ambient object so that vectors coming back from the
wedge bijection, which mix charges inside one degree component, round-trip
without loss.
"""

from __future__ import annotations

from .laurent import LaurentPoly, _acc
from .partitions import (
    above,
    add_node,
    addable_nodes,
    i_signatures,
    mp_to_text,
    remove_node,
    removable_nodes,
)


def n_count(mp, i, charge, e) -> int:
    """Addable minus removable i-nodes of mp."""
    return len(addable_nodes(mp, i, charge, e)) - len(removable_nodes(mp, i, charge, e))


def n_above(mp, mu, gamma, i, charge, e) -> int:
    """Addable i-nodes of mp above gamma, minus removable i-nodes of mu
    above gamma (mu = mp plus gamma)."""
    return (
        sum(1 for g in addable_nodes(mp, i, charge, e) if above(g, gamma, charge))
        - sum(1 for g in removable_nodes(mu, i, charge, e) if above(g, gamma, charge))
    )


def n_below(mp, mu, gamma, i, charge, e) -> int:
    """Same count on the nodes below gamma."""
    return (
        sum(1 for g in addable_nodes(mp, i, charge, e) if above(gamma, g, charge))
        - sum(1 for g in removable_nodes(mu, i, charge, e) if above(gamma, g, charge))
    )


def apply_f(i, vec, e) -> dict:
    """f_i: adds every addable i-node gamma with weight q^{N^b_i}.

    Adding an i-node changes no other i-node's removability (its neighbours
    have residues i +- 1), so the removable i-nodes of mp plus gamma below
    gamma are those of mp, and N^b_i (n_below) is counted off the
    i-signature of mp, read once per term from the top down."""
    out = {}
    for (mp, charge), c in vec.items():
        sig = i_signatures(mp, charge, e)[i]
        below = sum(1 if addable else -1 for _g, addable in sig)  # N_i of mp
        for gamma, addable in sig:
            if addable:
                below -= 1  # now the nodes below gamma only
                _acc(out, (add_node(mp, gamma), charge), c * LaurentPoly({below: 1}))
            else:
                below += 1
    return out


def apply_e(i, vec, e) -> dict:
    """e_i: removes every removable i-node gamma with weight q^{-N^a_i}."""
    out = {}
    for (mp, charge), c in vec.items():
        for gamma in removable_nodes(mp, i, charge, e):
            mu = remove_node(mp, gamma)
            w = -n_above(mu, mp, gamma, i, charge, e)
            _acc(out, (mu, charge), c * LaurentPoly({w: 1}))
    return out


def apply_k(i, vec, e) -> dict:
    """k_i: diagonal with weight q^{N_i}."""
    out = {}
    for (mp, charge), c in vec.items():
        _acc(out, (mp, charge), c * LaurentPoly({n_count(mp, i, charge, e): 1}))
    return out


def fock_to_json(vec) -> list:
    items = sorted(vec.items(), key=lambda kv: (kv[0][1], kv[0][0]))
    return [
        {
            "multipartition": mp_to_text(mp),
            "charge": list(charge),
            "coefficient": c.to_pairs(),
        }
        for (mp, charge), c in items
    ]
