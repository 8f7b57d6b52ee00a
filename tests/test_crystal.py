import random
import sys
import time
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfock.crystal import (
    crystal_graph,
    crystal_to_dot,
    crystal_to_json,
    flotw_predicate,
    kleshchev_charge,
    uglov_set,
)
from qfock.fock import ChargedAbacus
from qfock.partitions import multipartitions, partitions, rank

from oracles import (
    add_node,
    addable_nodes,
    bit_node,
    content,
    crystal_graph_on_tuples,
    good_node,
    is_normal,
    reduce_signature,
    removable_nodes,
    signature_nodes,
    single_bits,
    uglov_layers,
)
from paper_data import UGLOV_SETS


def test_normal_good_examples():
    # a lone removable node is normal and good
    assert is_normal(((1,), ()), (1, 1, 1), 0, (0, 1), 4)
    assert good_node(((1,), ()), 0, (0, 1), 4) == (1, 1, 1)
    # an addable i-node strictly below cancels nothing; one strictly above does
    # (e=2, charge (0,0)): both boxes have content 0, component 2 sits above
    assert good_node(((1,), ()), 0, (0, 0), 2) == (1, 1, 1)
    assert good_node(((), (1,)), 0, (0, 0), 2) is None
    for i in range(4):
        assert good_node(((), ()), i, (0, 1), 4) is None


def test_distinct_residues_make_all_removables_normal():
    mp = ((2, 1), ())
    charge = (0, 1)
    e = 7  # large e: every node has a distinct residue
    for node in [(1, 2, 1), (2, 1, 1)]:
        i = (node[1] - node[0] + charge[node[2] - 1]) % e
        assert is_normal(mp, node, i, charge, e)


def test_uglov_small_layers():
    assert uglov_set(4, 2, (0, 1), 0) == {((), ())}
    assert uglov_set(4, 2, (0, 1), 1) == {(((1,), ())), ((), (1,))}
    assert uglov_set(2, 2, (0, 0), 1) == {((1,), ())}
    with pytest.raises(ValueError):
        uglov_set(4, 2, (0, 1), -1)


def test_level_one_component_is_e_regular():
    # at l = 1 the component consists of the partitions with no part
    # repeated e or more times; check both against the membership test
    for e in (2, 3):
        for n in range(7):
            regular = {mp for mp in multipartitions(1, n)
                       if all(mp[0].count(p) < e for p in set(mp[0]))}
            assert uglov_set(e, 1, (0,), n) == regular
            flotw = {mp for mp in multipartitions(1, n) if flotw_predicate(mp, e, (0,))}
            assert flotw == regular


def test_uglov_rank4_sets_match_paper():
    for charge, want in UGLOV_SETS.items():
        assert uglov_set(4, 2, charge, 4) == want


def test_flotw_examples():
    assert flotw_predicate(((), ()), 4, (0, 1))
    assert flotw_predicate(((4,), ()), 4, (0, 1))
    assert not flotw_predicate(((), (3, 1)), 4, (0, 1))
    assert not flotw_predicate([[], [3, 1]], 4, [0, 1])  # lists read as tuples
    with pytest.raises(ValueError):
        flotw_predicate(((), ()), 4, (1, 0))  # charge outside the regime


@pytest.mark.parametrize("mp, charge", [
    (((1,), ()), (0, 1, 2)),
    (((1,), (), ()), (0, 1)),
    ([[1]], (0, 1)),
])
def test_flotw_refuses_a_label_and_charge_of_different_lengths(mp, charge):
    with pytest.raises(ValueError, match="components, expected %d" % len(charge)):
        flotw_predicate(mp, 4, charge)


def test_flotw_equals_crystal_component():
    for (e, l) in [(4, 2), (3, 2), (4, 3)]:
        for charge in product(range(e), repeat=l):
            if any(charge[j] > charge[j + 1] for j in range(l - 1)):
                continue
            layers = uglov_layers(e, l, charge, 4)
            for n in range(5):
                fl = {mp for mp in multipartitions(l, n) if flotw_predicate(mp, e, charge)}
                assert fl == layers[n], (e, l, charge, n)


def test_kleshchev_charge():
    assert kleshchev_charge((2,), 4, 1, 3) == (2,)
    assert kleshchev_charge((0, 1), 4, 2, 4) == (32, 1)
    with pytest.raises(ValueError):
        kleshchev_charge((4, 0), 4, 2, 2)
    with pytest.raises(ValueError, match="n >= 0"):
        kleshchev_charge((0, 1), 4, 2, -1)


def test_kleshchev_gap_stability():
    for residues, e, l, n in [((0, 1), 4, 2, 4), ((1, 0), 3, 2, 4), ((2, 0, 1), 3, 3, 3)]:
        base = kleshchev_charge(residues, e, l, n)
        doubled = tuple(v + (l - 1 - j) * 4 * n * e for j, v in enumerate(residues))
        for m in range(n + 1):
            assert uglov_set(e, l, base, m) == uglov_set(e, l, doubled, m)


def test_uglov_invariant_under_uniform_charge_shift():
    for shift in (-3, 2, 5):
        for n in range(5):
            assert uglov_set(4, 2, (0, 1), n) == uglov_set(4, 2, (shift, 1 + shift), n)
            assert uglov_set(3, 2, (1, 2), n) == uglov_set(3, 2, (1 + shift, 2 + shift), n)


def test_crystal_graph_structure():
    g = crystal_graph(4, 2, (0, 1), 4)
    assert [len(layer) for layer in g["layers"]] == [1, 2, 5, 10, 20]
    out_deg = {}
    in_deg = {}
    for mp, i, mu in g["edges"]:
        assert rank(mu) == rank(mp) + 1
        out_deg[(mp, i)] = out_deg.get((mp, i), 0) + 1
        in_deg[(mu, i)] = in_deg.get((mu, i), 0) + 1
    assert all(v == 1 for v in out_deg.values())
    assert all(v == 1 for v in in_deg.values())
    marked4 = {mp for mp in g["uglov"] if rank(mp) == 4}
    assert marked4 == UGLOV_SETS[(0, 1)]


def test_crystal_graph_rank0():
    g = crystal_graph(4, 2, (0, 1), 0)
    assert g["layers"] == [[((), ())]]
    assert g["edges"] == []


def test_layer1_edges():
    g = crystal_graph(4, 2, (0, 1), 1)
    assert g["edges"] == [
        (((), ()), 0, ((1,), ())),
        (((), ()), 1, ((), (1,))),
    ]


def test_exports():
    g = crystal_graph(4, 2, (0, 1), 2)
    dot = "".join(crystal_to_dot(g))
    assert dot.startswith("digraph crystal {") and '->' in dot and 'label="1|-"' in dot
    js = crystal_to_json(g)
    assert {v["label"] for v in js["vertices"] if v["uglov"]} >= {"-|-", "1|-", "-|1"}
    assert all(set(rec) == {"from", "color", "to"} for rec in js["edges"])


def test_good_node_is_highest_normal():
    for (e, l, charge) in [(2, 2, (0, 0)), (3, 2, (1, 0)), (4, 3, (0, 1, 2))]:
        for n in range(5):
            for mp in multipartitions(l, n):
                for i in range(e):
                    normals = [g for g in removable_nodes(mp, i, charge, e)
                               if is_normal(mp, g, i, charge, e)]
                    g = good_node(mp, i, charge, e)
                    assert g == (normals[0] if normals else None)


def surviving_removables(mp, i, charge, e):
    """The per-residue cancellation, one residue at a time: merge the
    addable and removable i-nodes by content (ties to the larger component),
    then let each addable node cancel the nearest surviving removable node
    above it."""
    tagged = [(g, "R") for g in removable_nodes(mp, i, charge, e)]
    tagged += [(g, "A") for g in addable_nodes(mp, i, charge, e)]
    tagged.sort(key=lambda t: (content(t[0], charge), -t[0][2]))
    stack = []
    for g, kind in tagged:
        if kind == "R":
            stack.append(g)
        elif stack:
            stack.pop()
    return stack


def oracle_good_node(mp, i, charge, e):
    survivors = surviving_removables(mp, i, charge, e)
    return survivors[0] if survivors else None


def oracle_edges(mp, charge, e):
    """Brute-force crystal edges: add each addable i-node gamma and keep it
    when gamma is the good i-node of mp + gamma."""
    return [
        (i, gamma)
        for i in range(e)
        for gamma in addable_nodes(mp, i, charge, e)
        if oracle_good_node(add_node(mp, gamma), i, charge, e) == gamma
    ]


def test_signatures_match_brute_force_edges_and_good_nodes():
    # the last uncancelled addable node is the f~_i edge, and the highest
    # surviving removable node is the good node, on every multipartition of
    # rank <= 6 in each ambient at two seeded charges
    rng = random.Random(41)
    for e, l in [(2, 1), (2, 2), (3, 2), (4, 2), (3, 3), (2, 4)] * 2:
        charge = tuple(rng.randint(-7, 7) for _ in range(l))
        abacus = ChargedAbacus(e, l, charge, 6)
        for n in range(7):
            for mp in multipartitions(l, n):
                b = abacus.mask(mp)
                last, normal = abacus.signatures(b)
                edges = sorted((i, bit_node(abacus, b, bit)) for i, bit in last.items())
                assert edges == oracle_edges(mp, charge, e), (mp, charge, e)
                for i in range(e):
                    good = bit_node(abacus, b, normal[i] & -normal[i]) if i in normal else None
                    assert good == oracle_good_node(mp, i, charge, e), (mp, charge, e, i)


def _assert_signatures_reduce_the_i_signatures(abacus, mp):
    """Every colour's last and normal of mp, as nodes, against reducing its
    i-signature on tuples; only the residues that occur are listed, so e may
    be large."""
    e, charge = abacus.e, abacus.charge
    sigs = {}
    for cont, _c, node, addable in signature_nodes(mp, charge):
        sigs.setdefault(cont % e, []).append((node, addable))
    want = {i: reduce_signature(sig) for i, sig in sigs.items()}
    b = abacus.mask(mp)
    last, normal = abacus.signatures(b)
    assert {i: bit_node(abacus, b, bit) for i, bit in last.items()} == \
        {i: g for i, (g, _normal) in want.items() if g is not None}, (mp, charge, e)
    assert {i: [bit_node(abacus, b, bit) for bit in single_bits(bits)]
            for i, bits in normal.items()} == \
        {i: nodes for i, (_g, nodes) in want.items() if nodes}, (mp, charge, e)


def _charges(e):
    """Charges close together and far apart (the abacus places the far
    ones closer)."""
    charges = [(0,), (5 * e + 2,), (0, 1), (0, 1 + 7 * e), (-3 * e + 1, 2),
               (0, 1, 2), (0, 2 * e + 3, -4 * e - 1)]
    if e == 4:
        charges += [(0, 100000), (0, 40, -30)]
    return charges


@pytest.mark.parametrize("e", [2, 3, 4, 5, 9, 50, 10**6])
def test_signatures_reduce_the_i_signatures(e):
    # every colour's signature reduced, on every label of rank <= 7, at
    # charges close together and far apart, and at an e far above the rank
    for charge in _charges(e):
        l = len(charge)
        abacus = ChargedAbacus(e, l, charge, 7)
        for n in range(8):
            for mp in multipartitions(l, n):
                _assert_signatures_reduce_the_i_signatures(abacus, mp)


@st.composite
def _labels_at_charges(draw):
    """(e, charge, mp, n): e in 2..12 or 10**6, l <= 4, charge entries in
    [-3e, 3e], and one multipartition of rank at most n <= 9."""
    e = draw(st.integers(2, 12) | st.just(10**6))
    l = draw(st.integers(1, 4))
    charge = tuple(draw(st.lists(st.integers(-3 * e, 3 * e), min_size=l, max_size=l)))
    n = draw(st.integers(0, 9))
    mp, budget = [], n
    for _ in range(l):
        m = draw(st.integers(0, budget))
        mp.append(draw(st.sampled_from(partitions(m))))
        budget -= m
    return e, charge, tuple(mp), n


# one pin per way a colour is settled, at (4, 2), charge (0, 1); see
# test_pinned_labels_reach_each_way_a_colour_is_settled
ONLY_ADDABLE = (4, (0, 1), ((), ()), 0)  # colour 0
ADDABLE_ABOVE = (4, (0, 1), ((2,), ()), 2)  # colour 1: the addable bit below the removable one
INTERLEAVED = (4, (0, 1), ((1,), (3,)), 4)  # colour 0: addable, removable, addable
BETWEEN = (4, (0, 1), ((), (4, 1)), 5)  # colour 0: removable, addable, removable


@settings(max_examples=300)
@given(_labels_at_charges())
@example(ONLY_ADDABLE)
@example(ADDABLE_ABOVE)
@example(INTERLEAVED)
@example(BETWEEN)
def test_signatures_match_the_tuple_route_on_drawn_labels(drawn):
    # signatures against signature_nodes + reduce_signature, on drawn
    # charges, levels up to 4 and e up to 12 or far above the rank
    e, charge, mp, n = drawn
    _assert_signatures_reduce_the_i_signatures(ChargedAbacus(e, len(charge), charge, n), mp)


def test_pinned_labels_reach_each_way_a_colour_is_settled():
    def colour(pin, i):
        e, charge, mp, n = pin
        abacus = ChargedAbacus(e, len(charge), charge, n)
        add, rem = abacus.nodes(abacus.mask(mp))
        return add & abacus.residue(i), rem & abacus.residue(i)

    a, r = colour(ONLY_ADDABLE, 0)
    assert a and not r
    a, r = colour(ADDABLE_ABOVE, 1)
    assert r and 0 < a < r & -r
    a, r = colour(INTERLEAVED, 0)
    assert single_bits(a | r) == [a & -a, r, a ^ a & -a]
    a, r = colour(BETWEEN, 0)
    assert single_bits(a | r) == [r & -r, a, r ^ r & -r]


@pytest.mark.parametrize("charge, n", [((0, 1), 4), ((0, 40, -30), 5)])
def test_signatures_visit_the_residues_of_the_window_whatever_e(charge, n):
    # at e = 10**6 signatures visits each residue of the abacus window once,
    # at most l * positions of them, on every label of rank <= n
    e, l = 10**6, len(charge)
    abacus = ChargedAbacus(e, l, charge, n)
    window = sorted({(x + s - p) % e for s, p in zip(charge, abacus.placed)
                     for x in range(abacus.lo, abacus.lo + abacus.positions)})
    assert len(window) <= l * abacus.positions
    visited = []

    class Recorder(list):
        def __iter__(self):
            for i, res in super().__iter__():
                visited.append(i)
                yield i, res

    abacus._colours = Recorder(abacus._colours)
    for m in range(n + 1):
        for mp in multipartitions(l, m):
            visited.clear()
            abacus.signatures(abacus.mask(mp))
            assert visited == window, mp


@pytest.mark.parametrize("e", [2, 3, 4, 5, 9, 50, 10**6])
def test_labels_decode_through_the_component_memo(e):
    # label(mask(mp)) == mp on every label of rank <= 7, at the charges
    # above: on one warm abacus shared across ranks, and on a fresh one per
    # rank, which decodes every mask before it masks anything and then
    # masks each label to the same bits
    for charge in _charges(e):
        l = len(charge)
        warm = ChargedAbacus(e, l, charge, 7)
        for n in range(8):
            labels = multipartitions(l, n)
            masks = [warm.mask(mp) for mp in labels]
            assert [warm.label(b) for b in masks] == labels, (charge, n)
            fresh = ChargedAbacus(e, l, charge, 7)
            assert [fresh.label(b) for b in masks] == labels, (charge, n)
            assert [fresh.mask(mp) for mp in labels] == masks, (charge, n)


@pytest.mark.parametrize("e, charge, top", [
    (3, (0, 40, -30), 5), (4, (0, 100000), 6), (2, (0, 1, 0, 1), 4), (3, (2, -1, 0, 5), 4),
])
def test_mask_walks_match_the_tuple_walk(e, charge, top):
    # uglov_set and crystal_graph on bead masks against the crystal walked
    # on tuples, at widely spread charges and at l = 4
    l = len(charge)
    layers = uglov_layers(e, l, charge, top)
    for n in range(top + 1):
        assert uglov_set(e, l, charge, n) == layers[n], (e, charge, n)
    assert crystal_graph(e, l, charge, top) == crystal_graph_on_tuples(e, l, charge, top)


def test_no_module_cache_grows_with_the_charges_met():
    # the crystal layer keeps its memos on its abacus, so a process that
    # meets many charges keeps nothing per charge in a module-level cache
    caches = {(name, attr): fn for name, module in list(sys.modules.items())
              if name.startswith("qfock") for attr, fn in vars(module).items()
              if hasattr(fn, "cache_info")}
    before = {key: fn.cache_info().currsize for key, fn in caches.items()}
    for s in range(50):
        uglov_set(3, 2, (0, 7 * s + 1), 5)
        crystal_graph(3, 2, (0, 7 * s + 1), 3)
    grown = {key: fn.cache_info().currsize - before[key] for key, fn in caches.items()}
    assert ("qfock.partitions", "partitions") in grown
    assert all(size < 50 for size in grown.values()), grown


def _timed(fn, *args):
    t0 = time.perf_counter()
    value = fn(*args)
    return value, time.perf_counter() - t0


def test_uglov_set_crystal_graph_and_flotw_do_not_grow_with_e():
    # none walks every residue: at e = 10**6 they take what they take at
    # e = 10**3 (the rank-4 layer at (0, 1) is the same set at both, and
    # the crystal the same graph once a colour is read as a content mod e)
    small = uglov_set(10**3, 2, (0, 1), 4)
    big, seconds = _timed(uglov_set, 10**6, 2, (0, 1), 4)
    assert big == small and seconds < 0.05

    def signed(graph, e):
        return [(mp, i if i < e // 2 else i - e, mu) for mp, i, mu in graph["edges"]]

    graph = crystal_graph(10**3, 2, (0, 1), 4)
    wide, seconds = _timed(crystal_graph, 10**6, 2, (0, 1), 4)
    assert wide["layers"] == graph["layers"] and wide["uglov"] == graph["uglov"]
    assert sorted(signed(wide, 10**6)) == sorted(signed(graph, 10**3)) and seconds < 0.05
    for mp in multipartitions(2, 4):
        member, seconds = _timed(flotw_predicate, mp, 10**6, (0, 1))
        assert member == flotw_predicate(mp, 10**3, (0, 1)) == (mp in small)
        assert seconds < 0.05
