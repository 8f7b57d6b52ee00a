import importlib
import inspect
import pkgutil
import random
import sys
from functools import cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qfock
from qfock.abacus import from_pair
from qfock.avalue import AValueTable, m_vector
from qfock.canonical import FockBasis, decomposition_matrix
from qfock.crystal import crystal_graph, flotw_predicate, kleshchev_charge, uglov_set
from qfock.fock import ChargedAbacus
from qfock.partitions import (
    check_ambient,
    ints_from_text,
    is_split_semisimple,
    mp_from_text,
    mp_to_text,
    multipartitions,
    partitions,
    rank,
)

from oracles import (
    a_rel_per_label,
    above,
    add_node,
    add_nodes_to_part,
    addable_nodes,
    content,
    i_signatures,
    is_split_semisimple_by_search,
    mp_to_text_per_label,
    remove_node,
    removable_nodes,
    residue,
)


def test_residue_examples():
    assert residue((1, 1, 1), (0, 1), 4) == 0
    assert residue((1, 1, 2), (0, 1), 4) == 1
    assert residue((2, 1, 1), (0, 1), 4) == 3


def test_above_examples():
    assert above((1, 1, 1), (1, 1, 2), (0, 1))      # contents 0 < 1
    assert above((1, 1, 2), (1, 1, 1), (0, 0))      # tie, bigger component wins
    for g in [(1, 1, 1), (2, 3, 2)]:
        assert not above(g, g, (0, 0, 0))           # irreflexive


def test_addable_removable_examples():
    assert addable_nodes(((), ()), 0, (0, 1), 4) == [(1, 1, 1)]
    assert addable_nodes(((), ()), 2, (0, 1), 4) == []
    for i in range(4):
        assert removable_nodes(((), ()), i, (0, 1), 4) == []


def test_add_remove_node_roundtrip():
    rng = random.Random(5)
    for _ in range(200):
        l = rng.randint(1, 3)
        mp = rng.choice(multipartitions(l, rng.randint(0, 5)))
        charge = tuple(rng.randint(-3, 5) for _ in range(l))
        e = rng.randint(2, 5)
        i = rng.randint(0, e - 1)
        for g in addable_nodes(mp, i, charge, e):
            mu = add_node(mp, g)
            assert rank(mu) == rank(mp) + 1
            assert remove_node(mu, g) == mp
            assert g in removable_nodes(mu, i, charge, e)


def test_multipartitions_counts():
    assert multipartitions(2, 0) == [((), ())]
    assert set(partitions(3)) == {(3,), (2, 1), (1, 1, 1)}
    assert len(multipartitions(2, 4)) == 20
    assert multipartitions(2, 4) == sorted(multipartitions(2, 4))  # documented order


def test_multipartition_count_against_dp_oracle():
    # |Pi_l^n| equals the coefficient in the l-fold product of partition
    # generating functions, computed here by direct convolution
    top = 6
    pc = [len(partitions(k)) for k in range(top + 1)]
    for l in (1, 2, 3):
        coeffs = [1] + [0] * top
        for _ in range(l):
            coeffs = [sum(coeffs[a] * pc[n - a] for a in range(n + 1)) for n in range(top + 1)]
        for n in range(top + 1):
            assert len(multipartitions(l, n)) == coeffs[n]


def test_above_injective_on_addable_removable_union():
    # content/component pairs never collide on the union, so "above" is a
    # strict total order there
    for l, e in [(2, 4), (3, 3)]:
        for n in range(6):
            for mp in multipartitions(l, n):
                for charge in [tuple(range(l)), tuple(2 * j + 1 for j in range(l))]:
                    seen = set()
                    for i in range(e):
                        for g in addable_nodes(mp, i, charge, e) + removable_nodes(mp, i, charge, e):
                            key = (content(g, charge), g[2])
                            assert key not in seen
                            seen.add(key)


def brute_nodes(mp, try_node):
    """Every (a, b, c) in a box just past mp for which try_node succeeds."""
    out = []
    for c, comp in enumerate(mp, start=1):
        for a in range(1, len(comp) + 2):
            for b in range(1, (comp[0] if comp else 0) + 2):
                try:
                    try_node(mp, (a, b, c))
                except ValueError:
                    continue
                out.append((a, b, c))
    return out


def test_i_signatures_match_brute_force_node_lists():
    # one walk per multipartition against trying add_node / remove_node on
    # every candidate box, sorted by content with ties to the larger component
    rng = random.Random(7)
    for l, e in [(1, 2), (2, 4), (3, 3), (4, 2)]:
        for n in range(6):
            for mp in multipartitions(l, n):
                charge = tuple(rng.randint(-7, 7) for _ in range(l))
                tagged = [(g, True) for g in brute_nodes(mp, add_node)]
                tagged += [(g, False) for g in brute_nodes(mp, remove_node)]
                tagged.sort(key=lambda t: (content(t[0], charge), -t[0][2]))
                sigs = i_signatures(mp, charge, e)
                assert len(sigs) == e
                for i in range(e):
                    want = [t for t in tagged if residue(t[0], charge, e) == i]
                    assert sigs[i] == want, (mp, charge, e, i)
                    assert addable_nodes(mp, i, charge, e) == [g for g, a in want if a]
                    assert removable_nodes(mp, i, charge, e) == [g for g, a in want if not a]


def test_memoized_text_matches_the_per_label_oracle():
    for l in (1, 2, 3):
        for n in range(8):
            for mp in multipartitions(l, n):
                assert mp_to_text(mp) == mp_to_text_per_label(mp)


def test_semisimple_examples():
    assert is_split_semisimple(4, (0, 1), 4) is False
    assert is_split_semisimple(5, (0,), 4) is True
    assert is_split_semisimple(2, (0, 1), 0) is True
    assert is_split_semisimple(17, (3, 3), 1) is False  # equal parameters, d = 0
    with pytest.raises(ValueError):
        is_split_semisimple(5, (0,), -1)
    for e, charge, n in [(0, (), 0), (1, (0, 1), 0)]:  # n = 0 answered True
        with pytest.raises(ValueError, match="need e >= 2 and l >= 1"):
            is_split_semisimple(e, charge, n)


def test_semisimple_shift_invariance():
    rng = random.Random(11)
    for _ in range(100):
        e = rng.randint(2, 7)
        l = rng.randint(1, 3)
        charge = tuple(rng.randint(-4, 8) for _ in range(l))
        n = rng.randint(0, 5)
        shifted = tuple(s + e * rng.randint(-2, 2) for s in charge)
        assert is_split_semisimple(e, charge, n) == is_split_semisimple(e, shifted, n)


@settings(max_examples=300)
@given(st.integers(2, 1000), st.lists(st.integers(-3000, 3000), min_size=1, max_size=4),
       st.integers(0, 1100))
def test_semisimple_closed_form_matches_the_search(e, charge, n):
    charge = tuple(charge)
    assert is_split_semisimple(e, charge, n) == is_split_semisimple_by_search(e, charge, n)


def test_semisimple_closed_form_at_its_boundary():
    # n at, just past and just short of the nearest pair of charge entries
    # mod e, where one |d| < n more decides; l = 1 and equal entries included
    rng = random.Random(21)
    for _ in range(2000):
        e = rng.randint(2, 1000)
        l = rng.randint(1, 4)
        charge = [rng.randint(-2000, 2000) for _ in range(l)]
        if l > 1 and rng.random() < 0.2:
            charge[1] = charge[0] + e * rng.randint(-2, 2)
        gap = min((min((a - b) % e, (b - a) % e) for i, a in enumerate(charge)
                   for b in charge[i + 1:]), default=e)
        for n in {0, max(gap - 1, 0), gap, gap + 1, e - 1, e, rng.randint(0, e + 1)}:
            want = is_split_semisimple_by_search(e, tuple(charge), n)
            assert is_split_semisimple(e, tuple(charge), n) == want, (e, charge, n)


def test_add_nodes_to_part():
    assert add_nodes_to_part(((2,), (1,)), 1, 1, 0) == ((2,), (1,))
    assert add_nodes_to_part(((2,), (1,)), 1, 1, 3) == ((5,), (1,))
    assert add_nodes_to_part(((2, 1), ()), 2, 1, 2) == ((2, 1), (2,))
    # a zero row inside the symbol height may be addressed
    assert add_nodes_to_part(((2,), ()), 1, 3, 2) == ((2, 0, 2), ())
    with pytest.raises(IndexError):
        add_nodes_to_part(((2,), ()), 3, 1, 1)
    with pytest.raises(ValueError):
        add_nodes_to_part(((2,), ()), 1, 1, -1)


def test_text_formats():
    mp = ((6, 1), (2, 2), (4, 1))
    assert mp_to_text(mp) == "6,1|2,2|4,1"
    assert mp_from_text("6,1|2,2|4,1") == mp
    assert mp_to_text(((), (4,))) == "-|4"
    assert mp_from_text("-|4") == ((), (4,))
    assert ints_from_text("0,1", "charge") == (0, 1)
    # an optional sign and ASCII digits between spaces, and nothing else that
    # int() takes
    assert ints_from_text(" -2 , +3,0 ", "charge") == (-2, 3, 0)
    for text in ("1_0", "\u0660", "+-3", "", "3 4", "\t3", "1,"):
        with pytest.raises(ValueError, match="charge must be comma-separated integers"):
            ints_from_text(text, "charge")
    if hasattr(sys, "get_int_max_str_digits"):  # int()'s cap on digits, from CPython 3.11
        with pytest.raises(ValueError, match="charge must be comma-separated integers"):
            ints_from_text("0," + "9" * (sys.get_int_max_str_digits() + 1), "charge")


# -- malformed labels at every entry point that takes one ------------------------

LABEL_AMBIENTS = [(2, 1, (0,)), (4, 2, (0, 1)), (3, 3, (0, 1, 2))]


@cache
def _fock_basis(e, l, charge):
    return FockBasis(e, l, charge, 12)


@cache
def _warm_table(e, l, charge):
    """One a-value table per ambient, its memo already holding every
    component of rank <= 3, so a malformed label meets memo hits."""
    table = AValueTable(e, l, charge, 12)
    for n in range(4):
        for mp in multipartitions(l, n):
            table[mp]
    return table


LABEL_ENTRY_POINTS = {
    "FockBasis.element": lambda e, l, charge, mp: _fock_basis(e, l, charge).element(mp),
    "flotw_predicate": lambda e, l, charge, mp: flotw_predicate(mp, e, charge),
    "from_pair": lambda e, l, charge, mp: from_pair(mp, charge, e, l),
    "AValueTable": lambda e, l, charge, mp: _warm_table(e, l, charge)[mp],
}


@st.composite
def malformed_labels(draw):
    """(ambient, kind, label): a label at the ambient's l with a wrong
    component count, or one component given a zero part, two rising parts
    or a negative part."""
    ambient = draw(st.sampled_from(LABEL_AMBIENTS))
    l = ambient[1]
    comp = st.lists(st.integers(1, 4), max_size=3).map(lambda ps: tuple(sorted(ps, reverse=True)))
    kind = draw(st.sampled_from(["count", "zero", "rising", "negative"]))
    if kind == "count":
        k = draw(st.integers(0, l + 2).filter(lambda k: k != l))
        return ambient, kind, tuple(draw(comp) for _ in range(k))
    mp = [draw(comp) for _ in range(l)]
    c = draw(st.integers(0, l - 1))
    parts = list(mp[c])
    if kind == "zero":
        bad = [0]
    elif kind == "rising":
        low = draw(st.integers(1, 3))
        bad = [low, draw(st.integers(low + 1, 4))]
    else:
        bad = [draw(st.integers(-4, -1))]
    at = draw(st.integers(0, len(parts)))
    parts[at:at] = bad
    mp[c] = tuple(parts)
    return ambient, kind, tuple(mp)


def _outcome(call, *args):
    """call's answer, or the text of the ValueError it raises."""
    try:
        return call(*args)
    except ValueError as exc:
        return "ValueError: %s" % exc


@settings(max_examples=400)
@given(malformed_labels(), st.sampled_from(sorted(LABEL_ENTRY_POINTS)), st.booleans())
@example(((4, 2, (0, 1)), "zero", ((0,), ())), "FockBasis.element", False)
@example(((4, 2, (0, 1)), "zero", ((1, 0), (1,))), "FockBasis.element", False)
@example(((4, 2, (0, 1)), "rising", ((1, 2), ())), "FockBasis.element", False)
@example(((4, 2, (0, 1)), "rising", ((1, 2), ())), "flotw_predicate", False)
@example(((4, 2, (0, 1)), "count", ((1,),)), "AValueTable", False)
@example(((4, 2, (0, 1)), "count", ((1,), (), (1,))), "AValueTable", False)
@example(((4, 2, (0, 1)), "count", ((1,),)), "flotw_predicate", True)
def test_every_label_entry_point_refuses_a_malformed_label(drawn, entry, as_lists):
    (e, l, charge), kind, mp = drawn
    call = LABEL_ENTRY_POINTS[entry]
    if as_lists:
        # a label given as lists reads as its tuples, but for the a-value
        # table: a dict, it refuses an unhashable key as a dict does
        lists = [list(comp) for comp in mp]
        if entry == "AValueTable":
            with pytest.raises(TypeError, match="unhashable"):
                call(e, l, charge, lists)
        else:
            assert _outcome(call, e, l, charge, lists) == _outcome(call, e, l, charge, mp)
    if entry == "AValueTable" and kind in ("zero", "rising"):
        # the a-value layer reads l-compositions, which may have zero parts
        # and rises (the node-addition preorder property compares them)
        assert call(e, l, charge, mp) == a_rel_per_label(mp, _warm_table(e, l, charge))
        return
    with pytest.raises(ValueError, match="components, expected %d|is not a (partition|composition)" % l):
        call(e, l, charge, mp)


# -- an ambient (e, l, charge) no entry point can use ----------------------------

BAD_AMBIENTS = [(0, 2, (0, 1)), (1, 2, (0, 1)), (-2, 2, (0, 1)), (1, 1, (0,)), (4, 0, ()),
                (4, 2, (0,)), (4, 1, (0, 1))]

AMBIENT_ENTRY_POINTS = {
    "ChargedAbacus": lambda e, l, charge: ChargedAbacus(e, l, charge, 3),
    "uglov_set": lambda e, l, charge: uglov_set(e, l, charge, 3),
    "crystal_graph": lambda e, l, charge: crystal_graph(e, l, charge, 2),
    "FockBasis": lambda e, l, charge: FockBasis(e, l, charge, 3),
    "decomposition_matrix": lambda e, l, charge: decomposition_matrix(e, l, charge, 2),
    "AValueTable": lambda e, l, charge: AValueTable(e, l, charge, 4),
    "from_pair": lambda e, l, charge: from_pair(((),) * l, charge, e, l),
    "flotw_predicate": lambda e, l, charge: flotw_predicate(((),) * l, e, charge),
    "is_split_semisimple": lambda e, l, charge: is_split_semisimple(e, charge, 2),
    "m_vector": m_vector,
    "kleshchev_charge": lambda e, l, charge: kleshchev_charge(charge, e, l, 3),
    "check_ambient": check_ambient,
}

# These read l off the charge.
CHARGE_LENGTH_IS_L = ("flotw_predicate", "is_split_semisimple")

# Public functions and classes taking e and charge that need not check them.
AMBIENT_EXEMPT = {
    "DecompositionMatrix": "a record of what decomposition_matrix built, on an ambient it checked",
}


@pytest.mark.parametrize("entry, ambient", [
    (entry, ambient) for entry in sorted(AMBIENT_ENTRY_POINTS) for ambient in BAD_AMBIENTS
    if entry not in CHARGE_LENGTH_IS_L or len(ambient[2]) == ambient[1]
], ids=str)
def test_every_ambient_entry_point_refuses_a_bad_ambient(entry, ambient):
    # refused before any of them divides by e or l, reads the charge or answers
    with pytest.raises(ValueError, match="need e >= 2 and l >= 1|entries, expected"):
        AMBIENT_ENTRY_POINTS[entry](*ambient)


def test_every_public_callable_taking_an_ambient_is_an_ambient_entry_point():
    takers = set()
    for info in pkgutil.iter_modules(qfock.__path__):
        module = importlib.import_module("qfock." + info.name)
        for name, obj in vars(module).items():
            if (name[:1] != "_" and (inspect.isfunction(obj) or inspect.isclass(obj))
                    and obj.__module__ == module.__name__):
                try:
                    params = inspect.signature(obj).parameters
                except ValueError:  # a builtin's signature, as an exception class's
                    continue
                if {"e", "charge"} <= params.keys():
                    takers.add(name)
    assert "FockBasis" in takers and "is_split_semisimple" in takers
    assert not takers - AMBIENT_EXEMPT.keys() - AMBIENT_ENTRY_POINTS.keys()
