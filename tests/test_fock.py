import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfock.canonical import FockBasis
from qfock.crystal import uglov_set
from qfock.fock import ChargedAbacus
from qfock.laurent import LaurentPoly
from qfock.partitions import multipartitions

from oracles import (
    add_node,
    addable_nodes,
    apply_e,
    apply_f_on_tuples,
    apply_k,
    divided_power_by_division,
    fock_apply_f,
    n_above,
    n_below,
    n_count,
    peel_on_tuples,
    signature_nodes,
    single_bits,
)


def unit(mp, charge):
    return {(mp, charge): LaurentPoly.one()}


def test_count_examples():
    assert n_count(((), ()), 0, (0, 1), 4) == 1
    assert n_count(((), ()), 2, (0, 1), 4) == 0
    assert n_below(((), ()), ((1,), ()), (1, 1, 1), 0, (0, 1), 4) == 0


def test_n_counts_wrapper():
    vac, gamma = ((), ()), (1, 1, 1)
    mu = add_node(vac, gamma)
    assert n_count(vac, 0, (0, 1), 4) == 1
    assert (
        n_count(vac, 0, (0, 1), 4),
        n_above(vac, mu, gamma, 0, (0, 1), 4),
        n_below(vac, mu, gamma, 0, (0, 1), 4),
    ) == (1, 0, 0)


def test_action_examples():
    v = unit(((), ()), (0, 1))
    assert apply_e(0, v, 4) == {}
    assert fock_apply_f(0, v, 4) == unit(((1,), ()), (0, 1))
    assert apply_k(0, v, 4) == {(((), ()), (0, 1)): LaurentPoly({1: 1})}


def test_f_term_count_matches_addable_nodes():
    # one term per addable i-node, weighted q^{N^b} as n_below counts it
    rng = random.Random(17)
    for _ in range(300):
        l = rng.randint(1, 3)
        e = rng.randint(2, 5)
        mp = rng.choice(multipartitions(l, rng.randint(0, 7)))
        charge = tuple(rng.randint(-3, 6) for _ in range(l))
        i = rng.randint(0, e - 1)
        image = fock_apply_f(i, unit(mp, charge), e)
        assert len(image) == len(addable_nodes(mp, i, charge, e))
        for gamma in addable_nodes(mp, i, charge, e):
            mu = add_node(mp, gamma)
            w = n_below(mp, mu, gamma, i, charge, e)
            assert image[(mu, charge)] == LaurentPoly({w: 1})


def test_divided_power_matches_division_by_quantum_factorial():
    # f_i^(k) in one pass against k single steps and exact division by
    # [k]!, on multi-term vectors with random coefficients, one charge each
    rng = random.Random(23)
    beyond = 0
    for _ in range(300):
        l = rng.randint(1, 3)
        e = rng.randint(2, 5)
        charge = tuple(rng.randint(-3, 6) for _ in range(l))
        i = rng.randint(0, e - 1)
        k = rng.randint(1, 4)
        pool = multipartitions(l, rng.randint(0, 6))
        labels = rng.sample(pool, min(3, len(pool)))
        vec = {
            (mp, charge): LaurentPoly({rng.randint(-3, 3): rng.choice([-2, -1, 1, 3])
                                       for _ in range(rng.randint(1, 3))})
            for mp in labels
        }
        got = fock_apply_f(i, vec, e, k)
        assert got == divided_power_by_division(i, vec, e, k), (l, e, charge, i, k, vec)
        if all(len(addable_nodes(mp, i, charge, e)) < k for mp in labels):
            beyond += 1
            assert got == {}
    assert beyond > 0


def test_divided_power_examples():
    # at e=4, charge (0,1): the vacuum has one addable 0-node, so f_0^(2)
    # kills it; 1|- has two addable 1-nodes, and f_1^(2) adds both with q^0
    charge = (0, 1)
    vac = ((), ())
    assert fock_apply_f(0, unit(vac, charge), 4, 2) == {}
    one = unit(((1,), ()), charge)
    assert set(addable_nodes(((1,), ()), 1, charge, 4)) == {(1, 2, 1), (1, 1, 2)}
    assert fock_apply_f(1, one, 4, 2) == unit(((2,), (1,)), charge)


def test_adding_an_i_node_drops_n_count_by_two():
    rng = random.Random(18)
    for _ in range(200):
        l = rng.randint(1, 3)
        e = rng.randint(2, 6)
        mp = rng.choice(multipartitions(l, rng.randint(0, 5)))
        charge = tuple(rng.randint(-3, 6) for _ in range(l))
        i = rng.randint(0, e - 1)
        for g in addable_nodes(mp, i, charge, e):
            assert n_count(add_node(mp, g), i, charge, e) == n_count(mp, i, charge, e) - 2


def qint(n):
    if n == 0:
        return LaurentPoly()
    if n > 0:
        return LaurentPoly({n - 1 - 2 * j: 1 for j in range(n)})
    return LaurentPoly({-(-n - 1 - 2 * j): -1 for j in range(-n)})


def test_sl2_commutator():
    # (e_i f_i - f_i e_i) acts on |mp> as the quantum integer [N_i]_q
    rng = random.Random(19)
    for _ in range(200):
        l = rng.randint(1, 3)
        e = rng.randint(2, 5)
        mp = rng.choice(multipartitions(l, rng.randint(0, 5)))
        charge = tuple(rng.randint(-4, 6) for _ in range(l))
        i = rng.randint(0, e - 1)
        v = unit(mp, charge)
        lhs = {}
        for key, c in apply_e(i, fock_apply_f(i, v, e), e).items():
            lhs[key] = lhs.get(key, LaurentPoly()) + c
        for key, c in fock_apply_f(i, apply_e(i, v, e), e).items():
            s = lhs.get(key, LaurentPoly()) - c
            if s:
                lhs[key] = s
            else:
                lhs.pop(key, None)
        lhs = {k: c for k, c in lhs.items() if c}
        expected = {}
        qc = qint(n_count(mp, i, charge, e))
        if qc:
            expected[(mp, charge)] = qc
        assert lhs == expected


def _assert_mask_reads_the_nodes(abacus, mp):
    """mp goes to a mask and back; its addable and removable node masks
    list the signature nodes, bit order = above order."""
    e, charge = abacus.e, abacus.charge
    b = abacus.mask(mp)
    assert abacus.label(b) == mp
    add, rem = abacus.nodes(b)
    want = [(cont % e, addable) for cont, _c, _node, addable in signature_nodes(mp, charge)]
    bits = single_bits(add | rem)
    assert len(bits) == len(want), (e, charge, mp)
    for bit, (i, addable) in zip(bits, want):
        assert bit & abacus.residue(i) and bool(bit & add) == addable, (e, charge, mp)


def test_bead_masks_round_trip_and_read_the_nodes():
    # every label of rank <= 5; an abacus two ranks wider holds the mask
    # moved up by two positions, filled with beads
    for e, charge in [(4, (0, 1)), (3, (0, 4, -1)), (2, (2,))]:
        l = len(charge)
        abacus = ChargedAbacus(e, l, charge, 5)
        wider = ChargedAbacus(e, l, charge, 7)
        for n in range(6):
            for mp in multipartitions(l, n):
                _assert_mask_reads_the_nodes(abacus, mp)
                assert wider.mask(mp) == abacus.mask(mp) << 2 * l | (1 << 2 * l) - 1


def test_one_partition_at_two_slots_gets_each_slots_bits():
    # the abacus keeps each component's bits by (slot, partition), and each
    # partition by its bits, so a partition met at one slot is worked out
    # anew at the other, in either direction: an abacus that first decodes
    # masks made elsewhere reads each component back at its own slot
    labels = (((2, 1), ()), ((), (2, 1)), ((2, 1), (2, 1)), ((2, 1), ()))
    for charge in ((0, 5), (3, 3)):
        abacus = ChargedAbacus(4, 2, charge, 6)
        for mp in labels:
            _assert_mask_reads_the_nodes(abacus, mp)
        reader = ChargedAbacus(4, 2, charge, 6)
        assert [reader.label(abacus.mask(mp)) for mp in labels] == list(labels)
        assert [reader.mask(mp) for mp in labels] == [abacus.mask(mp) for mp in labels]


@pytest.mark.parametrize("call", [
    lambda: uglov_set(4, 2, (0, 1, 2), 3),
    lambda: uglov_set(4, 2, (0,), 3),
    lambda: FockBasis(4, 2, (0,), 1).element(((1,), ())),
])
def test_charge_of_the_wrong_length_is_refused(call):
    # through the library API, where no command line checks the charge
    with pytest.raises(ValueError, match="expected 2"):
        call()


def test_widely_spread_charge_keeps_a_narrow_abacus():
    # windows that leave a gap are placed closer, to one free position
    # above it: every residue and the above order survive, and the width
    # stays at most l^2 (2n + 2) bits, however far apart the charge's
    # entries are and however large e is
    for e, charge in [(4, (0, 100000)), (3, (0, 40, -30)), (3, (96, 49, 2)), (2, (5, -7)),
                      (10**6, (0, 500000)), (10**6, (0, 3 * 10**6 + 7, -10**6 + 5))]:
        l = len(charge)
        abacus = ChargedAbacus(e, l, charge, 4)
        assert abacus.positions <= l * (2 * 4 + 2), (e, charge, abacus.placed)
        for n in range(5):
            for mp in multipartitions(l, n):
                _assert_mask_reads_the_nodes(abacus, mp)


@st.composite
def fock_vectors(draw):
    """(e, charge, i, k, vec): a vector of up to four labels of rank <= 6 at
    one charge, with random nonzero Laurent coefficients."""
    e = draw(st.integers(2, 5))
    l = draw(st.integers(1, 3))
    charge = tuple(draw(st.lists(st.integers(-2, e + 1), min_size=l, max_size=l)))
    labels = draw(st.lists(
        st.integers(0, 6).flatmap(lambda n: st.sampled_from(multipartitions(l, n))),
        min_size=1, max_size=4, unique=True))
    coefficient = st.dictionaries(st.integers(-3, 3), st.integers(-3, 3).filter(bool),
                                  min_size=1, max_size=3)
    vec = {(mp, charge): LaurentPoly(draw(coefficient)) for mp in labels}
    return e, charge, draw(st.integers(0, e - 1)), draw(st.integers(1, 3)), vec


@settings(max_examples=300)
@given(fock_vectors())
def test_mask_route_matches_tuple_route(case):
    # apply_f and FockBasis.peel on bead masks against their tuple-label
    # forms in tests/oracles.py
    e, charge, i, k, vec = case
    assert fock_apply_f(i, vec, e, k) == apply_f_on_tuples(i, vec, e, k)
    basis = FockBasis(e, len(charge), charge, 6)
    for mp, _charge in vec:
        b = basis.mask(mp)
        want = peel_on_tuples(mp, charge, e)
        got = basis.peel(b)
        if want is None:
            assert got is None
        else:
            assert got == (want[0], want[1], basis.mask(want[2])), (e, charge, mp)
