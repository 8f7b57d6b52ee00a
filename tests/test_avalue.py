import random
import re

import pytest

from qfock.avalue import (
    AValueTable,
    _min_ramp,
    a_rel,
    m_vector,
)
from qfock.errors import UnsupportedRegimeError
from qfock.partitions import multipartitions

from oracles import a_rel_per_label, add_nodes_to_part, height, precedes, translated_symbol
from paper_data import A_VALUES


def lifted(charge, t, e=4):
    """The charge s + t*e: its shift vector is m(s) + max(0, t - alpha(s))*e,
    so a lift by t*e >= alpha(s)*e reaches the shift vector with alpha = t."""
    return tuple(c + t * e for c in charge)


@pytest.mark.parametrize("call", [
    lambda: m_vector(4, 2, (0,)),
    lambda: m_vector(4, 2, (0, 1, 2)),
    lambda: AValueTable(4, 2, (0,), 3),
])
def test_charge_of_the_wrong_length_is_refused(call):
    with pytest.raises(ValueError, match="entries, expected 2"):
        call()


def test_m_vector_is_integral_exactly_when_l_divides_e():
    # l | j*e for every j < l, the condition the shift vector needs, is
    # decided by its j = 1 term
    for e in range(2, 61):
        for l in range(1, 9):
            integral = not any(j * e % l for j in range(l))
            try:
                m_vector(e, l, (0,) * l)
            except UnsupportedRegimeError:
                assert not integral, (e, l)
            else:
                assert integral, (e, l)


def test_m_vector_examples():
    assert m_vector(4, 2, (0, 1)) == ((4, 3), 1)
    assert m_vector(4, 2, (4, 1)) == ((8, 3), 1)
    assert m_vector(4, 2, (0, 5)) == ((0, 3), 0)
    assert all(type(t) is int for t in m_vector(4, 2, (0, 1))[0])


def test_m_vector_charge_lift():
    # the shift vector of (0, 5) with alpha = 2 is that of (8, 13)
    assert m_vector(4, 2, lifted((0, 5), 2)) == ((8, 11), 0)
    rng = random.Random(17)
    for _ in range(300):
        e, l = rng.choice([(4, 2), (2, 2), (3, 3), (5, 1), (4, 4), (6, 2)])
        charge = tuple(rng.randint(-9, 9) for _ in range(l))
        shifts, alpha = m_vector(e, l, charge)
        assert min(shifts) >= 0 and (alpha == 0 or min(shifts) < e)
        for t in range(5):
            up, up_alpha = m_vector(e, l, lifted(charge, t, e))
            assert up == tuple(m + max(0, t - alpha) * e for m in shifts)
            assert up_alpha == max(0, alpha - t)


def test_translated_symbol_examples():
    m = m_vector(4, 2, (0, 1))[0]
    assert translated_symbol(((), ()), m, 1) == ((4,), (3,))
    assert translated_symbol(((4,), ()), m, 1) == ((8,), (3,))
    # raising the height by one appends a bottom entry of value m^(i) and
    # shifts every existing entry up by one
    b1 = translated_symbol(((2, 1), ()), m, 2)
    b2 = translated_symbol(((2, 1), ()), m, 3)
    assert b2[0][:-1] == tuple(x + 1 for x in b1[0])
    assert b2[1][:-1] == tuple(x + 1 for x in b1[1])
    assert b2[0][-1] == 4 and b2[1][-1] == 3


def test_non_integral_shift_rejected():
    # the message names l and e: the shifts are integers exactly when l | e
    message = re.escape("non-integral shift vector: l=2 does not divide e=3; a-values are "
                        "only implemented for integral shifts")
    with pytest.raises(UnsupportedRegimeError, match=message):
        m_vector(3, 2, (0, 1))
    with pytest.raises(UnsupportedRegimeError, match=message):
        AValueTable(3, 2, (0, 1), 2)


def calibrated(charge, labels, base, h):
    """The a_rel table of the labels at height h, shifted so base maps to 0."""
    aval = AValueTable(4, 2, charge, h)
    return {mc: aval[mc] - aval[base] for mc in labels}


def test_paper_a_tables():
    mps = multipartitions(2, 4)
    for charge, table in A_VALUES.items():
        minimal = min(table, key=table.get)
        got = calibrated(charge, mps, minimal, 5)
        assert got == table


def test_table_calibration_is_alpha_and_height_independent():
    mps = multipartitions(2, 4)
    reference = calibrated((0, 1), mps, ((4,), ()), 5)
    for t in (1, 2, 3):  # alpha = t
        for h in (4, 6, 8):
            assert calibrated(lifted((0, 1), t), mps, ((4,), ()), h) == reference


def pairwise_symbol_sums(symbol, shifts):
    """S1 - S2 by the defining double sums: min over every unordered pair of
    symbol positions, minus sum_{k=1..x} min(k, m^(j)) over entries x and
    components j.  The reference for a_rel's sorted-sum form."""
    l = len(symbol)
    s1 = 0
    for i in range(l):
        bi = symbol[i]
        for p in range(len(bi)):
            for r in range(p + 1, len(bi)):
                s1 += min(bi[p], bi[r])
        for j in range(i + 1, l):
            for x in bi:
                for y in symbol[j]:
                    s1 += min(x, y)
    s2 = 0
    for bi in symbol:
        for x in bi:
            for mj in shifts:
                s2 += _min_ramp(x, mj)
    return s1 - s2


def test_min_ramp_closed_form():
    for x in range(12):
        for mj in range(12):
            assert _min_ramp(x, mj) == sum(min(k, mj) for k in range(1, x + 1))


def test_a_rel_matches_pairwise_sums_on_compositions():
    # zero parts and parts below their successors give tied symbol entries,
    # within a component and across components
    rng = random.Random(31)
    ties = 0
    for _ in range(3000):
        e, l = rng.choice([(4, 2), (2, 2), (3, 3), (5, 1), (4, 4)])
        charge = tuple(rng.randint(-6, 6) for _ in range(l))
        # a lift by 3e gives the shift vector alpha = 3 gave, where it was
        # large enough, and a valid one everywhere else
        charge = lifted(charge, rng.choice([0, 0, 3]), e)
        mc = tuple(
            tuple(rng.randint(0, 3) for _ in range(rng.randint(0, 4)))
            for _ in range(l)
        )
        h = height(mc) + rng.randint(0, 2)
        shifts = m_vector(e, l, charge)[0]
        symbol = translated_symbol(mc, shifts, h)
        entries = [x for b in symbol for x in b]
        ties += len(set(entries)) < len(entries)
        want = pairwise_symbol_sums(symbol, shifts)
        table = AValueTable(e, l, charge, h)
        assert a_rel(mc, table) == want, (mc, charge, h)
        assert table[mc] == want
    assert ties > 1000


def test_table_memo_matches_fresh_a_rel():
    for charge in [(0, 1), (4, 1), (0, 5), (-3, 9)]:
        aval = AValueTable(4, 2, charge, 7)
        for mc in multipartitions(2, 6):
            assert aval[mc] == a_rel(mc, AValueTable(4, 2, charge, 7))


def test_memoized_a_rel_matches_per_label_oracle():
    # every label of rank <= 7 and compositions with zero parts, through one
    # shared table (warm memo) and a fresh table per label (cold memo); the
    # (e, l) pairs are those with e <= 5 and integral shift vectors
    rng = random.Random(41)
    for e, l in ((2, 1), (3, 1), (4, 1), (5, 1), (2, 2), (4, 2), (3, 3)):
        charges = {(0,) * l, (e + 1,) * l, tuple(range(l)),
                   tuple((-1) ** j * (7 * j * e + j) for j in range(l))}
        labels = [mp for n in range(8) for mp in multipartitions(l, n)]
        labels += [tuple(tuple(rng.randint(0, 3) for _ in range(rng.randint(0, 4)))
                         for _ in range(l)) for _ in range(200)]
        for charge in charges:
            h = 8
            shared = AValueTable(e, l, charge, h)
            for mc in labels:
                want = a_rel_per_label(mc, shared)
                assert a_rel(mc, shared) == want, (mc, charge)
                assert shared[mc] == want
                assert a_rel(mc, AValueTable(e, l, charge, h)) == want


def test_height_shift_property():
    # h -> a_rel(mp, h) - a_rel(mu, h) is constant in h at fixed rank/charge
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(0, 5)
        mps = multipartitions(2, n)
        mp, mu = rng.choice(mps), rng.choice(mps)
        charge = (rng.randint(0, 5), rng.randint(0, 5))
        hmin = max(height(mp), height(mu))
        diffs = {
            aval[mp] - aval[mu]
            for aval in (AValueTable(4, 2, charge, h) for h in range(hmin + 1, hmin + 5))
        }
        assert len(diffs) == 1


def test_precedes_examples():
    assert not precedes(((2,), (2,)), ((2,), (2,)), 4, 2, (0, 1))
    assert precedes(((4,), ()), ((3,), (1,)), 4, 2, (0, 1))
    with pytest.raises(ValueError):
        precedes(((1,), ()), ((2,), ()), 4, 2, (0, 1))


def test_precedes_matches_a_values_on_partitions():
    mps = multipartitions(2, 4)
    for charge, table in A_VALUES.items():
        for mp in mps:
            for mu in mps:
                assert precedes(mp, mu, 4, 2, charge) == (table[mp] < table[mu])


def test_proposition_combi_property():
    # adding r nodes at the part with the larger symbol entry lands strictly
    # lower in the preorder
    rng = random.Random(29)
    done = 0
    while done < 200:
        e, l = rng.choice([(4, 2), (2, 2), (3, 3), (5, 1)])
        charge = tuple(rng.randint(0, 2 * e) for _ in range(l))
        lam = tuple(
            tuple(rng.randint(1, 5) for _ in range(rng.randint(0, 3)))
            for _ in range(l)
        )
        h = height(lam) + rng.randint(1, 2)
        symbol = translated_symbol(lam, m_vector(e, l, charge)[0], h)
        spots = [(i, j) for i in range(1, l + 1) for j in range(1, h + 1)]
        if len(spots) < 2:
            continue
        (i1, j1), (i2, j2) = rng.sample(spots, 2)
        b1 = symbol[i1 - 1][j1 - 1]
        b2 = symbol[i2 - 1][j2 - 1]
        if b1 == b2:
            continue
        if b1 > b2:
            (i1, j1, b1), (i2, j2, b2) = (i2, j2, b2), (i1, j1, b1)
        r = rng.randint(1, 4)
        mu = add_nodes_to_part(lam, i1, j1, r, max_row=h)
        nu = add_nodes_to_part(lam, i2, j2, r, max_row=h)
        assert precedes(nu, mu, e, l, charge), (lam, charge, (i1, j1), (i2, j2), r)
        done += 1


def test_a_rel_height_guard():
    table = AValueTable(4, 2, (0, 1), 1)
    with pytest.raises(ValueError, match="height 1 is below"):
        a_rel(((2, 1), ()), table)
    with pytest.raises(ValueError, match="height 1 is below"):
        table[((2, 1), ())]
    assert table[((2,), ())] == a_rel(((2,), ()), table)
    # a component already in the memo does not let a taller one through
    with pytest.raises(ValueError, match=re.escape("height 1 is below the height of ((2,), (1, 1))")):
        a_rel(((2,), (1, 1)), table)
