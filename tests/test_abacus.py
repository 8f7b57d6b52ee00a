import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfock.abacus import (
    WedgeMonomial,
    _runner_tail_top,
    bead_index,
    degree,
    factorize,
    from_pair,
    monomial_from_text,
    to_pair,
    wedge_monomial,
)
from qfock.partitions import partitions

from oracles import enumerate_degree_component, runner_tail_top_by_search
from paper_data import WORKED_LABEL, WORKED_MONOMIAL


def test_factorize_examples():
    assert factorize(15, 4, 3) == (3, 3, -1)
    assert factorize(12, 4, 3) == (4, 1, 0)
    assert factorize(1, 4, 3) == (1, 3, 0)


def test_factorize_reconstruction_grid():
    for e, l in [(2, 1), (2, 2), (4, 3), (3, 2)]:
        for k in range(-10**4, 10**4 + 1):
            a, b, m = factorize(k, e, l)
            assert 1 <= a <= e and 1 <= b <= l
            assert k == a + e * (l - b) - e * l * m


@st.composite
def tail_cutoffs(draw):
    """(cutoff, b, e, l): negative cutoffs, l = 1 and e up to ~1000."""
    l = draw(st.integers(1, 5))
    return draw(st.integers(-10**5, 10**5)), draw(st.integers(1, l)), draw(st.integers(2, 997)), l


@settings(max_examples=500)
@given(tail_cutoffs())
def test_runner_tail_top_closed_form_matches_the_search(args):
    cutoff, b, e, l = args
    v = _runner_tail_top(cutoff, b, e, l)
    assert v == runner_tail_top_by_search(cutoff, b, e, l)
    assert bead_index(v, b, e, l) <= cutoff < bead_index(v + 1, b, e, l)


def test_runner_tail_top_closed_form_on_a_grid():
    for e, l in [(2, 1), (3, 1), (2, 2), (4, 3), (5, 2), (7, 5)]:
        for b in range(1, l + 1):
            for cutoff in range(-3 * e * l, 3 * e * l + 1):
                assert _runner_tail_top(cutoff, b, e, l) == runner_tail_top_by_search(cutoff, b, e, l)


def test_worked_example_both_directions():
    prefix, s = WORKED_MONOMIAL
    mp, charge = WORKED_LABEL
    u = wedge_monomial(prefix, s)
    assert to_pair(u, 4, 3) == (mp, charge)
    assert from_pair(mp, charge, 4, 3) == u
    assert degree(u) == 44  # 12+10+7+7+4+3+1


def test_vacuum_cases():
    u = from_pair(((), ()), (0, 0), 2, 2)
    assert u == WedgeMonomial((), 0)
    assert degree(u) == 0
    assert to_pair(WedgeMonomial((), 0), 2, 2) == ((((), ())), (0, 0))
    # one box on component 1 at charge (0,0), e=2, l=2 sits at global index 3
    assert from_pair(((1,), ()), (0, 0), 2, 2) == WedgeMonomial((3,), 0)
    assert from_pair([[1], []], [0, 0], 2, 2) == WedgeMonomial((3,), 0)  # lists read as tuples
    # components must be partitions: a zero or increasing part is rejected
    for mp in [((1, 0), ()), ((0,), (1,)), ((1, 2), ())]:
        with pytest.raises(ValueError, match="not a partition"):
            from_pair(mp, (0, 1), 4, 2)


def test_round_trip_random():
    # the +-40 charges put the runners' first holes far apart, so the tail
    # beads of the high runners make up most of the prefix
    rng = random.Random(12)
    for lo, hi in [(-6, 8)] * 500 + [(-40, 40)] * 500:
        e = rng.randint(2, 5)
        l = rng.randint(1, 4)
        mp = tuple(tuple(sorted((rng.randint(1, 6) for _ in range(rng.randint(0, 4))), reverse=True))
                   for _ in range(l))
        charge = tuple(rng.randint(lo, hi) for _ in range(l))
        u = from_pair(mp, charge, e, l)
        assert to_pair(u, e, l) == (mp, charge)
        # and monomial -> pair -> monomial
        mp2, ch2 = to_pair(u, e, l)
        assert from_pair(mp2, ch2, e, l) == u


def test_degree_component_sizes():
    pcount = {n: len(partitions(n)) for n in range(31)}
    for s in (-2, 0, 3):
        assert enumerate_degree_component(s, 0) == [WedgeMonomial((), s)]
        assert len(enumerate_degree_component(s, 1)) == 1
        assert len(enumerate_degree_component(s, 5)) == 7
        for n in range(31):
            comp = enumerate_degree_component(s, n)
            assert len(comp) == pcount[n]
            assert len(set(comp)) == len(comp)
            for u in comp:
                assert degree(u) == n and u.s == s


def test_canonical_form():
    assert wedge_monomial((3, 0, -1), 1) == WedgeMonomial((3,), 1)  # 0,-1 are tail
    assert wedge_monomial((), 5) == WedgeMonomial((), 5)
    # a prefix made entirely of tail values trims to the vacuum
    assert wedge_monomial((1, 0, -1, -2, -3), 1) == WedgeMonomial((), 1)
    with pytest.raises(ValueError):
        wedge_monomial((0, 3), 1)       # not decreasing
    with pytest.raises(ValueError):
        wedge_monomial((2, -2), 2)      # -2 collides with the frozen tail


def test_monomial_text():
    u = wedge_monomial((15, 12), 3)
    assert u.to_text() == "s=3; k=15,12"
    assert monomial_from_text("s=3; k=15,12") == u
    assert monomial_from_text("s=0; k=") == WedgeMonomial((), 0)
    assert monomial_from_text(" s =3;k = 15,12") == u


def test_monomial_text_names_its_fields():
    # the fields are s, then k; neither swapped nor renamed ones are read
    for text in ("k=1; s=5", "x=1; y=5", "s=1; s=5", "k=5; k=1", "s=1; kk=5", "=1; k=5"):
        with pytest.raises(ValueError, match="malformed monomial"):
            monomial_from_text(text)


def test_degree_unaffected_by_charge_split():
    # the degree of a monomial depends only on the prefix and s, not on how
    # to_pair distributes it over runners
    rng = random.Random(13)
    for _ in range(50):
        n = rng.randint(0, 12)
        s = rng.randint(-3, 3)
        for u in enumerate_degree_component(s, n)[:5]:
            mp, ch = to_pair(u, 3, 2)
            assert from_pair(mp, ch, 3, 2) == u
            assert degree(u) == n
