import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfock import cli
from qfock.abacus import (
    WedgeMonomial,
    degree,
    factorize,
    monomial_from_text,
    wedge_monomial,
)
from qfock.laurent import ONE, LaurentPoly, _acc
from qfock.wedge import WedgeEngine, _indices, _shared_pairs, vector_to_json

from oracles import (
    LaurentWedgeEngine,
    bar_omegas_by_pairs,
    bar_vector,
    enumerate_degree_component,
    index_sum,
    straighten_naive,
)


def poly(d):
    return LaurentPoly(d)


def test_straighten_pair_rule_examples():
    eng43 = WedgeEngine(4, 3)
    assert eng43.straighten_pair(1, 13) == (((13, 1), poly({0: -1})),)

    eng21 = WedgeEngine(2, 1)
    assert eng21.straighten_pair(0, 1) == (((1, 0), poly({-1: -1})),)
    assert dict(eng21.straighten_pair(0, 3)) == {
        (3, 0): poly({-1: -1}),
        (2, 1): poly({-2: 1, 0: -1}),
    }
    for eng in (eng21, eng43):
        assert eng.straighten_pair(5, 5) == ()


def test_straighten_pair_requires_sorted_input():
    with pytest.raises(ValueError):
        WedgeEngine(2, 2).straighten_pair(3, 1)


def test_straighten_ordered_passthrough():
    eng = WedgeEngine(3, 2)
    got = eng.straighten_indices((7, 4, 2, -1))
    assert got == {(7, 4, 2, -1): LaurentPoly.one()}


def test_adjacent_equal_indices_vanish():
    eng = WedgeEngine(2, 2)
    assert eng.straighten_indices((4, 4)) == {}
    assert eng.straighten_indices((1, 4, 4, -2)) == {}


def test_nonadjacent_repeat_follows_the_rules():
    # a repeated index does NOT force zero in the q-wedge unless adjacent:
    # value frozen from two independent rewriting strategies
    eng = WedgeEngine(2, 2)
    got = eng.straighten_indices((-4, 1, -4))
    assert got == {(-1, -2, -4): poly({1: 1, -1: -1})}
    assert straighten_naive(eng, (-4, 1, -4)) == got


def test_two_strategy_oracle_equivalence():
    rng = random.Random(99)
    for (e, l) in [(2, 1), (2, 2), (4, 2), (4, 3)]:
        eng = WedgeEngine(e, l)
        for _ in range(50):
            n = rng.randint(2, 6)
            word = tuple(rng.randint(-9, 11) for _ in range(n))
            assert eng.straighten_indices(word) == straighten_naive(eng, word)


def test_index_sum_conservation():
    rng = random.Random(7)
    eng = WedgeEngine(4, 2)
    for _ in range(100):
        word = tuple(rng.randint(-8, 10) for _ in range(rng.randint(2, 5)))
        for mono in eng.straighten_indices(word):
            assert sum(mono) == sum(word)


def prepend_straighten(eng, word):
    """Second route: read the word right to left, each factor entering at
    the top of an ordered monomial (memoized on index and ordered suffix)."""
    cache = {}

    def insert(j, mono):
        if not mono or j > mono[0]:
            return {(j,) + mono: ONE}
        if j == mono[0]:
            return {}
        if (j, mono) not in cache:
            out = {}
            for (x, y), c in eng.straighten_pair(j, mono[0]):
                for m2, c2 in insert(y, mono[1:]).items():
                    for m3, c3 in insert(x, m2).items():
                        _acc(out, m3, c * c2 * c3)
            cache[j, mono] = out
        return cache[j, mono]

    vec = {(): ONE}
    for j in reversed(word):
        nxt = {}
        for mono, c in vec.items():
            for m2, c2 in insert(j, mono).items():
                _acc(nxt, m2, c * c2)
        vec = nxt
    return vec


def bar_word(u):
    """The word bar straightens: the first r factors of u reversed."""
    r = max(degree(u), len(u.prefix))
    factors = list(u.prefix) + [u.s - i + 1 for i in range(len(u.prefix) + 1, r + 1)]
    return tuple(reversed(factors))


def test_append_straightening_matches_prepend_route_on_bar_words():
    for (e, l) in [(4, 2), (3, 3), (2, 2)]:
        eng = WedgeEngine(e, l)
        for n in range(13):
            for u in enumerate_degree_component(1, n):
                word = bar_word(u)
                assert eng.straighten_indices(word) == prepend_straighten(eng, word), (e, l, u)


def test_append_straightening_matches_prepend_route_on_random_words():
    rng = random.Random(5)
    ambients = [(2, 1), (2, 2), (3, 2), (4, 2), (3, 3)]
    warm = {(e, l): WedgeEngine(e, l) for e, l in ambients}  # caches shared across words
    for _ in range(200):
        e, l = rng.choice(ambients)
        word = tuple(rng.randint(-10, 10) for _ in range(rng.randint(0, 8)))
        want = prepend_straighten(WedgeEngine(e, l), word)
        for eng in (warm[e, l], WedgeEngine(e, l)):
            assert eng.straighten_indices(word) == want, (e, l, word)


def test_insert_ignores_the_leading_run_above_the_new_factor():
    # appending u_j to A + B leaves A in front when min(A) > j: the word
    # A + B + (j,) straightens to A prepended to the straightening of
    # B + (j,), both checked against the right-to-left route
    rng = random.Random(11)
    ambients = [(2, 1), (2, 2), (3, 2), (4, 2), (3, 3)]
    warm = {(e, l): WedgeEngine(e, l) for e, l in ambients}  # caches shared across inserts
    for _ in range(300):
        e, l = rng.choice(ambients)
        j = rng.randint(-6, 6)
        b = tuple(sorted(rng.sample(range(j - 10, j + 1), rng.randint(1, 5)), reverse=True))
        a = tuple(sorted(rng.sample(range(j + 1, j + 12), rng.randint(0, 4)), reverse=True))
        want = prepend_straighten(WedgeEngine(e, l), a + b + (j,))
        # a fresh engine per side, so the short insert is not served by the long one's memo
        for eng, short in ((warm[e, l], warm[e, l]), (WedgeEngine(e, l), WedgeEngine(e, l))):
            got = eng.straighten_indices(a + b + (j,))
            short_got = short.straighten_indices(b + (j,))
            assert got == {a + m: c for m, c in short_got.items()} == want, (e, l, j, a, b)


def test_insert_memo_keys_hold_no_entry_above_the_new_factor():
    # a key (j, B) is a bit mask B translated by a multiple of e: no bit of B
    # lies above j, and its lowest bit is below e
    for (e, l, text) in [(4, 2, "s=-16; k=8"), (3, 3, "s=2; k=12,7,2"), (2, 2, "s=1; k=7,6,5")]:
        eng = WedgeEngine(e, l)
        eng.bar(monomial_from_text(text))
        assert eng._insert_cache
        for j, tail in eng._insert_cache:
            assert tail >> (j + 1) == 0, (e, l, text, j, tail)
            assert 0 < tail & -tail < 1 << e, (e, l, text, j, tail)


def test_straighten_pair_translates_by_e():
    # shifting both indices by e keeps every bead letter a and shifts every
    # runner b by one amount mod l, so the expansion just translates; the
    # insert memo keeps one entry per translate by e on the strength of it
    for (e, l) in [(2, 1), (2, 2), (3, 2), (4, 2), (3, 3), (2, 3), (5, 2)]:
        eng = WedgeEngine(e, l)
        el = e * l
        for k1 in range(-el, el):
            for k2 in range(k1, k1 + 3 * el):
                base = eng.straighten_pair(k1, k2)
                for t in range(-5, 6):
                    want = tuple(((x + t * e, y + t * e), c) for (x, y), c in base)
                    assert eng.straighten_pair(k1 + t * e, k2 + t * e) == want, (e, l, k1, k2, t)


def test_translates_by_e_cost_no_fuel():
    # a warm engine serves the bar of u shifted by a multiple of e (indices
    # and charge together) from its insert memo, and gets the shifted image;
    # a factor far below the word, appended last, moves the whole
    # straightening to a frame a multiple of e lower, which the memo keys
    # undo, so it costs nothing either
    def shift(u, t):
        return WedgeMonomial(tuple(k + t for k in u.prefix), u.s + t)

    for (e, l, text) in [(4, 2, "s=-16; k=8"), (3, 3, "s=2; k=12,7,2"), (2, 2, "s=1; k=7,6,5")]:
        u = monomial_from_text(text)
        eng = WedgeEngine(e, l)
        image = eng.bar(u)
        for t in (e, e * l, -2 * e * l):
            spent = eng._spent
            got = eng.bar(shift(u, t))
            assert eng._spent == spent, (e, l, text, t)
            assert got == {shift(w, t): c for w, c in image.items()}, (e, l, text, t)
        word = bar_word(u)
        low = min(word) - 3 * e - 1
        want = {m + (low,): c for m, c in eng.straighten_indices(word).items()}
        spent = eng._spent
        assert eng.straighten_indices(word + (low,)) == want, (e, l, text)
        assert eng._spent == spent, (e, l, text)


def test_mask_round_trip():
    for mono, origin in [((), 0), ((), -8), ((5,), 4), ((-3,), -4),
                         ((7, 2, 0, -1, -9), -12), ((-2, -5, -6), -6)]:
        mask = sum(1 << (k - origin) for k in mono)
        assert _indices(mask, origin) == mono, (mono, origin)
    assert _indices(0b1001, -4) == (-1, -4)
    # one factor appended to the empty monomial too
    assert WedgeEngine(2, 2).straighten_indices((-3,)) == {(-3,): ONE}


def test_bar_fuel_regression_guard():
    # the insert memo ignores the part of the prefix above the new factor and
    # keeps one entry per translate by e (2 764 steps on this monomial); keyed
    # on the untranslated part it spent 3 811, keyed on the whole ordered
    # prefix 39 607, and the right-to-left reading 83 600
    eng = WedgeEngine(4, 2)
    eng.bar(monomial_from_text("s=-16; k=8"))
    assert eng._spent <= 2_764
    assert len(eng._insert_cache) == eng._spent  # one memo entry per unit of fuel


def test_bar_memory_guard():
    # the insert memo holds one flat (mask, id, ...) run per entry, with ids
    # into a table of distinct polynomials: 2.46 MiB peak here, against
    # 3.42 MiB with one dict per entry and 6.6 MiB with one LaurentPoly per
    # memo result
    u = monomial_from_text("s=-16; k=8")
    tracemalloc.start()
    try:
        WedgeEngine(4, 2).bar(u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.8 * 2**20


def test_bar_command_frees_its_engine_before_the_render(capsys):
    # the whole command after one untraced run, which pays the one-time
    # imports and parser set-up: 2.46 MiB peak here, 2.74 MiB
    # with the engine held through the render, 3.78 MiB with one dict per
    # memo entry as well
    argv = ["bar", "--e=4", "--l=2", "--monomial=s=-16; k=8", "--format=json"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.6 * 2**20


ORACLE_AMBIENTS = st.sampled_from([(2, 1), (2, 2), (3, 3), (4, 2)])


@st.composite
def monomials(draw):
    """A charge-s monomial u_{s - i + gamma_i} ^ ... for a small partition gamma."""
    s = draw(st.integers(-6, 6))
    gamma = sorted(draw(st.lists(st.integers(1, 3), max_size=4)), reverse=True)
    return wedge_monomial([s - i + g for i, g in enumerate(gamma)], s)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(ORACLE_AMBIENTS, st.lists(st.integers(-8, 8), max_size=6), st.integers(-8, 8))
def test_straighten_indices_and_insert_match_the_laurent_oracle(ambient, word, j):
    eng, oracle = WedgeEngine(*ambient), LaurentWedgeEngine(*ambient)
    assert eng.straighten_indices(word) == oracle.straighten_indices(word)
    mono = tuple(sorted(set(word), reverse=True))
    assert eng.straighten_indices((*mono, j)) == oracle.straighten_indices((*mono, j))
    assert eng._spent == oracle._spent
    assert len(eng._insert_cache) == len(oracle._insert_cache)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(ORACLE_AMBIENTS, monomials())
def test_bar_matches_the_laurent_oracle(ambient, u):
    eng, oracle = WedgeEngine(*ambient), LaurentWedgeEngine(*ambient)
    assert eng.bar(u) == oracle.bar(u)
    assert eng._spent == oracle._spent
    assert len(eng._insert_cache) == len(oracle._insert_cache)


def test_semiinfinite_straighten():
    eng = WedgeEngine(2, 2)
    # ordered input passes through
    assert eng.straighten((3, 1), 0) == {wedge_monomial((3, 1), 0): LaurentPoly.one()}
    # adjacent equal indices vanish
    assert eng.straighten((2, 2), 0) == {}
    # an index equal to a tail bead interacts with the tail per the rules;
    # the value is the stable limit of deepening truncations
    got = eng.straighten((-2, 3), 0)
    assert got == {wedge_monomial((1, 0), 0): poly({1: 1, -1: -1})}


def test_bar_basics():
    eng = WedgeEngine(2, 1)
    vac = WedgeMonomial((), 0)
    assert eng.bar(vac) == {vac: LaurentPoly.one()}
    u = wedge_monomial((2,), 0)
    got = eng.bar(u)
    assert got == {
        u: LaurentPoly.one(),
        wedge_monomial((1, 0), 0): poly({1: 1, -1: -1}),
    }
    with pytest.raises(ValueError):
        eng.bar(u, r=1)  # r below the degree bound


def test_bar_unit_diagonal_and_homogeneity():
    for (e, l, s) in [(2, 1, 0), (2, 2, 0), (4, 2, 1)]:
        eng = WedgeEngine(e, l)
        for n in range(7):
            for u in enumerate_degree_component(s, n):
                image = eng.bar(u)
                assert image[u] == LaurentPoly.one()
                for v in image:
                    assert v.s == s and degree(v) == n


def test_bar_involution_and_r_independence():
    for (e, l, s) in [(2, 1, 0), (2, 2, 0), (4, 2, 1)]:
        eng = WedgeEngine(e, l)
        for n in range(11):
            for u in enumerate_degree_component(s, n):
                image = eng.bar(u)
                back = bar_vector(eng, image)
                assert back == {u: LaurentPoly.one()}
                if n and n <= 7:
                    assert image == eng.bar(u, r=n + 1) == eng.bar(u, r=n + 2)


def test_bar_vector_semilinearity():
    eng = WedgeEngine(2, 2)
    u = wedge_monomial((3,), 0)
    q = LaurentPoly({1: 1})
    lhs = bar_vector(eng, {u: q})
    rhs = {v: LaurentPoly({-1: 1}) * c for v, c in eng.bar(u).items()}
    assert lhs == rhs


def test_cache_does_not_change_results():
    # a warm engine, whose caches serve later calls, against a fresh engine
    # per call and against naive rewriting
    rng = random.Random(42)
    warm = WedgeEngine(4, 2)
    for _ in range(25):
        word = tuple(rng.randint(-6, 8) for _ in range(rng.randint(2, 5)))
        want = straighten_naive(WedgeEngine(4, 2), word)
        assert warm.straighten_indices(word) == WedgeEngine(4, 2).straighten_indices(word) == want
    for n in range(6):
        for u in enumerate_degree_component(1, n):
            assert warm.bar(u) == WedgeEngine(4, 2).bar(u)


def test_bar_against_naive_strategy():
    # an independent bar: reverse the factors, straighten with the naive
    # leftmost rewriter, apply the prefactor counted pair by pair
    for (e, l, s, top) in [(2, 2, 0, 7), (4, 2, 1, 6)]:
        eng = WedgeEngine(e, l)
        for n in range(top + 1):
            for u in enumerate_degree_component(s, n):
                r = max(n, len(u.prefix))
                factors = list(u.prefix) + [s - i + 1 for i in range(len(u.prefix) + 1, r + 1)]
                om, omp = bar_omegas_by_pairs(factors, e, l)
                pref = LaurentPoly({omp - om: (-1) ** omp})
                naive = {}
                for mono, c in straighten_naive(eng, tuple(reversed(factors))).items():
                    key = wedge_monomial(mono, s)
                    cur = naive.get(key, LaurentPoly())
                    naive[key] = cur + pref * c
                naive = {k: c for k, c in naive.items() if c}
                assert naive == eng.bar(u)


def test_bar_omegas_from_counts_match_the_pair_loop():
    rng = random.Random(21)
    for _ in range(500):
        e = rng.choice((2, 3, 4, 7, rng.randint(2, 1000)))
        l = rng.randint(1, 5)
        word = [rng.randint(-3 * e * l, 3 * e * l) for _ in range(rng.randint(0, 60))]
        letters = [factorize(k, e, l) for k in word]
        got = (_shared_pairs(x.a for x in letters), _shared_pairs(x.b for x in letters))
        assert got == bar_omegas_by_pairs(word, e, l), (e, l, word)


def test_fuel_exhaustion_fails_loudly():
    from qfock.errors import InvariantError

    eng = WedgeEngine(4, 2, fuel=3)
    with pytest.raises(InvariantError):
        eng.straighten_indices(tuple(range(-5, 6)))


def test_bar_rejects_image_without_unit_coefficient(monkeypatch):
    # a straightening that doubles every coefficient breaks unitriangularity;
    # the image is rejected before it is cached, on a fresh or a warm engine
    from qfock.errors import InvariantError

    u = wedge_monomial((2,), 0)
    for warm in (False, True):
        eng = WedgeEngine(2, 1)
        if warm:
            eng.bar(wedge_monomial((1,), 0))
        cached = dict(eng._bar_cache)
        straighten = eng.straighten_indices
        monkeypatch.setattr(eng, "straighten_indices",
                            lambda word: {m: c * 2 for m, c in straighten(word).items()})
        with pytest.raises(InvariantError, match="coefficient 2 on its own monomial"):
            eng.bar(u)
        assert eng._bar_cache == cached


def test_vector_json_and_index_sum_helper():
    eng = WedgeEngine(2, 1)
    u = wedge_monomial((2,), 0)
    records = list(vector_to_json(eng.bar(u)))
    assert records == [
        {"monomial": {"s": 0, "prefix": [1, 0]}, "coefficient": [[-1, -1], [1, 1]]},
        {"monomial": {"s": 0, "prefix": [2]}, "coefficient": [[0, 1]]},
    ]
    assert index_sum(u, 4) == 2 + (-1) + (-2) + (-3)
