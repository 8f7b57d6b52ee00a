import random

from qfock.fock import apply_e, apply_f, apply_k, fock_to_json, n_above, n_below, n_count
from qfock.laurent import LaurentPoly
from qfock.partitions import add_node, addable_nodes, multipartitions


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
    assert apply_f(0, v, 4) == unit(((1,), ()), (0, 1))
    assert apply_k(0, v, 4) == {(((), ()), (0, 1)): LaurentPoly.q_power(1)}


def test_f_term_count_matches_addable_nodes():
    # one term per addable i-node, weighted q^{N^b} as n_below counts it
    rng = random.Random(17)
    for _ in range(300):
        l = rng.randint(1, 3)
        e = rng.randint(2, 5)
        mp = rng.choice(multipartitions(l, rng.randint(0, 7)))
        charge = tuple(rng.randint(-3, 6) for _ in range(l))
        i = rng.randint(0, e - 1)
        image = apply_f(i, unit(mp, charge), e)
        assert len(image) == len(addable_nodes(mp, i, charge, e))
        for gamma in addable_nodes(mp, i, charge, e):
            mu = add_node(mp, gamma)
            w = n_below(mp, mu, gamma, i, charge, e)
            assert image[(mu, charge)] == LaurentPoly.q_power(w)


def test_adding_an_i_node_drops_n_count_by_two():
    rng = random.Random(18)
    from qfock.partitions import add_node

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
        for key, c in apply_e(i, apply_f(i, v, e), e).items():
            lhs[key] = lhs.get(key, LaurentPoly()) + c
        for key, c in apply_f(i, apply_e(i, v, e), e).items():
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


def test_fock_json():
    v = {
        (((1,), ()), (0, 1)): LaurentPoly({1: 2}),
        (((), ()), (0, 1)): LaurentPoly.one(),
    }
    assert fock_to_json(v) == [
        {"multipartition": "-|-", "charge": [0, 1], "coefficient": [[0, 1]]},
        {"multipartition": "1|-", "charge": [0, 1], "coefficient": [[1, 2]]},
    ]
