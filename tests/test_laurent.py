import random

from qfock.laurent import LaurentPoly

from oracles import qbar


def P(**kw):
    # P(q2=1, q0=3) -> q^2 + 3; Pm for negative exponents via explicit dict
    return LaurentPoly({int(k[1:]): v for k, v in kw.items()})


def rand_poly(rng, spread=6, size=4):
    return LaurentPoly({rng.randint(-spread, spread): rng.randint(-9, 9) for _ in range(size)})


def test_bar_examples():
    assert qbar(LaurentPoly({2: 1, 0: 3})) == LaurentPoly({-2: 1, 0: 3})
    assert qbar(LaurentPoly()) == LaurentPoly()
    p = LaurentPoly({1: 1, -1: -1})
    assert qbar(p) == -p


def test_bar_is_ring_involution():
    rng = random.Random(1)
    for _ in range(200):
        p, r = rand_poly(rng), rand_poly(rng)
        assert qbar(qbar(p)) == p
        assert qbar(p * r) == qbar(p) * qbar(r)
        assert qbar(p + r) == qbar(p) + qbar(r)


def test_is_antisymmetric_examples():
    assert LaurentPoly({1: 1, -1: -1}).is_antisymmetric()
    assert LaurentPoly({3: 2, -3: -2, 1: 1, -1: -1}).is_antisymmetric()
    assert LaurentPoly().is_antisymmetric()
    assert not LaurentPoly({1: 1}).is_antisymmetric()
    assert not LaurentPoly({0: 2}).is_antisymmetric()
    assert not LaurentPoly({1: 1, -1: 1}).is_antisymmetric()


def test_value_at_q_1_is_ring_homomorphism():
    rng = random.Random(2)

    def at_one(p):
        return sum(p.terms.values())

    for _ in range(200):
        p, r = rand_poly(rng), rand_poly(rng)
        assert at_one(p * r) == at_one(p) * at_one(r)
        assert at_one(p + r) == at_one(p) + at_one(r)


def test_no_zero_coefficients_stored():
    p = LaurentPoly({2: 1, 3: 0})
    assert p.terms == {2: 1}
    q = LaurentPoly({1: 1}) - LaurentPoly({1: 1})
    assert not q and q.terms == {}


def test_arithmetic_basics():
    q = LaurentPoly({1: 1})
    qi = LaurentPoly({-1: 1})
    assert q * qi == LaurentPoly.one()
    assert (q + qi) * (q - qi) == LaurentPoly({2: 1, -2: -1})
    assert 3 * q == LaurentPoly({1: 3})
    assert -q == LaurentPoly({1: -1})


def test_rendering():
    p = LaurentPoly({-2: 1, 0: 3, 1: 2})
    assert str(p) == "q^-2 + 3 + 2*q"
    assert p.to_pairs() == [[-2, 1], [0, 3], [1, 2]]
    assert str(LaurentPoly()) == "0"
    assert str(LaurentPoly({1: -1, 3: 1})) == "-q + q^3"
