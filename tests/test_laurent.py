import random

import pytest

from qfock.laurent import LaurentPoly


def P(**kw):
    # P(q2=1, q0=3) -> q^2 + 3; Pm for negative exponents via explicit dict
    return LaurentPoly({int(k[1:]): v for k, v in kw.items()})


def rand_poly(rng, spread=6, size=4):
    return LaurentPoly({rng.randint(-spread, spread): rng.randint(-9, 9) for _ in range(size)})


def test_bar_examples():
    assert LaurentPoly({2: 1, 0: 3}).bar() == LaurentPoly({-2: 1, 0: 3})
    assert LaurentPoly().bar() == LaurentPoly()
    p = LaurentPoly({1: 1, -1: -1})
    assert p.bar() == -p


def test_eval_one_examples():
    assert LaurentPoly({1: 1, -1: 1}).eval_one() == 2
    assert LaurentPoly().eval_one() == 0
    assert LaurentPoly({3: 1, 1: -2}).eval_one() == -1


def test_truncate_positive_examples():
    assert LaurentPoly({1: 1, -1: -1}).truncate_positive() == LaurentPoly({1: 1})
    p = LaurentPoly({3: 2, -3: -2, 1: 1, -1: -1})
    assert p.truncate_positive() == LaurentPoly({3: 2, 1: 1})
    assert LaurentPoly().truncate_positive() == LaurentPoly()


def test_truncate_positive_rejects_non_antisymmetric():
    with pytest.raises(ValueError):
        LaurentPoly({1: 1}).truncate_positive()
    with pytest.raises(ValueError):
        LaurentPoly({0: 2}).truncate_positive()


def test_bar_is_ring_involution():
    rng = random.Random(1)
    for _ in range(200):
        p, r = rand_poly(rng), rand_poly(rng)
        assert p.bar().bar() == p
        assert (p * r).bar() == p.bar() * r.bar()
        assert (p + r).bar() == p.bar() + r.bar()


def test_eval_one_is_ring_homomorphism():
    rng = random.Random(2)
    for _ in range(200):
        p, r = rand_poly(rng), rand_poly(rng)
        assert (p * r).eval_one() == p.eval_one() * r.eval_one()
        assert (p + r).eval_one() == p.eval_one() + r.eval_one()


def test_truncate_positive_splits_antisymmetric_part():
    rng = random.Random(3)
    for _ in range(200):
        r = rand_poly(rng)
        p = r - r.bar()  # antisymmetric by construction
        beta = p.truncate_positive()
        assert beta - beta.bar() == p
        assert all(e > 0 for e in beta.terms)


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
