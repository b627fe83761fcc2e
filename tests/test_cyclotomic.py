import random
from fractions import Fraction

import pytest

from padlab.cyclotomic import ExactComplex, zeta


def test_zeta_examples():
    assert zeta(3, 1, 0) == ExactComplex.one(3)
    assert (zeta(3, 1, 1) + zeta(3, 1, 2)) == ExactComplex.from_rational(-1, 3)
    assert zeta(2, 2, 1) == ExactComplex.i(2)


def test_field_ops_examples():
    one_plus_i = ExactComplex.gaussian(1, 1, 5)
    one_minus_i = ExactComplex.gaussian(1, -1, 5)
    assert one_plus_i * one_minus_i == ExactComplex.from_rational(2, 5)
    assert zeta(5, 1, 1) * zeta(5, 1, 4) == ExactComplex.one(5)
    for k in range(1, 5):
        assert zeta(5, 1, k).conjugate() == zeta(5, 1, -k)


def test_is_zero_character_sum():
    for p in (2, 3, 5, 7):
        total = ExactComplex.zero(p)
        for j in range(p):
            total = total + zeta(p, 1, j)
        assert total.is_zero()
    assert not (ExactComplex.one(3) + zeta(3, 1, 1)).is_zero()
    assert ExactComplex(3, 1, {}).is_zero()


def test_orthogonality_all_units():
    for p in (2, 3, 5):
        for r in (1, 2, 3):
            mod = p**r
            for u in range(1, mod):
                if u % p == 0:
                    continue
                total = ExactComplex.zero(p)
                for j in range(mod):
                    total = total + zeta(p, r, j * u)
                assert total.is_zero(), (p, r, u)


def random_element(rng, p, r, terms=4):
    coeffs = {}
    for _ in range(terms):
        a = rng.randrange(p**r)
        b = 0 if p == 2 else rng.randrange(2)
        coeffs[(a, b)] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return ExactComplex(p, r, coeffs)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_field_axioms_bulk(p):
    rng = random.Random(900 + p)
    for r in range(0, 4):
        if p == 2 and r < 2:
            continue
        for _ in range(1000 // (r + 1)):
            x = random_element(rng, p, r)
            y = random_element(rng, p, r)
            z = random_element(rng, p, r)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            assert x + y == y + x
            assert x * y == y * x


@pytest.mark.parametrize("p", [2, 3, 5])
def test_promotion_commutes_with_arithmetic(p):
    rng = random.Random(17 + p)
    for _ in range(200):
        r = 2 if p == 2 else rng.randrange(0, 2)
        x = random_element(rng, p, r)
        y = random_element(rng, p, r + 1)
        lifted = ExactComplex(p, r + 1, x._promoted(r + 1))
        assert x + y == lifted + y
        assert x * y == lifted * y


def test_conjugation_is_involution_and_multiplicative():
    rng = random.Random(4)
    for p in (2, 3, 5):
        r = 2 if p == 2 else 2
        for _ in range(100):
            x = random_element(rng, p, r)
            y = random_element(rng, p, r)
            assert x.conjugate().conjugate() == x
            assert (x * y).conjugate() == x.conjugate() * y.conjugate()


def test_inverse_roundtrip():
    rng = random.Random(23)
    for p in (2, 3, 5):
        r = 2
        count = 0
        while count < 20:
            x = random_element(rng, p, r, terms=3)
            if x.is_zero():
                continue
            count += 1
            assert x * x.inverse() == ExactComplex.one(p)
    with pytest.raises(ZeroDivisionError):
        ExactComplex.zero(3).inverse()


def test_single_term_inverse_fast_path():
    x = zeta(7, 2, 5) * Fraction(3, 4)
    assert x * x.inverse() == ExactComplex.one(7)
    y = ExactComplex.i(3) * Fraction(-2, 5)
    assert y * y.inverse() == ExactComplex.one(3)


def test_level_cap():
    with pytest.raises(OverflowError):
        ExactComplex(3, 13, {})


def test_float_embedding_accuracy():
    z = zeta(5, 2, 7)
    w = z.to_complex()
    assert abs(w - complex(__import__("cmath").exp(2j * __import__("math").pi * 7 / 25))) < 2**-50
    assert abs(ExactComplex.gaussian(Fraction(1, 2), 1, 3).to_complex() - (0.5 + 1j)) < 2**-50


def test_string_roundtrip_shapes():
    assert ExactComplex.zero(3).to_string() == "0"
    assert ExactComplex.one(3).to_string() == "1"
    s = (zeta(3, 2, 4) + ExactComplex.gaussian(0, 1, 3)).to_string()
    assert "zeta" in s and "i" in s


def test_rational_value():
    assert (zeta(3, 1, 1) + zeta(3, 1, 2)).rational_value() == -1
    with pytest.raises(ValueError):
        zeta(3, 1, 1).rational_value()
