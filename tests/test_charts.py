import random
from fractions import Fraction

import pytest

from padlab.charts import (
    HenselChart,
    PowerChart,
    certify_resolution,
    factor_unit_monomial,
    fiber_size,
    hensel_root,
    nth_power_test,
    roots_of_unity,
    unit_swallow_chart,
)
from padlab.cexp import parse_ratterm
from padlab.dist import haar_on, pushforward_chart
from padlab.padic import Box, ClopenSet, coset_rep, valuation
from padlab.ratterm import Poly, RatTerm
from padlab.schwartz import SchwartzBruhat


def zp_set(p, n=1):
    return ClopenSet.single(Box(p, tuple(Fraction(0) for _ in range(n)), 0))


def test_nth_power_examples():
    assert nth_power_test(Fraction(25), 2, 5)
    assert not nth_power_test(Fraction(5), 2, 5)
    assert not nth_power_test(Fraction(2), 2, 5)  # 2 is a non-residue mod 5
    assert nth_power_test(Fraction(4), 2, 5)
    assert nth_power_test(Fraction(1, 8), 3, 5)
    with pytest.raises(ValueError):
        nth_power_test(Fraction(0), 2, 5)


def test_nth_power_brute_agreement():
    # oracle: x is an N-th power iff some y in a deep residue enumeration
    # has y^N close to x
    for p in (2, 3, 5):
        for N in (2, 3, 4):
            depth = 6
            powers = {coset_rep(Fraction(y) ** N, p, depth)
                      for y in range(1, p**depth) if y % p}
            for u in range(1, p**3):
                if u % p == 0:
                    continue
                got = nth_power_test(Fraction(u), N, p)
                expect = coset_rep(Fraction(u), p, depth) in powers
                assert got == expect, (p, N, u)


def test_fiber_size_examples():
    assert fiber_size(2, 5) == 2
    assert fiber_size(3, 5) == 1
    assert fiber_size(1, 7) == 1
    assert fiber_size(4, 5) == 4
    assert fiber_size(2, 2) == 2
    assert fiber_size(3, 2) == 1
    # against enumerated Hensel-lifted roots of unity
    for p in (2, 3, 5, 7):
        for N in (1, 2, 3, 4, 6):
            assert len(roots_of_unity(N, p, 12)) == fiber_size(N, p), (p, N)


def test_roots_of_unity_certified():
    for p, N in ((5, 4), (7, 3), (2, 2), (3, 2)):
        prec = 10
        for w in roots_of_unity(N, p, prec):
            assert coset_rep(w**N, p, prec) == coset_rep(Fraction(1), p, prec)


def test_hensel_root_examples():
    p = 5
    u = Poly(1, {(0,): Fraction(1), (1,): Fraction(p)})  # 1 + 5 x1
    v = hensel_root(u, 2, p, 4)
    # leading terms 1 + (p/2) x1 - (p^2/8) x1^2 + ... reduced mod p^4
    assert v.c[(0,)] == 1
    assert v.c[(1,)] == coset_rep(Fraction(p, 2), p, 4)
    assert v.c[(2,)] == coset_rep(Fraction(-p * p, 8), p, 4)
    # pointwise certification at sampled points
    rng = random.Random(0)
    for _ in range(100):
        x = Fraction(rng.randrange(0, p**4))
        err = v.eval((x,)) ** 2 - u.eval((x,))
        assert err == 0 or valuation(err, p) >= 4

    assert hensel_root(Poly.const(1, 2), 7, p, 6) == Poly.const(1, 2)
    with pytest.raises(ValueError):
        hensel_root(Poly(1, {(0,): Fraction(1), (1,): Fraction(1)}), 2, p, 4)
    with pytest.raises(ValueError):
        hensel_root(u, p, p, 4)  # p divides k1


def test_power_chart_membership_and_fibers():
    p = 5
    chart = PowerChart(p, (Fraction(1),), 2, prec=12)
    # squares: x = p^2 is in the image with two fiber points +-p
    assert chart.image_membership((Fraction(25),))
    reps = chart.fiber_reps((Fraction(25),))
    assert len(reps) == 2
    for (r,) in reps:
        err = r * r - 25
        assert err == 0 or valuation(err, p) >= 12
    assert not chart.image_membership((Fraction(5),))
    assert not chart.image_membership((Fraction(0),))
    assert not chart.image_membership((Fraction(2),))
    one = PowerChart(p, (Fraction(3),), 1)
    assert one.image_membership((Fraction(7),))
    assert len(one.fiber_reps((Fraction(7),))) == 1


def test_hensel_chart_roundtrip():
    p = 5
    u = Poly(2, {(0, 0): Fraction(1), (1, 0): Fraction(p)})  # 1 + 5 x1 in two vars
    chart = HenselChart(p, u, 3, prec=10)
    rng = random.Random(2)
    for _ in range(30):
        y = (Fraction(rng.randrange(0, p**6)), Fraction(rng.randrange(0, p**6)))
        x = chart.apply(y)
        back = chart.forward(x)
        for bi, yi in zip(back, y):
            err = bi - yi
            assert err == 0 or valuation(err, p) >= 10


def test_unit_swallow_example():
    p = 5
    # f = (1 + 5 x1) x1^2: swallowing into x1 gives pullback x1^2 mod 5^prec
    u = Poly(1, {(0,): Fraction(1), (1,): Fraction(p)})
    chart, nf = unit_swallow_chart(u, (2,), p, prec=8)
    assert nf.is_monomial()
    f = parse_ratterm("(1+5*x1)*x1^2")
    rng = random.Random(3)
    for _ in range(40):
        x = (Fraction(rng.randrange(0, p**6)),)
        y = chart.apply(x)
        err = f.eval(y) - x[0] ** 2
        assert err == 0 or valuation(err, p) >= 8 - 1


def test_factor_unit_monomial():
    p = 5
    poly = parse_ratterm("x1^3*x2^2 + 5*x1^4*x2^2").as_poly(2)
    nf = factor_unit_monomial(poly, p)
    assert nf is not None
    assert nf.exps == (3, 2)
    assert nf.coef == 1
    assert not nf.is_monomial()
    assert factor_unit_monomial(parse_ratterm("x1 + x2").as_poly(2), p) is None


def test_certify_monomial_times_unit():
    p = 5
    f = [parse_ratterm("x1^3*x2^2*(1+5*x1)")]
    u = Poly(2, {(0, 0): Fraction(1), (1, 0): Fraction(5)})
    chart, _ = unit_swallow_chart(u, (3, 2), p, prec=20)
    cert = certify_resolution([chart], f, p, sampling_level=6, prec=20, samples=60)
    assert cert.passed(), cert.summary()


def test_certify_squares_two_charts():
    for p in (3, 5):
        f = [parse_ratterm("x1^2")]
        nonres = next(c for c in range(2, p) if not nth_power_test(Fraction(c), 2, p))
        charts = [
            PowerChart(p, (Fraction(1),), 2),
            PowerChart(p, (Fraction(nonres),), 2),
            PowerChart(p, (Fraction(p),), 2),
            PowerChart(p, (Fraction(nonres * p),), 2),
        ]
        cert = certify_resolution(charts, f, p, sampling_level=6, prec=20, samples=80)
        assert cert.passed(), cert.summary()


def test_certify_constant_function():
    p = 3
    cert = certify_resolution([PowerChart(p, (Fraction(1),), 1)],
                              [parse_ratterm("2")], p, samples=30)
    assert cert.passed(), cert.summary()


def test_certify_catches_overlap():
    p = 5
    charts = [PowerChart(p, (Fraction(1),), 2), PowerChart(p, (Fraction(4),), 2)]
    cert = certify_resolution(charts, [parse_ratterm("x1^2")], p, samples=60)
    assert not cert.verdicts["4"].passed  # 4 = 2^2: images overlap


def test_pushforward_mass_consistency():
    p = 5
    chart = PowerChart(p, (Fraction(1),), 2, prec=12)
    xi = haar_on(zp_set(p))
    push = pushforward_chart(xi, chart)
    # total mass: (x -> x^2)_* haar(1_{Z_p}) = haar(1) = 1
    one = SchwartzBruhat.indicator(zp_set(p))
    assert push.eval(one) == xi.eval(one)
    # a coset of a unit square u: preimage is two cosets of +-sqrt(u)
    phi = SchwartzBruhat.indicator_box(Box(p, (Fraction(4),), 1))
    assert push.eval(phi).rational_value() == Fraction(2, p)
    # a non-residue coset has empty preimage
    phi = SchwartzBruhat.indicator_box(Box(p, (Fraction(2),), 1))
    assert push.eval(phi).is_zero()


def test_pushforward_identity_chart():
    p = 3
    chart = PowerChart(p, (Fraction(1),), 1)
    xi = haar_on(zp_set(p))
    push = pushforward_chart(xi, chart)
    rng = random.Random(7)
    for _ in range(6):
        k = rng.randint(0, 2)
        b = Box(p, (Fraction(rng.randrange(0, p**k)),), k)
        phi = SchwartzBruhat.indicator_box(b)
        assert push.eval(phi) == xi.eval(phi)
