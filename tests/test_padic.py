import random
from fractions import Fraction
from math import inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padlab.padic import (
    Box,
    ClopenSet,
    coset_rep,
    norm,
    refine_partition,
    tuple_valuation,
    urysohn_clopen,
    valuation,
)

PRIMES = [2, 3, 5, 7]


def rational(rng, p, span=4):
    num = rng.randint(-p**span, p**span)
    den = rng.randint(1, p**span)
    return Fraction(num, den)


def test_valuation_basics():
    assert valuation(50, 5) == 2
    assert valuation(0, 5) == inf
    assert valuation(Fraction(3, 10), 5) == -1


def test_norm_basics():
    assert norm(50, 5) == Fraction(1, 25)
    assert norm(0, 5) == 0
    assert norm(Fraction(1, 5), 5) == 5


def test_tuple_valuation_is_min():
    assert tuple_valuation([Fraction(5), Fraction(1, 5)], 5) == -1
    assert tuple_valuation([], 5) == inf


@pytest.mark.parametrize("p", PRIMES)
def test_valuation_laws_bulk(p):
    rng = random.Random(1000 + p)
    for _ in range(10_000):
        x, y = rational(rng, p), rational(rng, p)
        if x == 0 or y == 0:
            continue
        assert valuation(x * y, p) == valuation(x, p) + valuation(y, p)
        if x + y != 0:
            v = valuation(x + y, p)
            assert v >= min(valuation(x, p), valuation(y, p))
            if valuation(x, p) != valuation(y, p):
                assert v == min(valuation(x, p), valuation(y, p))


@given(st.integers(-10**6, 10**6), st.integers(1, 10**6), st.sampled_from(PRIMES),
       st.integers(-3, 5))
@settings(max_examples=300, deadline=None)
def test_coset_rep_is_canonical(num, den, p, k):
    x = Fraction(num, den)
    r = coset_rep(x, p, k)
    # same coset, canonical range, p-power denominator
    assert valuation(x - r, p) >= k or x == r
    assert 0 <= r < Fraction(p) ** k
    d = r.denominator
    while d % p == 0:
        d //= p
    assert d == 1
    # canonical rep is idempotent
    assert coset_rep(r, p, k) == r


def test_enumerate_cosets_examples():
    b = Box(3, (Fraction(0),), 0)
    out = b.subboxes(1)
    assert sorted(c.center[0] for c in out) == [0, 1, 2]

    b2 = Box(2, (Fraction(0), Fraction(0)), 0)
    assert len(b2.subboxes(1)) == 4

    b3 = Box(3, (Fraction(1, 3),), -1)
    out3 = b3.subboxes(0)
    assert len(out3) == 3
    assert sorted(c.center[0] for c in out3) == [Fraction(0), Fraction(1, 3), Fraction(2, 3)]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_enumerate_cosets_tile_exactly(p):
    rng = random.Random(p)
    for _ in range(25):
        c = rational(rng, p, span=2)
        r = rng.randint(-2, 2)
        k = r + rng.randint(0, 2)
        b = Box(p, (c,), r)
        subs = b.subboxes(k)
        assert len(subs) == p ** (k - r)
        whole = ClopenSet.from_boxes(p, 1, subs)
        assert whole == ClopenSet.single(b)
        for i, s in enumerate(subs):
            for t in subs[i + 1:]:
                assert s.disjoint(t)


def test_box_ultrametric_dichotomy():
    b1 = Box(3, (Fraction(0),), 1)
    b2 = Box(3, (Fraction(3),), 2)
    b3 = Box(3, (Fraction(1),), 1)
    assert b1.contains_box(b2)
    assert b1.disjoint(b3)


def test_clopen_algebra_examples():
    p = 2
    a = ClopenSet.single(Box(p, (Fraction(0),), 1))
    b = ClopenSet.single(Box(p, (Fraction(1),), 1))
    zp = ClopenSet.single(Box(p, (Fraction(0),), 0))
    assert a.union(b) == zp
    assert zp.difference(zp).is_empty()
    fine = ClopenSet.single(Box(p, (Fraction(0),), 2))
    assert zp.intersect(fine) == fine


def test_clopen_mismatch_raises():
    a = ClopenSet.single(Box(2, (Fraction(0),), 0))
    b = ClopenSet.single(Box(3, (Fraction(0),), 0))
    with pytest.raises(ValueError):
        a.union(b)


def random_clopen(rng, p, dim, max_level=3, pieces=3):
    boxes = []
    for _ in range(rng.randint(0, pieces)):
        center = tuple(rational(rng, p, span=2) for _ in range(dim))
        boxes.append(Box(p, center, rng.randint(0, max_level)))
    return ClopenSet.from_boxes(p, dim, boxes)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_clopen_set_algebra_properties(p):
    rng = random.Random(77 + p)
    for _ in range(60):
        a = random_clopen(rng, p, 1)
        b = random_clopen(rng, p, 1)
        u = a.union(b)
        i = a.intersect(b)
        d = a.difference(b)
        assert u.volume() == a.volume() + b.volume() - i.volume()
        assert d.volume() == a.volume() - i.volume()
        assert d.intersect(b).is_empty()
        assert d.union(i).union(b) == u
        # canonical form is a genuine set equality test
        assert u == b.union(a)


def test_urysohn_examples():
    p = 5
    Z = ClopenSet.single(Box(p, (Fraction(0),), 3))
    U = ClopenSet.single(Box(p, (Fraction(0),), 1))
    X = ClopenSet.single(Box(p, (Fraction(0),), 0))
    C = urysohn_clopen(Z, U, X)
    assert C == U

    p = 2
    z2 = ClopenSet.single(Box(p, (Fraction(0),), 0))
    U = z2.difference(ClopenSet.single(Box(p, (Fraction(1),), 1)))
    C = urysohn_clopen([(Fraction(0),)], U, z2)
    assert C == ClopenSet.single(Box(p, (Fraction(0),), 1))

    assert urysohn_clopen(ClopenSet.empty(p, 1), U, z2).is_empty()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_urysohn_random_containment(p):
    rng = random.Random(5 + p)
    X = ClopenSet.single(Box(p, (Fraction(0),), 0))
    for _ in range(40):
        U = random_clopen(rng, p, 1, max_level=3).intersect(X)
        if U.is_empty():
            continue
        # pick Z as a random refinement inside U
        z_boxes = [b for b in U.cosets(U.max_level() + 1) if rng.random() < 0.4]
        Z = ClopenSet.from_boxes(p, 1, z_boxes)
        if Z.is_empty():
            continue
        C = urysohn_clopen(Z, U, X)
        assert C.contains_set(Z)
        assert U.contains_set(C)


def test_refine_partition_examples():
    p = 2
    X = ClopenSet.single(Box(p, (Fraction(0),), 0))
    only = refine_partition([X], X)
    assert only == [X]

    half = ClopenSet.single(Box(p, (Fraction(0),), 1))
    other = ClopenSet.single(Box(p, (Fraction(1),), 1))
    parts = refine_partition([half, X], X)
    assert parts[0] == half
    assert parts[1] == other


def test_refine_partition_not_covering():
    p = 3
    X = ClopenSet.single(Box(p, (Fraction(0),), 0))
    half = ClopenSet.single(Box(p, (Fraction(0),), 1))
    with pytest.raises(ValueError):
        refine_partition([half], X)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_refine_partition_random(p):
    rng = random.Random(31 + p)
    X = ClopenSet.single(Box(p, (Fraction(0),), 0))
    for _ in range(30):
        cover = []
        for _ in range(3):
            u = random_clopen(rng, p, 1, max_level=2).intersect(X)
            cover.append(u)
        covered = cover[0].union(cover[1]).union(cover[2])
        missing = X.difference(covered)
        cover.append(missing.union(cover[0]) if not missing.is_empty() else cover[0])
        parts = refine_partition(cover, X)
        whole = ClopenSet.empty(p, 1)
        for part, u in zip(parts, cover):
            assert u.contains_set(part)
            assert whole.intersect(part).is_empty()
            whole = whole.union(part)
        assert whole == X
