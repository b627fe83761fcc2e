import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padlab.cyclotomic import ExactComplex, zeta
from padlab.padic import Box, ClopenSet, cell_volume, rep_key, valuation
from padlab.schwartz import FOURIER_CELL_CAP, SchwartzBruhat, psi_eval, psi_exponent

PRIMES = [2, 3, 5, 7]


def brute_fourier_at(phi: SchwartzBruhat, y, depth=2) -> ExactComplex:
    """Independent oracle: plain Riemann sum at a uniformly fine level."""
    p, n = phi.p, phi.n
    fine = max([phi.k] + [1 - valuation(yi, p) for yi in y if yi != 0]) + depth
    f = phi.refine(k_new=fine)
    total = ExactComplex.zero(p)
    for rep, val in f.table.items():
        total = total + val * psi_eval(sum(r * yi for r, yi in zip(rep, y)), p)
    return total * Fraction(1, p ** (n * fine)) if fine >= 0 else total * Fraction(p ** (-n * fine))


def random_sb(rng, p, n, m, k, entries=4) -> SchwartzBruhat:
    box = Box(p, tuple(Fraction(0) for _ in range(n)), -m)
    reps = box.subboxes(k)
    table = {}
    for b in rng.sample(reps, min(entries, len(reps))):
        table[b.center] = ExactComplex.gaussian(
            Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-2, 2), p)
    return SchwartzBruhat(p, n, m, k, table)


def test_psi_conductor():
    for p in PRIMES:
        for t in (0, 1, -2, 7):
            assert psi_eval(p * t, p) == ExactComplex.one(p)
        assert psi_eval(1, p) == ExactComplex.root(p, 1, 1)
        assert not psi_eval(1, p).is_zero()


def test_psi_depth_example():
    # additivity pins the deeper values: psi(1/3)^3 = psi(1) = zeta_3
    p = 3
    v = psi_eval(Fraction(1, 3), p)
    assert v * v * v == psi_eval(1, p)
    s, _ = psi_exponent(Fraction(1, 3), p)
    assert s == 2


@pytest.mark.parametrize("p", PRIMES)
def test_psi_additivity_bulk(p):
    rng = random.Random(p * 11)
    for _ in range(10_000):
        x = Fraction(rng.randint(-p**3, p**3), rng.randint(1, p**3))
        y = Fraction(rng.randint(-p**3, p**3), rng.randint(1, p**3))
        assert psi_eval(x + y, p) == psi_eval(x, p) * psi_eval(y, p)


def test_integrate_examples():
    for p in (2, 3, 5):
        for n in (1, 2):
            one = SchwartzBruhat.indicator_box(Box(p, tuple(Fraction(0) for _ in range(n)), 0))
            assert one.integrate() == ExactComplex.one(p)
    p = 3
    small = SchwartzBruhat.indicator_box(Box(p, (Fraction(0),), 2))
    assert small.integrate().rational_value() == Fraction(1, 9)
    p = 2
    f = SchwartzBruhat.indicator_box(Box(p, (Fraction(0),), 0)) - \
        SchwartzBruhat.indicator_box(Box(p, (Fraction(1),), 1))
    assert f.integrate().rational_value() == Fraction(1, 2)


def test_fourier_indicator_zp():
    for p in (2, 3, 5):
        one = SchwartzBruhat.indicator_box(Box(p, (Fraction(0),), 0))
        hat = one.fourier()
        assert (hat.m, hat.k) == (-1, 1)
        expected = SchwartzBruhat.indicator_box(Box(p, (Fraction(0),), 1))
        assert hat == expected


def test_fourier_single_coset_closed_form():
    p, a, k = 3, Fraction(2), 2
    phi = SchwartzBruhat.indicator_box(Box(p, (a,), k))
    hat = phi.fourier()
    # on Box(0, 1-k) the transform is psi(a y) p^-k; off it, zero
    for y in (Fraction(0), Fraction(1, 3), Fraction(5, 3), Fraction(8, 9)):
        got = hat.evaluate((y,))
        if valuation(y, p) >= 1 - k:
            assert got == psi_eval(a * y, p) * Fraction(1, p**k)
        else:
            assert got.is_zero()
    assert hat.evaluate((Fraction(1, 27),)).is_zero()


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (3, 1), (5, 1)])
def test_fourier_matches_brute_oracle(p, n):
    rng = random.Random(100 * p + n)
    for _ in range(8):
        m, k = rng.randint(0, 1), rng.randint(0, 2 if n == 1 else 1)
        phi = random_sb(rng, p, n, m, k)
        hat = phi.fourier()
        assert (hat.m, hat.k) == (k - 1, m + 1)
        out_box = Box(p, tuple(Fraction(0) for _ in range(n)), 1 - k)
        duals = out_box.subboxes(m + 1)
        for yb in rng.sample(duals, min(5, len(duals))):
            assert hat.evaluate(yb.center) == brute_fourier_at(phi, yb.center)
        # off the dual support the transform vanishes identically
        off = tuple([Fraction(1, p ** (k + 1))] + [Fraction(0)] * (n - 1))
        assert brute_fourier_at(phi, off).is_zero()


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (3, 2), (5, 1)])
def test_double_transform_is_reflection(p, n):
    rng = random.Random(13 * p + n)
    for _ in range(6):
        m, k = rng.randint(0, 1), rng.randint(0, 1)
        phi = random_sb(rng, p, n, m, k)
        twice = phi.fourier().fourier()
        target = phi.reflect().scale(Fraction(1, p**n))
        assert twice == target


def test_fourier_linearity_and_translation():
    p, n = 3, 1
    rng = random.Random(7)
    f = random_sb(rng, p, n, 1, 1)
    g = random_sb(rng, p, n, 0, 2)
    lhs = (f + g).fourier()
    rhs = f.fourier() + g.fourier()
    assert lhs == rhs
    a = (Fraction(2),)
    shifted_hat = f.translate(a).fourier()
    # F(phi(. - a))(y) = psi(a y) F(phi)(y)
    hat = f.fourier()
    for rep, val in shifted_hat.table.items():
        assert val == hat.evaluate(rep) * psi_eval(a[0] * rep[0], p)


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (5, 1), (3, 2)])
def test_plancherel(p, n):
    rng = random.Random(3 * p + n)
    one = SchwartzBruhat.indicator_box(Box(p, tuple(Fraction(0) for _ in range(n)), 0))
    assert one.plancherel_pairing(one) == ExactComplex.one(p)
    for _ in range(6):
        f = random_sb(rng, p, n, 1, 1)
        g = random_sb(rng, p, n, 0, 2)
        lhs = f.fourier().plancherel_pairing(g.fourier())
        rhs = f.plancherel_pairing(g) * Fraction(1, p**n)
        assert lhs == rhs
        assert f.plancherel_pairing(g) == g.plancherel_pairing(f).conjugate()


def test_levels_contract_and_canonical():
    p = 3
    phi = SchwartzBruhat.indicator_box(Box(p, (Fraction(0),), 0))
    fine = phi.refine(m_new=1, k_new=2)
    assert fine.canonical() == phi
    assert len(fine.table) == 9
    hat = fine.fourier()
    assert (hat.m, hat.k) == (fine.k - 1, fine.m + 1)
    assert hat.canonical() == phi.fourier()


def test_restrict_and_pointwise():
    p = 2
    zp = ClopenSet.single(Box(p, (Fraction(0),), 0))
    half = ClopenSet.single(Box(p, (Fraction(1),), 1))
    phi = SchwartzBruhat.indicator(zp)
    r = phi.restrict(half)
    assert r.integrate().rational_value() == Fraction(1, 2)
    assert phi.pointwise_mul(phi) == phi
    assert phi.restrict(ClopenSet.empty(p, 1)).is_zero()


def test_evaluate_membership():
    p = 5
    phi = SchwartzBruhat.indicator_box(Box(p, (Fraction(2),), 1))
    assert phi.evaluate((Fraction(2 + 25),)) == ExactComplex.one(p)
    assert phi.evaluate((Fraction(3),)).is_zero()
    with pytest.raises(ValueError):
        phi.evaluate((Fraction(1), Fraction(2)))


def test_fourier_cell_cap():
    phi = SchwartzBruhat(3, 2, 0, 7, {(Fraction(0), Fraction(0)): 1})
    assert 3 ** (2 * 7) > FOURIER_CELL_CAP
    with pytest.raises(OverflowError):
        phi.fourier()


# -- properties of the fast paths against plain oracles ----------------------

SPACES = [(p, n) for p in (2, 3, 5) for n in (1, 2)]
MAX_CELLS = 27  # largest grid (Z/p^(m+k))^n the properties draw


def _max_span(p, n):
    """The largest m + k whose grid has at most MAX_CELLS cells."""
    s = 0
    while p ** (n * (s + 1)) <= MAX_CELLS:
        s += 1
    return s


def _grid(p, n, m, k):
    """Canonical level-k reps of p^-m Z_p^n: j p^-m with j in (Z/p^(m+k))^n."""
    step = Fraction(p) ** -m
    return [tuple(j * step for j in js) for js in itertools.product(range(p ** (m + k)), repeat=n)]


def values(p):
    """Gaussian rationals plus a rational multiple of a root of unity of level 0 to 3."""
    coeff = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
    root = st.builds(lambda r, a: zeta(p, r, a), st.integers(0, 3), st.integers(0, 26))
    return st.builds(lambda re, im, c, z: ExactComplex.gaussian(re, im, p) + z * c,
                     coeff, st.integers(-2, 2), coeff, root)


@st.composite
def functions(draw, p, n, k=None):
    """Up to four cells at levels with m + k in [0, _max_span]; m < 0 allowed."""
    span = draw(st.integers(0, _max_span(p, n)))
    if k is None:
        k = span - draw(st.integers(-1, 2))
    m = span - k
    reps = _grid(p, n, m, k)
    cells = draw(st.lists(st.sampled_from(reps), max_size=4, unique=True))
    return SchwartzBruhat(p, n, m, k, {rep: draw(values(p)) for rep in cells})


@st.composite
def pairs(draw, p, n):
    """Two functions whose constancy levels differ by dk with p^(n |dk|) <= 125,
    so the oracle's re-tiling stays small."""
    f = draw(functions(p, n))
    dk = max(d for d in range(4) if p ** (n * d) <= 125)
    return f, draw(functions(p, n, k=f.k + draw(st.integers(-dk, dk))))


def _assert_transform_matches_brute(phi):
    hat = phi.fourier()
    assert (hat.m, hat.k) == (phi.k - 1, phi.m + 1)
    for y in _grid(phi.p, phi.n, hat.m, hat.k):
        assert hat.evaluate(y) == brute_fourier_at(phi, y, depth=1), y


@pytest.mark.parametrize("p,n", SPACES)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_fourier_property_every_cell(p, n, data):
    _assert_transform_matches_brute(data.draw(functions(p, n)))


@pytest.mark.parametrize("p,n,m,k,value", [
    (3, 1, 1, -1, ExactComplex.gaussian(2, 1, 3)),        # m + k = 0: one cell each side
    (5, 2, 0, 0, Fraction(1, 3)),                          # m + k = 0 at the origin
    (3, 1, -1, 2, zeta(3, 3, 4)),                          # m < 0, value level 3 > m + k
    (2, 2, -1, 2, ExactComplex.i(2) + Fraction(1, 2)),     # m < 0, i at p = 2
    (2, 1, 1, 1, zeta(2, 3, 3) * Fraction(2, 3)),          # value level 3 > m + k = 2
])
def test_fourier_corner_cases(p, n, m, k, value):
    reps = _grid(p, n, m, k)
    table = {reps[-1]: ExactComplex.one(p), reps[0]: value}  # one cell when m + k = 0
    _assert_transform_matches_brute(SchwartzBruhat(p, n, m, k, table))
    _assert_transform_matches_brute(SchwartzBruhat.zero(p, n, m, k))


def _refined(f, k):
    """f's table re-tiled to level k, one Box at a time."""
    return {sub.center: val for rep, val in f.table.items()
            for sub in Box(f.p, rep, f.k).subboxes(k)}


@pytest.mark.parametrize("p,n", SPACES)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_products_property_against_common_levels(p, n, data):
    f, g = data.draw(pairs(p, n))
    m, k = max(f.m, g.m), max(f.k, g.k)
    ft, gt = _refined(f, k), _refined(g, k)
    common = ft.keys() & gt.keys()
    prod = f.pointwise_mul(g)
    assert (prod.m, prod.k) == (m, k)
    assert prod == SchwartzBruhat(p, n, m, k, {rep: ft[rep] * gt[rep] for rep in common})
    pairing = ExactComplex.zero(p)
    for rep in common:
        pairing = pairing + ft[rep] * gt[rep].conjugate()
    assert f.plancherel_pairing(g) == pairing * cell_volume(p, n, k)


@pytest.mark.parametrize("p,n", SPACES)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_sum_and_equality_property_against_common_levels(p, n, data):
    f, g = data.draw(pairs(p, n))
    m, k = max(f.m, g.m), max(f.k, g.k)
    ft, gt = _refined(f, k), _refined(g, k)
    total = f + g
    assert (total.m, total.k) == (m, k)
    sums = {rep: ft.get(rep, ExactComplex.zero(p)) + gt.get(rep, ExactComplex.zero(p))
            for rep in ft.keys() | gt.keys()}
    assert total.table == SchwartzBruhat(p, n, m, k, sums).table
    assert (f == g) == (g == f) == (ft == gt)
    # f re-tiled dk levels finer is equal to f; a missing or a changed cell is not
    dk = data.draw(st.integers(0, max(d for d in range(4) if p ** (n * d) <= 125)))
    fine = SchwartzBruhat(p, n, f.m, f.k + dk, _refined(f, f.k + dk))
    assert f == fine and fine == f
    if fine.table:
        rep = data.draw(st.sampled_from(sorted(fine.table, key=rep_key)))
        missing = fine.copy_with({r: v for r, v in fine.table.items() if r != rep})
        changed = fine.copy_with({**fine.table, rep: fine.table[rep] + 1})
        for other in (missing, changed):
            assert f != other and other != f
