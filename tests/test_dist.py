import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padlab.cexp import parse
from padlab.cyclotomic import ExactComplex, zeta
from padlab.dist import (
    NonIntegrable,
    UnsupportedShape,
    _PsiAverager,
    b_function,
    density_distribution,
    dirac,
    graph_measure,
    graph_pullback,
    haar_on,
    loci_distribution,
    tail_sum,
)
from padlab.graphs import GraphManifold, point_manifold
from padlab.padic import Box, ClopenSet, coset_rep, valuation
from padlab.ratterm import RatTerm
from padlab.schwartz import SchwartzBruhat, psi_eval


def zp(p, n=1):
    return ClopenSet.single(Box(p, tuple(Fraction(0) for _ in range(n)), 0))


def one_on(p, n=1):
    return SchwartzBruhat.indicator(zp(p, n))


def random_sb(rng, p, n, m, k, entries=4):
    box = Box(p, tuple(Fraction(0) for _ in range(n)), -m)
    reps = box.subboxes(k)
    table = {}
    for b in rng.sample(reps, min(entries, len(reps))):
        table[b.center] = ExactComplex.gaussian(rng.randint(-3, 3), rng.randint(-2, 2), p)
    return SchwartzBruhat(p, n, m, k, table)


# -- tail sums against sympy ------------------------------------------------


def test_tail_sum_against_sympy():
    import sympy

    j = sympy.Symbol("j")
    for p in (2, 3, 5):
        for s in (0, 1, 2):
            z = sympy.Rational(1, p ** (s + 1))
            for t in range(5):
                # sympy sums from 0 (from a negative start it misreads
                # j^t z^j); each start differs from that by a finite sum
                from_zero = sympy.summation(j**t * z**j, (j, 0, sympy.oo))
                for start in (-3, -1, 0, 1, 5, 12):
                    finite = sum(sympy.Rational(i) ** t * z**i
                                 for i in range(min(start, 0), max(start, 0)))
                    expect = from_zero + finite if start < 0 else from_zero - finite
                    got = tail_sum(Fraction(1, p ** (s + 1)), t, start)
                    assert sympy.Rational(got.numerator, got.denominator) == expect


def test_tail_sum_divergence():
    with pytest.raises(NonIntegrable):
        tail_sum(Fraction(1), 0, 0)
    with pytest.raises(NonIntegrable):
        tail_sum(Fraction(3, 2), 0, 0)


# -- dirac / haar -----------------------------------------------------------


def test_dirac_examples():
    p = 3
    d0 = dirac(p, (0,))
    assert d0.eval(one_on(p)) == ExactComplex.one(p)
    off = SchwartzBruhat.indicator_box(Box(p, (Fraction(1),), 1))
    assert d0.eval(off).is_zero()
    rng = random.Random(0)
    f, g = random_sb(rng, p, 1, 0, 2), random_sb(rng, p, 1, 1, 1)
    a = ExactComplex.gaussian(2, 1, p)
    lhs = d0.eval(f.scale(a) + g)
    assert lhs == a * d0.eval(f) + d0.eval(g)


def test_haar_examples():
    p = 5
    h = haar_on(zp(p))
    assert h.eval(one_on(p)) == ExactComplex.one(p)
    hb = haar_on(ClopenSet.single(Box(p, (Fraction(0),), 1)))
    assert hb.eval(one_on(p)).rational_value() == Fraction(1, p)
    off = SchwartzBruhat.indicator_box(Box(p, (Fraction(1, 5),), 0))
    assert h.eval(off).is_zero()


def test_eval_mod_agrees_with_generic():
    rng = random.Random(5)
    for p in (2, 3):
        h = haar_on(zp(p))
        d = dirac(p, (Fraction(1),))
        for _ in range(10):
            phi = random_sb(rng, p, 1, 1, 2)
            w = (Fraction(rng.randint(1, 8), p ** rng.randint(0, 3)),)
            for xi in (h, d):
                fast = xi.eval_mod(phi, w)
                slow = xi.eval(phi.modulate(w))
                assert fast == slow
    # the graph measure of t -> (t, t^2) over Z_p, on the plane; the test
    # functions fill half of Z_p^2 at level 2, so most pairings are nonzero
    rng = random.Random(6)
    for p in (2, 3):
        g = graph_measure(GraphManifold(p, zp(p), (RatTerm.var(0) ** 2,)))
        for _ in range(5):
            phi = random_sb(rng, p, 2, 0, 2, entries=p**4 // 2)
            w = tuple(Fraction(rng.randint(-8, 8), p ** rng.randint(0, 2)) for _ in range(2))
            assert g.eval_mod(phi, w) == g.eval(phi.modulate(w))
    # point masses, which run through the graph measure: at 1/3 over Q_3 the
    # constant map has lipschitz_extra 1, and (1, 3) is a point of Z_2^2
    rng = random.Random(7)
    nonzero = 0
    for d, m, k in ((dirac(3, (Fraction(1, 3),)), 1, 2), (dirac(2, (1, 3)), 0, 2)):
        assert d.wf[0].lipschitz_extra() == (1 if d.p == 3 else 0)
        for _ in range(10):
            phi = random_sb(rng, d.p, d.n, m, k, entries=d.p ** (d.n * (m + k)) // 2)
            w = tuple(Fraction(rng.randint(-8, 8), d.p ** rng.randint(0, 3)) for _ in range(d.n))
            fast = d.eval_mod(phi, w)
            assert fast == d.eval(phi.modulate(w))
            nonzero += not fast.is_zero()
    assert nonzero >= 5


# -- graph measures ----------------------------------------------------------


def test_graph_measure_parabola():
    for p in (3, 5):
        W = GraphManifold(p, zp(p), (RatTerm.var(0) ** 2,))
        mu = graph_measure(W)
        assert mu.eval(one_on(p, 2)) == ExactComplex.one(p)
        # {t : v(t) >= 1 and v(t^2) >= 1} = pZ_p
        small = SchwartzBruhat.indicator_box(Box(p, (Fraction(0), Fraction(0)), 1))
        assert mu.eval(small).rational_value() == Fraction(1, p)
        # supported where x2 != x1^2 at the test level
        off = SchwartzBruhat.indicator_box(Box(p, (Fraction(0), Fraction(1)), 1))
        assert mu.eval(off).is_zero()


def test_graph_measure_brute_agreement():
    p = 3
    W = GraphManifold(p, zp(p), (RatTerm.var(0) ** 2 + RatTerm.const(1),))
    mu = graph_measure(W)
    rng = random.Random(9)
    for _ in range(6):
        phi = random_sb(rng, p, 2, 0, 1, entries=6)
        got = mu.eval(phi)
        level = 3
        total = ExactComplex.zero(p)
        for cell in zp(p).cosets(level):
            t = cell.center[0]
            total = total + phi.evaluate((t, t * t + 1))
        assert got == total * Fraction(1, p**level)


def all_cosets_pullback(W, phi):
    """Oracle: t -> phi(t, gamma(t)) evaluated on every base coset, however
    far from the support of phi."""
    p = W.p
    level = max(phi.k + W.lipschitz_extra(), W.base.max_level())
    m_base = max([0, -level] + [-b.level for b in W.base.boxes])
    table = {}
    for cell in W.base.cosets(level):
        val = phi.evaluate(W.point(cell.center))
        if not val.is_zero():
            table[cell.center] = val
            for c in cell.center:
                if c != 0:
                    m_base = max(m_base, -min(0, valuation(c, p)))
    return SchwartzBruhat(p, W.d, m_base, level, table)


def _pullback_manifolds():
    t, s = RatTerm.var(0), RatTerm.var(1)
    mixed3 = ClopenSet.from_boxes(3, 1, [Box(3, (Fraction(0),), 1), Box(3, (Fraction(1),), 2),
                                         Box(3, (Fraction(5),), 3)])
    mixed2 = ClopenSet.from_boxes(2, 2, [Box(2, (Fraction(0), Fraction(0)), 1),
                                         Box(2, (Fraction(1), Fraction(0)), 2)])
    return [
        GraphManifold(3, mixed3, (t**2 + RatTerm.const(1),)),
        GraphManifold(2, zp(2), (t * RatTerm.const(Fraction(1, 2)) + t**2,)),  # not 2-integral
        GraphManifold(2, mixed2, (t * s,)),
        point_manifold(3, (Fraction(1, 3), Fraction(2))),
        point_manifold(2, (Fraction(1), Fraction(3))),
    ]


@settings(max_examples=40, deadline=None)
@given(which=st.integers(0, 4), m=st.integers(0, 1), k=st.integers(0, 2),
       seed=st.integers(0, 10**6))
def test_graph_pullback_against_all_cosets(which, m, k, seed):
    W = _pullback_manifolds()[which]
    rng = random.Random(seed)
    phi = random_sb(rng, W.p, W.n, m, k, entries=rng.randint(1, W.p ** (W.n * (m + k))))
    got, want = graph_pullback(W, phi), all_cosets_pullback(W, phi)
    assert (got.n, got.m, got.k) == (want.n, want.m, want.k)
    assert got.table == want.table


# -- density distributions ----------------------------------------------------


def brute_shell_oracle(expr_src, p, phi, levels=12):
    """Independent oracle: enumerate level-`levels` cosets of Z_p \\ {0} and
    add the exact closed-form tail (computed with sympy) for |x|^s ord^t."""
    e = parse(expr_src, p)
    total = ExactComplex.zero(p)
    for u in range(1, p**levels):
        x = Fraction(u)
        val = e.eval((x,)) * phi.evaluate((x,))
        total = total + val
    return total * Fraction(1, p**levels)


def test_density_abs_example():
    for p in (2, 3):
        X = zp(p)
        mu = density_distribution(parse("abs(x1)", p), X)
        got = mu.eval(one_on(p))
        expect = Fraction(1 - Fraction(1, p), 1 - Fraction(1, p**2))
        assert got.rational_value() == expect


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("s,t", [(0, 0), (1, 0), (2, 0), (1, 1), (0, 2), (2, 2)])
def test_density_monomial_vs_brute(p, s, t):
    src = f"abs(x1)^{s}" + (f"*ord(x1)^{t}" if t else "")
    mu = density_distribution(parse(src, p), zp(p))
    levels = 12 if p == 2 else 9
    phi = one_on(p)
    got = mu.eval(phi)
    # finite part by brute enumeration, tail via sympy
    import sympy

    j = sympy.Symbol("j")
    brute = brute_shell_oracle(src, p, phi, levels)
    tail = sympy.summation(
        j**t * sympy.Rational(1, p) ** (j * (s + 1)) * (1 - sympy.Rational(1, p)),
        (j, levels, sympy.oo))
    expect = brute + ExactComplex.from_rational(Fraction(str(tail)), p)
    assert got == expect


def test_density_psi_inverse_total():
    # integral over Z_p \ 0 of psi(1/x): only the unit shell survives
    for p in (2, 3, 5):
        mu = density_distribution(parse("psi(1/x1)", p), zp(p))
        got = mu.eval(one_on(p))
        assert got.rational_value() == Fraction(-1, p)


def test_density_psi_inverse_shells_vanish():
    # shell-by-shell oracle: on v(x) = j >= 1 the unit character sum is 0
    for p in (2, 3, 5):
        for j in range(1, 4):
            level = j + 1  # psi(1/(u p^j)) depends on the unit u mod p^(j+1)
            total = ExactComplex.zero(p)
            for u in range(1, p**level):
                if u % p:
                    total = total + psi_eval(Fraction(1) / (Fraction(u) * p**j), p)
            assert total.is_zero(), (p, j)


def shell_psi_inverse(p, j):
    """integral of psi(1/x) over v(x) = j: exact unit enumeration mod p^(j+1),
    where 1/x is stable under unit perturbations of that depth."""
    total = ExactComplex.zero(p)
    for u in range(1, p ** (j + 1)):
        if u % p:
            total = total + psi_eval(Fraction(1) / (Fraction(u) * p**j), p)
    return total * Fraction(1, p ** (2 * j + 1))


def test_density_psi_inverse_against_balls():
    p = 3
    mu = density_distribution(parse("psi(1/x1)", p), zp(p))
    # shallow balls: the integrand is level-k stable, so level-k sums are exact
    for center, lev in ((Fraction(1), 1), (Fraction(2), 2)):
        phi = SchwartzBruhat.indicator_box(Box(p, (center,), lev))
        got = mu.eval(phi)
        total = ExactComplex.zero(p)
        for u in range(p**lev):
            x = Fraction(u)
            val = phi.evaluate((x,))
            if not val.is_zero():
                total = total + psi_eval(1 / x, p) * val
        assert got == total * Fraction(1, p**lev)
    # balls around 0: sum of exact shell integrals, all of which vanish
    for lev in (1, 2):
        phi = SchwartzBruhat.indicator_box(Box(p, (Fraction(0),), lev))
        oracle = ExactComplex.zero(p)
        for j in range(lev, lev + 6):
            oracle = oracle + shell_psi_inverse(p, j)
        assert oracle.is_zero()
        assert mu.eval(phi).is_zero()
    # and the unit shell carries the full mass -1/p
    assert shell_psi_inverse(p, 0).rational_value() == Fraction(-1, p)


def test_density_nonintegrable():
    p = 3
    mu = density_distribution(parse("abs(x1)^(-1)", p), zp(p))
    with pytest.raises(NonIntegrable):
        mu.eval(one_on(p))


def test_density_unsupported_shapes():
    p = 3
    with pytest.raises(UnsupportedShape):
        density_distribution(parse("abs(x1+x2)", p), zp(p, 2)).eval(one_on(p, 2))
    # psi coupling two hyperplane-touching coordinates
    mu = density_distribution(parse("psi(1/(x1*x2))", p), zp(p, 2))
    with pytest.raises(UnsupportedShape):
        mu.eval(one_on(p, 2))
    # ...but fine on test functions avoiding the corner
    phi = SchwartzBruhat.indicator_box(Box(p, (Fraction(1), Fraction(0)), 1))
    val = mu.eval(phi)
    assert val is not None


def test_density_product_two_dims():
    p = 3
    mu = density_distribution(parse("abs(x1)*abs(x2)^2", p), zp(p, 2))
    got = mu.eval(one_on(p, 2))
    f1 = Fraction(1 - Fraction(1, p), 1 - Fraction(1, p**2))
    f2 = Fraction(1 - Fraction(1, p), 1 - Fraction(1, p**3))
    assert got.rational_value() == f1 * f2


def test_density_psi_times_abs_other_coordinate():
    p = 3
    mu = density_distribution(parse("psi(1/x1)*abs(x2)", p), zp(p, 2))
    got = mu.eval(one_on(p, 2))
    expect = Fraction(-1, p) * Fraction(1 - Fraction(1, p), 1 - Fraction(1, p**2))
    assert got.rational_value() == expect


def test_density_linearity():
    p = 3
    rng = random.Random(10)
    mu = density_distribution(parse("abs(x1) + psi(1/x1)*ord(x1)", p), zp(p))
    for _ in range(5):
        f = random_sb(rng, p, 1, 0, 2)
        g = random_sb(rng, p, 1, 1, 1)
        c = ExactComplex.gaussian(1, 2, p)
        assert mu.eval(f.scale(c) + g) == c * mu.eval(f) + mu.eval(g)


def test_psi_averager_cache_holds_within_one_cell():
    # one shallow coordinate with kappa = 1 on 1 + 9Z_3: the same w = -1 with
    # a* = 1/3 and a* = 2/3 (two cells) averages to different roots of unity
    coords = [("shallow", 1, 2)]
    first = _PsiAverager(3, coords).value(-1, Fraction(1, 3))
    second = _PsiAverager(3, coords).value(-1, Fraction(2, 3))
    assert first == zeta(3, 2, 1)
    assert second == zeta(3, 2, 2)
    # the cache is keyed by w alone, so one averager shared across the two
    # cells would answer the second with the first cell's value
    shared = _PsiAverager(3, coords)
    shared.value(-1, Fraction(1, 3))
    assert shared.value(-1, Fraction(2, 3)) == first != second


# -- psi-coupled densities against a per-shell oracle ----------------------------


def _units(p, r):
    return [u for u in range(1, p**r) if u % p]


def psi_shell_oracle(src, p, phi, a, kappa, s, t, last):
    """Independent oracle for the integral over Z_p^n of e(x) phi(x), where
    e = psi(p^a prod x_i^kappa_i) |x_n|^s ord(x_n)^t (other factors may
    involve x_1..x_{n-1} only) and phi vanishes wherever some x_i with
    i < n has valuation >= phi.k.

    Shell j of x_n (and each valuation below phi.k of the others) is summed
    by brute force over x = p^v u, with every unit u_i enumerated modulo
    p^r, r >= max(1, k - v_i, 1 - w) where w = a + sum kappa_i v_i: then
    psi's argument moves by valuation >= 1 and phi by nothing, so the sum
    is exact.  Shells j > `last` must follow one model, C |x_n|^s ord^t
    (the psi factor trivial or the shell zero): C is read off shell
    last + 1, checked on shell last + 2, and the tail is summed by sympy.
    """
    import sympy

    e, n, k = parse(src, p), phi.n, phi.k

    def shell(j):
        total = ExactComplex.zero(p)
        for vs in itertools.product(range(k), repeat=n - 1):
            v = vs + (j,)
            w = a + sum(ki * vi for ki, vi in zip(kappa, v))
            r = [max(1, k - vi, 1 - w) for vi in v]
            cell = Fraction(1, p ** sum(vi + ri for vi, ri in zip(v, r)))
            for us in itertools.product(*[_units(p, ri) for ri in r]):
                x = tuple(Fraction(p) ** vi * ui for vi, ui in zip(v, us))
                val = phi.evaluate(x)
                if not val.is_zero():
                    total = total + e.eval(x) * val * cell
        return total

    def weight(j):
        return (1 - Fraction(1, p)) * Fraction(1, p) ** (j * (s + 1)) * Fraction(j) ** t

    shells = [shell(j) for j in range(last + 3)]
    C = shells[last + 1] * (1 / weight(last + 1))
    assert shells[last + 2] == C * weight(last + 2), "shells beyond `last` are not a tail"
    j = sympy.Symbol("j")
    tail = sympy.summation(
        j**t * sympy.Rational(1, p) ** (j * (s + 1)) * (1 - sympy.Rational(1, p)),
        (j, last + 1, sympy.oo))
    total = C * Fraction(str(tail))
    for val in shells[: last + 1]:
        total = total + val
    return total


def _tail_start(p, a, kappa, k):
    """First shell j >= k of a deep coordinate from which psi(p^a x^kappa)
    is trivial (kappa > 0) or the shell integral vanishes (kappa < 0).  The
    kappa < 0 bound sits 1 (odd p) or 2 (p = 2) below the averager's own
    vanish_at, and psi_shell_oracle checks the shells past it anyway."""
    j = k
    while True:
        w = a + kappa * j
        if (w >= 1) if kappa > 0 else w <= -2 - valuation(kappa, p) - (2 if p == 2 else 0):
            return j
        j += 1


# (a, abs/ord factors with their (s, t)) per kappa: on the deep cell (j >= 2)
# psi(p^a x^kappa) carries a trivial zone, middle shells and a zero zone
# (kappa < 0), or zero shells, middle shells and a trivial tail (kappa > 0)
PSI_CASES = {
    -2: (6, "*abs(x1)*ord(x1)", 1, 1),
    -1: (4, "*ord(x1)^2", 0, 2),
    1: (-2, "*abs(x1)^2*ord(x1)", 2, 1),
    2: (-4, "*abs(x1)", 1, 0),
}


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("kappa", [-2, -1, 1, 2])
def test_density_psi_coupling_vs_shell_oracle(p, kappa):
    a, factors, s, t = PSI_CASES[kappa]
    src = f"psi({Fraction(p) ** a}*x1^({kappa}))" + factors
    rng = random.Random(100 * p + kappa)
    k = 2
    phi = random_sb(rng, p, 1, 0, k, entries=p**k // 2)
    phi.table[(Fraction(0),)] = ExactComplex.gaussian(1, -1, p)  # the deep cell
    got = density_distribution(parse(src, p), zp(p)).eval(phi)
    last = _tail_start(p, a, kappa, k) - 1
    assert got == psi_shell_oracle(src, p, phi, a, (kappa,), s, t, last)


@pytest.mark.parametrize("p,src,a,kappa,s,t", [
    (3, "psi(x1*x2/27)*abs(x2)*ord(x2)", -3, (1, 1), 1, 1),
    (2, "psi(x1^2/(2*x2))*abs(x1)*ord(x2)^2", -1, (2, -1), 0, 2),
])
def test_density_psi_shallow_and_deep_share_psi(p, src, a, kappa, s, t):
    # x1 stays shallow (phi vanishes where v(x1) >= k); x2 runs into the
    # hyperplane, so each cell couples a shallow and a deep coordinate
    k = 2
    rng = random.Random(len(src))
    table = {}
    for b in zp(p, 2).cosets(k):
        x1, x2 = b.center
        if x1 != 0 and (x2 == 0 or rng.random() < 0.3):
            table[b.center] = ExactComplex.gaussian(rng.randint(1, 3), rng.randint(-2, 2), p)
    phi = SchwartzBruhat(p, 2, 0, k, table)
    got = density_distribution(parse(src, p), zp(p, 2)).eval(phi)
    last = max(_tail_start(p, a + kappa[0] * v1, kappa[1], k) for v1 in range(k)) - 1
    assert got == psi_shell_oracle(src, p, phi, a, kappa, s, t, last)


def unit_average(p, coords, a_star, lvl):
    """Probability average of psi(a_star prod g_i^kappa_i), each g_i running
    over the units mod p^lvl (deep) or over 1 + p^a Z_p mod p^lvl (shallow)."""
    spaces = []
    for mode, kappa, a in coords:
        if mode == "deep":
            spaces.append([(Fraction(u), kappa) for u in _units(p, lvl)])
        else:
            spaces.append([(1 + Fraction(p**a) * c, kappa) for c in range(p ** (lvl - a))])
    total = ExactComplex.zero(p)
    count = 0
    for combo in itertools.product(*spaces):
        arg = a_star
        for g, kappa in combo:
            arg *= g**kappa
        total = total + psi_eval(arg, p)
        count += 1
    return total * Fraction(1, count)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_psi_averager_level_is_sufficient(p):
    # every middle value, and the first vanishing one, equals the same unit
    # average enumerated one level finer than the averager's own level
    extra = 2 if p == 2 else 0
    for coords in ([("deep", 1, 1)], [("deep", -p, 1)], [("shallow", 2, 1)],
                   [("shallow", -1, 2)], [("shallow", p, 1), ("deep", -1, 1)]):
        avg = _PsiAverager(p, coords)
        for w in range(avg.vanish_at, 1):
            lvl = max([1] + [1 - w + valuation(kappa, p) + extra for _, kappa, _ in coords]
                      + [a + 1 for mode, _, a in coords if mode == "shallow"])
            for unit in (1, p - 1, Fraction(1, p + 1)):
                a_star = unit * Fraction(p) ** w
                got = _PsiAverager(p, coords).value(w, a_star)
                assert got == unit_average(p, coords, a_star, lvl + 1), (coords, w, unit)


# -- ball transform -----------------------------------------------------------


def test_b_function_haar_table():
    for p in (2, 5):
        h = haar_on(zp(p))
        for vx in range(-4, 5):
            x = Fraction(p) ** vx if vx >= 0 else Fraction(1, p ** (-vx))
            for ordr in range(-4, 5):
                r = Fraction(p) ** ordr if ordr >= 0 else Fraction(1, p ** (-ordr))
                got = b_function(h, (x,), r)
                if vx >= 0:
                    expect = Fraction(1, p ** max(ordr, 0))
                elif ordr <= vx:
                    expect = Fraction(1)
                else:
                    expect = Fraction(0)
                if expect:
                    assert got.rational_value() == expect
                else:
                    assert got.is_zero()


def test_b_function_examples():
    p = 3
    h = haar_on(zp(p))
    # ord r = 2: the ball B(0, 2) has volume p^-2
    assert b_function(h, (0,), Fraction(9)).rational_value() == Fraction(1, 9)
    # v(x) = -3 = ord r: the ball swallows Z_p
    assert b_function(h, (Fraction(1, 27),), Fraction(1, 27)).rational_value() == 1
    d = dirac(p, (0,))
    assert b_function(d, (1,), Fraction(3)).is_zero()


# -- loci ----------------------------------------------------------------------


def test_loci_zero_function():
    p = 3
    from padlab.cexp import CexpExpr

    line = GraphManifold(p, zp(p), (RatTerm.const(0),))
    xi = loci_distribution(CexpExpr.zero(p), [line])
    assert xi.eval(one_on(p, 2)).is_zero()


def test_loci_abs_on_line():
    p = 3
    line = GraphManifold(p, zp(p), (RatTerm.const(0),))
    xi = loci_distribution(parse("abs(x1)", p), [line])
    got = xi.eval(one_on(p, 2))
    expect = Fraction(1 - Fraction(1, p), 1 - Fraction(1, p**2))
    assert got.rational_value() == expect
    off = SchwartzBruhat.indicator_box(Box(p, (Fraction(0), Fraction(1)), 1))
    assert xi.eval(off).is_zero()


def test_loci_point_stratum():
    p = 5
    pt = point_manifold(p, (Fraction(2),))
    xi = loci_distribution(parse("abs(x1)", p), [pt])
    phi = SchwartzBruhat.indicator_box(Box(p, (Fraction(2),), 1))
    # integral over the point stratum = g(2) * phi(2)
    assert xi.eval(phi).rational_value() == 1
