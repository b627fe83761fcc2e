"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines.  Every comparison is exact (zero discrepancy); the only floats are
the bound checks of criterion 10, which compare against a mathematically
derived constant with float rounding slack.
"""

import random
import time
from fractions import Fraction

import pytest

from padlab.cexp import CexpExpr, bounded_rewrite, parse, rewrite_bound
from padlab.charts import PowerChart, certify_resolution, fiber_size, unit_swallow_chart
from padlab.cli import build_power_charts
from padlab.cyclotomic import ExactComplex
from padlab.dist import (
    b_function,
    density_distribution,
    dirac,
    graph_measure,
    haar_on,
    pushforward_chart,
)
from padlab.extend import Split, boundary_restriction, extend_min_coord, min_coord_lift, regularize
from padlab.graphs import GraphManifold, point_manifold
from padlab.micro import (
    ConormalPresentation,
    ScanParams,
    closed_form_wf_cells,
    holonomicity_check,
    wf_scan,
)
from padlab.padic import Box, ClopenSet, coset_rep, refine_partition, urysohn_clopen, valuation
from padlab.ratterm import NotInDomain, Poly, RatTerm
from padlab.schwartz import SchwartzBruhat, psi_eval


def _report(num: int, desc: str):
    print(f"\nACCEPTANCE {num}: {desc}: PASS")


def zp(p, n=1):
    return ClopenSet.single(Box(p, tuple(Fraction(0) for _ in range(n)), 0))


def random_sb(rng, p, n, m, k, entries=4):
    box = Box(p, tuple(Fraction(0) for _ in range(n)), -m)
    reps = box.subboxes(k)
    table = {}
    for b in rng.sample(reps, min(entries, len(reps))):
        table[b.center] = ExactComplex.gaussian(
            Fraction(rng.randint(-3, 3), rng.randint(1, 2)), rng.randint(-2, 2), p)
    return SchwartzBruhat(p, n, m, k, table)


def _mk_levels(rng, p, n):
    """Random (m, k) with m+k <= 5, biased so tables stay desk-sized."""
    pairs = [(m, k) for m in range(0, 3) for k in range(-m, 4)
             if 0 <= m + k <= 5 and p ** (n * (m + k)) <= 81]
    big = [(m, k) for m in range(0, 3) for k in range(0, 6)
           if m + k == 5 and p ** (n * (m + k)) <= 81]
    return rng.choice(pairs + big * 2)


BATTERY = {}


def _battery(p, n):
    if (p, n) not in BATTERY:
        rng = random.Random(1009 * p + n)
        BATTERY[(p, n)] = [random_sb(rng, p, n, *_mk_levels(rng, p, n)) for _ in range(50)]
    return BATTERY[(p, n)]


def test_criterion_1_fourier_exactness():
    start = time.monotonic()
    for p in (2, 3, 5, 7):
        for n in (1, 2):
            one = SchwartzBruhat.indicator_box(Box(p, tuple(Fraction(0) for _ in range(n)), 0))
            hat = one.fourier()
            assert hat == SchwartzBruhat.indicator_box(
                Box(p, tuple(Fraction(0) for _ in range(n)), 1))
            for phi in _battery(p, n):
                assert phi.fourier().fourier() == phi.reflect().scale(Fraction(1, p**n))
    elapsed = time.monotonic() - start
    assert elapsed < 30, f"Fourier battery took {elapsed:.1f}s"
    _report(1, f"Fourier exactness, 50 random functions per (p,n), {elapsed:.1f}s")


def test_criterion_2_plancherel():
    for p in (2, 3, 5, 7):
        for n in (1, 2):
            battery = _battery(p, n)
            for f, g in zip(battery[::2], battery[1::2]):
                lhs = f.fourier().plancherel_pairing(g.fourier())
                rhs = f.plancherel_pairing(g) * Fraction(1, p**n)
                assert lhs == rhs
    _report(2, "Plancherel <Ff,Fg> = p^-n <f,g> on the same battery")


def test_criterion_3_b_function_table():
    for p in (2, 3, 5, 7):
        h = haar_on(zp(p))
        for vx in range(-4, 5):
            x = Fraction(p) ** vx
            for ordr in range(-4, 5):
                got = b_function(h, (x,), Fraction(p) ** ordr)
                # independent counting oracle at level 4
                level = 4
                count = sum(1 for c in Box(p, (Fraction(0),), 0).subboxes(level)
                            if valuation(c.center[0] - x, p) >= ordr
                            or c.center[0] == x and ordr <= level)
                expect = Fraction(count, p**level) if ordr <= level else None
                if expect is None:  # ball finer than the counting grid
                    expect = Fraction(1, p**ordr) if vx >= 0 else Fraction(0)
                if expect == 0:
                    assert got.is_zero(), (p, vx, ordr)
                else:
                    assert got.rational_value() == expect, (p, vx, ordr)
    _report(3, "ball transform of Haar matches the derived table on [-4,4]^2")


def _brute_monomial_total(p, s, t, levels):
    """Brute-force coset sum of |x|^s ord(x)^t over Z_p at a fixed level,
    by walking every coset representative."""
    counts = [0] * (levels + 1)
    for u in range(1, p**levels):
        v = 0
        while u % p == 0:
            u //= p
            v += 1
        counts[v] += 1
    total = Fraction(0)
    for j, c in enumerate(counts):
        total += c * Fraction(j) ** t * Fraction(1, p ** (s * j))
    return total / p**levels


def test_criterion_4_density_oracle():
    import sympy

    j = sympy.Symbol("j")
    for p in (2, 3):
        levels = 12
        one = SchwartzBruhat.indicator(zp(p))
        for s in (0, 1, 2):
            for t in (0, 1, 2):
                src = f"abs(x1)^{s}" + (f"*ord(x1)^{t}" if t else "")
                mu = density_distribution(parse(src, p), zp(p))
                got = mu.eval(one)
                finite = _brute_monomial_total(p, s, t, levels)
                tail = sympy.summation(
                    j**t * sympy.Rational(1, p) ** (j * (s + 1))
                    * (1 - sympy.Rational(1, p)), (j, levels, sympy.oo))
                expect = finite + Fraction(str(tail))
                assert got.rational_value() == expect, (p, s, t)
        # psi(1/x): finitely many nonzero shells by orthogonality
        mu = density_distribution(parse("psi(1/x1)", p), zp(p))
        shell_total = ExactComplex.zero(p)
        for jj in range(0, 8):
            acc = ExactComplex.zero(p)
            for u in range(1, p ** (jj + 1)):
                if u % p:
                    acc = acc + psi_eval(Fraction(1) / (Fraction(u) * p**jj), p)
            shell_total = shell_total + acc * Fraction(1, p ** (2 * jj + 1))
        got = mu.eval(one)
        assert got == shell_total
        assert got.rational_value() == Fraction(-1, p)
    _report(4, "density evaluations equal level-12 brute sums plus exact tails")


def _scan_case(xi, region, params, candidates, wrong):
    start = time.monotonic()
    report = wf_scan(xi, region, params)
    elapsed = time.monotonic() - start
    assert elapsed < 300, f"scan took {elapsed:.1f}s"
    got = report.nonvanishing()
    expect = closed_form_wf_cells(xi, region, params)
    assert got == expect
    verdict = holonomicity_check(report, candidates)
    assert verdict.passes
    if got:
        assert not holonomicity_check(report, [wrong]).passes
    return elapsed, len(got)


def test_criterion_5_wf_scanner_vs_closed_forms():
    params = ScanParams()  # the defaults: k_x=2, k_y=2, k_test=3, N 1..5
    times = []

    p = 3
    delta = dirac(p, (0,))
    wrong_pt = ConormalPresentation(point_manifold(p, (Fraction(1),)))
    t, _ = _scan_case(delta, zp(p), params,
                      [ConormalPresentation(point_manifold(p, (Fraction(0),)))], wrong_pt)
    times.append(t)

    h = haar_on(ClopenSet.single(Box(p, (Fraction(0),), 1)))
    t, count = _scan_case(h, zp(p), params,
                          [ConormalPresentation(point_manifold(p, (Fraction(0),)))],
                          wrong_pt)
    assert count == 0
    times.append(t)

    for p, region in ((3, zp(3, 2)),
                      (5, ClopenSet.single(Box(5, (Fraction(1), Fraction(1)), 2)))):
        W = GraphManifold(p, zp(p), (RatTerm.var(0) ** 2,))
        xi = graph_measure(W)
        wrong = ConormalPresentation(GraphManifold(p, zp(p), (RatTerm.const(0),)))
        t, count = _scan_case(xi, region, params, [ConormalPresentation(W)], wrong)
        assert count > 0
        times.append(t)

    _report(5, "wave-front scans equal closed-form grids "
               f"(scan times {', '.join(f'{t:.1f}s' for t in times)})")


def _reg_scenes():
    p = 3
    yield (zp(p), [point_manifold(p, (Fraction(0),))], haar_on(zp(p)), p, 1)
    yield (zp(p, 2), [GraphManifold(p, zp(p), (RatTerm.var(0) ** 2,))],
           haar_on(zp(p, 2)), p, 2)
    p = 2
    yield (zp(p, 2), [GraphManifold(p, zp(p), (RatTerm.const(0),)),
                      GraphManifold(p, zp(p), (RatTerm.const(1),))],
           haar_on(zp(p, 2)), p, 2)


def test_criterion_6_regularization_section():
    for X, strata, xi, p, n in _reg_scenes():
        split = Split(X, strata)
        kappa = regularize(xi, split)
        rng = random.Random(31 * p + n)
        done = 0
        while done < 100:
            phi = random_sb(rng, p, n, 0, rng.randint(1, 2), entries=3)
            if not split.supported_in_u(phi):
                continue
            done += 1
            assert kappa.eval(phi) == xi.eval(phi)
            if done % 10 == 0:
                psi2 = random_sb(rng, p, n, 0, 1, entries=2)
                c = ExactComplex.gaussian(1, 1, p)
                lhs = kappa.eval(phi.scale(c) + psi2)
                assert lhs == c * kappa.eval(phi) + kappa.eval(psi2)
    _report(6, "regularization is a linear section on 3 scenes x 100 test functions")


class _Oracle1D:
    """Cached exact 1-D coset integrals of a single-variable factor, by
    refinement to a stability level checked one level finer."""

    def __init__(self, src: str, p: int):
        self.e = parse(src, p)
        self.p = p
        self.cache = {}

    def coset_integral(self, rep: Fraction, k: int) -> ExactComplex:
        key = (rep, k)
        if key in self.cache:
            return self.cache[key]
        p = self.p
        rho = valuation(rep, p)
        if rho == float("inf") or rho >= k:
            raise AssertionError("oracle hit a hyperplane-touching coset")
        fine = max(k, 2 * rho + 1, 2 * k - 1)
        first = self._riemann(rep, k, fine)
        second = self._riemann(rep, k, fine + 1)
        assert first == second, "oracle stability check failed"
        self.cache[key] = first
        return first

    def _riemann(self, rep, k, fine):
        p = self.p
        total = ExactComplex.zero(p)
        for sub in Box(p, (rep,), k).subboxes(fine):
            total = total + self.e.eval(sub.center)
        return total * Fraction(1, p**fine)


def _extension_oracle(factors, p: int, m: int, phi: SchwartzBruhat) -> ExactComplex:
    """Separable shell-sum oracle: the corrected test function is a finite sum
    of product-coset indicators off the hyperplanes, so each term integrates
    as a product of cached 1-D coset integrals."""
    corrected = phi.restrict(ClopenSet.single(Box(p, tuple(Fraction(0) for _ in range(m)), 0)))
    corrected = corrected - min_coord_lift(boundary_restriction(corrected))
    total = ExactComplex.zero(p)
    k = corrected.k
    for rep, val in corrected.table.items():
        piece = val
        for i in range(m):
            piece = piece * factors[i].coset_integral(rep[i], k)
        total = total + piece
    return total


def test_criterion_7_min_coord_extension():
    cases = [
        ("psi(1/x1)", ["psi(1/x1)"], 3, 1),
        ("abs(x1)", ["abs(x1)"], 3, 1),
        ("psi(1/x1)*abs(x2)", ["psi(1/x1)", "abs(x1)"], 3, 2),
        ("abs(x1)*abs(x2)^2", ["abs(x1)", "abs(x1)^2"], 2, 2),
    ]
    for src, factor_srcs, p, m in cases:
        X = zp(p, m)
        mu = density_distribution(parse(src, p), X)
        xi = extend_min_coord(mu)
        rng = random.Random(7 * p + m)
        done = 0
        while done < 100:
            phi = random_sb(rng, p, m, 0, rng.randint(1, 2), entries=3)
            if any(any(c == 0 for c in rep) for rep in phi.table):
                continue  # need support off the hyperplanes
            done += 1
            assert xi.eval(phi) == mu.eval(phi)
        # ball-transform grid against the shell-sum oracle
        factors = [_Oracle1D(s, p) for s in factor_srcs]
        for vx in range(-4, 5):
            x = Fraction(p) ** vx
            for ordr in range(-4, 5):
                got = b_function(xi, (x,) * m, Fraction(p) ** ordr)
                ball = Box(p, (x,) * m, ordr)
                phi = SchwartzBruhat.indicator_box(ball)
                expect = _extension_oracle(factors, p, m, phi)
                assert got == expect, (src, vx, ordr)
    _report(7, "minimal-coordinate extension reproduces densities and ball grids")


def test_criterion_8_urysohn_partition_randomized():
    start = time.monotonic()
    for p in (2, 3, 5):
        rng = random.Random(100 + p)
        X = zp(p)
        done = 0
        while done < 200:
            boxes = [Box(p, (Fraction(rng.randint(0, p**2)),), rng.randint(0, 2))
                     for _ in range(rng.randint(1, 3))]
            U = ClopenSet.from_boxes(p, 1, boxes).intersect(X)
            if U.is_empty():
                continue
            z_boxes = [b for b in U.cosets(U.max_level() + 1) if rng.random() < 0.35]
            Z = ClopenSet.from_boxes(p, 1, z_boxes)
            if Z.is_empty():
                continue
            done += 1
            C = urysohn_clopen(Z, U, X)
            assert C.contains_set(Z) and U.contains_set(C)
            # partition instance from a random cover
            cover = [U, X.difference(U).union(U) if rng.random() < 0.5 else X]
            parts = refine_partition(cover, X)
            whole = ClopenSet.empty(p, 1)
            for part, u in zip(parts, cover):
                assert u.contains_set(part)
                assert whole.intersect(part).is_empty()
                whole = whole.union(part)
            assert whole == X
    elapsed = time.monotonic() - start
    assert elapsed < 10, f"randomized instances took {elapsed:.1f}s"
    _report(8, f"200 urysohn/partition instances per prime, exact, {elapsed:.1f}s")


def test_criterion_9_resolution_certificates():
    from padlab.cexp import parse_ratterm

    # f = x1^3 x2^2 (1 + 5 x1) at p = 5 through a unit-swallowing chart
    p = 5
    f = [parse_ratterm("x1^3*x2^2*(1+5*x1)")]
    u = Poly(2, {(0, 0): Fraction(1), (1, 0): Fraction(5)})
    chart, nf = unit_swallow_chart(u, (3, 2), p, prec=20)
    cert = certify_resolution([chart], f, p, sampling_level=6, prec=20, samples=100)
    assert cert.passed(), cert.summary()

    # f = x1^2 at p in {3, 5} through power charts over the square classes
    for p in (3, 5):
        charts = build_power_charts(2, p, 1, prec=20)
        cert = certify_resolution(charts, [parse_ratterm("x1^2")], p,
                                  sampling_level=6, prec=20, samples=100)
        assert cert.passed(), cert.summary()
        # fiber counts against enumerated roots
        for chart in charts:
            assert chart.fiber_count() == fiber_size(2, p)
        # pushforward mass consistency: exact on image cosets
        chart = charts[0]
        xi = haar_on(zp(p))
        push = pushforward_chart(xi, chart)
        one = SchwartzBruhat.indicator(zp(p))
        assert push.eval(one) == xi.eval(one)
        sq_unit = next(c for c in range(2, p * p) if c % p
                       and coset_rep(Fraction(c), p, 1) != 0
                       and len(chart.fiber_reps((Fraction(c * c),))) == 2)
        phi = SchwartzBruhat.indicator_box(Box(p, (Fraction(sq_unit * sq_unit),), 2))
        d = fiber_size(2, p)
        preimage_vol = Fraction(d, p**2)  # d preimage cosets, one level finer
        assert push.eval(phi).rational_value() == preimage_vol
    _report(9, "resolution certificates pass all five conclusions at level 6, prec 20")


SHIPPED_EXPRESSIONS = [
    "abs(x1)^(-1)",
    "abs(x1)^(-2)*ord(x1)",
    "psi(1/x1)",
    "psi(1/x1)*ord(x1)^2",
    "abs(x1) - abs(x1)",
    "ord(x1)*ord(x2)",
    "(1+i)*abs(x1*x2)^(-1) + ord(x2)",
    "abs(x1)^2*psi(x2/3) - abs(x1)^2",
    "zeta(3^1)*ord(x1)^3*abs(x2)^(-3)",
    "abs(x1)*abs(x2) + psi(x1*x2)",
]


def test_criterion_10_bounded_rewrite():
    p = 3
    rng = random.Random(77)
    for src in SHIPPED_EXPRESSIONS:
        e = parse(src, p)
        h = bounded_rewrite(e)
        bound = rewrite_bound(e)
        checked = 0
        attempts = 0
        while checked < 10_000 and attempts < 40_000:
            attempts += 1
            x = tuple(Fraction(rng.randint(-200, 200) * p ** rng.randint(0, 2),
                               rng.randint(1, 30)) for _ in range(2))
            try:
                ve = e.eval(x)
            except NotInDomain:
                continue
            vh = h.eval(x)
            checked += 1
            assert ve.is_zero() == vh.is_zero()
            assert abs(vh.to_complex()) <= bound * (1 + 1e-9) + 1e-12
        assert checked == 10_000, f"only {checked} valid samples for {src}"
    _report(10, "bounded rewrite preserves zero loci and meets its bound, 10^4 points each")
