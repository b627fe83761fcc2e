"""densities: C^exp densities through Distribution.eval, and what is built on them.

Items:
* one item per density family and p in {3, 5, 7}: |x|, |x|^2 ord(x) and
  psi(1/x) on Z_p, |x1||x2| and psi(1/x1)|x2| on Z_p^2, integrated against
  seeded level-3 test functions whose cells have a fixed set of valuations
  (one touching each hyperplane), so each seed makes the same shell work,
  and evaluated pointwise;
* `ball_grid`: ball transforms of |x| and of Haar measure on Z_3;
* `smooth_locus_p{3,5}`: `smooth_locus_scan` of |x| and |x|^2 ord(x);
* `extend` and `regularize`: the minimal-coordinate extension of
  psi(1/x1)|x2| and the regularization of the scene `basic1d.pad`;
* `resolution`: one monomialization certificate (the `charts` layer);
* `cli_*`: one in-process run of each report command on `scenes/*.pad`.
"""

from __future__ import annotations

import contextlib
import io
import random
import re
from fractions import Fraction
from pathlib import Path

from oracles import (FAMILIES, Cyc, abs_ord_integral, canon, cell_volume, density_at,
                     density_value, haar_ball_count, require, same, val_p)
from padlab import cli
from padlab.cexp import parse, parse_ratterm
from padlab.charts import certify_resolution, unit_swallow_chart
from padlab.dist import b_function, density_distribution, haar_on
from padlab.extend import extend_min_coord, regularize
from padlab.micro import smooth_locus_scan
from padlab.ratterm import Poly
from padlab.scene import load_scene
from padlab.schwartz import SchwartzBruhat

from . import Item, gaussian, unit_times, zp


SCENES = Path(__file__).resolve().parents[2] / "scenes"
LEVEL = 3
PROFILES = {  # valuations of the cells of one test function; LEVEL means the 0 coset
    1: [(0,), (1,), (2,), (3,)],
    2: [(0, 0), (1, 2), (3, 1), (0, 3), (3, 3)],
}
TESTS_PER_PRIME = {3: 30, 5: 24, 7: 18}  # test functions per family
POINTS = 30  # pointwise evaluations per family
CLOSED_FORMS = {  # integrals over Z_p
    "abs(x1)": lambda p: (1 - Fraction(1, p)) / (1 - Fraction(1, p * p)),
    "psi(1/x1)": lambda p: Fraction(-1, p),
}


def _test_function(rng, p: int, profile) -> SchwartzBruhat:
    table = {tuple(unit_times(rng, p, v, LEVEL) for v in vals): gaussian(rng, p)
             for vals in profile}
    return SchwartzBruhat(p, len(profile[0]), 0, LEVEL, table)


def _shells(rng, p: int, src: str) -> Item:
    n = len(FAMILIES[src])
    e = parse(src, p)
    mu = density_distribution(e, zp(p, n))
    tests = [_test_function(rng, p, PROFILES[n]) for _ in range(TESTS_PER_PRIME[p])]
    points = [tuple(unit_times(rng, p, rng.randint(-2, 3), LEVEL + 3) for _ in range(n))
              for _ in range(POINTS)]

    def run():
        return [(phi, mu.eval(phi)) for phi in tests], [(x, e.eval(x)) for x in points]

    def check(out):
        integrals, values = out
        for phi, got in integrals:
            require(same(got, density_value(src, phi)), f"{src} at p={p}: shell sum is wrong")
        for x, got in values:
            require(same(got, density_at(src, x, p)), f"{src} at {x}: pointwise value is wrong")
        if src in CLOSED_FORMS:
            one = SchwartzBruhat.indicator(zp(p))
            require(same(mu.eval(one), Cyc.rational(CLOSED_FORMS[src](p), p)),
                    f"integral of {src} over Z_p is not its closed form")

    return Item(f"{src}_p{p}", run, check)


def _ball_grid(rng) -> Item:
    p = 3
    mu = density_distribution(parse("abs(x1)", p), zp(p))
    haar = haar_on(zp(p))
    units = [unit_times(rng, p, 0, 2) for _ in range(5)]
    points = [(u * Fraction(p) ** vx, ordr) for vx, u in zip(range(-2, 3), units)
              for ordr in range(-2, 4)]

    def run():
        return [(x, r, b_function(mu, (x,), Fraction(p) ** r),
                 b_function(haar, (x,), Fraction(p) ** r)) for x, r in points]

    def check(out):
        for x, r, b_mu, b_haar in out:
            require(same(b_haar, Cyc.rational(haar_ball_count(p, x, r), p)),
                    f"Haar ball transform at ({x}, {r}) differs from coset counting")
            if r <= min(0, val_p(x, p)):
                want = abs_ord_integral(p, 1, 0, Fraction(0), 0)
            elif val_p(x, p) < 0:
                want = Fraction(0)
            else:
                want = abs_ord_integral(p, 1, 0, canon(x, p, r), r)
            require(same(b_mu, Cyc.rational(want, p)), f"|x| ball transform at ({x}, {r})")
            # finite additivity: the ball is the union of its p children
            if 0 <= r <= 2 and val_p(x, p) >= 0:
                kids = [b_function(mu, (x + j * Fraction(p) ** r,), Fraction(p) ** (r + 1))
                        for j in range(p)]
                total = Cyc(p)
                for kid in kids:
                    total = total + Cyc.of(kid)
                require(same(b_mu, total), f"|x| is not additive on the ball ({x}, {r})")

    return Item("ball_grid", run, check)


def _smooth_locus(p: int, s: int, t: int) -> Item:
    """smooth_locus_scan of |x|^s ord(x)^t on the level-2 cosets of Z_p."""
    mu = density_distribution(parse(f"abs(x1)^{s}*ord(x1)^{t}", p), zp(p))

    def run():
        return smooth_locus_scan(mu, zp(p), 2, scan_level=2)

    def check(flags):
        require(len(flags) == p * p, "smooth locus scan skipped cosets")
        for (a,), verdict in flags.items():
            require(verdict.smooth == (a != 0), f"smoothness of |x|^{s} ord^{t} at {a}")
            if a != 0:
                rho = val_p(a, p)
                require(same(verdict.gamma, Cyc.rational(
                    Fraction(1, p ** (s * rho)) * Fraction(rho) ** t, p)),
                    f"density of |x|^{s} ord^{t} at {a}")

    return Item(f"smooth_locus_p{p}", run, check)


def _extend(rng) -> Item:
    p, src = 3, "psi(1/x1)*abs(x2)"
    mu = density_distribution(parse(src, p), zp(p, 2))
    xi = extend_min_coord(mu)
    off = [_test_function(rng, p, [(0, 0), (1, 2), (2, 1)]) for _ in range(3)]
    on = [_test_function(rng, p, [(3, 1), (0, 3), (3, 3), (1, 1)]) for _ in range(2)]
    coef = gaussian(rng, p)

    def run():
        return [(phi, xi.eval(phi)) for phi in off + on]

    def check(out):
        for phi, got in out[: len(off)]:
            require(same(got, density_value(src, phi)), "extension differs from the density "
                    "off the hyperplanes")
        (f, xf), (g, xg) = out[len(off):]
        require(same(xi.eval(f.scale(coef) + g), Cyc.of(coef) * Cyc.of(xf) + Cyc.of(xg)),
                "extension is not linear")

    return Item("extend", run, check)


def _haar_on_zp(phi) -> Cyc:
    """Integral of phi over Z_p against Haar measure."""
    total = Cyc(phi.p)
    for x, v in phi.table.items():
        if all(val_p(c, phi.p) >= 0 for c in x):
            total = total + Cyc.of(v)
    return total.times(cell_volume(phi.p, phi.n, phi.k))


def _regularize(rng, scene) -> Item:
    """Haar measure on Z_3 regularized along the origin (scene basic1d.pad)."""
    p = scene.p
    xi, split = scene.lookup("distributions", "xi"), scene.lookup("splits", "puncture")
    kappa = regularize(xi, split)
    off = [_test_function(rng, p, [(0,), (1,), (2,)]) for _ in range(3)]
    on = [_test_function(rng, p, [(3,), (1,)]) for _ in range(2)]
    coef = gaussian(rng, p)

    def run():
        return [(phi, kappa.eval(phi)) for phi in off + on]

    def check(out):
        for phi, got in out[: len(off)]:
            require(same(got, _haar_on_zp(phi)), "regularization is not a section")
        (f, kf), (g, kg) = out[len(off):]
        require(same(kappa.eval(f.scale(coef) + g), Cyc.of(coef) * Cyc.of(kf) + Cyc.of(kg)),
                "regularization is not linear")

    return Item("regularize", run, check)


def _resolution(seed: int) -> Item:
    p = 5
    f = [parse_ratterm("x1^3*x2^2*(1+5*x1)")]
    unit = Poly(2, {(0, 0): Fraction(1), (1, 0): Fraction(5)})

    def run():
        chart, _ = unit_swallow_chart(unit, (3, 2), p, prec=20)
        return certify_resolution([chart], f, p, sampling_level=6, prec=20, samples=40,
                                  seed=seed)

    def check(cert):
        require(cert.passed(), "resolution certificate fails:\n" + cert.summary())

    return Item("resolution", run, check)


def _cli_items() -> list[Item]:
    one, two = str(SCENES / "basic1d.pad"), str(SCENES / "plane.pad")

    def ok_eval(rows):
        require(rows == [["1/9", "0.111111111111+0i"]], "eval of |x| at 9")

    def ok_bfun(rows):
        for x, r, exact, _ in rows:
            require(Fraction(exact) == haar_ball_count(3, Fraction(x), int(r)), f"bfun at {x},{r}")

    def ok_wf(rows):
        for x_rep, _, verdict, *_ in rows[1:]:
            require((verdict == "Nonvanishing") == (x_rep == "(0)"), f"wf verdict at {x_rep}")

    def ok_smooth(rows):
        for rep, verdict, gamma in rows:
            a = Fraction(rep.strip("()"))
            require((verdict == "LocallyConstantDensity") == (a != 0), f"smoothlocus at {a}")
            if a:
                require(Fraction(gamma) == Fraction(1, 3 ** val_p(a, 3)), f"smoothlocus at {a}")

    def ok_extend(rows):
        require(all(row[3] != "NO" for row in rows), "extend table disagrees")

    def ok_regularize(rows):
        require(all(row[3] != "VIOLATION" for row in rows), "regularize table")

    def ok_loci(rows):
        for row in rows:  # the test name "box(c1,c2; k)" holds a comma
            c1, c2, k = (int(t) for t in re.findall(r"-?\d+", ",".join(row[:-2])))
            want = abs_ord_integral(3, 1, 0, Fraction(c1), k) if val_p(c2, 3) >= k else 0
            require(Fraction(row[-2]) == want, f"loci value on box({c1},{c2}; {k})")

    commands = [
        (["eval", "--scene", one, "--name", "absx", "--point", "(9)"], ok_eval),
        (["bfun", "--scene", one, "--dist", "xi", "--vx-min", "-2", "--vx-max", "2",
          "--ordr-min", "-2", "--ordr-max", "2"], ok_bfun),
        (["wf", "--scene", one, "--dist", "delta", "--region", "box(0; 0)", "--kx", "1",
          "--ky", "1", "--ktest", "2", "--nmin", "1", "--nmax", "3"], ok_wf),
        (["smoothlocus", "--scene", one, "--dist", "mu", "--region", "box(0; 0)",
          "--depth", "2", "--level", "1"], ok_smooth),
        (["extend", "--scene", one, "--dist", "nu"], ok_extend),
        (["regularize", "--scene", one, "--dist", "xi", "--split", "puncture"], ok_regularize),
        (["loci", "--scene", two, "--dist", "lineloci", "--depth", "1"], ok_loci),
    ]

    def item(argv, ok) -> Item:
        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            return code, buf.getvalue().splitlines()

        def check(out):
            code, lines = out
            require(code == 0, f"padlab {argv[0]} exited with {code}")
            ok([line.split(",") for line in lines[1:]])

        return Item(f"cli_{argv[0]}", run, check)

    return [item(argv, ok) for argv, ok in commands]


def build(seed: int) -> list[Item]:
    rng = random.Random(seed)
    basic = load_scene((SCENES / "basic1d.pad").read_text())
    items = [_shells(rng, p, src) for src in FAMILIES for p in (3, 5, 7)]
    items += [_ball_grid(rng), _smooth_locus(3, 1, 0), _smooth_locus(5, 2, 1), _extend(rng),
              _regularize(rng, basic), _resolution(seed)]
    return items + _cli_items()
