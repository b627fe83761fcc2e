"""Command line front end: scene-driven exact computations with
deterministic reports.

Exit codes: 0 success, 1 usage, 2 scene parse, 3 evaluation/domain error,
4 certification or self-check failure.  Numbers in reports carry both the
exact string and a float rendering; floats never feed back into any
computation.
"""

from __future__ import annotations

import argparse
import random
import sys
from fractions import Fraction

from .cexp import CexpSyntaxError, NotInAlgebra, parse_ratterm
from .charts import PowerChart, certify_resolution, nth_power_test, unit_swallow_chart
from .cyclotomic import ExactComplex
from .dist import NonIntegrable, UnsupportedShape, b_function, haar_on, pushforward_chart
from .extend import extend_min_coord, regularize
from .micro import ScanParams, smooth_locus_scan, wf_scan
from .padic import Box, ClopenSet, refine_partition, rep_key, urysohn_clopen, valuation
from .ratterm import NotInDomain
from .scene import SceneError, load_scene, parse_chart, parse_clopen, parse_point
from .schwartz import SchwartzBruhat

USAGE_ERROR, SCENE_ERROR, EVAL_ERROR, CHECK_ERROR = 1, 2, 3, 4


class _Cli(argparse.ArgumentParser):
    def error(self, message):
        raise CliUsage(message)


class CliUsage(Exception):
    pass


def _fmt_float(z: complex, digits: int) -> str:
    return f"{z.real:.{digits}g}{z.imag:+.{digits}g}i"


def _emit(lines, out_path):
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load(path: str):
    with open(path, encoding="utf-8") as fh:
        return load_scene(fh.read())


def _sb_csv(f: SchwartzBruhat, digits: int) -> list[str]:
    lines = [f"# p={f.p} n={f.n} support_level={f.m} constancy_level={f.k}",
             "rep,value_exact,value_float"]
    for rep in sorted(f.table, key=rep_key):
        val = f.table[rep]
        coords = ";".join(str(c) for c in rep)
        lines.append(f"({coords}),{val.to_string()},{_fmt_float(val.to_complex(), digits)}")
    return lines


def cmd_ft(args) -> int:
    scene = _load(args.scene)
    f = scene.lookup("schwartz", args.name)
    _emit(_sb_csv(f.fourier(), args.float_digits), args.out)
    return 0


def cmd_eval(args) -> int:
    scene = _load(args.scene)
    point = parse_point(args.point)
    if args.name in scene.cexprs:
        val = scene.cexprs[args.name].eval(point)
    elif args.name in scene.schwartz:
        val = scene.schwartz[args.name].evaluate(point)
    else:
        raise SceneError(f"nothing named {args.name!r} to evaluate")
    _emit([f"value_exact,value_float",
           f"{val.to_string()},{_fmt_float(val.to_complex(), args.float_digits)}"], args.out)
    return 0


def cmd_bfun(args) -> int:
    scene = _load(args.scene)
    xi = scene.lookup("distributions", args.dist)
    p = scene.p
    lines = ["x,ord_r,value_exact,value_float"]
    for vx in range(args.vx_min, args.vx_max + 1):
        x = Fraction(p) ** vx
        for ordr in range(args.ordr_min, args.ordr_max + 1):
            r = Fraction(p) ** ordr
            val = b_function(xi, (x,) * xi.n, r)
            lines.append(f"{x},{ordr},{val.to_string()},"
                         f"{_fmt_float(val.to_complex(), args.float_digits)}")
    _emit(lines, args.out)
    return 0


def cmd_wf(args) -> int:
    scene = _load(args.scene)
    xi = scene.lookup("distributions", args.dist)
    region = parse_clopen(args.region, scene.p, xi.n) if args.region not in scene.clopens \
        else scene.clopens[args.region]
    params = ScanParams(k_x=args.kx, k_y=args.ky, k_test=args.ktest,
                        n_min=args.nmin, n_max=args.nmax)
    report = wf_scan(xi, region, params)
    lines = [f"# kx={params.k_x} ky={params.k_y} ktest={params.k_test} "
             f"n={params.n_min}..{params.n_max}",
             "x_rep,y_rep,verdict,threshold,witness_lambda,witness_value_float"]
    for (x_rep, y_rep) in sorted(report.cells, key=lambda k: rep_key(k[0] + k[1])):
        res = report.cells[(x_rep, y_rep)]
        xs = ";".join(map(str, x_rep))
        ys = ";".join(map(str, y_rep))
        wit_l, wit_v = "", ""
        if res.witness is not None:
            wit_l = str(res.witness[1])
            wit_v = _fmt_float(res.witness[3].to_complex(), args.float_digits)
        thr = "" if res.threshold is None else str(res.threshold)
        lines.append(f"({xs}),({ys}),{res.verdict},{thr},{wit_l},{wit_v}")
    _emit(lines, args.out)
    return 0


def cmd_smoothlocus(args) -> int:
    scene = _load(args.scene)
    xi = scene.lookup("distributions", args.dist)
    region = parse_clopen(args.region, scene.p, xi.n) if args.region not in scene.clopens \
        else scene.clopens[args.region]
    flags = smooth_locus_scan(xi, region, args.depth, scan_level=args.level)
    lines = ["rep,verdict,gamma_exact"]
    for rep in sorted(flags, key=rep_key):
        v = flags[rep]
        gamma = v.gamma.to_string() if v.gamma is not None else ""
        coords = ";".join(map(str, rep))
        lines.append(f"({coords}),{v.verdict},{gamma}")
    _emit(lines, args.out)
    return 0


def _battery(p: int, n: int, depth: int = 2) -> list[tuple[str, SchwartzBruhat]]:
    """Deterministic ball-indicator battery inside Z_p^n."""
    out = []
    whole = Box(p, tuple(Fraction(0) for _ in range(n)), 0)
    for k in range(depth + 1):
        for b in whole.subboxes(k):
            out.append((str(b), SchwartzBruhat.indicator_box(b)))
    return out


def cmd_extend(args) -> int:
    scene = _load(args.scene)
    mu = scene.lookup("distributions", args.dist)
    xi = extend_min_coord(mu)
    lines = ["test,extended_exact,base_exact,agrees_off_hyperplanes"]
    for name, phi in _battery(scene.p, mu.n, args.depth):
        ext = xi.eval(phi)
        off = all(all(c != 0 for c in rep) for rep in phi.table)
        base = mu.eval(phi) if off else None
        base_s = base.to_string() if base is not None else "n/a"
        agree = "yes" if base is not None and base == ext else ("n/a" if base is None else "NO")
        lines.append(f"{name},{ext.to_string()},{base_s},{agree}")
    _emit(lines, args.out)
    return 0


def cmd_regularize(args) -> int:
    scene = _load(args.scene)
    xi = scene.lookup("distributions", args.dist)
    split = scene.lookup("splits", args.split)
    kappa = regularize(xi, split)
    lines = ["test,regularized_exact,base_exact,section_property"]
    for name, phi in _battery(scene.p, xi.n, args.depth):
        val = kappa.eval(phi)
        if split.supported_in_u(phi):
            base = xi.eval(phi)
            flag = "ok" if base == val else "VIOLATION"
            lines.append(f"{name},{val.to_string()},{base.to_string()},{flag}")
        else:
            lines.append(f"{name},{val.to_string()},n/a,n/a")
    _emit(lines, args.out)
    return 0


def _unit_class_reps(N: int, p: int) -> list[Fraction]:
    """Representatives of Z_p^* modulo N-th powers, by greedy scan."""
    reps: list[Fraction] = []
    bound = p ** (2 * valuation(N, p) + 1) * 4
    for u in range(1, bound):
        if u % p == 0:
            continue
        q = Fraction(u)
        if all(not nth_power_test(q / r, N, p) for r in reps):
            reps.append(q)
    return reps


def build_power_charts(N: int, p: int, n: int = 1, prec: int = 20) -> list[PowerChart]:
    """Power charts whose images partition the nonzero power classes."""
    units = _unit_class_reps(N, p)
    lams = [u * Fraction(p) ** b for u in units for b in range(N)]
    charts = []
    for lam in sorted(lams):
        charts.append(PowerChart(p, (lam,) * n, N, prec))
    return charts


def cmd_resolve(args) -> int:
    p = args.p
    comps = [parse_ratterm(s.strip(), p) for s in args.f.split(",")]
    nvars = max(c.arity() for c in comps)
    charts = None
    first = comps[0].as_poly(nvars)
    if first is not None:
        from .charts import factor_unit_monomial

        nf = factor_unit_monomial(first, p)
        if nf is not None and not nf.is_monomial() and nf.exps[0] >= 1 \
                and nf.exps[0] % p != 0:
            chart, _ = unit_swallow_chart(nf.unit, nf.exps, p, d=nf.coef, prec=args.prec)
            charts = [chart]
        elif nf is not None and nf.is_monomial() and nvars == 1 and args.N:
            charts = build_power_charts(args.N, p, nvars, args.prec)
    if charts is None and args.N:
        charts = build_power_charts(args.N, p, nvars, args.prec)
    if charts is None:
        print("resolve: no chart pipeline applies; pass --N for power charts",
              file=sys.stderr)
        return CHECK_ERROR
    cert = certify_resolution(charts, comps, p, sampling_level=args.level,
                              prec=args.prec, samples=args.samples, seed=args.seed)
    lines = [cert.summary()]
    _emit(lines, args.out)
    return 0 if cert.passed() else CHECK_ERROR


def cmd_pushforward(args) -> int:
    scene = _load(args.scene)
    xi = scene.lookup("distributions", args.dist)
    chart = parse_chart(args.chart, scene.p)
    push = pushforward_chart(xi, chart)
    lines = ["test,value_exact,value_float"]
    for name, phi in _battery(scene.p, xi.n, args.depth):
        val = push.eval(phi)
        lines.append(f"{name},{val.to_string()},{_fmt_float(val.to_complex(), args.float_digits)}")
    _emit(lines, args.out)
    return 0


def cmd_loci(args) -> int:
    scene = _load(args.scene)
    xi = scene.lookup("distributions", args.dist)
    lines = ["test,value_exact,value_float"]
    for name, phi in _battery(scene.p, xi.n, args.depth):
        val = xi.eval(phi)
        lines.append(f"{name},{val.to_string()},{_fmt_float(val.to_complex(), args.float_digits)}")
    _emit(lines, args.out)
    return 0


# -- self checks ----------------------------------------------------------------


def _random_sb(rng, p, n, m, k, entries=4):
    box = Box(p, tuple(Fraction(0) for _ in range(n)), -m)
    reps = box.subboxes(k)
    table = {}
    for b in rng.sample(reps, min(entries, len(reps))):
        table[b.center] = ExactComplex.gaussian(rng.randint(-3, 3), rng.randint(-2, 2), p)
    return SchwartzBruhat(p, n, m, k, table)


def _random_clopen(rng, p, dim, max_level=3, pieces=3):
    boxes = []
    for _ in range(rng.randint(0, pieces)):
        center = tuple(Fraction(rng.randint(0, p**max_level)) for _ in range(dim))
        boxes.append(Box(p, center, rng.randint(0, max_level)))
    return ClopenSet.from_boxes(p, dim, boxes)


def check_plancherel(p: int, trials: int, seed: int):
    rng = random.Random(seed)
    for t in range(trials):
        f = _random_sb(rng, p, 1, rng.randint(0, 1), rng.randint(0, 2))
        g = _random_sb(rng, p, 1, rng.randint(0, 1), rng.randint(0, 2))
        lhs = f.fourier().plancherel_pairing(g.fourier())
        rhs = f.plancherel_pairing(g) * Fraction(1, p)
        if not (lhs == rhs):
            return f"trial {t}: <Ff,Fg> != p^-1 <f,g>"
    return None


def check_fourier_inversion(p: int, trials: int, seed: int):
    rng = random.Random(seed)
    for t in range(trials):
        f = _random_sb(rng, p, 1, rng.randint(0, 1), rng.randint(0, 2))
        if not (f.fourier().fourier() == f.reflect().scale(Fraction(1, p))):
            return f"trial {t}: double transform is not p^-1 reflection"
    return None


def check_urysohn(p: int, trials: int, seed: int):
    rng = random.Random(seed)
    X = ClopenSet.single(Box(p, (Fraction(0),), 0))
    done = 0
    t = 0
    while done < trials and t < trials * 10:
        t += 1
        U = _random_clopen(rng, p, 1).intersect(X)
        if U.is_empty():
            continue
        z_boxes = [b for b in U.cosets(U.max_level() + 1) if rng.random() < 0.4]
        Z = ClopenSet.from_boxes(p, 1, z_boxes)
        if Z.is_empty():
            continue
        done += 1
        C = urysohn_clopen(Z, U, X)
        if not C.contains_set(Z) or not U.contains_set(C):
            return f"instance {t}: Z subset C subset U violated"
    return None


def check_partition(p: int, trials: int, seed: int):
    rng = random.Random(seed)
    X = ClopenSet.single(Box(p, (Fraction(0),), 0))
    for t in range(trials):
        cover = [_random_clopen(rng, p, 1, max_level=2).intersect(X) for _ in range(3)]
        covered = cover[0]
        for u in cover[1:]:
            covered = covered.union(u)
        missing = X.difference(covered)
        if not missing.is_empty():
            cover.append(missing.union(cover[0]))
        parts = refine_partition(cover, X)
        whole = ClopenSet.empty(p, 1)
        for part, u in zip(parts, cover):
            if not u.contains_set(part):
                return f"trial {t}: part escapes its cover element"
            if not whole.intersect(part).is_empty():
                return f"trial {t}: parts overlap"
            whole = whole.union(part)
        if not (whole == X):
            return f"trial {t}: parts do not cover X"
    return None


def check_bfun_haar(p: int, trials: int, seed: int):
    xi = haar_on(ClopenSet.single(Box(p, (Fraction(0),), 0)))
    for vx in range(-4, 5):
        x = Fraction(p) ** vx
        for ordr in range(-4, 5):
            got = b_function(xi, (x,), Fraction(p) ** ordr)
            if vx >= 0:
                expect = Fraction(1, p ** max(ordr, 0))
            elif ordr <= vx:
                expect = Fraction(1)
            else:
                expect = Fraction(0)
            ok = got.is_zero() if expect == 0 else (not got.is_zero()
                                                    and got.rational_value() == expect)
            if not ok:
                return f"(v(x), ord r) = ({vx}, {ordr}): expected {expect}"
    return None


CHECKS = {
    "plancherel": check_plancherel,
    "fourier-inversion": check_fourier_inversion,
    "urysohn": check_urysohn,
    "partition": check_partition,
    "bfun-haar": check_bfun_haar,
}


def cmd_check(args) -> int:
    fail = CHECKS[args.which](args.p, args.trials, args.seed)
    if fail is None:
        print(f"check {args.which}: PASS (p={args.p}, trials={args.trials}, seed={args.seed})")
        return 0
    print(f"check {args.which}: FAIL: {fail}")
    return CHECK_ERROR


def build_parser() -> argparse.ArgumentParser:
    ap = _Cli(prog="padlab", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--scene", required=True)
        sp.add_argument("--out", default=None)
        sp.add_argument("--float-digits", type=int, default=12, dest="float_digits")

    sp = sub.add_parser("ft", help="exact Fourier transform of a named function")
    common(sp)
    sp.add_argument("--name", required=True)
    sp.set_defaults(fn=cmd_ft)

    sp = sub.add_parser("eval", help="evaluate a named expression or function at a point")
    common(sp)
    sp.add_argument("--name", required=True)
    sp.add_argument("--point", required=True)
    sp.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("bfun", help="ball-transform sweep of a distribution")
    common(sp)
    sp.add_argument("--dist", required=True)
    sp.add_argument("--vx-min", type=int, default=-4, dest="vx_min")
    sp.add_argument("--vx-max", type=int, default=4, dest="vx_max")
    sp.add_argument("--ordr-min", type=int, default=-4, dest="ordr_min")
    sp.add_argument("--ordr-max", type=int, default=4, dest="ordr_max")
    sp.set_defaults(fn=cmd_bfun)

    sp = sub.add_parser("wf", help="wave-front scan over a region")
    common(sp)
    sp.add_argument("--dist", required=True)
    sp.add_argument("--region", required=True)
    sp.add_argument("--kx", type=int, default=2)
    sp.add_argument("--ky", type=int, default=2)
    sp.add_argument("--ktest", type=int, default=3)
    sp.add_argument("--nmin", type=int, default=1)
    sp.add_argument("--nmax", type=int, default=5)
    sp.set_defaults(fn=cmd_wf)

    sp = sub.add_parser("smoothlocus", help="locally-constant-density scan")
    common(sp)
    sp.add_argument("--dist", required=True)
    sp.add_argument("--region", required=True)
    sp.add_argument("--depth", type=int, default=2)
    sp.add_argument("--level", type=int, default=1)
    sp.set_defaults(fn=cmd_smoothlocus)

    sp = sub.add_parser("extend", help="minimal-coordinate extension table")
    common(sp)
    sp.add_argument("--dist", required=True)
    sp.add_argument("--depth", type=int, default=2)
    sp.set_defaults(fn=cmd_extend)

    sp = sub.add_parser("regularize", help="regularization table for a split scene")
    common(sp)
    sp.add_argument("--dist", required=True)
    sp.add_argument("--split", required=True)
    sp.add_argument("--depth", type=int, default=2)
    sp.set_defaults(fn=cmd_regularize)

    sp = sub.add_parser("resolve", help="monomialization certificate")
    sp.add_argument("--f", required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--N", type=int, default=0)
    sp.add_argument("--prec", type=int, default=20)
    sp.add_argument("--level", type=int, default=6)
    sp.add_argument("--samples", type=int, default=100)
    sp.add_argument("--seed", type=int, default=1)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_resolve)

    sp = sub.add_parser("pushforward", help="pushforward battery table")
    common(sp)
    sp.add_argument("--dist", required=True)
    sp.add_argument("--chart", required=True)
    sp.add_argument("--depth", type=int, default=2)
    sp.set_defaults(fn=cmd_pushforward)

    sp = sub.add_parser("loci", help="loci-distribution battery table")
    common(sp)
    sp.add_argument("--dist", required=True)
    sp.add_argument("--depth", type=int, default=2)
    sp.set_defaults(fn=cmd_loci)

    sp = sub.add_parser("check", help="randomized exact self-checks")
    sp.add_argument("which", choices=sorted(CHECKS))
    sp.add_argument("--p", type=int, default=3)
    sp.add_argument("--trials", type=int, default=50)
    sp.add_argument("--seed", type=int, default=7)
    sp.set_defaults(fn=cmd_check)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except CliUsage as err:
        print(f"usage error: {err}", file=sys.stderr)
        return USAGE_ERROR
    try:
        return args.fn(args)
    except OSError as err:
        print(f"file error: {err}", file=sys.stderr)
        return SCENE_ERROR
    except SceneError as err:
        print(f"scene error: {err}", file=sys.stderr)
        return SCENE_ERROR
    except (CexpSyntaxError, NotInAlgebra) as err:
        print(f"expression error: {err}", file=sys.stderr)
        return SCENE_ERROR
    except (NotInDomain, NonIntegrable, UnsupportedShape, ZeroDivisionError,
            OverflowError, ValueError) as err:
        print(f"evaluation error: {err}", file=sys.stderr)
        return EVAL_ERROR
    except ArithmeticError as err:
        print(f"certification error: {err}", file=sys.stderr)
        return CHECK_ERROR


if __name__ == "__main__":
    sys.exit(main())
