"""wf_scan: finite-scale wave-front scans followed by the holonomicity check.

Items: the parabola graph measure t -> (t, t^2 + c) over Z_3 scanned with
the default ScanParams on one level-2 box through the graph and on one
that misses it; the same parabola over Z_5 on a level-2 box through the
graph (600 direction cells, with k_test = 2 and n_max = 3 so that one scan
takes about a second); a point mass and a Haar measure on Z_3.  The seed
draws c, the graph base point t0 (a unit, so every seed puts the same
number of cells on the graph), the point and the Haar box.  The scans
run `Distribution.eval_mod` fast paths, `micro`, `psi_eval` and
`coset_rep`; `fourier` never runs.
"""

from __future__ import annotations

import random
from fractions import Fraction

from oracles import require, same
from padlab.dist import dirac, graph_measure, haar_on
from padlab.graphs import GraphManifold, point_manifold
from padlab.micro import (ConormalPresentation, ScanParams, closed_form_wf_cells,
                          holonomicity_check, wf_scan)
from padlab.padic import Box, ClopenSet
from padlab.ratterm import RatTerm
from padlab.schwartz import SchwartzBruhat

from . import Item, unit_times, zp


SAMPLES = 8  # eval_mod fast-path samples per scan compared with eval(modulate)


def _scan_item(name, xi, region, params, truth, wrong, rng) -> Item:
    probe = random.Random(rng.random())

    def run():
        report = wf_scan(xi, region, params)
        return report, holonomicity_check(report, truth)

    def check(out):
        report, verdict = out
        hot = report.nonvanishing()
        require(hot == closed_form_wf_cells(xi, region, params),
                f"{name}: nonvanishing cells differ from the closed-form wave front")
        require(verdict.passes and not verdict.violations, f"{name}: true conormal rejected")
        if hot:
            require(not holonomicity_check(report, [wrong]).passes,
                    f"{name}: a wrong conormal passes the holonomicity check")
        for key in probe.sample(hot, min(3, len(hot))):
            require(report.replay(xi, key), f"{name}: witness of {key} does not replay")
        _check_fast_path(name, xi, report, params, probe)

    return Item(name, run, check)


def _check_fast_path(name, xi, report, params, probe):
    """eval_mod's fast path against eval of the modulated test function."""
    p = xi.p
    keys = sorted(report.cells, key=str)
    for _ in range(SAMPLES):
        x_rep, y = probe.choice(keys)
        level = max(params.k_x, report.region.max_level())
        sub = probe.choice(Box(p, x_rep, level).subboxes(params.k_test))
        phi = SchwartzBruhat.indicator_box(sub)
        lam = Fraction(1, p ** probe.randint(params.n_min, min(params.n_max, 4)))
        w = tuple(lam * yi for yi in y)
        require(same(xi.eval_mod(phi, w), xi.eval(phi.modulate(w))),
                f"{name}: eval_mod fast path differs from eval(modulate) at {sub}, {w}")


def _parabola(rng, p: int, params: ScanParams, on_graph: bool) -> Item:
    c = rng.randrange(p**2)
    W = GraphManifold(p, zp(p), (RatTerm.var(0) ** 2 + RatTerm.const(c),))
    t0 = unit_times(rng, p, 0, 2)
    # off the graph: gamma moves level-2 cosets of t into level-2 cosets
    y0 = t0 * t0 + c + (0 if on_graph else 1)
    region = ClopenSet.single(Box(p, (t0, y0), 2))
    wrong = GraphManifold(p, zp(p), (RatTerm.const(c),))
    name = f"parabola_p{p}_{'on' if on_graph else 'off'}"
    return _scan_item(name, graph_measure(W), region, params, [ConormalPresentation(W)],
                      ConormalPresentation(wrong), rng)


def build(seed: int) -> list[Item]:
    rng = random.Random(seed)
    default = ScanParams()
    items = [
        _parabola(rng, 3, default, True),
        _parabola(rng, 3, default, False),
        _parabola(rng, 5, ScanParams(k_test=2, n_max=3), True),
    ]
    a = Fraction(rng.randrange(27))
    items.append(_scan_item("dirac_p3", dirac(3, (a,)), zp(3), default,
                            [ConormalPresentation(point_manifold(3, (a,)))],
                            ConormalPresentation(point_manifold(3, (a + 1,))), rng))
    box = ClopenSet.single(Box(3, (Fraction(rng.randrange(3)),), 1))
    items.append(_scan_item("haar_p3", haar_on(box), zp(3), default,
                            [ConormalPresentation(point_manifold(3, (a,)))],
                            ConormalPresentation(point_manifold(3, (a + 1,))), rng))
    return items
