import random
from fractions import Fraction

import pytest

from padlab.cyclotomic import ExactComplex
from padlab.dist import dirac, graph_measure, haar_on
from padlab.graphs import GraphManifold, point_manifold
from padlab.micro import (
    ConormalPresentation,
    ScanParams,
    closed_form_wf_cells,
    holonomicity_check,
    smooth_locus_scan,
    sphere_direction_boxes,
    wf_scan,
)
from padlab.padic import Box, ClopenSet, valuation
from padlab.ratterm import RatTerm
from padlab.schwartz import SchwartzBruhat

SMALL = ScanParams(k_x=1, k_y=1, k_test=2, n_min=1, n_max=3)


def zp(p, n=1):
    return ClopenSet.single(Box(p, tuple(Fraction(0) for _ in range(n)), 0))


def test_sphere_directions():
    for p, n in ((3, 1), (3, 2), (2, 2)):
        dirs = sphere_direction_boxes(p, n, 2)
        assert len(dirs) == p ** (2 * n) - p ** n
        for d in dirs:
            assert min(valuation(c, p) for c in d.center) == 0


def test_wf_scan_haar_all_vanishing():
    for p, n in ((3, 1), (2, 2)):
        xi = haar_on(zp(p, n))
        report = wf_scan(xi, zp(p, n), SMALL)
        assert report.nonvanishing() == []
        # thresholds sit at the conductor of the finest test functions
        assert all(v.threshold <= SMALL.k_test for v in report.cells.values())


def test_wf_scan_dirac():
    p = 3
    xi = dirac(p, (0,))
    report = wf_scan(xi, zp(p), SMALL)
    bad = report.nonvanishing()
    # nonvanishing exactly over the spatial coset of 0, in every direction
    dirs = sphere_direction_boxes(p, 1, SMALL.k_y)
    assert len(bad) == len(dirs)
    for x_rep, y_rep in bad:
        assert x_rep == (Fraction(0),)
    # witnesses replay
    for key in bad:
        assert report.replay(xi, key)


def test_wf_scan_graph_parabola_matches_closed_form():
    p = 3
    W = GraphManifold(p, zp(p), (RatTerm.var(0) ** 2,))
    xi = graph_measure(W)
    params = ScanParams(k_x=1, k_y=1, k_test=2, n_min=1, n_max=3)
    region = zp(p, 2)
    report = wf_scan(xi, region, params)
    got = report.nonvanishing()
    expected = closed_form_wf_cells(xi, region, params)
    assert got == expected
    assert got  # the parabola's conormal really shows up
    for key in got:
        assert report.replay(xi, key)


def test_wf_scan_unit_rotation_permutes_verdicts():
    p = 3
    xi = graph_measure(GraphManifold(p, zp(p), (RatTerm.var(0) ** 2,)))
    params = SMALL
    region = ClopenSet.single(Box(p, (Fraction(1), Fraction(1)), 1))
    report = wf_scan(xi, region, params)
    u = Fraction(2)  # a unit
    for (x_rep, y_rep), res in report.cells.items():
        rotated = tuple(Box(p, (u * c for c in y_rep), params.k_y).center)
        assert report.cells[(x_rep, rotated)].vanishing == res.vanishing


def test_wf_scan_linearity_on_combinations():
    # vanishing on all basis indicators extends to linear combinations
    p = 3
    xi = haar_on(zp(p))
    params = SMALL
    rng = random.Random(41)
    region = zp(p)
    report = wf_scan(xi, region, params)
    for (x_rep, y_rep), res in list(report.cells.items())[:5]:
        assert res.vanishing
        c_box = Box(p, x_rep, params.k_x)
        for _ in range(20):
            table = {}
            for sub in c_box.subboxes(params.k_test):
                table[sub.center] = ExactComplex.gaussian(
                    rng.randint(-3, 3), rng.randint(-3, 3), p)
            phi = SchwartzBruhat(p, 1, 0, params.k_test, table)
            N = params.n_max
            w = tuple(Fraction(1, p**N) * yi for yi in y_rep)
            assert xi.eval_mod(phi, w).is_zero()


def test_smooth_locus_haar_and_dirac():
    p = 3
    region = zp(p)
    flags = smooth_locus_scan(haar_on(region), region, depth=2, scan_level=1)
    assert all(v.smooth and v.gamma == ExactComplex.one(p) for v in flags.values())

    flags = smooth_locus_scan(dirac(p, (0,)), region, depth=1, scan_level=1)
    for rep, v in flags.items():
        if rep == (Fraction(0),):
            assert not v.smooth
        else:
            assert v.smooth and v.gamma.is_zero()


def test_smooth_locus_density():
    from padlab.cexp import parse
    from padlab.dist import density_distribution

    p = 3
    region = zp(p)
    xi = density_distribution(parse("abs(x1)", p), region)
    flags = smooth_locus_scan(xi, region, depth=2, scan_level=1)
    for rep, v in flags.items():
        if rep == (Fraction(0),):
            assert not v.smooth
        else:
            expected = Fraction(1, p ** valuation(rep[0], p))
            assert v.smooth and v.gamma.rational_value() == expected


def test_conormal_contains_examples():
    p = 3
    parab = ConormalPresentation(GraphManifold(p, zp(p), (RatTerm.var(0) ** 2,)))
    t = Fraction(2)
    assert parab.contains((t, t * t), (-2 * t, 1))
    assert not parab.contains((t, t * t), (1, 0))
    assert parab.contains((0, 0), (0, 5))

    line = ConormalPresentation(GraphManifold(p, zp(p), (RatTerm.const(0),)))
    assert line.contains((t, 0), (0, 1))
    assert not line.contains((t, 0), (1, 0))

    with pytest.raises(ValueError):
        parab.contains((1, 2), (0, 1))


def test_holonomicity_dirac():
    p = 3
    xi = dirac(p, (0,))
    report = wf_scan(xi, zp(p), SMALL)
    # natural candidate: the point itself (over a base of dimension 0)
    good = ConormalPresentation(point_manifold(p, (Fraction(0),)))
    verdict = holonomicity_check(report, [good])
    assert verdict.passes
    # wrong candidate: a point elsewhere covers nothing
    bad = ConormalPresentation(point_manifold(p, (Fraction(1),)))
    verdict = holonomicity_check(report, [bad])
    assert not verdict.passes
    assert verdict.violations


def test_holonomicity_dirac_in_plane_wrong_line():
    p = 3
    xi = dirac(p, (0, 0))
    report = wf_scan(xi, ClopenSet.single(Box(p, (Fraction(0), Fraction(0)), 1)), SMALL)
    line = ConormalPresentation(GraphManifold(p, zp(p), (RatTerm.const(0),)))
    verdict = holonomicity_check(report, [line])
    # the line's conormal only holds eta = 0 covectors: directions with a
    # unit eta component over 0 are violations
    assert not verdict.passes
    good = ConormalPresentation(point_manifold(p, (Fraction(0), Fraction(0))))
    assert holonomicity_check(report, [good]).passes


def test_holonomicity_parabola():
    p = 3
    W = GraphManifold(p, zp(p), (RatTerm.var(0) ** 2,))
    xi = graph_measure(W)
    report = wf_scan(xi, zp(p, 2), SMALL)
    verdict = holonomicity_check(report, [ConormalPresentation(W)])
    assert verdict.passes
    wrong = ConormalPresentation(GraphManifold(p, zp(p), (RatTerm.const(0),)))
    assert not holonomicity_check(report, [wrong]).passes
