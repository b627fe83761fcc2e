import itertools
import random
from fractions import Fraction

import pytest

from padlab.cexp import parse
from padlab.cyclotomic import ExactComplex
from padlab.dist import density_distribution, dirac, graph_pullback, haar_on
from padlab.extend import (
    GraphSection,
    MinCoordMap,
    Split,
    boundary_restriction,
    extend_min_coord,
    min_coord_lift,
    regularize,
)
from padlab.graphs import GraphManifold, point_manifold
from padlab.padic import Box, ClopenSet, valuation
from padlab.ratterm import RatTerm
from padlab.schwartz import SchwartzBruhat

pytest_plugins: list = []


def zp(p, n=1):
    return ClopenSet.single(Box(p, tuple(Fraction(0) for _ in range(n)), 0))


def random_sb(rng, p, n, m, k, entries=5):
    box = Box(p, tuple(Fraction(0) for _ in range(n)), -m)
    reps = box.subboxes(k)
    table = {}
    for b in rng.sample(reps, min(entries, len(reps))):
        table[b.center] = ExactComplex.gaussian(rng.randint(-3, 3), rng.randint(-2, 2), p)
    return SchwartzBruhat(p, n, m, k, table)


# -- graph section -----------------------------------------------------------


def test_graph_section_full_box():
    p = 3
    line = GraphManifold(p, zp(p), (RatTerm.const(0),))
    nu = GraphSection(line, zp(p, 2))
    f = SchwartzBruhat.indicator(zp(p))  # 1 on the base
    lifted = nu.apply(f)
    assert lifted == SchwartzBruhat.indicator(zp(p, 2))
    # zero lifts to zero
    assert nu.apply(SchwartzBruhat.zero(p, 1)).is_zero()


def test_graph_section_restriction_identity():
    p = 3
    rng = random.Random(4)
    for maps in ((RatTerm.const(0),), (RatTerm.var(0) ** 2,)):
        W = GraphManifold(p, zp(p), maps)
        nu = GraphSection(W, zp(p, 2))
        for _ in range(8):
            f = random_sb(rng, p, 1, 0, rng.randint(0, 3))
            lifted = nu.apply(f)
            # (nu f)|_Z = f: check on fine base representatives
            for cell in zp(p).cosets(f.k + 1):
                t = cell.center
                assert lifted.evaluate(W.point(t)) == f.evaluate(t)


def test_graph_section_linear():
    p = 2
    W = GraphManifold(p, zp(p), (RatTerm.var(0),))
    nu = GraphSection(W, zp(p, 2))
    rng = random.Random(6)
    f = random_sb(rng, p, 1, 0, 2)
    g = random_sb(rng, p, 1, 0, 1)
    c = ExactComplex.gaussian(1, 1, p)
    assert nu.apply(f.scale(c) + g) == nu.apply(f).scale(c) + nu.apply(g)


def test_graph_section_avoids_later_strata():
    p = 3
    # section over the line x2 = 0 must avoid the parallel line x2 = 1
    line0 = GraphManifold(p, zp(p), (RatTerm.const(0),))
    line1 = GraphManifold(p, zp(p), (RatTerm.const(1),))
    nu = GraphSection(line0, zp(p, 2), avoid=[line1])
    f = SchwartzBruhat.indicator(zp(p))
    lifted = nu.apply(f)
    # the tube misses the avoided line
    for rep in lifted.table:
        box = Box(p, rep, lifted.k)
        assert not line1.intersects_box(box)
    # but still restricts to f on the graph
    for cell in zp(p).cosets(2):
        assert lifted.evaluate(line0.point(cell.center)) == f.evaluate(cell.center)


# -- test splitting and regularization ----------------------------------------


def scene_point(p):
    X = zp(p)
    return X, [point_manifold(p, (Fraction(0),))]


def scene_parabola(p):
    X = zp(p, 2)
    return X, [GraphManifold(p, zp(p), (RatTerm.var(0) ** 2,))]


def scene_two_lines(p):
    X = zp(p, 2)
    return X, [GraphManifold(p, zp(p), (RatTerm.const(0),)),
               GraphManifold(p, zp(p), (RatTerm.const(1),))]


def test_split_point_example():
    p = 3
    X, strata = scene_point(p)
    split = Split(X, strata)
    # phi~ = (phi - phi(0) 1_{B_0})|_U with B_0 = Z_p, so 1_{Z_p} splits to 0
    one = SchwartzBruhat.indicator(X)
    assert split.apply(one).is_zero()
    # functions vanishing near 0 are fixed
    f = SchwartzBruhat.indicator_box(Box(p, (Fraction(1),), 1))
    assert split.apply(f) == f


def test_split_identity_on_u():
    rng = random.Random(11)
    for p, scene in ((3, scene_parabola), (2, scene_two_lines)):
        X, strata = scene(p)
        split = Split(X, strata)
        count = 0
        while count < 12:
            phi = random_sb(rng, p, 2, 0, rng.randint(1, 2), entries=3)
            if not split.supported_in_u(phi):
                continue
            count += 1
            assert split.apply(phi) == phi


def test_split_clears_strata():
    rng = random.Random(12)
    for p, scene in ((3, scene_parabola), (3, scene_two_lines), (5, scene_point)):
        X, strata = scene(p)
        n = X.dim
        split = Split(X, strata)
        for _ in range(6):
            phi = random_sb(rng, p, n, 0, rng.randint(0, 2), entries=4)
            out = split.apply(phi)
            assert split.supported_in_u(out)
            # linearity of the splitting
            psi2 = random_sb(rng, p, n, 0, 1, entries=2)
            c = ExactComplex.gaussian(0, 1, p)
            assert split.apply(phi.scale(c) + psi2) == out.scale(c) + split.apply(psi2)


def test_regularize_haar_punctured_line():
    p = 3
    X, strata = scene_point(p)
    split = Split(X, strata)
    xi = haar_on(X)  # Haar on U extends by the same integrals off the point
    kappa = regularize(xi, split)
    # kappa(xi)(1_{Z_p}) = xi(phi~) = xi(0) = 0
    assert kappa.eval(SchwartzBruhat.indicator(X)).is_zero()
    # section property: phi supported off 0 evaluates as before
    f = SchwartzBruhat.indicator_box(Box(p, (Fraction(2),), 2))
    assert kappa.eval(f) == xi.eval(f)


def test_regularize_density_on_punctured_line():
    p = 3
    X, strata = scene_point(p)
    split = Split(X, strata)
    mu = density_distribution(parse("psi(1/x1)", p), X)
    kappa = regularize(mu, split)
    f = SchwartzBruhat.indicator_box(Box(p, (Fraction(1),), 1))
    assert kappa.eval(f) == mu.eval(f)
    # the regularized value at 1_{Z_p} replays the construction
    one = SchwartzBruhat.indicator(X)
    assert kappa.eval(one) == mu.eval(split.apply(one))


def test_regularize_linearity():
    p = 2
    X, strata = scene_two_lines(p)
    split = Split(X, strata)
    xi = haar_on(X)
    kappa = regularize(xi, split)
    rng = random.Random(3)
    f = random_sb(rng, p, 2, 0, 2)
    g = random_sb(rng, p, 2, 1, 1)
    c = ExactComplex.gaussian(2, -1, p)
    assert kappa.eval(f.scale(c) + g) == c * kappa.eval(f) + kappa.eval(g)


# -- minimal-coordinate machinery ----------------------------------------------


def test_min_coord_map():
    p = 5
    proj = MinCoordMap(p, 2)
    assert proj.apply((Fraction(5), Fraction(1))) == (Fraction(0), Fraction(1))
    assert proj.apply((Fraction(1), Fraction(5))) == (Fraction(1), Fraction(0))
    # tie: zero the first of the minimal coordinates
    assert proj.apply((Fraction(5), Fraction(10))) == (Fraction(0), Fraction(10))
    # idempotent on the hyperplane union
    x = proj.apply((Fraction(25), Fraction(5)))
    assert proj.apply(x) == x


def test_min_coord_lift_examples():
    p = 3
    # phi0 = 1 on the hyperplane union lifts to 1 on the whole polydisc
    one2 = SchwartzBruhat.indicator(zp(p, 2)).refine(k_new=1)
    phi0 = boundary_restriction(one2)
    lifted = min_coord_lift(phi0)
    assert lifted == SchwartzBruhat.indicator(zp(p, 2))

    # m = 1: the hyperplane union is the origin, and the lift is constant
    one1 = SchwartzBruhat.indicator(zp(p)).refine(k_new=2)
    phi0 = boundary_restriction(one1)
    assert min_coord_lift(phi0) == SchwartzBruhat.indicator(zp(p))


def test_min_coord_lift_level_preserved():
    p = 3
    rng = random.Random(17)
    for _ in range(10):
        k = rng.randint(1, 2)
        full = random_sb(rng, p, 2, 0, k, entries=6)
        phi0 = boundary_restriction(full)
        lifted = min_coord_lift(phi0)
        assert lifted.k == max(k, 0)
        # pointwise agreement at one level finer: the lift really is level-k
        proj = MinCoordMap(p, 2)
        box = Box(p, (Fraction(0), Fraction(0)), 0)
        for cell in box.subboxes(k + 1):
            x = cell.center
            assert lifted.evaluate(x) == phi0.evaluate(proj.apply(x))


def test_extend_min_coord_haar():
    p = 3
    for m in (1, 2):
        X = zp(p, m)
        mu = density_distribution(parse("abs(x1)^0", p) if False else _const_density(p, m), X)
        xi = extend_min_coord(mu)
        one = SchwartzBruhat.indicator(X)
        # xi(1) = mu((1 - 1)|_U) = 0
        assert xi.eval(one).is_zero()
        off = SchwartzBruhat.indicator_box(
            Box(p, tuple(Fraction(1) for _ in range(m)), 1))
        assert xi.eval(off) == mu.eval(off)


def _const_density(p, m):
    from padlab.cexp import CexpExpr

    return CexpExpr.constant(1, p)


def test_extend_min_coord_psi_density():
    p = 3
    X = zp(p)
    mu = density_distribution(parse("psi(1/x1)", p), X)
    xi = extend_min_coord(mu)
    # for m = 1 the corrected function is phi - phi(0) 1_{Z_p}: on the ball
    # indicator it equals -1_{Z_p minus ball}, whose shells are exact unit
    # sums: only the unit shell (value -1/p) survives
    for k in (1, 2, 3):
        ball = SchwartzBruhat.indicator_box(Box(p, (Fraction(0),), k))
        got = xi.eval(ball)
        corrected = ball - min_coord_lift(boundary_restriction(ball))
        assert corrected == SchwartzBruhat.indicator(
            zp(p).difference(ClopenSet.single(Box(p, (Fraction(0),), k)))).scale(-1)
        assert got.rational_value() == Fraction(1, p)
    f = SchwartzBruhat.indicator_box(Box(p, (Fraction(2),), 1))
    assert xi.eval(f) == mu.eval(f)
    # linearity
    rng = random.Random(23)
    a = random_sb(rng, p, 1, 0, 2)
    b = random_sb(rng, p, 1, 0, 1)
    c = ExactComplex.gaussian(1, 1, p)
    assert xi.eval(a.scale(c) + b) == c * xi.eval(a) + xi.eval(b)


def test_extend_min_coord_negative_exponent_density():
    p = 3
    # |x|^(-1) is non-integrable on balls at 0, but the corrected test
    # functions vanish there, so the extension is exactly evaluable
    mu = density_distribution(parse("abs(x1)^(-1)", p), zp(p))
    xi = extend_min_coord(mu)
    one = SchwartzBruhat.indicator(zp(p))
    assert xi.eval(one).is_zero()
    shell = SchwartzBruhat.indicator_box(Box(p, (Fraction(1),), 1))
    assert xi.eval(shell) == mu.eval(shell)
