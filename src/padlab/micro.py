"""Finite-scale wave-front scanning and holonomicity certification.

The scanner tests the micro-local smoothness condition on a grid: for
each spatial coset and each direction coset on the unit sphere, it pairs
the distribution against modulated coset indicators at frequencies
p^N_min..p^N_max.  A cell is vanishing-at-scale when the top tested
frequency band is exactly zero for every basis test function (with the
threshold band recorded); verdicts are scale-stamped, never asymptotic
claims.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .cyclotomic import ExactComplex
from .dist import Distribution
from .graphs import GraphManifold
from .padic import Box, ClopenSet, Rat, _as_fraction, valuation
from .schwartz import SchwartzBruhat

# how many levels finer than a grid cell the coverage search looks for
# base points and covectors on a conormal bundle
COVER_REFINE = 2


@dataclass(frozen=True)
class ScanParams:
    k_x: int = 2       # localization level of the spatial cosets
    k_y: int = 2       # level of the direction cosets on the unit sphere
    k_test: int = 3    # level of the basis test functions
    n_min: int = 1     # |lambda| ranges over p^n_min .. p^n_max
    n_max: int = 5

    def __post_init__(self):
        if self.k_test < self.k_x:
            raise ValueError("test functions must refine the spatial cosets")
        if not 1 <= self.n_min <= self.n_max:
            raise ValueError("need 1 <= n_min <= n_max")


@dataclass
class CellResult:
    vanishing: bool
    threshold: int | None            # least N0 with all bands N >= N0 zero
    witness: tuple | None = None     # (phi_rep, lam, y, value) replayable

    @property
    def verdict(self) -> str:
        return "VanishingAtScale" if self.vanishing else "Nonvanishing"


@dataclass
class ScanReport:
    params: ScanParams
    region: ClopenSet
    cells: dict  # (x_rep, y_rep) -> CellResult

    def nonvanishing(self) -> list:
        return sorted(k for k, v in self.cells.items() if not v.vanishing)

    def replay(self, xi: Distribution, key) -> bool:
        """Re-evaluate a nonvanishing witness; must reproduce the same value."""
        res = self.cells[key]
        if res.witness is None:
            return True
        phi_rep, lam, y, value = res.witness
        phi = SchwartzBruhat.indicator_box(Box(xi.p, phi_rep, self.params.k_test))
        w = tuple(lam * yi for yi in y)
        return xi.eval_mod(phi, w) == value


def sphere_direction_boxes(p: int, n: int, k_y: int) -> list[Box]:
    """Level-k_y cosets of Z_p^n meeting the unit sphere min_i v(y_i) = 0."""
    whole = Box(p, tuple(Fraction(0) for _ in range(n)), 0)
    out = []
    for b in whole.subboxes(k_y):
        if min(valuation(c, p) for c in b.center) == 0:
            out.append(b)
    return out


def wf_scan(xi: Distribution, region: ClopenSet, params: ScanParams = ScanParams()) -> ScanReport:
    """Exact micro-local vanishing test over the (x-coset, direction) grid.

    Computes F(phi xi)(lambda y) = xi(phi psi(<lambda y, .>)) for the basis
    indicators phi at level k_test inside each spatial cell, lambda = p^-N,
    and y the direction representative.  Unit multiples of lambda permute
    the direction grid, so one lambda per band suffices.  Each phi is paired
    with every (direction, band) frequency in one eval_mods call, whose
    values are read as they come: a direction keeps only its last nonzero
    (band, test function), in band order and then test-function order.
    """
    p, n = xi.p, xi.n
    if region.dim != n or region.p != p:
        raise ValueError("scan region mismatch")
    level = max(params.k_x, region.max_level())
    if params.k_test < level:
        raise ValueError("region is finer than the test-function level")
    x_cells = region.cosets(level)
    dirs = sphere_direction_boxes(p, n, params.k_y)
    lams = [Fraction(1, p**N) for N in range(params.n_min, params.n_max + 1)]
    ws = [tuple(lam * yi for yi in d.center) for d in dirs for lam in lams]
    cells = {}
    for c in x_cells:
        last: list = [None] * len(dirs)  # per direction: (N, witness)
        for b in c.subboxes(params.k_test):
            vals = xi.eval_mods(SchwartzBruhat.indicator_box(b), ws)
            for i, val in enumerate(vals):
                if val.is_zero():
                    continue
                j, band = divmod(i, len(lams))
                N = params.n_min + band
                if last[j] is None or N >= last[j][0]:
                    last[j] = N, (b.center, lams[band], dirs[j].center, val)
        for d, hit in zip(dirs, last):
            if hit is None:
                cells[(c.center, d.center)] = CellResult(True, params.n_min)
            elif hit[0] < params.n_max:
                cells[(c.center, d.center)] = CellResult(True, hit[0] + 1, hit[1])
            else:
                cells[(c.center, d.center)] = CellResult(False, None, hit[1])
    return ScanReport(params, region, cells)


# -- smooth locus ------------------------------------------------------------


@dataclass
class SmoothVerdict:
    smooth: bool
    gamma: ExactComplex | None = None   # the constant density when smooth
    violation: tuple | None = None      # (sub_rep, level, expected, got)

    @property
    def verdict(self) -> str:
        return "LocallyConstantDensity" if self.smooth else "NotSmoothAtScale"


def smooth_locus_scan(xi: Distribution, region: ClopenSet, depth: int,
                      scan_level: int | None = None) -> dict:
    """Per-coset verdicts: a coset is flagged smooth when xi assigns every
    sub-coset down to `depth` levels exactly gamma times its volume."""
    level = max(region.max_level(), scan_level if scan_level is not None else 0)
    out = {}
    for c in region.cosets(level):
        vol = c.volume()
        gamma = xi.eval(SchwartzBruhat.indicator_box(c)) / vol
        verdict = SmoothVerdict(True, gamma)
        for extra in range(1, depth + 1):
            for sub in c.subboxes(c.level + extra):
                got = xi.eval(SchwartzBruhat.indicator_box(sub))
                expected = gamma * sub.volume()
                if not (got == expected):
                    verdict = SmoothVerdict(False, None, (sub.center, sub.level, expected, got))
                    break
            if not verdict.smooth:
                break
        out[c.center] = verdict
    return out


# -- conormal geometry --------------------------------------------------------


@dataclass(frozen=True)
class ConormalPresentation:
    """Conormal bundle of a graph manifold, with the exact covector test:
    (eta, theta) is conormal at (t, g(t)) iff eta + (Dg(t))^T theta = 0."""

    W: GraphManifold

    def contains(self, x: Sequence[Rat], ycov: Sequence[Rat]) -> bool:
        W = self.W
        x = tuple(_as_fraction(c) for c in x)
        if not W.contains_point(x):
            raise ValueError("base point is not on the manifold")
        t = x[: W.d]
        eta, theta = ycov[: W.d], ycov[W.d:]
        jac = W.jacobian(t)  # rows: components of gamma
        for i in range(W.d):
            total = _as_fraction(eta[i])
            for j in range(len(W.maps)):
                total += jac[j][i] * _as_fraction(theta[j])
            if total != 0:
                return False
        return True


def _ball_intersection_1d(balls: list[tuple[Fraction, int]], p: int):
    """Intersect 1-D balls (center, level); None when empty, else the finest."""
    cur = balls[0]
    for nxt in balls[1:]:
        (c1, l1), (c2, l2) = cur, nxt
        if l2 > l1:
            c1, l1, c2, l2 = c2, l2, c1, l1
        if valuation(c1 - c2, p) < l2:
            return None
        cur = (c1, l1)
    return cur


def _cell_covered(cp: ConormalPresentation, x_box: Box, y_box: Box) -> bool:
    """Does the cell contain a representative pair on the conormal bundle?

    Searches base points of W inside the spatial box at a refined level;
    for each, intersects the covector cell with the conormal fiber (exact
    linear algebra when the fiber is a line, representative enumeration
    otherwise).
    """
    W = cp.W
    p = W.p
    k_y = y_box.level
    codim = len(W.maps)
    for t in W.base_reps_in_box(x_box, x_box.level + COVER_REFINE):
        if W.d == 0:
            return True  # point manifold: every covector is conormal
        jac = W.jacobian(t)
        if codim == 1:
            # exact: theta in the theta-cell, and for each base direction i
            # the congruence jac[0][i] * theta = -eta_i mod p^k_y; each is a
            # ball condition on theta, and balls intersect decidably
            balls = [(y_box.center[W.d], k_y)]
            ok = True
            for i in range(W.d):
                a = jac[0][i]
                if a == 0:
                    if y_box.center[i] != 0:  # eta_i-cell must contain 0
                        ok = False
                        break
                    continue
                balls.append((-y_box.center[i] / a, k_y - valuation(a, p)))
            if ok and _ball_intersection_1d(balls, p) is not None:
                return True
        else:
            # representative search at scale in the covector fiber
            theta_box = Box(p, y_box.center[W.d:], k_y)
            for sub in theta_box.subboxes(k_y + COVER_REFINE):
                theta = sub.center
                eta = tuple(-sum(jac[j][i] * theta[j] for j in range(codim))
                            for i in range(W.d))
                if all(valuation(e - y_box.center[i], p) >= k_y
                       for i, e in enumerate(eta) if e != y_box.center[i]):
                    return True
    return False


@dataclass
class HolonomicityVerdict:
    passes: bool
    violations: list    # (x_rep, y_rep) grid cells not covered at scale
    covered: list


def holonomicity_check(report: ScanReport,
                       candidates: Sequence[ConormalPresentation]) -> HolonomicityVerdict:
    """Pass iff every nonvanishing grid cell contains a representative pair on
    some candidate conormal bundle (containment certified at scale)."""
    p = None
    covered, violations = [], []
    for (x_rep, y_rep) in report.nonvanishing():
        if p is None:
            p = report.region.p
        x_box = Box(p, x_rep, max(report.params.k_x, report.region.max_level()))
        y_box = Box(p, y_rep, report.params.k_y)
        if any(_cell_covered(cp, x_box, y_box) for cp in candidates):
            covered.append((x_rep, y_rep))
        else:
            violations.append((x_rep, y_rep))
    return HolonomicityVerdict(not violations, violations, covered)


def closed_form_wf_cells(xi: Distribution, region: ClopenSet,
                         params: ScanParams) -> list:
    """Grid cells meeting the catalog's closed-form wave front set: the
    union of the conormal bundles of the manifolds in xi.wf."""
    if xi.wf is None:
        raise ValueError("distribution carries no closed-form wave front metadata")
    level = max(params.k_x, region.max_level())
    dirs = sphere_direction_boxes(xi.p, xi.n, params.k_y)
    return sorted((c.center, d.center) for c in region.cosets(level) for d in dirs
                  if any(_cell_covered(ConormalPresentation(W), c, d) for W in xi.wf))
