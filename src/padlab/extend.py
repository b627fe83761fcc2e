"""Extension and regularization operators for distributions.

Three constructions: a tubular section lifting test functions from a graph
to the ambient space through maximal-ball indicators; the induced
splitting phi -> phi~ of test functions along a stratified complement,
whose dual regularizes distributions from an open set to the whole space;
and the minimal-coordinate extension from the complement of the punctured
polydisc.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .cyclotomic import ExactComplex
from .dist import Distribution, _pull_back, graph_pullback
from .graphs import GraphManifold
from .padic import Box, ClopenSet, Rat, _as_fraction, coset_rep, valuation
from .schwartz import SchwartzBruhat


class GraphSection:
    """nu : S(Z) -> S(X) for a graph Z inside a clopen X.

    nu(f)(x) = f(proj x) * 1_{B(proj x)}(x), where B(z) is the maximal box
    of level >= 0 around the graph point over z that is contained in X and
    misses every manifold in `avoid`.
    """

    def __init__(self, Z: GraphManifold, X: ClopenSet, avoid: Sequence[GraphManifold] = ()):
        if Z.n != X.dim or Z.p != X.p:
            raise ValueError("graph/ambient mismatch")
        self.Z = Z
        self.X = X
        self.avoid = tuple(avoid)
        self.p = X.p
        # every graph point must lie in X; the graph map moves level-l cosets
        # into level-(l - lipschitz) cosets, so this probe level certifies all
        probe = X.max_level() + Z.lipschitz_extra()
        if Z.d > 0:
            for b in Z.base.boxes:
                for sub in b.subboxes(max(b.level, probe)):
                    if not X.contains_point(Z.point(sub.center)):
                        raise ValueError("graph leaves the ambient clopen set")
        elif not X.contains_point(Z.point(())):
            raise ValueError("graph leaves the ambient clopen set")

    def _ball_level(self, z: Sequence[Fraction]) -> int:
        """Smallest admissible level (largest ball) of level >= 0 around the
        graph point over z; finite because X is a finite box union."""
        p = self.p
        w = self.Z.point(z)
        cap = max(0, self.X.max_level()) + 1 + max((m.lipschitz_extra() for m in self.avoid),
                                                   default=0) + 4
        for l in range(0, cap + 1):
            ball = Box(p, w, l)
            if not self.X.contains_set(ClopenSet.single(ball)):
                continue
            if any(m.intersects_box(ball) for m in self.avoid):
                continue
            return l
        raise ValueError(f"no admissible ball of level <= {cap} around {w}")

    def apply(self, f: SchwartzBruhat) -> SchwartzBruhat:
        """Build nu(f) as an exact table on the ambient space."""
        Z, X, p = self.Z, self.X, self.p
        if f.n != Z.d:
            raise ValueError("section input lives on the graph base")
        c_gamma = Z.lipschitz_extra()
        base_level = max(f.k, X.max_level(), 0)
        # ball levels must be stable across base cosets of base_level
        while True:
            levs = {}
            if Z.d == 0:
                levs[()] = self._ball_level(())
                break
            part = Z.base
            for cell in part.cosets(max(base_level, part.max_level())):
                levs[cell.center] = self._ball_level(cell.center)
            if not levs or max(levs.values()) + c_gamma <= base_level:
                break
            base_level = max(levs.values()) + c_gamma
        out_level = max([base_level] + list(levs.values()) + [X.max_level()])
        m_out = max([0] + [-b.level for b in X.boxes])
        # nu(f) vanishes outside the tube of maximal balls over supp f, so
        # only that region needs enumeration
        tube = []
        for z, lev in levs.items():
            if not f.evaluate(z).is_zero():
                tube.append(Box(p, Z.point(z), lev))
        region = ClopenSet.from_boxes(p, X.dim, tube).intersect(X)
        if region.max_level() > out_level:
            raise AssertionError("tube region finer than the output grid")
        table = {}
        for cell in region.cosets(out_level):
            x = cell.center
            z = tuple(coset_rep(c, p, base_level) for c in x[: Z.d])
            if Z.d > 0 and not Z.base.contains_point(z):
                continue
            val = f.evaluate(z)
            if val.is_zero():
                continue
            lev = levs.get(z)
            if lev is None:
                lev = self._ball_level(z)
                levs[z] = lev
            ball = Box(p, Z.point(z), lev)
            if ball.contains_point(x):
                table[x] = val
        return SchwartzBruhat(p, X.dim, m_out, out_level, table)


@dataclass
class Split:
    """The splitting operator phi -> phi~ from S(X) to S(U).

    U is X minus the union of the strata; the strata list presents the
    complement as a chain whose i-th difference is the i-th graph, so
    strata[i] must be closed in X minus the later strata (the caller
    supplies the chain).  The operator is linear, exact, and the identity
    on functions already supported off the strata.
    """

    X: ClopenSet
    strata: tuple[GraphManifold, ...]

    def __post_init__(self):
        self.strata = tuple(self.strata)
        self.sections = []
        for i, W in enumerate(self.strata):
            self.sections.append(GraphSection(W, self.X, avoid=self.strata[i + 1:]))

    def supported_in_u(self, phi: SchwartzBruhat) -> bool:
        """Exact check that the support misses every stratum."""
        for rep in phi.table:
            box = Box(phi.p, rep, phi.k)
            if any(W.intersects_box(box) for W in self.strata):
                return False
        return True

    def apply(self, phi: SchwartzBruhat) -> SchwartzBruhat:
        cur = phi.restrict(self.X)
        for i in range(len(self.strata) - 1, -1, -1):
            W = self.strata[i]
            f_base = graph_pullback(W, cur)
            cur = cur - self.sections[i].apply(f_base)
        if not self.supported_in_u(cur):
            raise AssertionError("splitting failed to clear the strata")
        return cur


def regularize(xi: Distribution, split: Split) -> Distribution:
    """Linear section of restriction: eval(phi) = xi(phi~).

    Restriction property: test functions supported off the strata are
    fixed by the splitting, so the result extends xi.
    """
    p, n = xi.p, xi.n

    def ev(phi: SchwartzBruhat) -> ExactComplex:
        return xi.eval(split.apply(phi))

    return Distribution(p, n, ev, domain=split.X)


# -- the minimal-coordinate extension ---------------------------------------


@dataclass(frozen=True)
class MinCoordMap:
    """x -> x with the first coordinate of minimal |x_i| replaced by 0."""

    p: int
    m: int

    def apply(self, x: Sequence[Rat]) -> tuple[Fraction, ...]:
        xs = tuple(_as_fraction(c) for c in x)
        if len(xs) != self.m:
            raise ValueError("dimension mismatch")
        vals = [valuation(c, self.p) for c in xs]
        best = max(vals)  # largest valuation = smallest norm
        i = vals.index(best)
        return xs[:i] + (Fraction(0),) + xs[i + 1:]


def boundary_restriction(phi: SchwartzBruhat) -> SchwartzBruhat:
    """phi restricted to the union of coordinate hyperplanes: keeps exactly
    the cosets whose canonical representative has a zero coordinate."""
    table = {rep: val for rep, val in phi.table.items() if any(c == 0 for c in rep)}
    return phi.copy_with(table)


def min_coord_lift(phi0: SchwartzBruhat) -> SchwartzBruhat:
    """L(phi0)(x) = phi0(p(x)) on Z_p^m for phi0 living on the hyperplane union.

    The lift of a level-k function is level-k: inside one level-k coset the
    minimal coordinate either has a fixed index (its zeroing moves within a
    single coset) or is ambiguous only among coordinates divisible by p^k,
    where every zeroing lands in the same coset.
    """
    return _pull_back(phi0, MinCoordMap(phi0.p, phi0.n).apply)


def extend_min_coord(mu: Distribution) -> Distribution:
    """Extension of a density on the punctured polydisc to all of Z_p^m.

    xi(phi) = mu((phi - L(phi^c))|_U): the corrected test function vanishes
    on every coset within p^k of a hyperplane, so the shell engine only
    ever sees finite sums and xi is exactly evaluable.  xi agrees with mu
    on test functions supported off the hyperplanes.
    """
    p, m = mu.p, mu.n
    domain = Box(p, tuple(Fraction(0) for _ in range(m)), 0)

    def ev(phi: SchwartzBruhat) -> ExactComplex:
        f = phi.restrict(ClopenSet.single(domain))
        corrected = f - min_coord_lift(boundary_restriction(f))
        return mu.eval(corrected)

    return Distribution(p, m, ev)
