"""Graph-presented submanifolds of Q_p^n over clopen bases.

A graph manifold is the graph of a polynomial map (constant denominators
allowed) from a clopen base V in Q_p^d into Q_p^(n-d).  Polynomiality
gives exact p-adic moduli of continuity, so membership of a graph in an
ultrametric box is decidable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .padic import Box, ClopenSet, Rat, _as_fraction
from .ratterm import RatTerm

# how many levels finer than the base the maps are probed for definedness
PROBE_LEVEL = 2


@dataclass(frozen=True)
class GraphManifold:
    """Graph of t -> (t, gamma(t)) over a clopen base."""

    p: int
    base: ClopenSet
    maps: tuple[RatTerm, ...]

    def __post_init__(self):
        d = self.base.dim
        polys = []
        for g in self.maps:
            poly = g.as_poly(d)
            if poly is None:
                raise ValueError(
                    "graph maps must be polynomial (constant denominators allowed) "
                    "for exact membership tests")
            polys.append(poly)
        object.__setattr__(self, "_polys", tuple(polys))
        # definedness probe on coset representatives
        if not self.base.is_empty() and d > 0:
            probe = self.base.max_level() + PROBE_LEVEL
            for box in self.base.boxes:
                for sub in box.subboxes(min(probe, box.level + PROBE_LEVEL)):
                    self.gamma(sub.center)

    @property
    def d(self) -> int:
        return self.base.dim

    @property
    def n(self) -> int:
        return self.base.dim + len(self.maps)

    def gamma(self, t: Sequence[Rat]) -> tuple[Fraction, ...]:
        return tuple(g.eval(t) for g in self.maps)

    def point(self, t: Sequence[Rat]) -> tuple[Fraction, ...]:
        return tuple(_as_fraction(c) for c in t) + self.gamma(t)

    def lipschitz_extra(self) -> int:
        """c with t = t' mod p^l implying gamma(t) = gamma(t') mod p^(l-c) on the base."""
        lo = self.base.min_level() if not self.base.is_empty() else 0
        return max((poly.lipschitz_extra(self.p, lo) for poly in self._polys), default=0)

    def contains_point(self, x: Sequence[Rat]) -> bool:
        x = tuple(_as_fraction(c) for c in x)
        if len(x) != self.n:
            raise ValueError("ambient dimension mismatch")
        t, rest = x[: self.d], x[self.d:]
        if self.d > 0 and not self.base.contains_point(t):
            return False
        if self.d == 0 and self.base.is_empty():
            return False
        return self.gamma(t) == tuple(rest)

    def jacobian(self, t: Sequence[Rat]) -> list[list[Fraction]]:
        """Rows = components of gamma, columns = base directions."""
        return [[g.diff(i).eval(t) for i in range(self.d)] for g in self.maps]

    def base_reps_in_box(self, box: Box, k: int | None = None) -> list[tuple[Fraction, ...]]:
        """Representatives t (one per fine coset) with graph point in the box.

        Exact: gamma maps level-(box.level + lipschitz) cosets of the base
        into level-box.level cosets, so checking representatives decides
        the whole coset.
        """
        if box.dim != self.n:
            raise ValueError("box dimension mismatch")
        kk = box.level if k is None else max(k, box.level)
        fine = kk + self.lipschitz_extra()
        t_box = Box(self.p, box.center[: self.d], box.level)
        found = []
        if self.d == 0:
            if self.base.is_empty():
                return []
            pt = self.gamma(())
            if box.contains_point(pt):
                return [()]
            return []
        base_part = self.base.intersect(ClopenSet.single(t_box))
        if base_part.is_empty():
            return []
        level = max(fine, base_part.max_level())
        for cell in base_part.cosets(level):
            t = cell.center
            if box.contains_point(self.point(t)):
                found.append(t)
        return found

    def intersects_box(self, box: Box) -> bool:
        return bool(self.base_reps_in_box(box))

    def __str__(self):
        maps = ", ".join(g.to_string() for g in self.maps)
        return f"graph[{self.base}] -> ({maps})"


def point_manifold(p: int, coords: Sequence[Rat]) -> GraphManifold:
    """A single rational point as a graph over the zero-dimensional base."""
    base = ClopenSet.single(Box(p, (), 0))
    maps = tuple(RatTerm.const(c) for c in coords)
    return GraphManifold(p, base, maps)
