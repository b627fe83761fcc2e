"""Exact p-adic arithmetic over Q, ultrametric boxes, and clopen-set algebra.

Rationals act as a computable dense subfield of Q_p: every valuation,
norm, coset-membership and set-algebra question asked here only inspects
finitely many p-adic digits, so all answers are exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import inf
from typing import Iterable, Sequence, Union

Rat = Union[Fraction, int]


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def _strip_p(n: int, p: int) -> tuple[int, int]:
    """Return (v, u) with n = p^v * u and p does not divide u.  n != 0."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def valuation(x: Rat, p: int):
    """p-adic order v_p(x); +inf for x = 0."""
    x = _as_fraction(x)
    if x == 0:
        return inf
    vn, _ = _strip_p(abs(x.numerator), p)
    vd, _ = _strip_p(x.denominator, p)
    return vn - vd


def norm(x: Rat, p: int) -> Fraction:
    """|x| = p^(-v(x)) as an exact rational; |0| = 0."""
    v = valuation(x, p)
    if v is inf:
        return Fraction(0)
    return cell_volume(p, 1, v)


def cell_volume(p: int, n: int, k: int) -> Fraction:
    """Haar volume p^(-nk) of a level-k coset in Q_p^n; exact for every integer k."""
    return Fraction(1, p) ** (n * k)


def rep_key(rep: Sequence[Rat]) -> tuple[str, ...]:
    """Canonical order of coset representatives: coordinate-wise by string.

    Reports list cells in this order, so changing it changes their bytes.
    """
    return tuple(map(str, rep))


def tuple_valuation(xs: Sequence[Rat], p: int):
    """Order of a tuple: the minimum of the coordinate orders."""
    if not xs:
        return inf
    return min(valuation(x, p) for x in xs)


def coset_rep(x: Rat, p: int, k: int) -> Fraction:
    """Canonical representative of x + p^k Z_p.

    The representative has denominator a power of p and lies in [0, p^k);
    it is the truncation of the p-adic expansion of x below level k.
    """
    x = _as_fraction(x)
    if x == 0:
        return Fraction(0)
    v = valuation(x, p)
    if v >= k:
        return Fraction(0)
    s = max(0, -v)
    scaled = x * p**s  # now p-integral
    num, den = scaled.numerator, scaled.denominator  # p does not divide den
    mod = p ** (k + s)
    r = num * pow(den, -1, mod) % mod
    return Fraction(r, p**s)


def int_rep(x: Rat, p: int, k: int) -> int:
    """Integer representative of a p-integral x modulo p^k (k >= 1)."""
    x = _as_fraction(x)
    mod = p**k
    if valuation(x, p) < 0:
        raise ValueError(f"{x} is not p-integral")
    return x.numerator * pow(x.denominator, -1, mod) % mod


def scalar_coset_reps(c: Rat, r: int, p: int, k: int) -> list[Fraction]:
    """Canonical representatives of the p^(k-r) level-k cosets inside c + p^r Z_p."""
    if k < r:
        raise ValueError(f"target level {k} is coarser than box level {r}")
    step = Fraction(p) ** r
    return [coset_rep(_as_fraction(c) + j * step, p, k) for j in range(p ** (k - r))]


@dataclass(frozen=True)
class Box:
    """Ultrametric box {y : v(y_i - c_i) >= level for all i} in Q_p^n.

    Centers are canonicalized on construction, so two boxes are equal as
    sets iff they are equal as values.  Boxes of a common level are equal
    or disjoint; boxes of different levels are nested or disjoint.
    """

    p: int
    center: tuple[Fraction, ...]
    level: int

    def __post_init__(self):
        if not self.center:
            object.__setattr__(self, "level", 0)  # Q^0 is a single point
        canon = tuple(coset_rep(c, self.p, self.level) for c in self.center)
        object.__setattr__(self, "center", canon)

    @property
    def dim(self) -> int:
        return len(self.center)

    def volume(self) -> Fraction:
        return cell_volume(self.p, self.dim, self.level)

    def contains_point(self, y: Sequence[Rat]) -> bool:
        if len(y) != self.dim:
            raise ValueError("dimension mismatch")
        return all(valuation(_as_fraction(yi) - ci, self.p) >= self.level
                   for yi, ci in zip(y, self.center))

    def contains_box(self, other: "Box") -> bool:
        return other.level >= self.level and self.contains_point(other.center)

    def disjoint(self, other: "Box") -> bool:
        coarse, fine = (self, other) if self.level <= other.level else (other, self)
        return not coarse.contains_point(fine.center)

    def subboxes(self, k: int) -> list["Box"]:
        """The p^(n(k-level)) disjoint level-k boxes tiling this box."""
        if k < self.level:
            raise ValueError(f"target level {k} is coarser than box level {self.level}")
        per_coord = [scalar_coset_reps(c, self.level, self.p, k) for c in self.center]
        return [Box(self.p, combo, k) for combo in itertools.product(*per_coord)]

    def parent(self) -> "Box":
        return Box(self.p, self.center, self.level - 1)

    def __str__(self):
        coords = ",".join(str(c) for c in self.center)
        return f"box({coords}; {self.level})"


def _merge_siblings(boxes: list[Box], p: int, dim: int) -> list[Box]:
    """Coarsen a disjoint box list by replacing complete coset families with parents."""
    if dim == 0:
        return boxes[:1]
    family = p**dim
    boxes = list(boxes)
    changed = True
    while changed:
        changed = False
        groups: dict[tuple, list[Box]] = {}
        for b in boxes:
            groups.setdefault((b.level, b.parent().center), []).append(b)
        out: list[Box] = []
        for (lev, pc), members in groups.items():
            if len(members) == family:
                out.append(Box(p, pc, lev - 1))
                changed = True
            else:
                out.extend(members)
        boxes = out
    return boxes


@dataclass(frozen=True)
class ClopenSet:
    """Finite disjoint union of boxes of a common dimension, in canonical form.

    Canonical form: no box is contained in another, every complete sibling
    family is merged into its parent, and boxes are sorted.  Equality of
    values is then equality of sets.
    """

    p: int
    dim: int
    boxes: tuple[Box, ...]

    @staticmethod
    def from_boxes(p: int, dim: int, boxes: Iterable[Box]) -> "ClopenSet":
        pool = []
        for b in boxes:
            if b.p != p or b.dim != dim:
                raise ValueError("box prime/dimension mismatch")
            pool.append(b)
        # drop boxes contained in another
        kept: list[Box] = []
        for b in sorted(pool, key=lambda x: x.level):
            if not any(other.contains_box(b) for other in kept):
                kept.append(b)
        # split partial overlaps: with nested-or-disjoint boxes, dropping
        # contained ones already leaves a disjoint family
        kept = _merge_siblings(kept, p, dim)
        kept.sort(key=lambda b: (b.level, rep_key(b.center)))
        return ClopenSet(p, dim, tuple(kept))

    @staticmethod
    def empty(p: int, dim: int) -> "ClopenSet":
        return ClopenSet(p, dim, ())

    @staticmethod
    def single(b: Box) -> "ClopenSet":
        return ClopenSet.from_boxes(b.p, b.dim, [b])

    def is_empty(self) -> bool:
        return not self.boxes

    def volume(self) -> Fraction:
        return sum((b.volume() for b in self.boxes), Fraction(0))

    def max_level(self) -> int:
        return max((b.level for b in self.boxes), default=0)

    def min_level(self) -> int:
        return min((b.level for b in self.boxes), default=0)

    def contains_point(self, y: Sequence[Rat]) -> bool:
        return any(b.contains_point(y) for b in self.boxes)

    def _check_compat(self, other: "ClopenSet"):
        if self.p != other.p or self.dim != other.dim:
            raise ValueError("clopen sets live over different primes/dimensions")

    def union(self, other: "ClopenSet") -> "ClopenSet":
        # boxes are nested or disjoint, so dropping contained boxes
        # (done by from_boxes) already realizes the union
        self._check_compat(other)
        return ClopenSet.from_boxes(self.p, self.dim, list(self.boxes) + list(other.boxes))

    def intersect(self, other: "ClopenSet") -> "ClopenSet":
        self._check_compat(other)
        out = []
        for a in self.boxes:
            for b in other.boxes:
                if not a.disjoint(b):
                    out.append(a if a.level >= b.level else b)
        return ClopenSet.from_boxes(self.p, self.dim, out)

    def difference(self, other: "ClopenSet") -> "ClopenSet":
        self._check_compat(other)
        remaining = list(self.boxes)
        for b in other.boxes:
            remaining = [q for a in remaining for q in _box_minus_box(a, b)]
        return ClopenSet.from_boxes(self.p, self.dim, remaining)

    def contains_set(self, other: "ClopenSet") -> bool:
        return other.difference(self).is_empty()

    def cosets(self, k: int) -> list[Box]:
        """All level-k cosets of the set; requires k >= every box level."""
        out = []
        for b in self.boxes:
            out.extend(b.subboxes(k))
        return sorted(out, key=lambda b: rep_key(b.center))

    def __str__(self):
        return "; ".join(str(b) for b in self.boxes) if self.boxes else "<empty>"


def _box_minus_box(a: Box, b: Box) -> list[Box]:
    if a.disjoint(b):
        return [a]
    if b.contains_box(a):
        return []
    # b is strictly inside a: split a one level and recurse
    return [piece for child in a.subboxes(a.level + 1) for piece in _box_minus_box(child, b)]


def _maximal_level_for(center: Sequence[Fraction], p: int, U: ClopenSet,
                       X: ClopenSet, start_level: int) -> int | None:
    """Smallest level l in [0, start_level] with Box(center, l) ∩ X ⊆ U, or None."""
    for l in range(0, start_level + 1):
        candidate = ClopenSet.single(Box(p, tuple(center), l)).intersect(X)
        if U.contains_set(candidate):
            return l
    return None


def urysohn_clopen(Z, U: ClopenSet, X: ClopenSet) -> ClopenSet:
    """Clopen separation C with Z ⊆ C ⊆ U, for Z ⊆ U ⊆ X.

    C is the union over the pieces of Z of the maximal box of level >= 0
    around the piece whose intersection with X stays inside U.  Z may be a
    ClopenSet or a finite list of rational points.
    """
    p, dim = U.p, U.dim
    if isinstance(Z, ClopenSet):
        if Z.is_empty():
            return ClopenSet.empty(p, dim)
        if not U.contains_set(Z) or not X.contains_set(U):
            raise ValueError("need Z ⊆ U ⊆ X")
        pieces = []
        for b in Z.boxes:
            # the "radius <= 1" bound means level >= 0, so coarse boxes are
            # tiled by their level-0 cosets first
            units = [b] if b.level >= 0 else b.subboxes(0)
            for u in units:
                l = _maximal_level_for(u.center, p, U, X, u.level)
                if l is None:  # cannot happen for Z ⊆ U given as boxes
                    raise ValueError("no admissible ball around a piece of Z")
                pieces.append(Box(p, u.center, l))
        return ClopenSet.from_boxes(p, dim, pieces)
    # finite point set: points stand in for balls of level +inf, so descend
    # to the finest level appearing in U or X plus one
    points = [tuple(_as_fraction(c) for c in z) for z in Z]
    if not points:
        return ClopenSet.empty(p, dim)
    cap = max(0, U.max_level(), X.max_level()) + 1
    for z in points:
        if not U.contains_point(z):
            raise ValueError("need Z ⊆ U")
    pieces = []
    for z in points:
        l = _maximal_level_for(z, p, U, X, cap)
        if l is None:
            raise ValueError("no admissible ball of level <= cap around a point of Z")
        pieces.append(Box(p, z, l))
    return ClopenSet.from_boxes(p, dim, pieces)


def refine_partition(cover: Sequence[ClopenSet], X: ClopenSet) -> list[ClopenSet]:
    """Disjoint clopen refinement of a finite cover of X.

    Runs the recursive separation: part i separates what the earlier parts
    missed and the later cover elements do not claim, inside cover[i];
    earlier parts are subtracted so the result is disjoint by construction.
    """
    if not cover:
        raise ValueError("empty cover")
    covered = ClopenSet.empty(X.p, X.dim)
    for u in cover:
        covered = covered.union(u)
    if not covered.contains_set(X) :
        raise ValueError("cover does not cover X")

    parts: list[ClopenSet] = []
    done = ClopenSet.empty(X.p, X.dim)
    for u in cover:
        u_i = u.intersect(X)
        # everything still uncovered that this element can claim; this
        # contains the mandatory separation target (uncovered minus the
        # later cover elements), so the sandwich constraint is preserved
        z = X.difference(done).intersect(u_i)
        c = urysohn_clopen(z, u_i, X).difference(done)
        parts.append(c)
        done = done.union(c)
    return parts
