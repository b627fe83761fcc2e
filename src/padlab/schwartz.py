"""Schwartz-Bruhat functions on Q_p^n and the exact Fourier transform.

The additive character psi is trivial on pZ_p and nontrivial on Z_p,
realized as psi(x) = exp(2 pi i frac(x/p)) with values that are exact
p-power roots of unity.  Haar measure gives Z_p^n volume 1; the double
transform then satisfies F(F(phi)) = p^(-n) phi(-.) with the constant
kept explicit.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Sequence

from .cyclotomic import ExactComplex
from .padic import Box, ClopenSet, Rat, _as_fraction, cell_volume, coset_rep, rep_key, valuation

FOURIER_CELL_CAP = 500_000


def psi_exponent(x: Rat, p: int) -> tuple[int, int]:
    """(s, a) with psi(x) = zeta_{p^s}^a; s = 0 means psi(x) = 1."""
    x = _as_fraction(x)
    if x == 0:
        return 0, 0
    t = x / p
    v = valuation(t, p)
    if v >= 0:
        return 0, 0
    s = -v
    scaled = t * p**s  # p-adic unit (times prime-to-p rational)
    mod = p**s
    a = scaled.numerator * pow(scaled.denominator, -1, mod) % mod
    return s, a


def psi_eval(x: Rat, p: int) -> ExactComplex:
    """The standard additive character: conductor pZ_p, psi(1) = zeta_p."""
    s, a = psi_exponent(x, p)
    return ExactComplex.root(p, s, a)


class SchwartzBruhat:
    """Locally constant compactly supported function with exact values.

    Data: support inside Box(0, -m)^n, constancy on level-k cosets
    (k >= -m), and a finite table mapping canonical level-k coset
    representatives to nonzero ExactComplex values.
    """

    __slots__ = ("p", "n", "m", "k", "table")

    def __init__(self, p: int, n: int, m: int, k: int, table: dict):
        if k < -m:
            raise ValueError("constancy level must refine the support box")
        self.p = p
        self.n = n
        self.m = m
        self.k = k
        tab = {}
        for rep, val in table.items():
            if isinstance(val, (int, Fraction)):
                val = ExactComplex.from_rational(val, p)
            if val.is_zero():
                continue
            canon = tuple(coset_rep(c, p, k) for c in rep)
            for c in canon:
                if valuation(c, p) < -m:
                    raise ValueError(f"table entry {canon} escapes the support box")
            tab[canon] = val
        self.table = tab

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(p: int, n: int, m: int = 0, k: int = 0) -> "SchwartzBruhat":
        return SchwartzBruhat(p, n, m, k, {})

    @staticmethod
    def indicator_box(b: Box, n_override: int | None = None) -> "SchwartzBruhat":
        n = b.dim if n_override is None else n_override
        m = max(0, -b.level)
        for c in b.center:
            v = valuation(c, b.p)
            if v < 0:
                m = max(m, -v)
        return SchwartzBruhat(b.p, n, m, b.level, {b.center: ExactComplex.one(b.p)})

    @staticmethod
    def indicator(cs: ClopenSet) -> "SchwartzBruhat":
        k = cs.max_level()
        m = max([0, -k] + [-b.level for b in cs.boxes]
                + [-valuation(c, cs.p) for b in cs.boxes for c in b.center if c != 0])
        table = {}
        for b in cs.boxes:
            for sub in b.subboxes(k):
                table[sub.center] = ExactComplex.one(cs.p)
        return SchwartzBruhat(cs.p, cs.dim, m, k, table)

    # -- basic structure --------------------------------------------------

    def is_zero(self) -> bool:
        return not self.table

    def copy_with(self, table: dict) -> "SchwartzBruhat":
        return SchwartzBruhat(self.p, self.n, self.m, self.k, table)

    def refine(self, m_new: int | None = None, k_new: int | None = None) -> "SchwartzBruhat":
        """Re-present on a finer grid (larger support box and/or finer cosets).

        At an unchanged constancy level only the support box grows, and the
        table is copied as it is.
        """
        m_new = self.m if m_new is None else m_new
        k_new = self.k if k_new is None else k_new
        if m_new < self.m or k_new < self.k:
            raise ValueError("refine only grows the presentation")
        if k_new == self.k:
            return SchwartzBruhat(self.p, self.n, m_new, k_new, self.table)
        table = {}
        for rep, val in self.table.items():
            box = Box(self.p, rep, self.k)
            for sub in box.subboxes(k_new):
                table[sub.center] = val
        return SchwartzBruhat(self.p, self.n, m_new, k_new, table)

    @staticmethod
    def common(f: "SchwartzBruhat", g: "SchwartzBruhat"):
        if f.p != g.p or f.n != g.n:
            raise ValueError("functions live on different spaces")
        m, k = max(f.m, g.m), max(f.k, g.k)
        return f.refine(m, k), g.refine(m, k)

    def canonical(self) -> "SchwartzBruhat":
        """Unique minimal representation: coarsen while sibling values agree, shrink m."""
        p, n = self.p, self.n
        k, table = self.k, dict(self.table)
        while k > -self.m and table:
            groups: dict[tuple, dict] = {}
            for rep, val in table.items():
                parent = tuple(coset_rep(c, p, k - 1) for c in rep)
                groups.setdefault(parent, {})[rep] = val
            full = p**n
            mergeable = all(
                len(children) == full and all(v == next(iter(children.values())) for v in children.values())
                for children in groups.values()
            )
            if not mergeable:
                break
            table = {parent: next(iter(children.values())) for parent, children in groups.items()}
            k -= 1
        m = 0
        for rep in table:
            for c in rep:
                v = valuation(c, p)
                if v < 0:
                    m = max(m, -v)
        m = max(m, -k)
        return SchwartzBruhat(p, n, m, k, table)

    def __eq__(self, other):
        if not isinstance(other, SchwartzBruhat):
            return NotImplemented
        f, g = SchwartzBruhat.common(self, other)
        if set(f.table) != set(g.table):
            return False
        return all(f.table[rep] == g.table[rep] for rep in f.table)

    def __hash__(self):
        raise TypeError("SchwartzBruhat functions are not hashable")

    # -- vector space and pointwise operations ---------------------------

    def __add__(self, other: "SchwartzBruhat") -> "SchwartzBruhat":
        f, g = SchwartzBruhat.common(self, other)
        table = dict(f.table)
        for rep, val in g.table.items():
            cur = table.get(rep)
            table[rep] = val if cur is None else cur + val
        return SchwartzBruhat(f.p, f.n, f.m, f.k, table)

    def __sub__(self, other: "SchwartzBruhat") -> "SchwartzBruhat":
        return self + other.scale(-1)

    def scale(self, c) -> "SchwartzBruhat":
        if isinstance(c, (int, Fraction)):
            c = ExactComplex.from_rational(c, self.p)
        return self.copy_with({rep: val * c for rep, val in self.table.items()})

    def pointwise_mul(self, other: "SchwartzBruhat") -> "SchwartzBruhat":
        """Product at levels (max m, max k), walking only the finer operand's table.

        The coarser operand (on equal constancy levels, the one with more cells) is
        looked up at each walked rep, so neither operand is refined.
        """
        if self.p != other.p or self.n != other.n:
            raise ValueError("functions live on different spaces")
        walk_other = (other.k, len(self.table)) > (self.k, len(other.table))
        fine, coarse = (other, self) if walk_other else (self, other)
        p, k = self.p, coarse.k
        table = {}
        for rep, val in fine.table.items():
            hit = coarse.table.get(rep if k == fine.k else tuple(coset_rep(c, p, k) for c in rep))
            if hit is not None:
                table[rep] = hit * val if walk_other else val * hit
        return SchwartzBruhat(p, self.n, max(self.m, other.m), fine.k, table)

    def evaluate(self, x: Sequence[Rat]) -> ExactComplex:
        if len(x) != self.n:
            raise ValueError("dimension mismatch")
        rep = tuple(coset_rep(c, self.p, self.k) for c in x)
        val = self.table.get(rep)
        return ExactComplex.zero(self.p) if val is None else val

    def translate(self, a: Sequence[Rat]) -> "SchwartzBruhat":
        """x -> phi(x - a)."""
        a = tuple(_as_fraction(c) for c in a)
        table = {}
        mm = max(self.m, -self.k)
        for rep, val in self.table.items():
            shifted = tuple(coset_rep(ri + ai, self.p, self.k) for ri, ai in zip(rep, a))
            for c in shifted:
                if c != 0:
                    mm = max(mm, -min(0, valuation(c, self.p)))
            table[shifted] = val
        return SchwartzBruhat(self.p, self.n, mm, self.k, table)

    def reflect(self) -> "SchwartzBruhat":
        """x -> phi(-x)."""
        table = {tuple(coset_rep(-c, self.p, self.k) for c in rep): val
                 for rep, val in self.table.items()}
        return self.copy_with(table)

    def restrict(self, region: ClopenSet) -> "SchwartzBruhat":
        """Pointwise product with the indicator of a clopen set."""
        if region.dim != self.n or region.p != self.p:
            raise ValueError("region dimension/prime mismatch")
        if region.is_empty() or self.is_zero():
            return SchwartzBruhat.zero(self.p, self.n, self.m, self.k)
        k = max(self.k, region.max_level())
        f = self.refine(k_new=k)
        table = {rep: val for rep, val in f.table.items() if region.contains_point(rep)}
        return SchwartzBruhat(f.p, f.n, f.m, f.k, table)

    def modulate(self, w: Sequence[Rat]) -> "SchwartzBruhat":
        """Pointwise product with x -> psi(<w, x>)."""
        w = tuple(_as_fraction(c) for c in w)
        shift = max((1 - valuation(wi, self.p) for wi in w if wi != 0), default=self.k)
        k = max(self.k, shift)
        f = self.refine(k_new=k)
        table = {}
        for rep, val in f.table.items():
            phase = psi_eval(sum(wi * ri for wi, ri in zip(w, rep)), self.p)
            table[rep] = val * phase
        return SchwartzBruhat(f.p, f.n, f.m, f.k, table)

    # -- integration and transforms ---------------------------------------

    def integrate(self) -> ExactComplex:
        """Integral against Haar measure with vol(Z_p^n) = 1."""
        total = ExactComplex.zero(self.p)
        for val in self.table.values():
            total = total + val
        return total * cell_volume(self.p, self.n, self.k)

    def fourier(self) -> "SchwartzBruhat":
        """Exact transform with kernel psi(x . y): levels (m,k) -> (k-1, m+1).

        Index map: input reps are x = j p^(-m) and output reps are
        y = l p^(1-k), with j, l in (Z/p^(m+k))^n, so psi(x . y) is
        zeta_{p^(m+k)}^(j . l).  Each output cell is one histogram of integer
        numerators over the monomials zeta_{p^L}^a i^b, L = max(m + k, value
        levels), with one denominator shared by all values: a term adds its
        value's monomials, shifted by the exponent of its character value.
        The character is still evaluated by psi_eval, once per (input cell,
        output cell) term on the argument x . y, because perfbench pins the
        work count char_evals of a transform at |table| p^(n(m+k)) (its
        test_char_evals_of_one_transform).  The next step is a
        Cooley-Tukey FFT over the coset tree, which needs O(N p log_p N)
        terms instead of O(N^2) for N = p^(n(m+k)).
        """
        p, n, m, k = self.p, self.n, self.m, self.k
        m_out, k_out = k - 1, m + 1
        if not self.table:
            return SchwartzBruhat.zero(p, n, m_out, k_out)
        side = p ** (m + k)
        cells = side**n
        if cells > FOURIER_CELL_CAP:
            raise OverflowError(f"transform needs {cells} output cells (cap {FOURIER_CELL_CAP})")
        values = self.table.values()
        r_in = max(val.r for val in values)
        level = max(m + k, r_in)
        mod = p**level
        den = lcm(*(q.denominator for val in values for q in val.c.values()))
        scale = cell_volume(p, n, k) / den
        to_j = Fraction(p) ** m
        terms = []
        for rep, val in sorted(self.table.items(), key=lambda kv: rep_key(kv[0])):
            up = p ** (level - val.r)
            terms.append((tuple(int(c * to_j) for c in rep),
                          [(a * up, b, q.numerator * (den // q.denominator))
                           for (a, b), q in val.c.items()]))
        root_up = [p ** (level - s) for s in range(m + k + 1)]
        arg_den = p ** max(m + k - 1, 0)  # x . y = (j . l) / arg_den
        step = Fraction(p) ** (1 - k)
        coords = [l * step for l in range(side)]
        table: dict = {}
        # acc keeps ExactComplex's sparse form (a cancelled monomial leaves at
        # once), and a value is stored at the level its terms reach, not at L:
        # the float column of reports is read off that form.
        for ls in itertools.product(range(side), repeat=n):
            acc: dict = {}
            r_out = r_in
            for js, monomials in terms:
                phase = psi_eval(Fraction(sum(map(mul, js, ls)), arg_den), p)
                (e, _), = phase.c
                e *= root_up[phase.r]
                r_out = max(r_out, phase.r)
                for a, b, num in monomials:
                    key = ((a + e) % mod, b)
                    w = acc.get(key, 0) + num
                    if w:
                        acc[key] = w
                    else:
                        del acc[key]
            if acc:
                down = p ** (level - r_out)
                table[tuple(coords[l] for l in ls)] = ExactComplex(
                    p, r_out, {(a // down, b): w * scale for (a, b), w in acc.items()})
        return SchwartzBruhat(p, n, m_out, k_out, table)

    def plancherel_pairing(self, other: "SchwartzBruhat") -> ExactComplex:
        """<f, g> = integral of f * conj(g)."""
        conj = other.copy_with({rep: val.conjugate() for rep, val in other.table.items()})
        return self.pointwise_mul(conj).integrate()

    def __repr__(self):
        return (f"SchwartzBruhat(p={self.p}, n={self.n}, m={self.m}, k={self.k}, "
                f"{len(self.table)} cosets)")

