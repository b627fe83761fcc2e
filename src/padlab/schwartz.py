"""Schwartz-Bruhat functions on Q_p^n and the exact Fourier transform.

The additive character psi is trivial on pZ_p and nontrivial on Z_p,
realized as psi(x) = exp(2 pi i frac(x/p)) with values that are exact
p-power roots of unity.  Haar measure gives Z_p^n volume 1; the double
transform then satisfies F(F(phi)) = p^(-n) phi(-.) with the constant
kept explicit.
"""

from __future__ import annotations

from fractions import Fraction
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
        """Re-present on a finer grid (larger support box and/or finer cosets)."""
        m_new = self.m if m_new is None else m_new
        k_new = self.k if k_new is None else k_new
        if m_new < self.m or k_new < self.k:
            raise ValueError("refine only grows the presentation")
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
        f, g = SchwartzBruhat.common(self, other)
        table = {rep: f.table[rep] * g.table[rep] for rep in f.table.keys() & g.table.keys()}
        return SchwartzBruhat(f.p, f.n, f.m, f.k, table)

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
        """Exact transform with kernel psi(x . y): levels (m,k) -> (k-1, m+1)."""
        p, n = self.p, self.n
        m_out, k_out = self.k - 1, self.m + 1
        out = SchwartzBruhat.zero(p, n, m_out, k_out)
        if not self.table:
            return out
        cells = p ** (n * (self.m + self.k))
        if cells > FOURIER_CELL_CAP:
            raise OverflowError(f"transform needs {cells} output cells (cap {FOURIER_CELL_CAP})")
        cell_vol = cell_volume(p, n, self.k)
        out_box = Box(p, tuple(Fraction(0) for _ in range(n)), -m_out)
        table: dict = {}
        items = sorted(self.table.items(), key=lambda kv: rep_key(kv[0]))
        for y_box in out_box.subboxes(k_out):
            y = y_box.center
            acc = ExactComplex.zero(p)
            for a, val in items:
                phase = psi_eval(sum(ai * yi for ai, yi in zip(a, y)), p)
                acc = acc + val * phase
            if not acc.is_zero():
                table[y] = acc * cell_vol
        return SchwartzBruhat(p, n, m_out, k_out, table)

    def plancherel_pairing(self, other: "SchwartzBruhat") -> ExactComplex:
        """<f, g> = integral of f * conj(g)."""
        f, g = SchwartzBruhat.common(self, other)
        conj_table = {rep: val.conjugate() for rep, val in g.table.items()}
        return f.pointwise_mul(g.copy_with(conj_table)).integrate()

    def __repr__(self):
        return (f"SchwartzBruhat(p={self.p}, n={self.n}, m={self.m}, k={self.k}, "
                f"{len(self.table)} cosets)")

