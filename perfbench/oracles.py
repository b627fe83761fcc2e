"""Independent exact oracles for the benchmark's correctness checks.

Nothing here calls padlab arithmetic.  Values of Q(i, zeta_{p^L}) are kept
as `Cyc`, a dict (a, b) -> Fraction for zeta_{p^L}^a * i^b, and read from
padlab's ExactComplex only through its raw coordinates.  The zero test
rests on one fact: the kernel of Q[Z/p^L] -> Q(zeta_{p^L}) is spanned by
the sums over the cosets of the order-p subgroup, so an element is zero
iff, for each power of i, its coefficients are constant on every such
coset.  (For odd p, i is independent of Q(zeta_{p^L}); for p = 2, padlab
folds i into the tower as zeta_4, and so does `Cyc`.)
"""

from __future__ import annotations

from fractions import Fraction
from math import inf


class CheckFailed(AssertionError):
    """An output of the program disagrees with an oracle."""


def require(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


# -- p-adic basics, written from their definitions ------------------------------


def val_p(x: Fraction, p: int):
    x = Fraction(x)
    if x == 0:
        return inf
    v, num, den = 0, abs(x.numerator), x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def _split_den(x: Fraction, p: int) -> tuple[int, int, int]:
    """(N, s, d) with x = N / (p^s d) and d prime to p."""
    s, d = 0, x.denominator
    while d % p == 0:
        d //= p
        s += 1
    return x.numerator, s, d


def canon(x: Fraction, p: int, k: int) -> Fraction:
    """The representative of x + p^k Z_p in [0, p^k) with p-power denominator."""
    x = Fraction(x)
    n, s, d = _split_den(x, p)
    if k + s <= 0:
        return Fraction(0)
    mod = p ** (k + s)
    return Fraction(n * pow(d, -1, mod) % mod, p**s)


def psi(t: Fraction, p: int) -> tuple[int, int]:
    """(s, e) with psi(t) = exp(2 pi i {t/p}_p) = zeta_{p^s}^e."""
    n, s, d = _split_den(Fraction(t) / p, p)
    if s == 0:
        return 0, 0
    return s, n * pow(d, -1, p**s) % p**s


def cell_volume(p: int, n: int, k: int) -> Fraction:
    return Fraction(1, p ** (n * k)) if k >= 0 else Fraction(p ** (-n * k))


# -- exact cyclotomic values --------------------------------------------------------


class Cyc:
    """sum c_(a,b) zeta_{p^L}^a i^b with rational c."""

    __slots__ = ("p", "L", "c")

    def __init__(self, p: int, L: int = 0, c: dict | None = None):
        self.p, self.L, self.c = p, L, dict(c or {})

    @staticmethod
    def of(x) -> "Cyc":
        """From a padlab ExactComplex, through its raw coordinates."""
        return Cyc(x.p, x.r, x.c)

    @staticmethod
    def rational(q, p: int) -> "Cyc":
        return Cyc(p, 0, {(0, 0): Fraction(q)})

    @staticmethod
    def root(p: int, s: int, e: int) -> "Cyc":
        return Cyc(p, s, {(e % p**s, 0): Fraction(1)})

    def at(self, L: int) -> "Cyc":
        shift = self.p ** (L - self.L)
        out: dict = {}
        for (a, b), v in self.c.items():
            out[(a * shift, b)] = out.get((a * shift, b), 0) + v
        return Cyc(self.p, L, out)

    def __add__(self, other: "Cyc") -> "Cyc":
        L = max(self.L, other.L)
        out = dict(self.at(L).c)
        for k, v in other.at(L).c.items():
            out[k] = out.get(k, 0) + v
        return Cyc(self.p, L, out)

    def __neg__(self) -> "Cyc":
        return self.times(-1)

    def __sub__(self, other: "Cyc") -> "Cyc":
        return self + (-other)

    def times(self, q) -> "Cyc":
        q = Fraction(q)
        return Cyc(self.p, self.L, {k: v * q for k, v in self.c.items()})

    def __mul__(self, other: "Cyc") -> "Cyc":
        p, L = self.p, max(self.L, other.L)
        P = p**L
        out: dict = {}
        for (a1, b1), v1 in self.at(L).c.items():
            for (a2, b2), v2 in other.at(L).c.items():
                w = v1 * v2
                if b1 + b2 == 2:  # i^2 = -1
                    w = -w
                k = ((a1 + a2) % P, (b1 + b2) % 2)
                out[k] = out.get(k, 0) + w
        return Cyc(p, L, out)

    def conj(self) -> "Cyc":
        P = self.p**self.L
        return Cyc(self.p, self.L, {((-a) % P, b): (-v if b else v) for (a, b), v in self.c.items()})

    def is_zero(self) -> bool:
        if self.L == 0:
            return all(v == 0 for v in self.c.values())
        step = self.p ** (self.L - 1)
        groups: dict = {}
        for (a, b), v in self.c.items():
            groups.setdefault((a % step, b), {})[a // step] = v
        for coeffs in groups.values():
            vals = [coeffs.get(l, 0) for l in range(self.p)]
            if any(v != vals[0] for v in vals):
                return False
        return True


def same(x, y) -> bool:
    """Exact equality of two values given as Cyc or padlab ExactComplex."""
    x = x if isinstance(x, Cyc) else Cyc.of(x)
    y = y if isinstance(y, Cyc) else Cyc.of(y)
    return (x - y).is_zero()


# -- Schwartz-Bruhat functions ------------------------------------------------------


def sb_value(f, x) -> Cyc:
    """f(x) for a padlab SchwartzBruhat, read from its table."""
    key = tuple(canon(c, f.p, f.k) for c in x)
    val = f.table.get(key)
    return Cyc(f.p) if val is None else Cyc.of(val)


def fourier_value(phi, y) -> Cyc:
    """Brute-force character sum: F(phi)(y) = vol * sum_x phi(x) psi(x . y)."""
    p = phi.p
    total = Cyc(p)
    for x, v in phi.table.items():
        s, e = psi(sum(xi * yi for xi, yi in zip(x, y)), p)
        total = total + Cyc.of(v) * Cyc.root(p, s, e)
    return total.times(cell_volume(p, phi.n, phi.k))


def pairing(f, g) -> Cyc:
    """<f, g> = integral of f conj(g), summed over the finer table only."""
    if f.k < g.k:
        return pairing(g, f).conj()
    total = Cyc(f.p)
    for x, v in f.table.items():
        total = total + Cyc.of(v) * sb_value(g, x).conj()
    return total.times(cell_volume(f.p, f.n, f.k))


def check_double_transform(phi, ff):
    """F(F phi) = p^-n phi(-.), cell by cell."""
    p, n = phi.p, phi.n
    require((ff.m, ff.k) == (phi.m, phi.k), "double transform changed the levels")
    keys = set(ff.table) | {tuple(canon(-c, p, phi.k) for c in x) for x in phi.table}
    for x in keys:
        want = sb_value(phi, tuple(-c for c in x)).times(Fraction(1, p**n))
        require(same(sb_value(ff, x), want), f"F(F phi)({x}) != p^-{n} phi(-{x})")


# -- closed forms for the density families ------------------------------------------


def abs_ord_integral(p: int, s: int, t: int, a: Fraction, k: int) -> Fraction:
    """Integral of |x|^s ord(x)^t over a + p^k Z_p (k >= 0), t in {0, 1}."""
    if a != 0:
        rho = val_p(a, p)
        return Fraction(1, p ** (s * rho + k)) * Fraction(rho) ** t
    z = Fraction(1, p ** (s + 1))
    unit = 1 - Fraction(1, p)
    if t == 0:  # sum_{j>=k} (1-1/p) z^j
        return unit * z**k / (1 - z)
    if t == 1:  # sum_{j>=k} (1-1/p) j z^j
        return unit * z**k * (k * (1 - z) + z) / (1 - z) ** 2
    raise ValueError("closed form only for ord powers 0 and 1")


def psi_inv_integral(p: int, a: Fraction, k: int) -> Cyc:
    """Integral of psi(1/x) over a + p^k Z_p (k >= 0).

    On p^k Z_p the shells j >= 1 are Ramanujan sums that vanish, and the
    unit shell gives -1/p.  Off zero, psi(1/x) is constant on cosets of
    level 2 v(a) + 1, which are summed directly.
    """
    if a == 0:
        return Cyc.rational(Fraction(-1, p) if k == 0 else 0, p)
    fine = max(k, 2 * val_p(a, p) + 1)
    total = Cyc(p)
    for j in range(p ** (fine - k)):
        s, e = psi(1 / (a + j * Fraction(p) ** k), p)
        total = total + Cyc.root(p, s, e)
    return total.times(Fraction(1, p**fine))


FAMILIES = {
    # name -> per-coordinate factor integrals (None for psi(1/x))
    "abs(x1)": [(1, 0)],
    "abs(x1)^2*ord(x1)": [(2, 1)],
    "psi(1/x1)": [None],
    "abs(x1)*abs(x2)": [(1, 0), (1, 0)],
    "psi(1/x1)*abs(x2)": [None, (1, 0)],
}


def density_at(src: str, x, p: int) -> Cyc:
    """The density `src` at a point off the coordinate hyperplanes."""
    val = Cyc.rational(1, p)
    for c, factor in zip(x, FAMILIES[src]):
        if factor is None:
            val = val * Cyc.root(p, *psi(1 / c, p))
        else:
            s, t = factor
            rho = val_p(c, p)
            val = val.times(Fraction(p) ** (-s * rho) * Fraction(rho) ** t)
    return val


def density_value(src: str, phi) -> Cyc:
    """mu(phi) for the density `src` on Z_p^n, as a sum of product integrals."""
    p, k = phi.p, phi.k
    total = Cyc(p)
    for x, v in phi.table.items():
        require(all(val_p(c, p) >= 0 for c in x), "test function leaves Z_p^n")
        term = Cyc.of(v)
        for c, factor in zip(x, FAMILIES[src]):
            if factor is None:
                term = term * psi_inv_integral(p, c, k)
            else:
                term = term.times(abs_ord_integral(p, *factor, c, k))
        total = total + term
    return total


def haar_ball_count(p: int, x: Fraction, ordr: int) -> Fraction:
    """vol(B(x, ordr) ∩ Z_p) by counting the level-L cosets of Z_p inside the ball."""
    L = max(ordr, 1)
    inside = sum(1 for c in range(p**L) if val_p(c - x, p) >= ordr)
    return Fraction(inside, p**L)
