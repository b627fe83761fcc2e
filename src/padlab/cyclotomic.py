"""Exact arithmetic in Q(i, zeta_{p^r}): the value field for all character sums.

Elements are sparse rational combinations of zeta_{p^r}^a * i^b.  Sums and
root-multiplications stay sparse; reduction to the power basis (degree
phi(p^r), via the p^r-th cyclotomic relation) happens lazily, on zero
tests, equality, and serialization.  For p = 2 the factor i is folded into
the 2-power tower as zeta_4.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from typing import Union

LEVEL_CAP = 12

Scalar = Union[Fraction, int]


def _phi(p: int, r: int) -> int:
    return 1 if r == 0 else (p - 1) * p ** (r - 1)


class ExactComplex:
    """Element of Q(i, zeta_{p^r}) with exact rational coordinates.

    Internal form: dict mapping (a, b) -> Fraction for the monomial
    zeta_{p^r}^a * i^b, with 0 <= a < p^r and b in {0, 1}.  For p = 2 the
    key always has b = 0 and the level is at least 2 whenever an imaginary
    part is present (i = zeta_4).
    """

    __slots__ = ("p", "r", "c")

    def __init__(self, p: int, r: int, coeffs: dict):
        if r > LEVEL_CAP:
            raise OverflowError(f"cyclotomic level {r} exceeds cap {LEVEL_CAP}")
        self.p = p
        self.r = r
        self.c = {k: v for k, v in coeffs.items() if v != 0}

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rational(q: Scalar, p: int) -> "ExactComplex":
        q = Fraction(q)
        return ExactComplex(p, 0, {(0, 0): q} if q else {})

    @staticmethod
    def zero(p: int) -> "ExactComplex":
        return ExactComplex(p, 0, {})

    @staticmethod
    def one(p: int) -> "ExactComplex":
        return ExactComplex.from_rational(1, p)

    @staticmethod
    def i(p: int) -> "ExactComplex":
        if p == 2:
            return ExactComplex(2, 2, {(1, 0): Fraction(1)})
        return ExactComplex(p, 0, {(0, 1): Fraction(1)})

    @staticmethod
    def gaussian(re: Scalar, im: Scalar, p: int) -> "ExactComplex":
        return ExactComplex.from_rational(re, p) + ExactComplex.i(p) * Fraction(im)

    @staticmethod
    def root(p: int, s: int, a: int) -> "ExactComplex":
        """zeta_{p^s}^a, reduced to conductor exponent s."""
        if s < 0:
            raise ValueError("negative tower exponent")
        a %= p**s
        while s > 0 and a % p == 0:
            a //= p
            s -= 1
        return ExactComplex(p, s, {(a, 0): Fraction(1)})

    # -- level management ---------------------------------------------

    def _promoted(self, r_new: int) -> dict:
        if r_new == self.r:
            return self.c
        shift = self.p ** (r_new - self.r)
        return {(a * shift, b): v for (a, b), v in self.c.items()}

    @staticmethod
    def _common(x: "ExactComplex", y: "ExactComplex"):
        if x.p != y.p:
            raise ValueError(f"mixed primes {x.p} and {y.p}")
        r = max(x.r, y.r)
        return r, x._promoted(r), y._promoted(r)

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ExactComplex.from_rational(other, self.p)
        r, a, b = ExactComplex._common(self, other)
        out = dict(a)
        for k, v in b.items():
            w = out.get(k, 0) + v
            if w:
                out[k] = w
            elif k in out:
                del out[k]
        return ExactComplex(self.p, r, out)

    __radd__ = __add__

    def __neg__(self):
        return ExactComplex(self.p, self.r, {k: -v for k, v in self.c.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ExactComplex.from_rational(other, self.p)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if q == 0:
                return ExactComplex.zero(self.p)
            return ExactComplex(self.p, self.r, {k: v * q for k, v in self.c.items()})
        r, a, b = ExactComplex._common(self, other)
        mod = self.p**r
        out: dict = {}
        for (a1, b1), v1 in a.items():
            for (a2, b2), v2 in b.items():
                e = (a1 + a2) % mod
                bb = b1 + b2
                w = v1 * v2
                if bb >= 2:  # i^2 = -1
                    bb -= 2
                    w = -w
                k = (e, bb)
                acc = out.get(k, 0) + w
                if acc:
                    out[k] = acc
                elif k in out:
                    del out[k]
        return ExactComplex(self.p, r, out)

    __rmul__ = __mul__

    def conjugate(self) -> "ExactComplex":
        mod = self.p**self.r
        out: dict = {}
        for (a, b), v in self.c.items():
            k = ((-a) % mod, b)
            w = -v if b else v
            out[k] = out.get(k, 0) + w
        return ExactComplex(self.p, self.r, out)

    # -- canonical form and predicates ---------------------------------

    def _canonical(self) -> dict:
        """Coordinates on the power basis {zeta^a i^b : a < phi(p^r)}."""
        p, r = self.p, self.r
        if r == 0:
            out = {}
            for (a, b), v in self.c.items():
                out[(0, b)] = out.get((0, b), 0) + v
            return {k: v for k, v in out.items() if v != 0}
        phi = _phi(p, r)
        pr1 = p ** (r - 1)
        out = {}
        for (a, b), v in self.c.items():
            if a < phi:
                out[(a, b)] = out.get((a, b), 0) + v
            else:
                # zeta^(s + (p-1)p^(r-1)) = -sum_{l<p-1} zeta^(s + l p^(r-1))
                s = a - (p - 1) * pr1
                for l in range(p - 1):
                    k = (s + l * pr1, b)
                    out[k] = out.get(k, 0) - v
        return {k: v for k, v in out.items() if v != 0}

    def is_zero(self) -> bool:
        return not self._canonical()

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ExactComplex.from_rational(other, self.p)
        if not isinstance(other, ExactComplex):
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        r, canon = self.reduced()
        return hash((self.p, r, tuple(sorted(canon.c.items()))))

    def reduced(self):
        """Minimal-level canonical copy: (level, element)."""
        canon = self._canonical()
        p = self.p
        r = self.r
        # drop to the smallest level containing all exponents
        while r > 0:
            if all(a % p == 0 for (a, b) in canon):
                canon = {(a // p, b): v for (a, b), v in canon.items()}
                r -= 1
            else:
                break
        if p == 2 and r < 2 and any(b for (a, b) in canon):
            raise AssertionError("p=2 element with loose i component")
        elem = ExactComplex(p, r, canon)
        return r, elem

    def rational_value(self) -> Fraction:
        """The value as a rational, if it is one."""
        canon = self._canonical()
        extra = {k: v for k, v in canon.items() if k != (0, 0)}
        if extra:
            raise ValueError("value is not rational")
        return canon.get((0, 0), Fraction(0))

    # -- division ------------------------------------------------------

    def inverse(self) -> "ExactComplex":
        canon = self._canonical()
        if not canon:
            raise ZeroDivisionError("inverse of 0")
        if len(canon) == 1:
            (a, b), v = next(iter(canon.items()))
            mod = self.p**self.r
            inv = ExactComplex(self.p, self.r, {((-a) % mod, b): Fraction(1) / v})
            return inv * (-1) if b else inv  # 1/i = -i
        return self._inverse_linear()

    def _inverse_linear(self) -> "ExactComplex":
        p, r = self.p, self.r
        phi = _phi(p, r)
        use_i = p != 2
        basis = [(a, b) for b in ((0, 1) if use_i else (0,)) for a in range(phi)]
        dim = len(basis)
        if dim > 600:
            raise OverflowError("inversion not supported at this cyclotomic level")
        index = {k: j for j, k in enumerate(basis)}
        # columns: self * basis_k in canonical coordinates
        mat = [[Fraction(0)] * dim for _ in range(dim)]
        for j, k in enumerate(basis):
            col = (self * ExactComplex(p, r, {k: Fraction(1)}))._canonical()
            for kk, v in col.items():
                mat[index[kk]][j] = v
        rhs = [Fraction(0)] * dim
        rhs[index[(0, 0)]] = Fraction(1)
        sol = _solve(mat, rhs)
        return ExactComplex(p, r, {basis[j]: sol[j] for j in range(dim) if sol[j]})

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if q == 0:
                raise ZeroDivisionError("division by zero")
            return self * (Fraction(1) / q)
        return self * other.inverse()

    # -- reporting (floats never feed back into computation) -----------

    def to_complex(self) -> complex:
        tau = 2 * cmath.pi
        mod = self.p**self.r
        total = 0j
        for (a, b), v in self.c.items():
            w = cmath.exp(1j * tau * a / mod)
            if b:
                w *= 1j
            total += float(v) * w
        return total

    def __repr__(self):
        return f"ExactComplex({self.to_string()})"

    def to_string(self) -> str:
        """Canonical literal: rational/i/zeta(p^r)^k terms joined by +."""
        r, elem = self.reduced()
        if not elem.c:
            return "0"
        parts = []
        for (a, b), v in sorted(elem.c.items()):
            factors = []
            if v == -1 and (a or b):
                factors.append("-")
            elif v != 1 or (not a and not b):
                factors.append(str(v))
            if a:
                factors.append(f"zeta({self.p}^{r})^{a}" if a != 1 else f"zeta({self.p}^{r})")
            if b:
                factors.append("i")
            term = "*".join(f for f in factors if f != "-")
            if factors and factors[0] == "-":
                term = "-" + term
            parts.append(term)
        out = parts[0]
        for t in parts[1:]:
            out += t if t.startswith("-") else "+" + t
        return out


def _solve(mat: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Exact Gaussian elimination; mat is modified in place."""
    n = len(mat)
    for col in range(n):
        piv = next((row for row in range(col, n) if mat[row][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("singular multiplication matrix")
        mat[col], mat[piv] = mat[piv], mat[col]
        rhs[col], rhs[piv] = rhs[piv], rhs[col]
        inv = Fraction(1) / mat[col][col]
        mat[col] = [x * inv for x in mat[col]]
        rhs[col] *= inv
        for row in range(n):
            if row != col and mat[row][col]:
                f = mat[row][col]
                mat[row] = [x - f * y for x, y in zip(mat[row], mat[col])]
                rhs[row] -= f * rhs[col]
    return rhs


def zeta(p: int, r: int, exponent: int = 1) -> ExactComplex:
    """Primitive p^r-th root of unity raised to an integer power."""
    return ExactComplex.root(p, r, exponent)

