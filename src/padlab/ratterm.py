"""Rational-function terms over Q in variables x1, x2, ... with exact evaluation.

These are the definable ingredients fed to the C^exp generators, graph
maps, and chart certifications.  A small multivariate polynomial type is
included for the cases where exact p-adic continuity bounds or Newton
iteration are needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .padic import Rat, _as_fraction, valuation


class NotInDomain(Exception):
    """A term (or an expression built from terms) is undefined at the point."""


# -- polynomials -------------------------------------------------------


class Poly:
    """Multivariate polynomial with Fraction coefficients, dict-of-monomials form."""

    __slots__ = ("nvars", "c")

    def __init__(self, nvars: int, coeffs: dict):
        self.nvars = nvars
        self.c = {tuple(k): Fraction(v) for k, v in coeffs.items() if v != 0}

    @staticmethod
    def const(q: Rat, nvars: int) -> "Poly":
        q = _as_fraction(q)
        return Poly(nvars, {(0,) * nvars: q} if q else {})

    @staticmethod
    def var(i: int, nvars: int) -> "Poly":
        e = [0] * nvars
        e[i] = 1
        return Poly(nvars, {tuple(e): Fraction(1)})

    def __eq__(self, other):
        return isinstance(other, Poly) and self.nvars == other.nvars and self.c == other.c

    def __hash__(self):
        return hash((self.nvars, tuple(sorted(self.c.items()))))

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.c)
        for k, v in other.c.items():
            w = out.get(k, 0) + v
            if w:
                out[k] = w
            elif k in out:
                del out[k]
        return Poly(self.nvars, out)

    def __neg__(self):
        return Poly(self.nvars, {k: -v for k, v in self.c.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly(self.nvars, {k: v * other for k, v in self.c.items()})
        out: dict = {}
        for k1, v1 in self.c.items():
            for k2, v2 in other.c.items():
                k = tuple(a + b for a, b in zip(k1, k2))
                w = out.get(k, 0) + v1 * v2
                if w:
                    out[k] = w
                elif k in out:
                    del out[k]
        return Poly(self.nvars, out)

    __rmul__ = __mul__

    def pow(self, e: int) -> "Poly":
        if e < 0:
            raise ValueError("negative polynomial power")
        out = Poly.const(1, self.nvars)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def is_zero(self) -> bool:
        return not self.c

    def degree(self) -> int:
        return max((sum(k) for k in self.c), default=0)

    def constant_term(self) -> Fraction:
        return self.c.get((0,) * self.nvars, Fraction(0))

    def eval(self, xs: Sequence[Rat]) -> Fraction:
        xs = [_as_fraction(x) for x in xs]
        total = Fraction(0)
        for k, v in self.c.items():
            term = v
            for xi, e in zip(xs, k):
                if e:
                    term *= xi**e
            total += term
        return total

    def coeff_min_valuation(self, p: int):
        return min((valuation(v, p) for v in self.c.values()), default=0)

    def lipschitz_extra(self, p: int, domain_min_level: int = 0) -> int:
        """c such that x = x' mod p^l implies f(x) = f(x') mod p^(l - c) on
        points of level >= domain_min_level."""
        c = max(0, -self.coeff_min_valuation(p))
        growth = max(0, -domain_min_level) * max(0, self.degree() - 1)
        return c + growth

    def reduce_coeffs(self, p: int, prec: int) -> "Poly":
        """Canonical representative of each p-integral coefficient mod p^prec."""
        out = {}
        mod = p**prec
        for k, v in self.c.items():
            if valuation(v, p) < 0:
                raise ValueError("coefficient is not p-integral")
            out[k] = Fraction(v.numerator * pow(v.denominator, -1, mod) % mod)
        return Poly(self.nvars, out)

    def diff(self, i: int) -> "Poly":
        out = {}
        for k, v in self.c.items():
            if k[i]:
                kk = list(k)
                kk[i] -= 1
                out[tuple(kk)] = v * k[i]
        return Poly(self.nvars, out)

    def __repr__(self):
        if not self.c:
            return "0"
        parts = []
        for k, v in sorted(self.c.items()):
            mono = "*".join(f"x{i+1}^{e}" if e > 1 else f"x{i+1}"
                            for i, e in enumerate(k) if e)
            parts.append(f"{v}*{mono}" if mono else str(v))
        return " + ".join(parts)


# -- rational terms ----------------------------------------------------


@dataclass(frozen=True)
class RatTerm:
    """Expression tree over x1..xn with +, -, *, /, integer powers."""

    op: str  # const | var | add | sub | mul | div | pow | neg
    args: tuple
    # const: (Fraction,); var: (index,); pow: (RatTerm, int); others: RatTerms

    @staticmethod
    def const(q: Rat) -> "RatTerm":
        return RatTerm("const", (_as_fraction(q),))

    @staticmethod
    def var(i: int) -> "RatTerm":
        return RatTerm("var", (i,))

    def __add__(self, other):
        return RatTerm("add", (self, _coerce(other)))

    def __sub__(self, other):
        return RatTerm("sub", (self, _coerce(other)))

    def __mul__(self, other):
        return RatTerm("mul", (self, _coerce(other)))

    def __truediv__(self, other):
        return RatTerm("div", (self, _coerce(other)))

    def __neg__(self):
        return RatTerm("neg", (self,))

    def __pow__(self, e: int):
        return RatTerm("pow", (self, int(e)))

    def arity(self) -> int:
        if self.op == "const":
            return 0
        if self.op == "var":
            return self.args[0] + 1
        if self.op == "pow":
            return self.args[0].arity()
        return max(a.arity() for a in self.args)

    def eval(self, xs: Sequence[Rat]) -> Fraction:
        op = self.op
        if op == "const":
            return self.args[0]
        if op == "var":
            i = self.args[0]
            if i >= len(xs):
                raise NotInDomain(f"point has no coordinate x{i+1}")
            return _as_fraction(xs[i])
        if op == "neg":
            return -self.args[0].eval(xs)
        if op == "pow":
            base, e = self.args
            b = base.eval(xs)
            if e < 0 and b == 0:
                raise NotInDomain("zero raised to a negative power")
            return b**e
        a = self.args[0].eval(xs)
        b = self.args[1].eval(xs)
        if op == "add":
            return a + b
        if op == "sub":
            return a - b
        if op == "mul":
            return a * b
        if op == "div":
            if b == 0:
                raise NotInDomain("division by zero")
            return a / b
        raise AssertionError(op)

    def diff(self, i: int) -> "RatTerm":
        op = self.op
        if op == "const":
            return RatTerm.const(0)
        if op == "var":
            return RatTerm.const(1 if self.args[0] == i else 0)
        if op == "neg":
            return -self.args[0].diff(i)
        if op == "pow":
            base, e = self.args
            if e == 0:
                return RatTerm.const(0)
            return RatTerm.const(e) * base ** (e - 1) * base.diff(i)
        a, b = self.args
        if op == "add":
            return a.diff(i) + b.diff(i)
        if op == "sub":
            return a.diff(i) - b.diff(i)
        if op == "mul":
            return a.diff(i) * b + a * b.diff(i)
        if op == "div":
            return (a.diff(i) * b - a * b.diff(i)) / (b * b)
        raise AssertionError(op)

    def subst(self, mapping: Sequence["RatTerm"]) -> "RatTerm":
        """Substitute x_{i+1} -> mapping[i]."""
        op = self.op
        if op == "const":
            return self
        if op == "var":
            i = self.args[0]
            if i >= len(mapping):
                raise ValueError(f"no substitution for x{i+1}")
            return mapping[i]
        if op == "neg":
            return -self.args[0].subst(mapping)
        if op == "pow":
            return self.args[0].subst(mapping) ** self.args[1]
        a = self.args[0].subst(mapping)
        b = self.args[1].subst(mapping)
        return RatTerm(op, (a, b))

    def as_poly(self, nvars: int) -> Poly | None:
        """The term as a polynomial, if it is one (constant divisors allowed)."""
        op = self.op
        if op == "const":
            return Poly.const(self.args[0], nvars)
        if op == "var":
            return Poly.var(self.args[0], nvars) if self.args[0] < nvars else None
        if op == "neg":
            inner = self.args[0].as_poly(nvars)
            return None if inner is None else -inner
        if op == "pow":
            base, e = self.args
            inner = base.as_poly(nvars)
            if inner is None:
                return None
            if e >= 0:
                return inner.pow(e)
            if inner.degree() == 0 and not inner.is_zero():
                return Poly.const(inner.constant_term() ** e, nvars)
            return None
        a = self.args[0].as_poly(nvars)
        b = self.args[1].as_poly(nvars)
        if a is None or b is None:
            return None
        if op == "add":
            return a + b
        if op == "sub":
            return a - b
        if op == "mul":
            return a * b
        if op == "div":
            if b.degree() == 0 and not b.is_zero():
                return a * (Fraction(1) / b.constant_term())
            return None
        raise AssertionError(op)

    def as_monomial(self, nvars: int) -> tuple[Fraction, tuple[int, ...]] | None:
        """(c, exponents) with the term equal to c * prod x_i^{e_i}, e_i in Z."""
        op = self.op
        if op == "const":
            return (self.args[0], (0,) * nvars) if self.args[0] != 0 else None
        if op == "var":
            if self.args[0] >= nvars:
                return None
            e = [0] * nvars
            e[self.args[0]] = 1
            return Fraction(1), tuple(e)
        if op == "neg":
            inner = self.args[0].as_monomial(nvars)
            if inner is None:
                return None
            return -inner[0], inner[1]
        if op == "pow":
            base, e = self.args
            inner = base.as_monomial(nvars)
            if inner is None:
                return None
            return inner[0] ** e, tuple(x * e for x in inner[1])
        if op in ("mul", "div"):
            a = self.args[0].as_monomial(nvars)
            b = self.args[1].as_monomial(nvars)
            if a is None or b is None:
                return None
            if op == "mul":
                return a[0] * b[0], tuple(x + y for x, y in zip(a[1], b[1]))
            return a[0] / b[0], tuple(x - y for x, y in zip(a[1], b[1]))
        if op in ("add", "sub"):
            # a sum collapses to a monomial only if one side vanishes
            pa = self.as_poly(nvars)
            if pa is not None and len(pa.c) == 1:
                k, v = next(iter(pa.c.items()))
                return v, k
            if pa is not None and pa.is_zero():
                return None
            return None
        raise AssertionError(op)

    def to_string(self) -> str:
        return _print(self, 0)

    def __str__(self):
        return self.to_string()


def _coerce(x) -> RatTerm:
    if isinstance(x, RatTerm):
        return x
    return RatTerm.const(x)


_PREC = {"add": 1, "sub": 1, "mul": 2, "div": 2, "neg": 3, "pow": 4, "const": 5, "var": 5}


def _print(t: RatTerm, outer: int) -> str:
    op = t.op
    if op == "const":
        q = t.args[0]
        s = str(q)
        if q < 0:
            return f"({s})"
        eff = 5 if q.denominator == 1 else 2  # a/b binds like division
        return s if eff >= outer else f"({s})"
    if op == "var":
        return f"x{t.args[0] + 1}"
    prec = _PREC[op]
    if op == "neg":
        s = "-" + _print(t.args[0], prec)
    elif op == "pow":
        s = _print(t.args[0], prec + 1) + f"^{t.args[1]}"
    else:
        sym = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[op]
        s = _print(t.args[0], prec) + sym + _print(t.args[1], prec + (op in ("sub", "div")))
    return f"({s})" if prec < outer else s
