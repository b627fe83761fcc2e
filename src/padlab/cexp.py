"""Grammar, parser, and exact evaluator for the C^exp expression algebra.

Expressions are finite sums of products of the generators |f(x)|^s,
ord g(x), and psi(h(x)) over rational terms f, g, h, with coefficients in
Q(i, zeta_{p^r}).  A fourth internal generator, bscale(t1; ...; tN),
realizes the damping factor p^(-sum |ord t_i(x)|) used by the bounded
rewrite; it cannot be expressed as a finite sum of products of the other
three, which have no conditional branching.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .cyclotomic import ExactComplex
from .padic import Box, Rat, coset_rep, norm, valuation
from .ratterm import NotInDomain, Poly, RatTerm
from .schwartz import psi_eval


class CexpSyntaxError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} at line {line}, column {col}")
        self.line = line
        self.col = col


class NotInAlgebra(ValueError):
    """The written expression leaves the algebra (e.g. a negative ord power)."""


# -- atoms ---------------------------------------------------------------


@dataclass(frozen=True)
class Atom:
    kind: str  # abs | ord | psi | bscale
    term: RatTerm | None = None
    power: int = 1
    terms: tuple[RatTerm, ...] = ()

    def key(self):
        if self.kind == "bscale":
            return ("bscale", tuple(t.to_string() for t in self.terms))
        return (self.kind, self.term.to_string(), self.power)

    def to_string(self) -> str:
        if self.kind == "bscale":
            return "bscale(" + "; ".join(t.to_string() for t in self.terms) + ")"
        body = f"{self.kind}({self.term.to_string()})"
        if self.kind == "abs" and self.power != 1:
            return body + f"^{self.power}" if self.power >= 0 else body + f"^({self.power})"
        if self.kind == "ord" and self.power != 1:
            return body + f"^{self.power}"
        return body

    def eval(self, xs: Sequence[Rat], p: int) -> ExactComplex:
        if self.kind == "abs":
            v = self.term.eval(xs)
            if v == 0:
                if self.power < 0:
                    raise NotInDomain("|0| raised to a negative power")
                return ExactComplex.zero(p)
            return ExactComplex.from_rational(norm(v, p) ** self.power, p)
        if self.kind == "ord":
            v = self.term.eval(xs)
            if v == 0:
                raise NotInDomain("ord of 0")
            return ExactComplex.from_rational(Fraction(valuation(v, p)) ** self.power, p)
        if self.kind == "psi":
            return psi_eval(self.term.eval(xs), p)
        if self.kind == "bscale":
            alpha = 0
            for t in self.terms:
                v = t.eval(xs)
                if v != 0:
                    alpha += abs(valuation(v, p))
            return ExactComplex.from_rational(Fraction(1, p**alpha), p)
        raise AssertionError(self.kind)


@dataclass(frozen=True)
class CexpExpr:
    """Sum of products of atoms with ExactComplex coefficients."""

    p: int
    terms: tuple[tuple[ExactComplex, tuple[Atom, ...]], ...]

    @property
    def arity(self) -> int:
        n = 0
        for _, atoms in self.terms:
            for a in atoms:
                ts = a.terms if a.kind == "bscale" else (a.term,)
                for t in ts:
                    n = max(n, t.arity())
        return n

    @staticmethod
    def zero(p: int) -> "CexpExpr":
        return CexpExpr(p, ())

    @staticmethod
    def constant(c, p: int) -> "CexpExpr":
        if isinstance(c, (int, Fraction)):
            c = ExactComplex.from_rational(c, p)
        if c.is_zero():
            return CexpExpr.zero(p)
        return CexpExpr(p, ((c, ()),))

    @staticmethod
    def atom(a: Atom, p: int) -> "CexpExpr":
        return CexpExpr(p, ((ExactComplex.one(p), (a,)),))

    def __add__(self, other: "CexpExpr") -> "CexpExpr":
        if self.p != other.p:
            raise ValueError("mixed primes")
        return _normalize(self.p, list(self.terms) + list(other.terms))

    def __mul__(self, other: "CexpExpr") -> "CexpExpr":
        if self.p != other.p:
            raise ValueError("mixed primes")
        out = []
        for c1, a1 in self.terms:
            for c2, a2 in other.terms:
                out.append((c1 * c2, _merge_atoms(a1 + a2)))
        return _normalize(self.p, out)

    def scale(self, c) -> "CexpExpr":
        if isinstance(c, (int, Fraction)):
            c = ExactComplex.from_rational(c, self.p)
        return _normalize(self.p, [(c * coef, atoms) for coef, atoms in self.terms])

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def eval(self, xs: Sequence[Rat]) -> ExactComplex:
        total = ExactComplex.zero(self.p)
        for coef, atoms in self.terms:
            prod = coef
            for a in atoms:
                prod = prod * a.eval(xs, self.p)
            total = total + prod
        return total

    def to_string(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for coef, atoms in sorted(self.terms, key=lambda t: tuple(a.key() for a in t[1])):
            factors = []
            cs = coef.to_string()
            if cs != "1" or not atoms:
                factors.append(cs if _is_simple_literal(cs) else f"({cs})")
            factors.extend(a.to_string() for a in atoms)
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __str__(self):
        return self.to_string()


def _is_simple_literal(s: str) -> bool:
    return bool(re.fullmatch(r"-?\d+(/\d+)?|i|zeta\(\d+\^\d+\)(\^\d+)?", s))


def _merge_atoms(atoms: Iterable[Atom]) -> tuple[Atom, ...]:
    """Combine powers of identical abs/ord atoms; psi atoms multiply into one
    (psi(a)psi(b) = psi(a+b)); bscale lists concatenate."""
    out: dict = {}
    for a in atoms:
        if a.kind == "psi":
            k = ("psi",)
            prev = out.get(k)
            out[k] = a if prev is None else Atom("psi", prev.term + a.term)
        elif a.kind == "bscale":
            k = ("bscale",)
            prev = out.get(k)
            out[k] = a if prev is None else Atom("bscale", terms=prev.terms + a.terms)
        else:
            k = (a.kind, a.term.to_string())
            prev = out.get(k)
            out[k] = a if prev is None else Atom(a.kind, prev.term, prev.power + a.power)
    merged = []
    for a in out.values():
        if a.kind in ("abs", "ord") and a.power == 0:
            continue
        if a.kind == "psi":
            # drop a trivial character factor psi(0)
            if a.term.op == "const" and a.term.args[0] == 0:
                continue
        merged.append(a)
    return tuple(sorted(merged, key=lambda a: a.key()))


def _normalize(p: int, terms: list) -> CexpExpr:
    bucket: dict = {}
    order: list = []
    for coef, atoms in terms:
        atoms = _merge_atoms(atoms)
        k = tuple(a.key() for a in atoms)
        if k in bucket:
            bucket[k] = (bucket[k][0] + coef, atoms)
        else:
            bucket[k] = (coef, atoms)
            order.append(k)
    out = []
    for k in order:
        coef, atoms = bucket[k]
        if not coef.is_zero():
            out.append((coef, atoms))
    return CexpExpr(p, tuple(out))


# -- tokenizer -----------------------------------------------------------


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(\^|\+|\-|\*|/|\(|\)|;|,))")


@dataclass
class _Tok:
    kind: str  # num | name | op | end
    text: str
    line: int
    col: int


def _tokenize(src: str) -> list[_Tok]:
    toks = []
    line = 1
    line_start = 0
    i = 0
    while i < len(src):
        if src[i] == "\n":
            line += 1
            line_start = i + 1
            i += 1
            continue
        m = _TOKEN.match(src, i)
        if not m or m.end() == i:
            if src[i].isspace():
                i += 1
                continue
            raise CexpSyntaxError(f"unexpected character {src[i]!r}", line, i - line_start + 1)
        col = m.start(m.lastindex) - line_start + 1
        if m.group(1):
            toks.append(_Tok("num", m.group(1), line, col))
        elif m.group(2):
            toks.append(_Tok("name", m.group(2), line, col))
        else:
            toks.append(_Tok("op", m.group(3), line, col))
        i = m.end()
    toks.append(_Tok("end", "", line, len(src) - line_start + 1))
    return toks


class _Parser:
    """Recursive descent over the shared token stream.

    Precedence: ^  >  unary -  >  * /  >  + -, whitespace insignificant.
    """

    def __init__(self, src: str, p: int):
        self.toks = _tokenize(src)
        self.pos = 0
        self.p = p

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def take(self) -> _Tok:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, text: str):
        t = self.take()
        if t.text != text:
            raise CexpSyntaxError(f"expected {text!r}, found {t.text!r}", t.line, t.col)

    def error(self, msg: str):
        t = self.peek()
        raise CexpSyntaxError(msg, t.line, t.col)

    # ---- C^exp level ----

    def parse_expr(self) -> CexpExpr:
        e = self.parse_sum()
        t = self.peek()
        if t.kind != "end":
            self.error(f"trailing input {t.text!r}")
        return e

    def parse_sum(self) -> CexpExpr:
        neg = False
        if self.peek().text == "-":
            self.take()
            neg = True
        e = self.parse_prod()
        if neg:
            e = -e
        while self.peek().text in ("+", "-"):
            op = self.take().text
            rhs = self.parse_prod()
            e = e + (rhs if op == "+" else -rhs)
        return e

    def parse_prod(self) -> CexpExpr:
        e = self.parse_factor()
        while self.peek().text in ("*", "/"):
            op = self.take().text
            rhs = self.parse_factor()
            if op == "*":
                e = e * rhs
            else:
                if len(rhs.terms) != 1 or rhs.terms[0][1]:
                    self.error("division only by coefficient values")
                e = e.scale(rhs.terms[0][0].inverse())
        return e

    def parse_factor(self) -> CexpExpr:
        t = self.peek()
        if t.text == "-":
            self.take()
            return -self.parse_factor()
        if t.text == "(":
            self.take()
            inner = self.parse_sum()
            self.expect(")")
            return self._maybe_power_expr(inner)
        if t.kind == "num":
            q = self.parse_rational()
            return self._maybe_power_expr(CexpExpr.constant(q, self.p))
        if t.kind == "name":
            name = t.text
            if name in ("abs", "ord", "psi"):
                return self.parse_atom(name)
            if name == "bscale":
                return self.parse_bscale()
            if name == "i":
                self.take()
                return self._maybe_power_expr(CexpExpr.constant(ExactComplex.i(self.p), self.p))
            if name == "zeta":
                return self._maybe_power_expr(CexpExpr.constant(self.parse_zeta(), self.p))
            if re.fullmatch(r"x\d+", name):
                self.error(f"bare variable {name!r}: wrap it in abs/ord/psi")
            self.error(f"unknown symbol {name!r}")
        self.error(f"unexpected token {t.text!r}")

    def parse_rational(self) -> Fraction:
        t = self.take()
        return Fraction(int(t.text))

    def parse_zeta(self) -> ExactComplex:
        self.expect("zeta")
        self.expect("(")
        base = int(self.take().text)
        self.expect("^")
        r = int(self.take().text)
        self.expect(")")
        if base != self.p:
            self.error(f"zeta base {base} does not match the scene prime {self.p}")
        e = 1
        if self.peek().text == "^":
            self.take()
            e = self.parse_signed_int()
        return ExactComplex.root(self.p, r, e)

    def parse_signed_int(self) -> int:
        sign = 1
        paren = False
        if self.peek().text == "(":
            self.take()
            paren = True
        if self.peek().text == "-":
            self.take()
            sign = -1
        t = self.take()
        if t.kind != "num":
            raise CexpSyntaxError("expected an integer", t.line, t.col)
        if paren:
            self.expect(")")
        return sign * int(t.text)

    def parse_atom(self, kind: str) -> CexpExpr:
        self.take()  # the name
        self.expect("(")
        term = self.parse_ratterm()
        self.expect(")")
        power = 1
        if self.peek().text == "^":
            self.take()
            power = self.parse_signed_int()
        if kind == "abs":
            if power == 0:
                return CexpExpr.constant(1, self.p)
            return CexpExpr.atom(Atom("abs", term, power), self.p)
        if kind == "ord":
            if power < 0:
                raise NotInAlgebra("ord(...) to a negative power is not in the algebra")
            if power == 0:
                return CexpExpr.constant(1, self.p)
            return CexpExpr.atom(Atom("ord", term, power), self.p)
        # psi powers fold into the argument: psi(h)^k = psi(k h)
        if power == 0:
            return CexpExpr.constant(1, self.p)
        if power != 1:
            term = RatTerm.const(power) * term
        return CexpExpr.atom(Atom("psi", term), self.p)

    def parse_bscale(self) -> CexpExpr:
        self.take()
        self.expect("(")
        terms = [self.parse_ratterm()]
        while self.peek().text == ";":
            self.take()
            terms.append(self.parse_ratterm())
        self.expect(")")
        return CexpExpr.atom(Atom("bscale", terms=tuple(terms)), self.p)

    # ---- rational-term level ----

    def parse_ratterm(self) -> RatTerm:
        neg = False
        if self.peek().text == "-":
            self.take()
            neg = True
        e = self.parse_rt_prod()
        if neg:
            e = -e
        while self.peek().text in ("+", "-"):
            op = self.take().text
            rhs = self.parse_rt_prod()
            e = e + rhs if op == "+" else e - rhs
        return e

    def parse_rt_prod(self) -> RatTerm:
        e = self.parse_rt_factor()
        while self.peek().text in ("*", "/"):
            op = self.take().text
            rhs = self.parse_rt_factor()
            e = e * rhs if op == "*" else e / rhs
        return e

    def parse_rt_factor(self) -> RatTerm:
        t = self.peek()
        if t.text == "-":
            self.take()
            return -self.parse_rt_factor()
        if t.text == "(":
            self.take()
            inner = self.parse_ratterm()
            self.expect(")")
            return self._maybe_power_rt(inner)
        if t.kind == "num":
            self.take()
            return self._maybe_power_rt(RatTerm.const(int(t.text)))
        if t.kind == "name" and re.fullmatch(r"x\d+", t.text):
            self.take()
            idx = int(t.text[1:]) - 1
            if idx < 0:
                raise CexpSyntaxError("variables are numbered from x1", t.line, t.col)
            return self._maybe_power_rt(RatTerm.var(idx))
        self.error(f"unexpected token {t.text!r} in rational term")

    def _maybe_power_rt(self, e: RatTerm) -> RatTerm:
        if self.peek().text == "^":
            self.take()
            return e ** self.parse_signed_int()
        return e

    def _maybe_power_expr(self, e: CexpExpr) -> CexpExpr:
        if self.peek().text != "^":
            return e
        self.take()
        k = self.parse_signed_int()
        if len(e.terms) == 1 and not e.terms[0][1]:
            c = e.terms[0][0]
            if k < 0:
                c = c.inverse()
                k = -k
            out = ExactComplex.one(self.p)
            for _ in range(k):
                out = out * c
            return CexpExpr.constant(out, self.p)
        if k < 0:
            raise NotInAlgebra("negative power of a non-coefficient expression")
        out = CexpExpr.constant(1, self.p)
        for _ in range(k):
            out = out * e
        return out


def parse(source: str, p: int) -> CexpExpr:
    """Parse a C^exp expression; syntax errors carry line and column."""
    return _Parser(source, p).parse_expr()


def parse_ratterm(source: str, p: int = 0) -> RatTerm:
    pp = _Parser(source, p or 2)
    t = pp.parse_ratterm()
    tok = pp.peek()
    if tok.kind != "end":
        raise CexpSyntaxError(f"trailing input {tok.text!r}", tok.line, tok.col)
    return t


# -- local constancy probing ---------------------------------------------

# how many levels finer than a candidate level constancy is probed
PROBE_DEPTH = 2


@dataclass
class ConstancyResult:
    level: int | None
    witness: tuple | None = None  # (x, value_at_x, y, value_at_y)

    @property
    def ok(self) -> bool:
        return self.level is not None


def constancy_level(e: CexpExpr, b: Box, k_max: int = 8) -> ConstancyResult:
    """Least k <= k_max with e constant on every level-k coset of b.

    Constancy is verified by exact evaluation on all level-(k+PROBE_DEPTH)
    representatives.  Probe points where e is undefined are skipped; a
    coset with no defined probe point raises NotInDomain.  If no k at or
    below the cap works, the result carries a witness pair.
    """
    p = e.p
    witness = None
    for k in range(min(0, b.level), k_max + 1):
        fine = max(k, b.level) + PROBE_DEPTH
        groups: dict[tuple, list] = {}
        for sub in b.subboxes(fine):
            key = tuple(coset_rep(c, p, k) for c in sub.center)
            groups.setdefault(key, []).append(sub.center)
        ok = True
        for reps in groups.values():
            seen = None
            seen_at = None
            any_defined = False
            for x in reps:
                try:
                    val = e.eval(x)
                except NotInDomain:
                    continue
                any_defined = True
                if seen is None:
                    seen, seen_at = val, x
                elif not (val == seen):
                    witness = (seen_at, seen, x, val)
                    ok = False
                    break
            if not any_defined:
                raise NotInDomain("no defined probe point in a coset")
            if not ok:
                break
        if ok:
            return ConstancyResult(k)
    return ConstancyResult(None, witness)


# -- bounded rewrite -------------------------------------------------------


def generator_occurrences(e: CexpExpr) -> list[RatTerm]:
    """All F-valued functions inside the generators of e, with multiplicity.

    |f|^s contributes |s| occurrences of f (of 1/f when s < 0), ord(g)^t
    contributes t of g, psi(h) one of h.
    """
    occs: list[RatTerm] = []
    for _, atoms in e.terms:
        for a in atoms:
            if a.kind == "abs":
                t = a.term if a.power > 0 else RatTerm.const(1) / a.term
                occs.extend([t] * abs(a.power))
            elif a.kind == "ord":
                occs.extend([a.term] * a.power)
            elif a.kind == "psi":
                occs.append(a.term)
            else:
                occs.extend(a.terms)
    return occs


def bounded_rewrite(e: CexpExpr) -> CexpExpr:
    """h = f * e with f(x) = p^(-sum_i |ord t_i(x)|) over the generator list.

    f is strictly positive, so Z(h) = Z(e) pointwise; each damped generator
    occurrence has complex modulus at most 1, so |h| is bounded by the sum
    of the coefficient moduli.
    """
    if not e.terms:
        return e
    occs = generator_occurrences(e)
    if not occs:
        return e  # constant expressions are already bounded
    damp = Atom("bscale", terms=tuple(occs))
    out = []
    for coef, atoms in e.terms:
        out.append((coef, _merge_atoms(atoms + (damp,))))
    return _normalize(e.p, out)


def rewrite_bound(e: CexpExpr) -> float:
    """The bound max |coef| * number of summands certified by bounded_rewrite."""
    if not e.terms:
        return 0.0
    return len(e.terms) * max(abs(c.to_complex()) for c, _ in e.terms)


# -- normal-form data for monomial densities --------------------------------


@dataclass(frozen=True)
class CexpMonomialData:
    """c * psi(u(x) M(x)^eta1) * prod |x_i|^(eta2 s_i) ord(x_i)^(t_i) on (Z_p \\ 0)^m.

    u is a polynomial unit presentation (u(0) a unit, u = u(0) mod p); M is
    d * prod x_i^(mu_i) with d a p-integral rational.
    """

    p: int
    m: int
    c: ExactComplex
    u: Poly
    d: Fraction
    mu: tuple[int, ...]
    eta1: int
    eta2: int
    s: tuple[int, ...]
    t: tuple[int, ...]

    def __post_init__(self):
        if self.eta1 not in (1, -1) or self.eta2 not in (1, -1):
            raise ValueError("sign flags must be +-1")
        if any(si < 0 for si in self.s) or any(ti < 0 for ti in self.t):
            raise ValueError("exponent vectors are over the natural numbers")
        u0 = self.u.constant_term()
        if valuation(u0, self.p) != 0:
            raise ValueError("u(0) must be a unit")
        shifted = self.u - Poly.const(u0, self.m)
        if not shifted.is_zero() and shifted.coeff_min_valuation(self.p) < 1:
            raise ValueError("u must be congruent to u(0) mod p")
        if valuation(self.d, self.p) < 0:
            raise ValueError("monomial coefficient must be p-integral")

    def to_expr(self) -> CexpExpr:
        u_term = _poly_to_ratterm(self.u)
        mono = RatTerm.const(self.d)
        for i, e in enumerate(self.mu):
            mono = mono * RatTerm.var(i) ** e
        arg = u_term * mono ** self.eta1
        atoms = [Atom("psi", arg)]
        for i in range(self.m):
            if self.s[i]:
                atoms.append(Atom("abs", RatTerm.var(i), self.eta2 * self.s[i]))
            if self.t[i]:
                atoms.append(Atom("ord", RatTerm.var(i), self.t[i]))
        return CexpExpr(self.p, ((self.c, _merge_atoms(atoms)),))


def _poly_to_ratterm(poly: Poly) -> RatTerm:
    total = RatTerm.const(0)
    for k, v in sorted(poly.c.items()):
        term = RatTerm.const(v)
        for i, e in enumerate(k):
            if e:
                term = term * RatTerm.var(i) ** e
        total = total + term
    return total
