"""Distribution catalog: exact evaluators, the ball transform, pushforward,
and the loci construction.

Every catalog distribution evaluates Schwartz-Bruhat test functions to an
exact cyclotomic value.  Densities that are singular along the coordinate
hyperplanes are integrated shell by shell: oscillatory shells are killed
exactly by character orthogonality beyond the conductor, and the
non-oscillatory tails are geometric-with-polynomial series summed in
closed rational form.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .cexp import Atom, CexpExpr
from .cyclotomic import ExactComplex
from .graphs import GraphManifold
from .padic import Box, ClopenSet, Rat, _as_fraction, cell_volume, norm, rep_key, valuation
from .ratterm import RatTerm
from .schwartz import SchwartzBruhat, psi_eval


class NonIntegrable(Exception):
    """A non-oscillatory shell tail diverges."""


class UnsupportedShape(Exception):
    """The density is outside the exactly integrable catalog."""


# -- wave-front metadata in closed form ----------------------------------


@dataclass(frozen=True)
class ClosedFormWF:
    """kind: "empty" (smooth measure), "point" (all covectors over a point),
    or "conormal" (conormal bundle of a graph manifold)."""

    kind: str
    point: tuple[Fraction, ...] | None = None
    manifold: GraphManifold | None = None


@dataclass
class Distribution:
    """Linear functional on Schwartz-Bruhat functions, exactly evaluable.

    eval_mod_fn, when given, computes xi(phi * psi(<w, .>)) directly; it
    must agree with eval_fn(phi.modulate(w)).  domain is the clopen set
    that carries xi, if any, and wf its closed-form wave front set.
    """

    p: int
    n: int
    eval_fn: Callable[[SchwartzBruhat], ExactComplex]
    eval_mod_fn: Callable[[SchwartzBruhat, Sequence[Rat]], ExactComplex] | None = None
    domain: ClopenSet | None = None
    wf: ClosedFormWF | None = None

    def eval(self, phi: SchwartzBruhat) -> ExactComplex:
        if phi.p != self.p or phi.n != self.n:
            raise ValueError("test function lives on the wrong space")
        return self.eval_fn(phi)

    def eval_mod(self, phi: SchwartzBruhat, w: Sequence[Rat]) -> ExactComplex:
        """xi(phi * psi(<w, .>)): the Fourier pairing used by wave-front scans."""
        if self.eval_mod_fn is not None:
            return self.eval_mod_fn(phi, w)
        return self.eval(phi.modulate(w))


# -- simple catalog entries ----------------------------------------------


def dirac(p: int, a: Sequence[Rat]) -> Distribution:
    a = tuple(_as_fraction(c) for c in a)
    n = len(a)

    def ev(phi: SchwartzBruhat) -> ExactComplex:
        return phi.evaluate(a)

    def ev_mod(phi: SchwartzBruhat, w) -> ExactComplex:
        return phi.evaluate(a) * psi_eval(sum(_as_fraction(wi) * ai for wi, ai in zip(w, a)), p)

    return Distribution(p, n, ev, ev_mod, wf=ClosedFormWF("point", point=a))


def haar_on(X: ClopenSet) -> Distribution:
    p, n = X.p, X.dim

    def ev(phi: SchwartzBruhat) -> ExactComplex:
        return phi.restrict(X).integrate()

    def ev_mod(phi: SchwartzBruhat, w) -> ExactComplex:
        w = tuple(_as_fraction(wi) for wi in w)
        f = phi.restrict(X)
        k = f.k
        # inner integral over a level-k coset: psi(<w, rep>) p^{-nk} if
        # every v(w_i) >= 1 - k, else 0 by character orthogonality
        if any(wi != 0 and valuation(wi, p) < 1 - k for wi in w):
            return ExactComplex.zero(p)
        total = ExactComplex.zero(p)
        for rep, val in f.table.items():
            total = total + val * psi_eval(sum(wi * ri for wi, ri in zip(w, rep)), p)
        return total * cell_volume(p, n, k)

    return Distribution(p, n, ev, ev_mod, domain=X, wf=ClosedFormWF("empty"))


def graph_measure(W: GraphManifold) -> Distribution:
    """Pushforward of Haar measure on the base to the graph."""
    p, n = W.p, W.n

    def support_cells(phi: SchwartzBruhat, level: int):
        """(t_rep, phi value) over base cosets under the support of phi."""
        seen = set()
        out = []
        for rep in phi.table:
            tbox = ClopenSet.single(Box(p, rep[: W.d], phi.k)).intersect(W.base)
            for cell in tbox.cosets(max(level, tbox.max_level())):
                t = cell.center
                if t in seen:
                    continue
                seen.add(t)
                val = phi.evaluate(W.point(t))
                if not val.is_zero():
                    out.append((t, val))
        return out

    def pulled(phi: SchwartzBruhat, w=None):
        """xi(phi), or xi(phi * psi(<w, .>)) when w is given."""
        extra = W.lipschitz_extra()
        level0 = max(phi.k + extra, W.base.max_level())
        cells = support_cells(phi, level0)
        total = ExactComplex.zero(p)
        if w is None:
            for _, val in cells:
                total = total + val
            return total * cell_volume(p, W.d, level0)
        w = tuple(_as_fraction(wi) for wi in w)
        shift = max((1 - valuation(wi, p) for wi in w if wi != 0), default=0)
        level = max(level0, shift + extra)
        for t, val in cells:
            acc = ExactComplex.zero(p)
            for sub in Box(p, t, level0).subboxes(level):
                x = W.point(sub.center)
                acc = acc + psi_eval(sum(wi * xi for wi, xi in zip(w, x)), p)
            total = total + val * acc
        return total * cell_volume(p, W.d, level)

    return Distribution(p, n, pulled, pulled, wf=ClosedFormWF("conormal", manifold=W))


# -- polynomial-times-geometric tails --------------------------------------


def _series_u_power(b: int, z: Fraction) -> Fraction:
    """sum_{u>=0} u^b z^u for 0 < z < 1, via N_b(z) / (1-z)^(b+1)."""
    # N_0 = 1; N_b = z * (N'_{b-1}(z)(1-z) + b N_{b-1}(z))
    coeffs = [Fraction(1)]
    for b_cur in range(1, b + 1):
        deriv = [coeffs[i] * i for i in range(1, len(coeffs))]
        part = _poly_mul_1mz(deriv)
        part = _poly_add(part, [c * b_cur for c in coeffs])
        coeffs = [Fraction(0)] + part
    num = sum(c * z**i for i, c in enumerate(coeffs))
    return num / (1 - z) ** (b + 1)


def _poly_add(a: list, b: list) -> list:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return out


def _poly_mul_1mz(a: list) -> list:
    """a(z) * (1 - z) on coefficient lists."""
    out = list(a) + [Fraction(0)]
    for i in range(len(out) - 1, 0, -1):
        out[i] -= a[i - 1] if i - 1 < len(a) else 0
    return out


def tail_sum(z: Fraction, t: int, start: int) -> Fraction:
    """sum_{j >= start} j^t z^j, exact; requires 0 < z < 1."""
    if not 0 < z < 1:
        raise NonIntegrable(f"tail base {z} is not inside the unit interval")
    # shift so the tail starts at 0: sum_{u>=0} (u+start)^t z^(u+start)
    total = Fraction(0)
    for b in range(t + 1):
        total += _binom(t, b) * Fraction(start) ** (t - b) * _series_u_power(b, z)
    return z**start * total


def _binom(nn: int, kk: int) -> int:
    out = 1
    for i in range(kk):
        out = out * (nn - i) // (i + 1)
    return out


def range_sum(z: Fraction, t: int, a: int, b: int) -> Fraction:
    """sum_{j=a}^{b} j^t z^j (finite, any nonzero z)."""
    return sum(Fraction(j) ** t * z**j for j in range(a, b + 1))


# -- the monomial-density engine -------------------------------------------


@dataclass
class _MonoTerm:
    coef: ExactComplex
    s: tuple[int, ...]       # |x_i| exponents
    t: tuple[int, ...]       # ord(x_i) powers
    A: Fraction | None       # psi(A * prod x_i^kappa_i), None when absent
    kappa: tuple[int, ...]


def _expand_term(p: int, m: int, coef: ExactComplex, atoms) -> list[_MonoTerm]:
    """Normalize one product of atoms to monomial shell data.

    ord atoms over genuine monomials expand binomially into pure
    ord(x_i)-powers; the psi atom must carry a monomial argument.
    """
    s = [0] * m
    psi_A = None
    kappa = (0,) * m
    # ord polynomial in the shell indices: dict exponent-tuple -> Fraction
    ordpoly: dict[tuple, Fraction] = {(0,) * m: Fraction(1)}
    scale = Fraction(1)
    for a in atoms:
        if a.kind == "abs":
            mono = a.term.as_monomial(m)
            if mono is None:
                raise UnsupportedShape(f"abs argument {a.term} is not a monomial")
            c, exps = mono
            scale *= norm(c, p) ** a.power
            for i in range(m):
                s[i] += exps[i] * a.power
        elif a.kind == "ord":
            mono = a.term.as_monomial(m)
            if mono is None:
                raise UnsupportedShape(f"ord argument {a.term} is not a monomial")
            c, exps = mono
            base = {(0,) * m: Fraction(valuation(c, p))} if valuation(c, p) else {}
            for i, e in enumerate(exps):
                if e:
                    key = tuple(1 if j == i else 0 for j in range(m))
                    base[key] = base.get(key, Fraction(0)) + e
            for _ in range(a.power):
                ordpoly = _ordpoly_mul(ordpoly, base, m)
        elif a.kind == "psi":
            mono = a.term.as_monomial(m)
            if mono is None:
                raise UnsupportedShape(f"psi argument {a.term} is not a monomial")
            A, exps = mono
            if psi_A is not None:
                raise UnsupportedShape("multiple psi factors in one product")
            if all(e == 0 for e in exps):
                scale2 = psi_eval(A, p)
                coef = coef * scale2
            else:
                psi_A, kappa = A, exps
        else:
            raise UnsupportedShape("bscale factors are not shell-integrable")
    out = []
    for texp, q in ordpoly.items():
        if q == 0:
            continue
        out.append(_MonoTerm(coef * (scale * q), tuple(s), texp, psi_A, kappa))
    return out


def _ordpoly_mul(poly: dict, lin: dict, m: int) -> dict:
    """Multiply a polynomial in the shell indices by a linear form."""
    out: dict = {}
    if not lin:
        return {}
    for k1, v1 in poly.items():
        for k2, v2 in lin.items():
            k = tuple(a + b for a, b in zip(k1, k2))
            out[k] = out.get(k, Fraction(0)) + v1 * v2
    return out


class _PsiAverager:
    """Probability averages of psi(A* prod g_i^kappa_i) over unit-group cosets.

    Structure: a deep coordinate averages over all units U; shallow
    coordinates over 1 + p^a Z_p.  Vanishing beyond the conductor and the
    trivial zone are decided by valuation alone; the finitely many middle
    values are brute-force character sums at a certified level, checked by
    recomputation one level finer.

    The cache is keyed by w alone.  That is sound only within one (cell,
    term), where w fixes a_star; across cells the same w comes with other
    a_star values and other averages (p = 3, one shallow coordinate with
    kappa = 1 and a = 2, w = -1: zeta_9 at a_star = 1/3, zeta_9^2 at
    a_star = 2/3).  So an averager must not be shared between cells.
    """

    def __init__(self, p: int, coords: list[tuple[str, int, int]]):
        # coords: (mode, kappa, a_level) with mode in {deep, shallow}
        self.p = p
        self.coords = [c for c in coords if c[1] != 0]
        self.cache: dict[int, ExactComplex] = {}
        extra = 1 if p == 2 else 0
        self.vanish_at = max(
            (-a - valuation(kappa, p) - extra for (_, kappa, a) in self.coords),
            default=-(10**9),
        )

    def value(self, w: int, a_star: Fraction) -> ExactComplex:
        p = self.p
        if not self.coords:
            return psi_eval(a_star, p)
        if w >= 1:
            return ExactComplex.one(p)
        if w <= self.vanish_at:
            return ExactComplex.zero(p)
        if w in self.cache:
            return self.cache[w]
        # Ramanujan fast path: a lone deep coordinate with |kappa| = 1, where
        # the unit average depends on the valuation w alone
        if (w == 0 and len(self.coords) == 1 and self.coords[0][0] == "deep"
                and abs(self.coords[0][1]) == 1):
            val = ExactComplex.from_rational(Fraction(-1, p - 1), p)
            self.cache[w] = val
            return val
        first = self._brute(w, a_star, 0)
        second = self._brute(w, a_star, 1)
        if not (first == second):
            raise AssertionError("character-sum level certification failed")
        self.cache[w] = first
        return first

    def _brute(self, w: int, a_star: Fraction, bump: int) -> ExactComplex:
        p = self.p
        extra = 2 if p == 2 else 0
        lvl = max([1] + [1 - w + valuation(k, p) + extra for (_, k, _) in self.coords]
                  + [a + 1 for (mode, _, a) in self.coords if mode == "shallow"]) + bump
        spaces = []
        for mode, kappa, a in self.coords:
            if mode == "deep":
                pts = [Fraction(u) for u in range(1, p**lvl) if u % p != 0]
            else:
                pts = [1 + Fraction(p**a) * c for c in range(p ** (lvl - a))]
            spaces.append((pts, kappa))
        total = ExactComplex.zero(p)
        count = 1
        for pts, _ in spaces:
            count *= len(pts)
        for combo in itertools.product(*[pts for pts, _ in spaces]):
            arg = a_star
            for g, (_, kappa) in zip(combo, spaces):
                arg *= g**kappa
            total = total + psi_eval(arg, p)
        return total * Fraction(1, count)


def density_distribution(e: CexpExpr, X: ClopenSet) -> Distribution:
    """Distribution phi -> integral over X of e(x) phi(x) dx, exactly.

    e must be locally constant off the coordinate hyperplanes and of
    monomial type near them: sums of c psi(A prod x^kappa) prod |x_i|^s_i
    ord(x_i)^t_i.  A psi factor may couple at most one hyperplane-touching
    coordinate per evaluation cell, and Z_p-neighborhoods of the
    hyperplanes may carry divergent non-oscillatory tails, which raise
    NonIntegrable.
    """
    p, m = e.p, X.dim

    def ev(phi: SchwartzBruhat) -> ExactComplex:
        f = phi.restrict(X)
        if f.is_zero():
            return ExactComplex.zero(p)
        terms = []
        for coef, atoms in e.terms:
            terms.extend(_expand_term(p, m, coef, atoms))
        k = f.k
        total = ExactComplex.zero(p)
        for rep, val in sorted(f.table.items(), key=lambda kv: rep_key(kv[0])):
            for term in terms:
                total = total + _cell_integral(p, m, k, rep, val, term)
        return total

    return Distribution(p, m, ev, domain=X)


def _cell_integral(p: int, m: int, k: int, rep, val: ExactComplex,
                   term: _MonoTerm) -> ExactComplex:
    deep = [i for i in range(m) if rep[i] == 0]
    shallow = [i for i in range(m) if rep[i] != 0]
    base = Fraction(1)
    for i in shallow:
        rho = valuation(rep[i], p)
        base *= Fraction(1, p) ** (k + term.s[i] * rho)
        if term.t[i]:
            if rho == 0:
                return ExactComplex.zero(p)
            base *= Fraction(rho) ** term.t[i]

    coupled = [i for i in deep if term.kappa[i] != 0] if term.A is not None else []
    if len(coupled) > 1:
        raise UnsupportedShape(
            "psi argument couples several hyperplane-touching coordinates")

    # independent deep coordinates: pure polynomial-geometric tails
    indep = Fraction(1)
    for i in deep:
        if i in coupled:
            continue
        z = Fraction(1, p) ** (term.s[i] + 1)
        if z >= 1:
            raise NonIntegrable(f"non-oscillatory tail in x{i+1} with |x|^{term.s[i]}")
        indep *= (1 - Fraction(1, p)) * tail_sum(z, term.t[i], k)

    if term.A is None:
        return val * term.coef * (base * indep)

    # psi data: averaging structure over the coordinates present in the argument
    coords = []
    w0 = valuation(term.A, p)
    for i in shallow:
        if term.kappa[i]:
            rho = valuation(rep[i], p)
            w0 += term.kappa[i] * rho
            coords.append(("shallow", term.kappa[i], k - rho))
    a_star0 = term.A
    for i in shallow:
        if term.kappa[i]:
            a_star0 *= rep[i] ** term.kappa[i]

    if not coupled:
        averager = _PsiAverager(p, coords)
        psi_val = averager.value(w0, a_star0)
        return val * term.coef * (base * indep) * psi_val

    i0 = coupled[0]
    kap = term.kappa[i0]
    averager = _PsiAverager(p, coords + [("deep", kap, 1)])
    z = Fraction(1, p) ** (term.s[i0] + 1)
    two_adic = 1 if p == 2 else 0
    vanish_at = averager.vanish_at

    s_total = ExactComplex.zero(p)
    unit_frac = 1 - Fraction(1, p)
    if kap < 0:
        # trivial zone j <= j_triv (w >= 1), then middle, then exact vanishing
        j_triv = (w0 - 1) // (-kap)   # largest j with w0 + kap j >= 1
        j_end = -(-(w0 - vanish_at) // (-kap))  # smallest j with w <= vanish_at
        hi = min(j_triv, 10**9)
        if hi >= k:
            s_total = s_total + ExactComplex.from_rational(
                unit_frac * range_sum(z, term.t[i0], k, hi), p)
        for j in range(max(k, j_triv + 1), j_end):
            w = w0 + kap * j
            psi_val = averager.value(w, a_star0 * Fraction(p) ** (kap * j))
            weight = unit_frac * Fraction(j) ** term.t[i0] * z**j
            s_total = s_total + psi_val * weight
    else:
        # vanishing for small j, middle band, then the trivial tail (w >= 1)
        j_triv = -(-(1 - w0) // kap)                   # ceil((1-w0)/kap)
        j_start = max(k, (vanish_at - w0) // kap + 1)  # first j with w > vanish_at
        for j in range(j_start, max(j_start, j_triv)):
            w = w0 + kap * j
            psi_val = averager.value(w, a_star0 * Fraction(p) ** (kap * j))
            weight = unit_frac * Fraction(j) ** term.t[i0] * z**j
            s_total = s_total + psi_val * weight
        tail_start = max(k, j_triv)
        if z >= 1:
            raise NonIntegrable(f"non-oscillatory tail in x{i0+1} with |x|^{term.s[i0]}")
        s_total = s_total + ExactComplex.from_rational(
            unit_frac * tail_sum(z, term.t[i0], tail_start), p)

    return val * term.coef * (base * indep) * s_total


# -- ball transform ---------------------------------------------------------


def b_function(xi: Distribution, x: Sequence[Rat], r: Rat) -> ExactComplex:
    """xi(1_{B(x, ord r) ∩ X}) when that set is compact; 0 when it is empty.

    The ball radius |r| is read as the level ord(r); clopen domains inside
    a bounding box always meet balls compactly.
    """
    r = _as_fraction(r)
    if r == 0:
        raise ValueError("ball scale r must be nonzero")
    level = valuation(r, p := xi.p)
    ball = Box(p, tuple(_as_fraction(c) for c in x), level)
    region = ClopenSet.single(ball)
    if xi.domain is not None:
        region = region.intersect(xi.domain)
        if region.is_empty():
            return ExactComplex.zero(p)
    phi = SchwartzBruhat.indicator(region)
    return xi.eval(phi)


# -- pushforward through charts ---------------------------------------------


def pushforward_chart(xi: Distribution, chart) -> Distribution:
    """(chart)_* xi: evaluates phi -> xi(phi ∘ chart).

    The chart must expose apply(x), pullback_level(k) and domain_box().
    """
    p, n = xi.p, xi.n

    def ev(phi: SchwartzBruhat) -> ExactComplex:
        level = max(chart.pullback_level(phi.k), chart.domain_box().level)
        dom = chart.domain_box()
        table = {}
        for cell in dom.subboxes(level):
            val = phi.evaluate(chart.apply(cell.center))
            if not val.is_zero():
                table[cell.center] = val
        pulled = SchwartzBruhat(p, n, max(0, -dom.level), level, table)
        return xi.eval(pulled)

    return Distribution(p, n, ev)


# -- the loci construction ---------------------------------------------------


def graph_pullback(W: GraphManifold, phi: SchwartzBruhat) -> SchwartzBruhat:
    """t -> phi(t, gamma(t)) as an exact Schwartz-Bruhat function on the base."""
    p = W.p
    level = max(phi.k + W.lipschitz_extra(), W.base.max_level())
    m_base = max([0, -level] + [-b.level for b in W.base.boxes])
    table = {}
    for cell in W.base.cosets(level):
        val = phi.evaluate(W.point(cell.center))
        if not val.is_zero():
            table[cell.center] = val
            for c in cell.center:
                if c != 0:
                    m_base = max(m_base, -min(0, valuation(c, p)))
    return SchwartzBruhat(p, W.d, m_base, level, table)


def loci_distribution(g: CexpExpr, strata: Sequence[GraphManifold]) -> Distribution:
    """xi = sum_i g · mu_{D_i} with mu the graph measures of the strata.

    g must be bounded (apply bounded_rewrite first if needed); its pullback
    to each stratum base is integrated by the shell engine, so it must be
    of monomial type near the base coordinate hyperplanes and locally
    constant elsewhere.
    """
    if not strata:
        raise ValueError("need at least one stratum")
    p = g.p
    n = strata[0].n
    pieces = []
    for W in strata:
        if W.p != p or W.n != n:
            raise ValueError("strata live in different ambient spaces")
        subst = [RatTerm.var(i) for i in range(W.d)] + list(W.maps)
        g_i = _subst_expr(g, subst)
        pieces.append((W, density_distribution(g_i, W.base)))

    def ev(phi: SchwartzBruhat) -> ExactComplex:
        total = ExactComplex.zero(p)
        for W, mu_i in pieces:
            total = total + mu_i.eval(graph_pullback(W, phi))
        return total

    return Distribution(p, n, ev)


def _subst_expr(e: CexpExpr, mapping: Sequence[RatTerm]) -> CexpExpr:
    terms = []
    for coef, atoms in e.terms:
        new_atoms = []
        for a in atoms:
            if a.kind == "bscale":
                new_atoms.append(Atom("bscale", terms=tuple(t.subst(mapping) for t in a.terms)))
            else:
                new_atoms.append(Atom(a.kind, a.term.subst(mapping), a.power))
        terms.append((coef, tuple(new_atoms)))
    return CexpExpr(e.p, tuple(terms))
