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
from math import comb, gcd, prod
from operator import mul
from typing import Callable, Iterator, Sequence

from .cexp import Atom, CexpExpr
from .cyclotomic import ExactComplex
from .graphs import GraphManifold, point_manifold
from .padic import Box, ClopenSet, Rat, _as_fraction, cell_volume, norm, rep_key, valuation
from .ratterm import RatTerm
from .schwartz import SchwartzBruhat, psi_eval


class NonIntegrable(Exception):
    """A non-oscillatory shell tail diverges."""


class UnsupportedShape(Exception):
    """The density is outside the exactly integrable catalog."""


@dataclass
class Distribution:
    """Linear functional on Schwartz-Bruhat functions, exactly evaluable.

    eval_mods_fn, when given, is a batched fast path: for one test function
    phi and a sequence of frequencies ws it yields xi(phi * psi(<w, .>))
    for each w, in the order of ws, and must agree with
    eval_fn(phi.modulate(w)).  domain is the clopen set that carries xi, if
    any.  wf lists the graph manifolds whose conormal bundles make up the
    closed-form wave front set: () for a smooth measure, (W,) for the graph
    measure of W (a point mass is the graph measure of a point, whose
    conormal is every covector there), and None when there is no closed
    form.
    """

    p: int
    n: int
    eval_fn: Callable[[SchwartzBruhat], ExactComplex]
    eval_mods_fn: Callable[[SchwartzBruhat, Sequence[Sequence[Rat]]],
                           Iterator[ExactComplex]] | None = None
    domain: ClopenSet | None = None
    wf: tuple[GraphManifold, ...] | None = None

    def eval(self, phi: SchwartzBruhat) -> ExactComplex:
        if phi.p != self.p or phi.n != self.n:
            raise ValueError("test function lives on the wrong space")
        return self.eval_fn(phi)

    def eval_mods(self, phi: SchwartzBruhat,
                  ws: Sequence[Sequence[Rat]]) -> Iterator[ExactComplex]:
        """xi(phi * psi(<w, .>)) for each w in ws, in order, as they are
        computed: the Fourier pairings of one test function that wave-front
        scans read.  Without a fast path, each is eval(phi.modulate(w))."""
        if phi.p != self.p or phi.n != self.n:
            raise ValueError("test function lives on the wrong space")
        if self.eval_mods_fn is not None:
            return self.eval_mods_fn(phi, ws)
        return (self.eval(phi.modulate(w)) for w in ws)

    def eval_mod(self, phi: SchwartzBruhat, w: Sequence[Rat]) -> ExactComplex:
        """xi(phi * psi(<w, .>)): eval_mods of the one frequency w."""
        return next(self.eval_mods(phi, (w,)))


# -- simple catalog entries ----------------------------------------------


def dirac(p: int, a: Sequence[Rat]) -> Distribution:
    """Point mass at a: the graph measure of the point manifold {a}."""
    return graph_measure(point_manifold(p, a))


def haar_on(X: ClopenSet) -> Distribution:
    p, n = X.p, X.dim

    def ev(phi: SchwartzBruhat) -> ExactComplex:
        return phi.restrict(X).integrate()

    def ev_mods(phi: SchwartzBruhat, ws) -> Iterator[ExactComplex]:
        f = phi.restrict(X)
        k = f.k
        volume = cell_volume(p, n, k)
        for w in ws:
            w = tuple(_as_fraction(wi) for wi in w)
            # inner integral over a level-k coset: psi(<w, rep>) p^{-nk} if
            # every v(w_i) >= 1 - k, else 0 by character orthogonality
            if any(wi != 0 and valuation(wi, p) < 1 - k for wi in w):
                yield ExactComplex.zero(p)
                continue
            total = ExactComplex.zero(p)
            for rep, val in f.table.items():
                total = total + val * psi_eval(sum(wi * ri for wi, ri in zip(w, rep)), p)
            yield total * volume

    return Distribution(p, n, ev, ev_mods, domain=X, wf=())


def _graph_cells(W: GraphManifold, phi: SchwartzBruhat, level: int) -> list:
    """(t, phi(t, gamma(t))) over the level-`level` base cosets under the
    t-projection of supp phi, nonzero values only, in table order."""
    p, d = W.p, W.d
    seen = set()
    out = []
    for rep in phi.table:
        # level-k boxes of distinct projections are disjoint
        if rep[:d] in seen:
            continue
        seen.add(rep[:d])
        tbox = ClopenSet.single(Box(p, rep[:d], phi.k)).intersect(W.base)
        for cell in tbox.cosets(max(level, tbox.max_level())):
            val = phi.evaluate(W.point(cell.center))
            if not val.is_zero():
                out.append((cell.center, val))
    return out


def _residue(q: Fraction, mod: int) -> int:
    """The integer congruent to the p-integral rational q modulo mod = p^s."""
    return q.numerator * pow(q.denominator, -1, mod) % mod


def _root_sum(p: int, s: int, hist: dict[int, int]) -> ExactComplex:
    """sum of count * zeta_{p^s}^U over hist {U: count}, at the least level
    that holds every exponent, as ExactComplex.root reduces one root."""
    step = gcd(p**s, *hist)  # p^j, the highest power dividing every U
    r, g = s, step
    while g > 1:
        g //= p
        r -= 1
    return ExactComplex(p, r, {(u // step, 0): Fraction(c) for u, c in hist.items()})


def graph_measure(W: GraphManifold) -> Distribution:
    """Pushforward of Haar measure on the base to the graph."""
    p, n = W.p, W.n

    def ev(phi: SchwartzBruhat) -> ExactComplex:
        level0 = max(phi.k + W.lipschitz_extra(), W.base.max_level())
        cells = _graph_cells(W, phi, level0)
        total = ExactComplex.zero(p)
        if not cells:
            return total
        for _, val in cells:
            total = total + val
        return total * cell_volume(p, W.d, level0)

    def ev_mods(phi: SchwartzBruhat, ws) -> Iterator[ExactComplex]:
        """One graph walk for all of ws.  For w = p^-e u (u p-integral) the
        sum over a cell runs over its level-`level` subcells, where
        psi(<w, x>) is constant: with x the graph points and p^D x
        p-integral, psi(<w, x>) = zeta_{p^(e+D+1)}^U for the integer
        U = sum_i u_i (p^D x_i) mod p^(e+D+1).  The points are read once
        per level and reduced once per (level, e); each w then adds one
        histogram of exponents per cell."""
        extra = W.lipschitz_extra()
        level0 = max(phi.k + extra, W.base.max_level())
        cells = _graph_cells(W, phi, level0)
        points = {}    # level -> (D, [(val, graph points of the subcells)])
        residues = {}  # (level, e) -> (e + D + 1, [(val, [p^D x mod p^(e+D+1)])])
        if not cells:
            for _ in ws:
                yield ExactComplex.zero(p)
            return
        for w in ws:
            w = tuple(_as_fraction(wi) for wi in w)
            vs = [valuation(wi, p) for wi in w if wi != 0]
            level = max(level0, max((1 - v for v in vs), default=0) + extra)
            e = max([0] + [-v for v in vs])
            if level not in points:
                pts = [(val, [W.point(sub.center) for sub in Box(p, t, level0).subboxes(level)])
                       for t, val in cells]
                D = max([0] + [-valuation(c, p) for _, xs in pts for x in xs for c in x if c])
                points[level] = D, pts
            if (level, e) not in residues:
                D, pts = points[level]
                s, scale = e + D + 1, Fraction(p) ** D
                mod = p**s
                residues[level, e] = s, [(val, [tuple(_residue(c * scale, mod) for c in x)
                                                for x in xs]) for val, xs in pts]
            s, table = residues[level, e]
            mod = p**s
            u = tuple(_residue(wi * p**e, mod) for wi in w)
            total = ExactComplex.zero(p)
            for val, xs in table:
                hist: dict[int, int] = {}
                for x in xs:
                    U = sum(map(mul, u, x)) % mod
                    hist[U] = hist.get(U, 0) + 1
                total = total + val * _root_sum(p, s, hist)
            yield total * cell_volume(p, W.d, level)

    return Distribution(p, n, ev, ev_mods, wf=(W,))


# -- polynomial-times-geometric tails --------------------------------------


def tail_sum(z: Fraction, t: int, start: int) -> Fraction:
    """sum_{j >= start} j^t z^j, exact; requires 0 < z < 1.

    T_u = sum_{j >= start} j^u z^j = start^u z^start + z sum_{i <= u}
    C(u, i) T_i (shift j -> j + 1 and expand (j + 1)^u), so
    (1 - z) T_u = start^u z^start + z sum_{i < u} C(u, i) T_i.
    """
    if not 0 < z < 1:
        raise NonIntegrable(f"tail base {z} is not inside the unit interval")
    head = z**start
    T: list[Fraction] = []
    for u in range(t + 1):
        T.append((Fraction(start) ** u * head + z * sum(comb(u, i) * T[i] for i in range(u)))
                 / (1 - z))
    return T[t]


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
    values are brute-force character sums at a level proven sufficient
    (see _brute).

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
        else:
            val = self._brute(w, a_star)
        self.cache[w] = val
        return val

    def _brute(self, w: int, a_star: Fraction) -> ExactComplex:
        """The average as an exact character sum over the units mod p^lvl.

        It is exact because psi(a_star prod g_i^kappa_i) is constant on the
        cosets g_i (1 + p^lvl Z_p).  Replacing g_i by g_i (1 + p^lvl y)
        changes the argument by valuation >= w + lvl + v(kappa_i), since
        (1 + x)^kappa - 1 has valuation >= v(x) + v(kappa) once v(x) >= 1,
        for every p: write kappa = p^e m with p not dividing m; the m-th
        power keeps v(x) (so does m < 0, as (1 + x)^-1 - 1 = -x/(1 + x)),
        and each p-th power adds at least 1, as (1 + x)^p - 1 = px + ... +
        x^p with v(x^p) = p v(x) >= v(x) + 1.  The level has lvl >= 1 - w +
        v(kappa_i) for every i, so that valuation is >= 1 and psi, of
        conductor pZ_p, does not move.  Here w <= 0, so lvl >= 1.  The
        shallow representatives 1 + p^a c run over 1 + p^a Z_p mod p^lvl,
        since lvl >= a + 1.
        """
        p = self.p
        lvl = max([1] + [1 - w + valuation(k, p) for (_, k, _) in self.coords]
                  + [a + 1 for (mode, _, a) in self.coords if mode == "shallow"])
        spaces = []
        for mode, kappa, a in self.coords:
            if mode == "deep":
                pts = [Fraction(u) for u in range(1, p**lvl) if u % p != 0]
            else:
                pts = [1 + Fraction(p**a) * c for c in range(p ** (lvl - a))]
            spaces.append([g**kappa for g in pts])
        total = ExactComplex.zero(p)
        for combo in itertools.product(*spaces):
            total = total + psi_eval(a_star * prod(combo), p)
        return total * Fraction(1, prod(map(len, spaces)))


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

    def tail(i: int, start: int) -> Fraction:
        """The shells v(x_i) = j >= start of |x_i|^s ord(x_i)^t, psi-free."""
        z = Fraction(1, p) ** (term.s[i] + 1)
        if z >= 1:
            raise NonIntegrable(f"non-oscillatory tail in x{i+1} with |x|^{term.s[i]}")
        return (1 - Fraction(1, p)) * tail_sum(z, term.t[i], start)

    # independent deep coordinates: pure polynomial-geometric tails
    indep = Fraction(1)
    for i in deep:
        if i not in coupled:
            indep *= tail(i, k)

    if term.A is None:
        return val * term.coef * (base * indep)

    # psi data: averaging structure over the coordinates present in the argument
    coords = []
    w0 = valuation(term.A, p)
    a_star0 = term.A
    for i in shallow:
        if term.kappa[i]:
            rho = valuation(rep[i], p)
            w0 += term.kappa[i] * rho
            coords.append(("shallow", term.kappa[i], k - rho))
            a_star0 *= rep[i] ** term.kappa[i]

    if not coupled:
        psi_val = _PsiAverager(p, coords).value(w0, a_star0)
        return val * term.coef * (base * indep) * psi_val

    # the shell v(x_i0) = j >= k has phase valuation w = w0 + kap j: psi is
    # trivial where w >= 1, the shell vanishes where w <= vanish_at, and the
    # middle shells, |kap| j in [lo, hi], are unit-group averages
    i0 = coupled[0]
    kap = term.kappa[i0]
    averager = _PsiAverager(p, coords + [("deep", kap, 1)])
    vanish_at = averager.vanish_at
    lo, hi = (w0, w0 - vanish_at - 1) if kap < 0 else (vanish_at + 1 - w0, -w0)
    first, last = -(-lo // abs(kap)), hi // abs(kap)
    z = Fraction(1, p) ** (term.s[i0] + 1)
    unit_frac = 1 - Fraction(1, p)
    s_total = ExactComplex.zero(p)
    if kap < 0 and first > k:  # trivial zone k <= j < first
        s_total = s_total + ExactComplex.from_rational(
            unit_frac * range_sum(z, term.t[i0], k, first - 1), p)
    for j in range(max(k, first), last + 1):
        psi_val = averager.value(w0 + kap * j, a_star0 * Fraction(p) ** (kap * j))
        s_total = s_total + psi_val * (unit_frac * Fraction(j) ** term.t[i0] * z**j)
    if kap > 0:  # trivial tail j > last
        s_total = s_total + ExactComplex.from_rational(tail(i0, max(k, last + 1)), p)
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

    The chart must expose apply(x) on Z_p^n and map every level-l coset of
    Z_p^n (l >= 0) into one level-l coset, so phi ∘ chart is constant on
    the level-max(k, 0) cosets when phi is constant on level-k cosets.
    """
    return Distribution(xi.p, xi.n, lambda phi: xi.eval(_pull_back(phi, chart.apply)))


def _pull_back(phi: SchwartzBruhat, f: Callable) -> SchwartzBruhat:
    """phi ∘ f on Z_p^n, tabulated on the level-max(k, 0) cosets; f must map
    every level-l coset of Z_p^n (l >= 0) into one level-l coset."""
    p, n = phi.p, phi.n
    level = max(phi.k, 0)
    table = {}
    for cell in Box(p, tuple(Fraction(0) for _ in range(n)), 0).subboxes(level):
        val = phi.evaluate(f(cell.center))
        if not val.is_zero():
            table[cell.center] = val
    return SchwartzBruhat(p, n, 0, level, table)


# -- the loci construction ---------------------------------------------------


def graph_pullback(W: GraphManifold, phi: SchwartzBruhat) -> SchwartzBruhat:
    """t -> phi(t, gamma(t)) as an exact Schwartz-Bruhat function on the base."""
    p = W.p
    level = max(phi.k + W.lipschitz_extra(), W.base.max_level())
    table = dict(_graph_cells(W, phi, level))
    m_base = max([0, -level] + [-b.level for b in W.base.boxes]
                 + [-valuation(c, p) for t in table for c in t if c != 0])
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
