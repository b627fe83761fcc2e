"""Desk-scale alteration charts: power substitutions, Hensel unit swallowing,
n-th power predicates, and the certificate checker for monomialization.

A power chart x -> (lambda_1 x_1^N, ..., lambda_n x_n^N) is proper with
constant fiber size on the punctured polydisc; a Hensel chart absorbs an
analytic unit congruent to 1 mod p into one coordinate through a certified
k-th root.  Certificates replay sampled exact checks for the five chart
properties: open images, constant fibers, unit-times-monomial pullbacks,
disjoint dense images, and the normalized factor.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Sequence

from .padic import Box, Rat, _as_fraction, coset_rep, int_rep, valuation
from .ratterm import Poly, RatTerm


# -- n-th power structure ----------------------------------------------------


def nth_power_test(x: Rat, N: int, p: int) -> bool:
    """x in (Q_p^*)^N: N divides v(x) and the unit part is an N-th power.

    The unit test enumerates residues modulo p^(2 v_p(N) + 1), which is the
    exact threshold where a root mod p^M lifts by Hensel's lemma.
    """
    x = _as_fraction(x)
    if x == 0:
        raise ValueError("0 has no power class")
    if N < 1:
        raise ValueError("N must be positive")
    if N == 1:
        return True
    v = valuation(x, p)
    if v % N:
        return False
    u = x / Fraction(p) ** v
    a = valuation(N, p)
    M = 2 * a + 1
    mod = p**M
    target = int_rep(u, p, M)
    return any(pow(w, N, mod) == target for w in range(1, mod) if w % p)


def fiber_size(N: int, p: int) -> int:
    """Number of N-th roots of unity in Q_p, per coordinate.

    The unit group is mu_(p-1) x (1 + pZ_p) for odd p (the principal units
    are torsion-free), and {+-1} x (1 + 4Z_2) for p = 2; so the count is
    gcd(N, p-1) for odd p and gcd(N, 2) for p = 2.
    """
    if N < 1:
        raise ValueError("N must be positive")
    return gcd(N, p - 1) if p != 2 else gcd(N, 2)


def roots_of_unity(N: int, p: int, prec: int) -> list[Fraction]:
    """All N-th roots of unity in Q_p as residues mod p^prec (Hensel-lifted)."""
    a = valuation(N, p)
    M = 2 * a + 1
    mod = p**M
    seeds = [w for w in range(1, mod) if w % p and pow(w, N, mod) == 1]
    return sorted({_hensel_lift_root(Fraction(w), Fraction(1), N, p, prec) for w in seeds})


def _hensel_lift_root(w0: Fraction, target: Fraction, N: int, p: int, prec: int) -> Fraction:
    """Newton-lift w with w^N = target mod p^prec from an admissible seed.

    Works modulo p^(prec + v_p(N)) internally so the division by f'(w)
    (valuation exactly v_p(N) at unit w) cannot eat certified digits.
    """
    a = valuation(N, p)
    work = prec + a
    mod = p**work
    w = int_rep(w0, p, work)
    t = int_rep(target, p, work)
    for _ in range(2 * work + 2):
        fval = (pow(w, N, mod) - t) % mod
        if fval == 0:
            break
        if valuation(fval, p) < a:
            raise ArithmeticError("seed does not satisfy the lifting criterion")
        unit = (N * pow(w, N - 1, mod) // p**a) % mod
        w = (w - (fval // p**a) * pow(unit, -1, mod)) % mod
    final = p**prec
    w %= final
    if (pow(w, N, final) - t) % final:
        raise ArithmeticError("Newton iteration failed to certify the root")
    return Fraction(w)


def unit_root_mod(u: Fraction, N: int, p: int, prec: int) -> Fraction | None:
    """Some w with w^N = u mod p^prec for a unit u, or None."""
    a = valuation(N, p)
    M = 2 * a + 1
    mod = p**M
    target = int_rep(u, p, M)
    for w in range(1, mod):
        if w % p and pow(w, N, mod) == target:
            return _hensel_lift_root(Fraction(w), u, N, p, prec)
    return None


# -- charts -------------------------------------------------------------------


@dataclass(frozen=True)
class PowerChart:
    """x -> (lambda_1 x_1^N, ..., lambda_n x_n^N) on Z_p^n."""

    p: int
    lam: tuple[Fraction, ...]
    N: int
    prec: int = 20

    def __post_init__(self):
        object.__setattr__(self, "lam", tuple(_as_fraction(l) for l in self.lam))
        for l in self.lam:
            if l == 0 or valuation(l, self.p) < 0:
                raise ValueError("scales must be nonzero p-integral rationals")
        if self.N < 1:
            raise ValueError("N must be positive")

    @property
    def n(self) -> int:
        return len(self.lam)

    def apply(self, x: Sequence[Rat]) -> tuple[Fraction, ...]:
        return tuple(l * _as_fraction(c) ** self.N for l, c in zip(self.lam, x))

    def fiber_count(self) -> int:
        return fiber_size(self.N, self.p) ** self.n

    def image_membership(self, x: Sequence[Rat]) -> bool:
        """x in chart((Z_p \\ 0)^n): each x_i / lambda_i a nonzero N-th power
        with the root landing in Z_p."""
        for l, c in zip(self.lam, x):
            c = _as_fraction(c)
            if c == 0:
                return False
            if not nth_power_test(c / l, self.N, self.p):
                return False
            if valuation(c / l, self.p) < 0:
                return False
        return True

    def fiber_reps(self, x: Sequence[Rat]) -> list[tuple[Fraction, ...]]:
        """The fiber over x to precision prec; empty when x is off the image."""
        if not self.image_membership(x):
            return []
        p, N, prec = self.p, self.N, self.prec
        mus = roots_of_unity(N, p, prec)
        per_coord = []
        for l, c in zip(self.lam, x):
            t = _as_fraction(c) / l
            v = valuation(t, p)
            unit = t / Fraction(p) ** v
            w = unit_root_mod(unit, N, p, prec)
            if w is None:
                return []
            base = Fraction(p) ** (v // N) * w
            per_coord.append(sorted({coset_rep(base * mu, p, prec) for mu in mus}))
        return [tuple(combo) for combo in itertools.product(*per_coord)]

    def symbolic_pullback(self, f: RatTerm, nvars: int) -> RatTerm:
        subst = [RatTerm.const(l) * RatTerm.var(i) ** self.N
                 for i, l in enumerate(self.lam)]
        return f.subst(subst)

    def __str__(self):
        lams = ",".join(str(l) for l in self.lam)
        return f"power(N={self.N}; lambda=({lams}))"


def hensel_root(u: Poly, k1: int, p: int, prec: int) -> Poly:
    """The analytic k1-th root v of a unit u = 1 mod p, truncated mod p^prec.

    v = sum_r binom(1/k1, r) (u - 1)^r has p-integral coefficients with the
    r-th term divisible by p^r, so truncating at r = prec is exact mod
    p^prec; the congruence v^k1 = u is then certified symbolically.
    """
    if k1 < 1 or k1 % p == 0:
        raise ValueError("need k1 >= 1 with p not dividing k1")
    one = Poly.const(1, u.nvars)
    g = u - one
    if not g.is_zero() and g.coeff_min_valuation(p) < 1:
        raise ValueError("u must be congruent to 1 mod p")
    if valuation(u.constant_term(), p) != 0:
        raise ValueError("u(0) must be a unit")
    v = Poly.const(0, u.nvars)
    power = one
    coeff = Fraction(1)
    for r in range(prec):
        v = v + coeff * power
        power = power * g
        coeff = coeff * (Fraction(1, k1) - r) / (r + 1)
    v = v.reduce_coeffs(p, prec)
    check = v.pow(k1) - u
    for q in check.c.values():
        if valuation(q, p) < prec:
            raise ArithmeticError("root certification failed")
    return v


@dataclass(frozen=True)
class HenselChart:
    """Inverse of x -> (x_1 v(x), x_2, ..., x_n) for a certified root v.

    v = u^(1/k1) with u = 1 mod p; the forward map is an analytic bijection
    of Z_p^n and the inverse is computed pointwise by a fixed-point
    iteration contracting at rate 1/p, certified by back-substitution.
    """

    p: int
    u: Poly
    k1: int
    prec: int = 20

    def __post_init__(self):
        root = hensel_root(self.u, self.k1, self.p, self.prec)
        object.__setattr__(self, "root", root)

    @property
    def n(self) -> int:
        return self.u.nvars

    def forward(self, x: Sequence[Rat]) -> tuple[Fraction, ...]:
        x = tuple(_as_fraction(c) for c in x)
        v = self.root.eval(x)
        return (x[0] * v,) + x[1:]

    def apply(self, y: Sequence[Rat]) -> tuple[Fraction, ...]:
        """The chart value: the inverse of the forward map, to precision prec."""
        y = tuple(_as_fraction(c) for c in y)
        z = y[0]
        for _ in range(self.prec + 2):
            v = self.root.eval((z,) + y[1:])
            z_new = coset_rep(y[0] / v, self.p, self.prec)
            if z_new == z:
                break
            z = z_new
        x = (z,) + y[1:]
        err = self.forward(x)[0] - y[0]
        if err != 0 and valuation(err, self.p) < self.prec:
            raise ArithmeticError("fixed-point inverse failed to certify")
        return tuple(coset_rep(c, self.p, self.prec) for c in x)

    def fiber_count(self) -> int:
        return 1

    def image_membership(self, x: Sequence[Rat]) -> bool:
        return all(_as_fraction(c) != 0 for c in x)

    def fiber_reps(self, x: Sequence[Rat]) -> list[tuple[Fraction, ...]]:
        """The chart is injective with inverse x -> (x_1 v(x), rest), exact."""
        if not self.image_membership(x):
            return []
        return [tuple(coset_rep(c, self.p, self.prec) for c in self.forward(x))]

    def __str__(self):
        return f"hensel(u={self.u}, k1={self.k1})"


def unit_swallow_chart(u: Poly, mono_exps: Sequence[int], p: int,
                       target: int = 0, d: Fraction | int = 1,
                       prec: int = 20) -> tuple[HenselChart, "NormalForm"]:
    """Chart absorbing the unit of f = u * d * prod x^mu into coordinate
    `target`; the pullback of f along the chart is the bare monomial.

    Requires u = 1 mod p and p not dividing the target exponent; other
    shapes must first be preprocessed by power charts.
    """
    k1 = mono_exps[target]
    if k1 < 1:
        raise ValueError("the target coordinate must occur in the monomial")
    if target != 0:
        raise ValueError("swallowing is normalized to the first coordinate")
    chart = HenselChart(p, u, k1, prec)
    nf = NormalForm(coef=_as_fraction(d), exps=tuple(mono_exps), unit=Poly.const(1, u.nvars))
    return chart, nf


@dataclass(frozen=True)
class NormalForm:
    """d * prod x_i^(e_i) * unit(x) with unit(0) a p-adic unit."""

    coef: Fraction
    exps: tuple[int, ...]
    unit: Poly

    def is_monomial(self) -> bool:
        return self.unit == Poly.const(1, self.unit.nvars)

    def is_constant_times_unit(self) -> bool:
        return all(e == 0 for e in self.exps)

    def eval(self, x: Sequence[Rat]) -> Fraction:
        total = self.coef * self.unit.eval(x)
        for c, e in zip(x, self.exps):
            total *= _as_fraction(c) ** e
        return total


def factor_unit_monomial(poly: Poly, p: int) -> NormalForm | None:
    """Write a polynomial as d * x^mu * unit with unit = 1 mod p and
    unit(0) = 1, when the coordinatewise-minimal monomial belongs to the
    polynomial and divides the rest with p-divisible quotients."""
    if poly.is_zero():
        return None
    base = None
    for k in poly.c:
        base = k if base is None else tuple(min(a, b) for a, b in zip(base, k))
    d = poly.c.get(base)
    if d is None:
        return None
    rest = {tuple(a - b for a, b in zip(k, base)): v / d for k, v in poly.c.items()}
    unit = Poly(poly.nvars, rest)
    shifted = unit - Poly.const(1, poly.nvars)
    if not shifted.is_zero() and shifted.coeff_min_valuation(p) < 1:
        return None
    return NormalForm(coef=d, exps=base, unit=unit)


# -- certificates --------------------------------------------------------------


@dataclass
class ConclusionVerdict:
    name: str
    passed: bool
    detail: str = ""
    evidence: list = field(default_factory=list)


@dataclass
class ResolutionCertificate:
    p: int
    charts: list
    f: tuple[RatTerm, ...]
    sampling_level: int
    prec: int
    verdicts: dict = field(default_factory=dict)

    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts.values())

    def summary(self) -> str:
        lines = [f"resolution certificate: p={self.p}, {len(self.charts)} charts, "
                 f"level={self.sampling_level}, prec={self.prec}"]
        for key in sorted(self.verdicts):
            v = self.verdicts[key]
            status = "PASS" if v.passed else "FAIL"
            lines.append(f"  ({key}) {v.name}: {status}  {v.detail}")
        return "\n".join(lines)


def _sample_points(p: int, n: int, level: int, count: int, seed: int):
    """Random nonzero p-integral points with mixed small valuations."""
    import random as _random

    rng = _random.Random(seed)
    out = []
    for _ in range(count):
        coords = []
        for _ in range(n):
            v = rng.choice((0, 0, 0, 1, 2))
            u = rng.randrange(1, p**level)
            if u % p == 0:
                u += 1
            coords.append(Fraction(u * p**v))
        out.append(tuple(coords))
    return out


def certify_resolution(charts: Sequence, f: Sequence[RatTerm], p: int,
                       sampling_level: int = 6, prec: int = 20,
                       samples: int = 100, seed: int = 1) -> ResolutionCertificate:
    """Replayable verdicts for the five chart-collection properties.

    (1) images are open: membership is stable on sub-cosets of sampled
    image points; (2) fibers have the declared constant size; (3) each
    pulled-back component is unit times monomial (symbolically for power
    charts, to precision prec for Hensel charts); (4) images are pairwise
    disjoint and cover a dense set: every sampled point off the coordinate
    hyperplanes lies in exactly one image; (5) each first component is
    normalized with unit = 1 or monomial = 1.
    """
    charts = list(charts)
    f = tuple(f)
    n = charts[0].n
    cert = ResolutionCertificate(p, charts, f, sampling_level, prec)
    points = _sample_points(p, n, sampling_level, samples, seed)

    # (1) open images: membership is a congruence condition at a computable
    # depth, so it must hold on every sub-coset at that depth
    ok1, det1 = True, ""
    for chart in charts:
        a = valuation(getattr(chart, "N", 1), p)
        for x in points[: samples // 4]:
            y = chart.apply(x)
            if any(c == 0 for c in y):
                continue
            if not chart.image_membership(y):
                ok1, det1 = False, f"image point {y} fails membership"
                break
            stab = max(valuation(c, p) for c in y) + 2 * a + 2
            for s in Box(p, y, stab).subboxes(stab + 1):
                if not chart.image_membership(s.center):
                    ok1, det1 = False, f"membership unstable at {s.center}"
                    break
            if not ok1:
                break
        if not ok1:
            break
    cert.verdicts["1"] = ConclusionVerdict("open images", ok1, det1)

    # (2) constant fiber size, with distinct replayable representatives
    ok2, det2 = True, ""
    for chart in charts:
        want = chart.fiber_count()
        for x in points[: samples // 2]:
            y = chart.apply(x)
            if any(c == 0 for c in y):
                continue
            reps = chart.fiber_reps(y)
            if len(reps) != want:
                ok2, det2 = False, f"fiber over {y} has {len(reps)} != {want} points"
                break
            if len({tuple(coset_rep(c, p, prec) for c in r) for r in reps}) != want:
                ok2, det2 = False, f"fiber reps over {y} collide mod p^{prec}"
                break
            slack = 2 * valuation(getattr(chart, "N", 1), p) + 1
            for r in reps:
                back = chart.apply(r)
                for bi, yi in zip(back, y):
                    if bi != yi and valuation(bi - yi, p) < prec - slack:
                        ok2, det2 = False, f"fiber rep {r} maps {back} != {y}"
                        break
                if not ok2:
                    break
            if not ok2:
                break
        if not ok2:
            break
    cert.verdicts["2"] = ConclusionVerdict("constant finite fibers", ok2, det2)

    # (3) pullbacks are unit times monomial
    ok3, det3 = True, ""
    normal_forms = []
    for chart in charts:
        forms_for_chart = []
        for comp in f:
            nf = _pullback_normal_form(chart, comp, p, prec, points[: samples // 4])
            if nf is None:
                ok3, det3 = False, f"component {comp} does not pull back to unit*monomial"
                break
            forms_for_chart.append(nf)
        normal_forms.append(forms_for_chart)
        if not ok3:
            break
    cert.verdicts["3"] = ConclusionVerdict("unit-times-monomial pullbacks", ok3, det3)

    # (4) disjointness and density
    ok4, det4 = True, ""
    for x in points:
        if any(c == 0 for c in x):
            continue
        owners = [i for i, chart in enumerate(charts) if chart.image_membership(x)]
        if len(owners) > 1:
            ok4, det4 = False, f"{x} lies in images {owners}"
            break
        if len(owners) == 0:
            ok4, det4 = False, f"{x} lies in no image (density fails at scale)"
            break
    cert.verdicts["4"] = ConclusionVerdict("disjoint images covering densely", ok4, det4)

    # (5) first component normalized
    ok5, det5 = True, ""
    if ok3 and f:
        for i, forms in enumerate(normal_forms):
            if not forms:
                continue
            first = forms[0]
            if not (first.is_monomial() or first.is_constant_times_unit()):
                ok5, det5 = False, f"chart {i}: first component not normalized"
                break
    cert.verdicts["5"] = ConclusionVerdict("normalized first component", ok5, det5)
    return cert


def _pullback_normal_form(chart, comp: RatTerm, p: int, prec: int,
                          sample_points) -> NormalForm | None:
    n = chart.n
    if isinstance(chart, PowerChart):
        pulled = chart.symbolic_pullback(comp, n)
        poly = pulled.as_poly(n)
        if poly is None:
            return None
        nf = factor_unit_monomial(poly, p)
        return nf
    if isinstance(chart, HenselChart):
        # mathematically f ∘ chart = the bare monomial; certify pointwise
        poly = comp.as_poly(n)
        if poly is None:
            return None
        base_nf = factor_unit_monomial(poly, p)
        if base_nf is None:
            return None
        target_nf = NormalForm(base_nf.coef, base_nf.exps, Poly.const(1, n))
        for x in sample_points:
            y = chart.apply(x)
            lhs = comp.eval(y)
            rhs = target_nf.eval(x)
            err = lhs - rhs
            bound = prec + min(0, valuation(rhs, p) if rhs else 0)
            if err != 0 and valuation(err, p) < bound - 2:
                return None
        return target_nf
    return None
