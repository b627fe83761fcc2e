"""fourier_battery: exact Fourier transforms and Plancherel pairings.

For each (p, n) with p in {2, 3, 5, 7} and n in {1, 2}: one item
transforms the unit-ball indicator, one item per seeded function
double-transforms it, and one item transforms and pairs the functions two
by two; the p = 7, n = 2 pair sits at unequal levels, so both of its
pairings refine a 49-cell table to 2,401 cells.  The levels (m, k) and the
table sizes are fixed; the seed draws the table cells and the values, so
the work is the same for every seed.  Only `schwartz` (with `padic` and
`cyclotomic` under it) runs: no distribution, no scan.
"""

from __future__ import annotations

import random
from fractions import Fraction

from oracles import (Cyc, check_double_transform, fourier_value, pairing, require, same,
                     sb_value)
from padlab.padic import Box
from padlab.schwartz import SchwartzBruhat

from . import Item, gaussian


ENTRIES = 4
# (p, n) -> levels (m, k) of the seeded functions; consecutive ones are paired
SPECS = {
    (2, 1): [(0, 5), (2, 3), (1, 2), (2, -1)],
    (2, 2): [(1, 2), (0, 2), (1, 0), (2, -1)],
    (3, 1): [(1, 2), (0, 3), (1, 1), (2, -1)],
    (3, 2): [(1, 1), (0, 1), (1, 0), (2, -1)],
    (5, 1): [(1, 1), (0, 2), (2, 0), (3, -1)],
    (5, 2): [(0, 1), (1, 0), (2, -1), (1, -1)],
    (7, 1): [(1, 1), (0, 1), (2, -1), (1, 0)],
    (7, 2): [(0, 1), (1, -1)],  # unequal levels: `common` refines a table 49-fold
}
SAMPLE = 3  # output cells per transform checked by the brute-force oracle


def random_sb(rng, p: int, n: int, m: int, k: int) -> SchwartzBruhat:
    """ENTRIES distinct cells of p^-m Z_p^n at level k, drawn without enumeration."""
    side = p ** (m + k)
    step = Fraction(p) ** -m
    table = {}
    for j in rng.sample(range(side**n), min(ENTRIES, side**n)):
        digits = [(j // side**i) % side for i in range(n)]
        table[tuple(d * step for d in digits)] = gaussian(rng, p)
    return SchwartzBruhat(p, n, m, k, table)


def _origin(n: int):
    return tuple(Fraction(0) for _ in range(n))


def _unit_ball(p: int, n: int) -> Item:
    one = SchwartzBruhat.indicator_box(Box(p, _origin(n), 0))

    def check(hat):
        require((hat.m, hat.k) == (-1, 1) and set(hat.table) == {_origin(n)}
                and same(hat.table[_origin(n)], Cyc.rational(1, p)),
                f"F(1_Z_{p}^{n}) is not the indicator of p Z_{p}^{n}")

    return Item(f"p{p}_n{n}_unit_ball", one.fourier, check)


def _double_transform(rng, phi: SchwartzBruhat) -> Item:
    p, n = phi.p, phi.n
    probe = random.Random(rng.random())

    def run():
        hat = phi.fourier()
        return hat, hat.fourier()

    def check(out):
        hat, twice = out
        check_double_transform(phi, twice)
        side = p ** (phi.m + phi.k)
        step = Fraction(p) ** (1 - phi.k)
        cells = [tuple(probe.randrange(side) * step for _ in range(n)) for _ in range(SAMPLE)]
        for y in cells + sorted(hat.table, key=str)[:1]:
            require(same(sb_value(hat, y), fourier_value(phi, y)),
                    f"F(phi)({y}) differs from the brute-force character sum")

    return Item(f"p{p}_n{n}_ft_m{phi.m}_k{phi.k}", run, check)


def _pairings(p: int, n: int, pairs) -> Item:
    def run():
        out = []
        for f, g in pairs:
            hf, hg = f.fourier(), g.fourier()
            out.append((f, g, hf, hg, hf.plancherel_pairing(hg), f.plancherel_pairing(g)))
        return out

    def check(out):
        for f, g, hf, hg, lhs, rhs in out:
            require(same(rhs, pairing(f, g)), "<f,g> differs from the support-wise sum")
            require(same(lhs, pairing(hf, hg)), "<Ff,Fg> differs from the support-wise sum")
            require(same(lhs, Cyc.of(rhs).times(Fraction(1, p**n))), "<Ff,Fg> != p^-n <f,g>")

    return Item(f"p{p}_n{n}_pairings", run, check)


def build(seed: int) -> list[Item]:
    rng = random.Random(seed)
    items = []
    for (p, n), levels in SPECS.items():
        funcs = [random_sb(rng, p, n, m, k) for m, k in levels]
        items.append(_unit_ball(p, n))
        items += [_double_transform(rng, phi) for phi in funcs]
        items.append(_pairings(p, n, list(zip(funcs[::2], funcs[1::2]))))
    return items
