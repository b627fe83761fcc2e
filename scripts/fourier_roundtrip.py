#!/usr/bin/env python3
"""Exact Fourier round trip on a small random function: F(F(phi)) = p^-n phi(-.)"""

import random
from fractions import Fraction

from padlab.cyclotomic import ExactComplex
from padlab.padic import Box, rep_key
from padlab.schwartz import SchwartzBruhat


def main(p=3, n=1, seed=11):
    rng = random.Random(seed)
    box = Box(p, tuple(Fraction(0) for _ in range(n)), -1)
    table = {}
    for b in rng.sample(box.subboxes(1), 4):
        table[b.center] = ExactComplex.gaussian(rng.randint(-3, 3), rng.randint(-2, 2), p)
    phi = SchwartzBruhat(p, n, 1, 1, table)
    print(f"phi: {phi!r}")
    hat = phi.fourier()
    print(f"F(phi): {hat!r}")
    for rep in sorted(hat.table, key=rep_key):
        print(f"  F(phi)({','.join(map(str, rep))}) = {hat.table[rep].to_string()}")
    twice = hat.fourier()
    target = phi.reflect().scale(Fraction(1, p**n))
    print(f"F(F(phi)) == p^-{n} phi(-.):", twice == target)
    lhs = hat.plancherel_pairing(hat)
    rhs = phi.plancherel_pairing(phi) * Fraction(1, p**n)
    print("Plancherel <F phi, F phi> == p^-n <phi, phi>:", lhs == rhs)


if __name__ == "__main__":
    main()
