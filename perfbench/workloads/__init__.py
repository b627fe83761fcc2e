"""The benchmark's workloads and the seeded input helpers they share.

A workload module exposes `build(seed)`, which makes the inputs through
padlab's public constructors and returns a list of `Item`.  `Item.run` is the timed operation and returns its output;
`Item.check` compares that output with independent oracles (oracles.py)
and raises `CheckFailed`; it is never timed.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

NAMES = ("fourier_battery", "wf_scan", "densities")


@dataclass
class Item:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]


def load(name: str):
    return importlib.import_module(f"workloads.{name}")


def modules() -> list:
    """Every workload module, so instruments can patch their imported names."""
    return [load(name) for name in NAMES]


def zp(p: int, n: int = 1):
    """Z_p^n as a padlab ClopenSet."""
    from padlab.padic import Box, ClopenSet

    return ClopenSet.single(Box(p, tuple(Fraction(0) for _ in range(n)), 0))


def gaussian(rng, p: int):
    """A nonzero Gaussian rational re + im*i through padlab's constructor."""
    from padlab.cyclotomic import ExactComplex

    return ExactComplex.gaussian(Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 2)),
                                 rng.randint(-2, 2), p)


def unit_times(rng, p: int, v: int, k: int) -> Fraction:
    """A canonical level-k representative of valuation exactly v (0 when v >= k)."""
    if v >= k:
        return Fraction(0)
    u = rng.randrange(1, p ** (k - v))
    while u % p == 0:
        u = rng.randrange(1, p ** (k - v))
    return Fraction(u * p**v) if v >= 0 else Fraction(u, p**-v)
