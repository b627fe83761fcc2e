"""Measurement of one workload: set-up, counting pass, checks, timed rounds.

The workload is a fixed batch of items.  After the set-up and one counting
pass (which is also the warm-up), whole rounds run every item once, in the
same order, until the run's seconds are spent (at least MIN_ROUNDS rounds).
Garbage is collected before every timed item.

The machine this was written on changes speed by a factor of up to two
from one millisecond to the next and for seconds at a time, for timed code
and for a fixed reference loop alike.  So each timed item is preceded by
calls of `_reference`, about one per PROBE_EVERY seconds of the item, and
a round's time is divided by the mean reference time of that round.  The
reported `wall_s` is the median of these ratios over the rounds, times
REFERENCE_S: the batch's seconds at the speed at which one reference call
takes REFERENCE_S.  A change to padlab moves the batch's time and not the
reference, so it moves `wall_s` by the same share.  `setup_s` is scaled
the same way by the run's median reference time.  Raw figures (the median
round time and the sum of each item's least time) go to standard error.
"""

from __future__ import annotations

import gc
import resource
import sys
import time
from fractions import Fraction
from math import inf
from statistics import median

import workloads
from instrument import Counter, Tracer
from oracles import CheckFailed
from padlab.cyclotomic import ExactComplex
from padlab.schwartz import SchwartzBruhat

MIN_ROUNDS = 3
PROBE_EVERY = 0.05
# a typical time of one `_reference` call on the machine the benchmark was
# tuned on (2 shared vCPUs, Python 3.11.7); reported times use this speed
REFERENCE_S = 0.002


def _reference():
    """Fixed pure-Python work like padlab's: Fraction arithmetic and dict updates."""
    acc = {}
    x = Fraction(1, 3)
    for i in range(300):
        x = (x * 7 + Fraction(i, 9)) % 5
        acc[i % 17] = acc.get(i % 17, 0) + x
    return acc


def _probe(calls: int) -> float:
    """Total time of `calls` reference calls."""
    start = time.perf_counter()
    for _ in range(calls):
        _reference()
    return time.perf_counter() - start


def _check(item, out) -> bool:
    try:
        item.check(out)
    except CheckFailed as err:
        print(f"check failed in {item.name}: {err}", file=sys.stderr)
        return False
    return True


def fingerprint(obj):
    """Structural digest of an output, read without padlab arithmetic."""
    if isinstance(obj, ExactComplex):
        return ("exact", obj.p, obj.r, tuple(sorted(obj.c.items())))
    if isinstance(obj, SchwartzBruhat):
        return ("sb", obj.p, obj.n, obj.m, obj.k,
                tuple(sorted((rep, fingerprint(v)) for rep, v in obj.table.items())))
    if isinstance(obj, dict):
        return tuple(sorted(((repr(k), fingerprint(v)) for k, v in obj.items()),
                            key=lambda kv: kv[0]))
    if isinstance(obj, (list, tuple)):
        return tuple(fingerprint(v) for v in obj)
    if hasattr(obj, "__dict__"):
        return (type(obj).__name__, fingerprint(vars(obj)))
    return obj


def _attempt(item):
    """(output, seconds) of one run of the item; output None when it raised."""
    gc.collect()
    start = time.perf_counter()
    try:
        out = item.run()
    except Exception as err:  # a failed operation is counted, never fatal
        print(f"{item.name} failed: {type(err).__name__}: {err}", file=sys.stderr)
        return None, inf
    return out, time.perf_counter() - start


def measure(name: str, seed: int, seconds: float, start: float) -> dict:
    """End-to-end metrics; `start` is the process's first clock reading."""
    items = workloads.load(name).build(seed)
    setup_s = time.perf_counter() - start
    window = time.perf_counter()

    with Counter(workloads.modules()) as counter:
        first = [_attempt(item) for item in items]
    failed = sum(out is None for out, _ in first)
    correct = all(_check(item, out) for item, (out, _) in zip(items, first) if out is not None)
    digests = [fingerprint(out) for out, _ in first]

    probes = [1 + int(t / PROBE_EVERY) if t < inf else 1 for _, t in first]
    best = [inf] * len(items)
    rounds = []  # (seconds of the round's items, mean seconds of a reference call)
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - window < seconds:
        spent_sum = ref_sum = 0.0
        for i, item in enumerate(items):
            ref_sum += _probe(probes[i])
            out, spent = _attempt(item)
            if out is None:
                failed += 1
                continue
            best[i] = min(best[i], spent)
            spent_sum += spent
            if fingerprint(out) != digests[i]:
                print(f"{item.name}: output changed between runs", file=sys.stderr)
                correct = False
        rounds.append((spent_sum, ref_sum / sum(probes)))

    for item, t in zip(items, best):
        print(f"  {item.name:24s} {t:9.4f} s", file=sys.stderr)
    speed = median(r for _, r in rounds)
    print(f"{name}: {len(rounds)} timed rounds; raw: median round {median(w for w, _ in rounds):.4f} s, "
          f"sum of least item times {sum(t for t in best if t < inf):.4f} s, set-up {setup_s:.4f} s, "
          f"reference call {speed * 1e3:.4f} ms", file=sys.stderr)
    metrics = {
        "wall_s": (REFERENCE_S * median(w / r for w, r in rounds), "s"),
        "setup_s": (setup_s * REFERENCE_S / speed, "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "field_ops": (counter.field_ops, "count"),
        "char_evals": (counter.char_evals, "count"),
    }
    return _result(correct, len(items) * (1 + len(rounds)), failed, metrics)


def trace(name: str, seed: int) -> dict:
    """Per-layer metrics from one traced set-up and one traced pass."""
    module = workloads.load(name)
    with Tracer(workloads.modules()) as tracer:
        items = module.build(seed)
        start = time.perf_counter()
        outs = [_attempt(item)[0] for item in items]
        traced = time.perf_counter() - start
    print(f"{name}: traced pass {traced:.4f} s", file=sys.stderr)
    failed = sum(out is None for out in outs)
    correct = all(_check(item, out) for item, out in zip(items, outs) if out is not None)
    return _result(correct, len(items), failed, tracer.metrics())


def _result(correct: bool, attempted: int, failed: int, metrics: dict) -> dict:
    return {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
