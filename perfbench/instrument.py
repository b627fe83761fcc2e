"""Call counting and span tracing of padlab, installed from outside the library.

Two instruments share one patching mechanism:

* `Counter` wraps only the exact cyclotomic operations and the additive
  character, and counts calls.  Its totals are the work counts `field_ops`
  and `char_evals`; they repeat exactly and do not depend on the machine.
* `Tracer` wraps the public functions and methods of every padlab module
  (plus the few private hot spots named in `EXTRA`) with spans that record
  calls and self time, and with observers that record work counts.

A function imported elsewhere with `from ... import name` lives in several
module namespaces; the wrapper replaces it in every padlab module and in
every module registered through `extra_modules`, so no call escapes.
Methods are replaced on their class.  `uninstall` restores everything.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("padic", "cyclotomic", "schwartz", "cexp", "ratterm", "graphs", "dist",
          "micro", "extend", "charts", "scene", "cli")

# private functions and methods that are traced besides the public API
EXTRA = {
    "cyclotomic": {"ExactComplex": ("__add__", "__radd__", "__mul__", "__rmul__", "__neg__",
                                    "__sub__", "__rsub__", "__eq__", "__truediv__", "_canonical")},
    "dist": {"": ("_cell_integral",), "_PsiAverager": ("value", "_brute")},
}

# counted names: (module, class or "", attribute) -> counter key
FIELD_OPS = {
    ("cyclotomic", "ExactComplex", "__add__"): "add",
    ("cyclotomic", "ExactComplex", "__radd__"): "add",
    ("cyclotomic", "ExactComplex", "__mul__"): "mul",
    ("cyclotomic", "ExactComplex", "__rmul__"): "mul",
    ("cyclotomic", "ExactComplex", "_canonical"): "canonical",
}
CHAR_EVALS = ("schwartz", "", "psi_eval")


def _padlab_modules() -> dict:
    import padlab  # noqa: F401  (loads every submodule)

    return {name: sys.modules[f"padlab.{name}"] for name in LAYERS}


class _Patcher:
    """Replaces attributes and remembers the originals."""

    def __init__(self, extra_modules=()):
        self.modules = _padlab_modules()
        self.namespaces = [sys.modules["padlab"], *self.modules.values(), *extra_modules]
        self._undo: list = []

    def original(self, layer: str, cls: str, attr: str):
        owner = self.modules[layer]
        if cls:
            return inspect.getattr_static(getattr(owner, cls), attr)
        return getattr(owner, attr)

    def replace(self, layer: str, cls: str, attr: str, make):
        """Swap in make(original function) wherever the original is bound."""
        if cls:
            owner = getattr(self.modules[layer], cls)
            raw = owner.__dict__[attr]
            if isinstance(raw, staticmethod):
                new = staticmethod(make(raw.__func__))
            else:
                new = make(raw)
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, new)
            return
        fn = getattr(self.modules[layer], attr)
        new = make(fn)
        for ns in self.namespaces:
            for name, val in list(vars(ns).items()):
                if val is fn:
                    self._undo.append((ns, name, val))
                    setattr(ns, name, new)

    def uninstall(self):
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()


class Counter:
    """Counts exact field operations and character evaluations."""

    def __init__(self, extra_modules=()):
        self.counts: dict[str, int] = defaultdict(int)
        self._patcher = _Patcher(extra_modules)

    def __enter__(self):
        counts = self.counts

        def counting(key):
            def make(fn):
                @functools.wraps(fn)
                def wrapper(*args, **kwargs):
                    counts[key] += 1
                    return fn(*args, **kwargs)
                return wrapper
            return make

        for (layer, cls, attr), key in FIELD_OPS.items():
            self._patcher.replace(layer, cls, attr, counting(key))
        self._patcher.replace(*CHAR_EVALS, counting("psi_eval"))
        return self

    def __exit__(self, *exc):
        self._patcher.uninstall()
        return False

    @property
    def field_ops(self) -> int:
        return self.counts["add"] + self.counts["mul"] + self.counts["canonical"]

    @property
    def char_evals(self) -> int:
        return self.counts["psi_eval"]


class Tracer:
    """Spans with self time around every public padlab call, plus work counts.

    A span's self time is its duration minus the time of the spans it
    encloses.  Observer work (for example the zero test behind
    `dist.eval_mod.zero_ratio`) is charged to no span.
    """

    def __init__(self, extra_modules=()):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.work: dict[str, int] = defaultdict(int)
        self._stack: list[float] = []
        self._patcher = _Patcher(extra_modules)

    # -- observers: work counts taken from arguments and results ------------

    def _observers(self) -> dict:
        work = self.work
        canonical = self._patcher.original("cyclotomic", "ExactComplex", "_canonical")

        def level(args, result):
            work["cyclotomic.max_level"] = max(work["cyclotomic.max_level"], result.r)

        def subboxes(args, result):
            work["padic.subboxes.boxes"] += len(result)

        def refine(args, result):
            work["schwartz.refine.cells_out"] += len(result.table)

        def fourier(args, result):
            phi = args[0]
            if phi.table:
                cells = phi.p ** (phi.n * (phi.m + phi.k))
                work["schwartz.fourier.cells"] += cells
                work["schwartz.fourier.terms"] += cells * len(phi.table)
                work["schwartz.fourier.nonzero"] += len(result.table)

        def eval_mod(args, result):
            if not canonical(result):
                work["dist.eval_mod.zeros"] += 1

        def averager(args, result):
            avg, w = args[0], args[1]
            if avg.coords and avg.vanish_at < w < 1:
                work["dist.psi_averager.lookups"] += 1

        def scan(args, result):
            work["micro.wf_scan.cells"] += len(result.cells)

        return {
            ("cyclotomic", "ExactComplex", "__add__"): level,
            ("cyclotomic", "ExactComplex", "__radd__"): level,
            ("cyclotomic", "ExactComplex", "__mul__"): level,
            ("cyclotomic", "ExactComplex", "__rmul__"): level,
            ("padic", "Box", "subboxes"): subboxes,
            ("schwartz", "SchwartzBruhat", "refine"): refine,
            ("schwartz", "SchwartzBruhat", "fourier"): fourier,
            ("dist", "Distribution", "eval_mod"): eval_mod,
            ("dist", "_PsiAverager", "value"): averager,
            ("micro", "", "wf_scan"): scan,
        }

    def _hits(self, args):
        avg, w = args[0], args[1]
        if avg.coords and avg.vanish_at < w < 1 and w in avg.cache:
            self.work["dist.psi_averager.hits"] += 1

    # -- installation ---------------------------------------------------------

    def _span(self, key: str, observe=None, before=None):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        clock = time.perf_counter

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if before is not None:
                    t0 = clock()
                    before(args)
                    if stack:
                        stack[-1] += clock() - t0  # hidden from the caller's self time
                stack.append(0.0)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    spent = clock() - start
                    inner = stack.pop()
                    calls[key] += 1
                    self_s[key] += spent - inner
                    if stack:
                        stack[-1] += spent
                if observe is not None:
                    t0 = clock()
                    observe(args, result)
                    if stack:
                        stack[-1] += clock() - t0  # hidden from the caller's self time
                return result
            return wrapper
        return make

    def targets(self):
        """(layer, class or "", attribute) of every traced callable."""
        out = []
        for layer, mod in self._patcher.modules.items():
            extra = EXTRA.get(layer, {})
            for name, obj in sorted(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not name.startswith("_"):
                    out.append((layer, "", name))
                elif inspect.isclass(obj) and (not name.startswith("_") or name in extra):
                    for attr, raw in sorted(vars(obj).items()):
                        fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                        if not inspect.isfunction(fn):
                            continue
                        if not attr.startswith("_") or attr in extra.get(name, ()):
                            out.append((layer, name, attr))
            out.extend((layer, "", attr) for attr in extra.get("", ()))
        return out

    def __enter__(self):
        observers = self._observers()
        for target in self.targets():
            layer, cls, attr = target
            key = ".".join(part for part in target if part)
            before = self._hits if target == ("dist", "_PsiAverager", "value") else None
            self._patcher.replace(layer, cls, attr, self._span(key, observers.get(target), before))
        return self

    def __exit__(self, *exc):
        self._patcher.uninstall()
        return False

    # -- per-layer metrics -------------------------------------------------------

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))

    def metrics(self) -> dict[str, tuple[float, str]]:
        c, s, w = self.calls, self.self_s, self.work

        def ratio(num, den):
            return num / den if den else 0.0

        ec = "cyclotomic.ExactComplex."
        sb = "schwartz.SchwartzBruhat."
        return {
            "padic.coset_rep.calls": (c["padic.coset_rep"], "count"),
            "padic.valuation.calls": (c["padic.valuation"], "count"),
            "padic.subboxes.boxes": (w["padic.subboxes.boxes"], "count"),
            "padic.self_s": (self.layer_self_s("padic"), "s"),
            "cyclotomic.add.calls": (c[ec + "__add__"] + c[ec + "__radd__"], "count"),
            "cyclotomic.mul.calls": (c[ec + "__mul__"] + c[ec + "__rmul__"], "count"),
            "cyclotomic.canonical.calls": (c[ec + "_canonical"], "count"),
            "cyclotomic.max_level": (w["cyclotomic.max_level"], "count"),
            "cyclotomic.self_s": (self.layer_self_s("cyclotomic"), "s"),
            "schwartz.psi_eval.calls": (c["schwartz.psi_eval"], "count"),
            "schwartz.fourier.calls": (c[sb + "fourier"], "count"),
            "schwartz.fourier.terms": (w["schwartz.fourier.terms"], "count"),
            "schwartz.fourier.nonzero_ratio": (
                ratio(w["schwartz.fourier.nonzero"], w["schwartz.fourier.cells"]), "ratio"),
            "schwartz.refine.cells_out": (w["schwartz.refine.cells_out"], "count"),
            "schwartz.plancherel_pairing.self_s": (s[sb + "plancherel_pairing"], "s"),
            "schwartz.fourier.self_s": (s[sb + "fourier"], "s"),
            "schwartz.modulate.calls": (c[sb + "modulate"], "count"),
            "schwartz.self_s": (self.layer_self_s("schwartz"), "s"),
            "dist.eval_mod.calls": (c["dist.Distribution.eval_mod"], "count"),
            "dist.eval_mod.zero_ratio": (
                ratio(w["dist.eval_mod.zeros"], c["dist.Distribution.eval_mod"]), "ratio"),
            "dist.eval_mod.self_s": (s["dist.Distribution.eval_mod"], "s"),
            "dist.eval.calls": (c["dist.Distribution.eval"], "count"),
            "dist.eval.self_s": (s["dist.Distribution.eval"], "s"),
            "dist.cell_integral.calls": (c["dist._cell_integral"], "count"),
            "dist.psi_averager.brute_calls": (c["dist._PsiAverager._brute"], "count"),
            "dist.psi_averager.cache_hit_ratio": (
                ratio(w["dist.psi_averager.hits"], w["dist.psi_averager.lookups"]), "ratio"),
            "dist.b_function.calls": (c["dist.b_function"], "count"),
            "micro.wf_scan.cells": (w["micro.wf_scan.cells"], "count"),
            "micro.wf_scan.self_s": (s["micro.wf_scan"], "s"),
            "micro.holonomicity_check.self_s": (s["micro.holonomicity_check"], "s"),
            "micro.smooth_locus_scan.self_s": (s["micro.smooth_locus_scan"], "s"),
            "graphs.point.calls": (c["graphs.GraphManifold.point"], "count"),
            "ratterm.self_s": (self.layer_self_s("ratterm"), "s"),
            "cexp.parse.self_s": (s["cexp.parse"], "s"),
            "scene.load_scene.self_s": (s["scene.load_scene"], "s"),
            "cexp.eval.calls": (c["cexp.CexpExpr.eval"], "count"),
            "extend.self_s": (self.layer_self_s("extend"), "s"),
            "charts.certify_resolution.self_s": (s["charts.certify_resolution"], "s"),
            "cli.self_s": (self.layer_self_s("cli"), "s"),
        }
