"""Line-oriented scene files: named test functions, expressions, sets,
graphs, and distributions sharing a prime and ambient dimension.

Format: `key = value` lines under bracketed section headers, UTF-8,
whitespace-insensitive, `#` comments.  Parse errors carry line numbers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .cexp import CexpSyntaxError, parse as parse_cexp, parse_ratterm
from .charts import HenselChart, PowerChart
from .cyclotomic import ExactComplex
from .dist import (
    Distribution,
    density_distribution,
    dirac,
    graph_measure,
    haar_on,
    loci_distribution,
    pushforward_chart,
)
from .graphs import GraphManifold
from .padic import Box, ClopenSet, rep_key
from .schwartz import SchwartzBruhat


class SceneError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        loc = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{loc}")
        self.line = line


_BOX = re.compile(r"box\(\s*([^;()]*?)\s*;\s*(-?\d+)\s*\)")
_RAT = re.compile(r"-?\d+(?:/\d+)?")


def parse_rational(src: str, line: int | None = None) -> Fraction:
    src = src.strip()
    if not re.fullmatch(_RAT, src):
        raise SceneError(f"bad rational literal {src!r}", line)
    return Fraction(src)


def parse_point(src: str, line: int | None = None) -> tuple[Fraction, ...]:
    src = src.strip()
    if src.startswith("(") and src.endswith(")"):
        src = src[1:-1]
    if not src:
        return ()
    return tuple(parse_rational(c, line) for c in src.split(","))


def parse_clopen(src: str, p: int, dim: int, line: int | None = None) -> ClopenSet:
    src = src.strip()
    if src in ("", "<empty>", "empty"):
        return ClopenSet.empty(p, dim)
    boxes = []
    rest = src
    while rest:
        m = _BOX.match(rest)
        if not m:
            raise SceneError(f"bad clopen literal near {rest!r}", line)
        center = parse_point(m.group(1), line) if m.group(1) else ()
        boxes.append(Box(p, center, int(m.group(2))))
        rest = rest[m.end():].lstrip()
        if rest.startswith(";"):
            rest = rest[1:].lstrip()
    return ClopenSet.from_boxes(p, dim, boxes)


def parse_value(src: str, p: int, line: int | None = None) -> ExactComplex:
    """ExactComplex literal: rationals, i, zeta(p^r)^k under + - * /."""
    try:
        e = parse_cexp(src, p)
    except CexpSyntaxError as err:
        raise SceneError(f"bad value literal {src!r}: {err}", line) from err
    total = ExactComplex.zero(p)
    for coef, atoms in e.terms:
        if atoms:
            raise SceneError(f"value literal {src!r} contains function atoms", line)
        total = total + coef
    return total


def parse_chart(src: str, p: int, line: int | None = None):
    """Chart literals: power N=<int> lambda=(l1,...,ln) [prec=<int>]
    or hensel k1=<int> u=(<poly>) nvars=<int> [prec=<int>]."""
    src = src.strip()
    if src.startswith("power"):
        m = re.fullmatch(r"power\s+N=(\d+)\s+lambda=\(([^)]*)\)(?:\s+prec=(\d+))?", src)
        if not m:
            raise SceneError(f"bad power chart literal {src!r}", line)
        lam = tuple(parse_rational(c, line) for c in m.group(2).split(","))
        prec = int(m.group(3)) if m.group(3) else 20
        return PowerChart(p, lam, int(m.group(1)), prec)
    if src.startswith("hensel"):
        m = re.fullmatch(r"hensel\s+k1=(\d+)\s+u=\((.*)\)\s+nvars=(\d+)(?:\s+prec=(\d+))?", src)
        if not m:
            raise SceneError(f"bad hensel chart literal {src!r}", line)
        nvars = int(m.group(3))
        upoly = parse_ratterm(m.group(2), p).as_poly(nvars)
        if upoly is None:
            raise SceneError("hensel unit must be polynomial", line)
        prec = int(m.group(4)) if m.group(4) else 20
        return HenselChart(p, upoly, int(m.group(1)), prec)
    raise SceneError(f"unknown chart kind in {src!r}", line)


@dataclass
class Scene:
    p: int
    dim: int
    clopens: dict = field(default_factory=dict)
    schwartz: dict = field(default_factory=dict)
    cexprs: dict = field(default_factory=dict)
    graphs: dict = field(default_factory=dict)
    distributions: dict = field(default_factory=dict)
    splits: dict = field(default_factory=dict)

    def lookup(self, kind: str, name: str):
        pool = getattr(self, kind)
        if name not in pool:
            raise SceneError(f"no {kind[:-1]} named {name!r} in the scene")
        return pool[name]


def _split_sections(text: str):
    header: list[tuple[str, int]] = []
    sections = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        m = re.fullmatch(r"\[(\w+)\s+([A-Za-z_][\w.-]*)\]", line.strip())
        if m:
            current = (m.group(1), m.group(2), lineno, [])
            sections.append(current)
            continue
        m = re.fullmatch(r"\s*([A-Za-z_][\w]*)\s*(\([^=]*\))?\s*=\s*(.*)", line)
        if not m:
            raise SceneError(f"unparseable line {line!r}", lineno)
        entry = (m.group(1), m.group(2), m.group(3).strip(), lineno)
        if current is None:
            header.append(entry)
        else:
            current[3].append(entry)
    return header, sections


# keys each section kind reads; `value (...)` lines count as the key "value"
_KEYS = {
    "clopen": {"set", "dim"},
    "schwartz": {"dim", "support_level", "constancy_level", "value"},
    "cexp": {"expr"},
    "graph": {"base", "basedim", "map"},
    "split": {"x", "strata"},
}
_DISTRIBUTION_KEYS = {
    "dirac": {"kind", "point"},
    "haar": {"kind", "set"},
    "graph": {"kind", "graph"},
    "density": {"kind", "expr", "domain"},
    "loci": {"kind", "expr", "strata"},
    "pushforward": {"kind", "base", "chart"},
}


def _check_keys(kind: str, body: dict, values: list):
    """Reject a key the section does not read; unknown kinds fail later, in the builder."""
    if kind == "distribution":
        allowed = _DISTRIBUTION_KEYS.get(body.get("kind", ("",))[0])
    else:
        allowed = _KEYS.get(kind)
    if allowed is None:
        return
    found = [(body[key][1], key) for key in body.keys() - allowed]
    if values and "value" not in allowed:
        found.append((values[0][2], "value"))
    if found:
        ln, key = min(found)
        raise SceneError(f"unknown key {key!r} in a {kind} section", ln)


def load_scene(text: str) -> Scene:
    header, sections = _split_sections(text)
    for key, _, _, ln in header:
        if key not in ("prime", "dim"):
            raise SceneError(f"unknown header key {key!r}", ln)
    kv = {k: v for k, _, v, _ in header}
    if "prime" not in kv or "dim" not in kv:
        raise SceneError("scene header must set prime and dim")
    p = int(kv["prime"])
    dim = int(kv["dim"])
    scene = Scene(p, dim)
    names = set()
    for kind, name, lineno, entries in sections:
        if name in names:
            raise SceneError(f"duplicate name {name!r}", lineno)
        names.add(name)
        body = {}
        values = []
        for key, arg, val, ln in entries:
            if key == "value":
                values.append((arg, val, ln))
            elif arg is not None:
                raise SceneError(f"only value lines take a coordinate tuple, not {key!r}", ln)
            elif key in body:
                raise SceneError(f"duplicate key {key!r}", ln)
            else:
                body[key] = (val, ln)
        _check_keys(kind, body, values)
        try:
            _build_section(scene, kind, name, body, values, lineno)
        except SceneError:
            raise
        except (ValueError, KeyError, CexpSyntaxError) as err:
            raise SceneError(f"in [{kind} {name}]: {err}", lineno) from err
    return scene


def _get(body, key, lineno, default=None):
    if key not in body:
        if default is not None:
            return default, lineno
        raise SceneError(f"missing key {key!r}", lineno)
    return body[key]


def _build_section(scene: Scene, kind: str, name: str, body: dict, values, lineno: int):
    p, dim = scene.p, scene.dim
    if kind == "clopen":
        val, ln = _get(body, "set", lineno)
        d = int(body.get("dim", (str(dim), lineno))[0])
        scene.clopens[name] = parse_clopen(val, p, d, ln)
    elif kind == "schwartz":
        n = int(body.get("dim", (str(dim), lineno))[0])
        m_val, _ = _get(body, "support_level", lineno)
        k_val, _ = _get(body, "constancy_level", lineno)
        table = {}
        for arg, val, ln in values:
            if arg is None:
                raise SceneError("value lines need a coordinate tuple", ln)
            rep = parse_point(arg, ln)
            table[rep] = parse_value(val, p, ln)
        scene.schwartz[name] = SchwartzBruhat(p, n, int(m_val), int(k_val), table)
    elif kind == "cexp":
        val, ln = _get(body, "expr", lineno)
        scene.cexprs[name] = parse_cexp(val, p)
    elif kind == "graph":
        base_val, ln = _get(body, "base", lineno)
        d = int(body.get("basedim", (str(max(dim - 1, 0)), lineno))[0])
        base = parse_clopen(base_val, p, d, ln)
        map_val, ln2 = _get(body, "map", lineno)
        inner = map_val.strip()
        if inner.startswith("(") and inner.endswith(")"):
            inner = inner[1:-1]
        maps = tuple(parse_ratterm(comp.strip(), p) for comp in inner.split(",")) if inner else ()
        scene.graphs[name] = GraphManifold(p, base, maps)
    elif kind == "distribution":
        scene.distributions[name] = _build_distribution(scene, body, lineno)
    elif kind == "split":
        from .extend import Split

        xval, ln = _get(body, "x", lineno)
        region = scene.clopens[xval] if xval in scene.clopens \
            else parse_clopen(xval, p, dim, ln)
        strata_val, ln2 = _get(body, "strata", lineno)
        strata = [scene.lookup("graphs", s.strip()) for s in strata_val.split(",")]
        scene.splits[name] = Split(region, strata)
    else:
        raise SceneError(f"unknown section kind {kind!r}", lineno)


def _build_distribution(scene: Scene, body: dict, lineno: int) -> Distribution:
    p = scene.p
    kind, ln = _get(body, "kind", lineno)
    if kind == "dirac":
        val, ln = _get(body, "point", lineno)
        return dirac(p, parse_point(val, ln))
    if kind == "haar":
        val, ln = _get(body, "set", lineno)
        if val in scene.clopens:
            region = scene.clopens[val]
        else:
            region = parse_clopen(val, p, scene.dim, ln)
        return haar_on(region)
    if kind == "graph":
        val, ln = _get(body, "graph", lineno)
        return graph_measure(scene.lookup("graphs", val))
    if kind == "density":
        val, ln = _get(body, "expr", lineno)
        expr = scene.cexprs[val] if val in scene.cexprs else parse_cexp(val, p)
        dom_val, ln2 = _get(body, "domain", lineno)
        if dom_val in scene.clopens:
            domain = scene.clopens[dom_val]
        else:
            domain = parse_clopen(dom_val, p, scene.dim, ln2)
        return density_distribution(expr, domain)
    if kind == "loci":
        val, ln = _get(body, "expr", lineno)
        expr = scene.cexprs[val] if val in scene.cexprs else parse_cexp(val, p)
        strata_val, ln2 = _get(body, "strata", lineno)
        strata = [scene.lookup("graphs", s.strip()) for s in strata_val.split(",")]
        return loci_distribution(expr, strata)
    if kind == "pushforward":
        val, ln = _get(body, "base", lineno)
        base = scene.lookup("distributions", val)
        chart_val, ln2 = _get(body, "chart", lineno)
        return pushforward_chart(base, parse_chart(chart_val, p, ln2))
    raise SceneError(f"unknown distribution kind {kind!r}", ln)


def scene_roundtrip_text(scene: Scene) -> str:
    """Canonical serialization; parsing it back reproduces the scene."""
    out = [f"prime = {scene.p}", f"dim = {scene.dim}", ""]
    for name in sorted(scene.clopens):
        if name.startswith("."):
            continue
        cs = scene.clopens[name]
        out += [f"[clopen {name}]", f"dim = {cs.dim}", f"set = {cs}", ""]
    for name in sorted(scene.cexprs):
        out += [f"[cexp {name}]", f"expr = {scene.cexprs[name].to_string()}", ""]
    for name in sorted(scene.graphs):
        W = scene.graphs[name]
        maps = ", ".join(g.to_string() for g in W.maps)
        out += [f"[graph {name}]", f"basedim = {W.d}", f"base = {W.base}",
                f"map = ({maps})", ""]
    for name in sorted(scene.schwartz):
        f = scene.schwartz[name]
        out += [f"[schwartz {name}]", f"dim = {f.n}",
                f"support_level = {f.m}", f"constancy_level = {f.k}"]
        for rep in sorted(f.table, key=rep_key):
            coords = ",".join(str(c) for c in rep)
            out.append(f"value ({coords}) = {f.table[rep].to_string()}")
        out.append("")
    return "\n".join(out)
