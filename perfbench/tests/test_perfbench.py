"""Tests of the benchmark harness: counts, instrument hygiene, and checks
that catch a corrupted output.  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import workloads  # noqa: E402
from instrument import Counter, Tracer  # noqa: E402
from oracles import CheckFailed, Cyc, psi  # noqa: E402
from padlab.cyclotomic import ExactComplex  # noqa: E402
from padlab.schwartz import SchwartzBruhat, psi_eval  # noqa: E402
from workloads.fourier_battery import random_sb  # noqa: E402


@pytest.mark.parametrize("p,n,m,k", [(2, 1, 2, 3), (3, 2, 1, 0), (5, 1, 0, 2), (7, 2, 1, -1)])
def test_char_evals_of_one_transform(p, n, m, k):
    phi = random_sb(random.Random(p * n), p, n, m, k)
    with Counter(workloads.modules()) as counter:
        phi.fourier()
    assert counter.char_evals == len(phi.table) * p ** (n * (m + k))


def test_instruments_restore_padlab():
    import padlab.dist
    import padlab.schwartz

    before = (ExactComplex.__add__, ExactComplex.__radd__, padlab.dist.psi_eval,
              padlab.schwartz.SchwartzBruhat.fourier, padlab.dist.b_function)
    for instrument in (Counter, Tracer):
        with instrument(workloads.modules()):
            assert padlab.dist.psi_eval is not before[2]
        after = (ExactComplex.__add__, ExactComplex.__radd__, padlab.dist.psi_eval,
                 padlab.schwartz.SchwartzBruhat.fourier, padlab.dist.b_function)
        assert after == before


def test_counts_reach_every_namespace():
    """psi_eval imported into dist and cexp is counted there too."""
    from padlab.cexp import parse

    e = parse("psi(1/x1)", 3)
    with Counter(workloads.modules()) as counter:
        e.eval((Fraction(1, 3),))
    assert counter.char_evals == 1


def test_oracle_zero_test_and_character():
    for p in (2, 3, 5, 7):
        for t in (Fraction(1), Fraction(1, p), Fraction(2, p**3), Fraction(5, 7 * p**2)):
            assert (Cyc.root(p, *psi(t, p)) - Cyc.of(psi_eval(t, p))).is_zero()
        assert not Cyc.root(p, 2, 1).is_zero()
        assert sum((Cyc.root(p, 1, j) for j in range(p)), Cyc(p)).is_zero()
        assert not sum((Cyc.root(p, 2, j) for j in range(p)), Cyc(p)).is_zero()


def _bump(x: ExactComplex) -> ExactComplex:
    return x + ExactComplex.from_rational(1, x.p)


def _bump_table(f: SchwartzBruhat):
    """Corrupt the first cell in string order, which the brute-force sample covers."""
    key = sorted(f.table, key=str)[0]
    f.table[key] = _bump(f.table[key])


def _run(name, seed=5):
    return [(item, item.run()) for item in workloads.load(name).build(seed)]


def _bump_pairing(out):
    f, g, hf, hg, lhs, rhs = out[0]
    out[0] = (f, g, hf, hg, _bump(lhs), rhs)


FOURIER_CORRUPTIONS = {
    "unit_ball": [_bump_table],
    "ft": [lambda o: _bump_table(o[0]), lambda o: _bump_table(o[1])],
    "pairings": [_bump_pairing],
}


def test_fourier_checks_catch_corruption():
    for item, out in _run("fourier_battery"):
        item.check(out)
        edits = next(v for k, v in FOURIER_CORRUPTIONS.items() if f"_{k}" in item.name)
        for edit in edits:
            bad = copy.deepcopy(out)
            edit(bad)
            with pytest.raises(CheckFailed):
                item.check(bad)


def test_wf_checks_catch_corruption():
    for item, out in _run("wf_scan"):
        item.check(out)
        report, verdict = copy.deepcopy(out)
        cell = report.cells[sorted(report.cells, key=str)[0]]
        cell.vanishing = not cell.vanishing
        with pytest.raises(CheckFailed):
            item.check((report, verdict))
        report, verdict = copy.deepcopy(out)
        verdict.passes = False
        with pytest.raises(CheckFailed):
            item.check((report, verdict))


def _swap_value(rows, i, pos):
    row = list(rows[i])
    row[pos] = _bump(row[pos])
    rows[i] = tuple(row)


def _flip_first_verdict(flags):
    verdict = next(iter(flags.values()))
    verdict.smooth = not verdict.smooth


def _edit_report(row, col, edit):
    """Corrupt one cell of a CLI report; row 0 is the line after the first."""
    def corrupt(out):
        lines = out[1]
        at = row + 1 if row >= 0 else len(lines) + row
        cells = lines[at].split(",")
        cells[col] = edit(cells[col])
        lines[at] = ",".join(cells)
    return corrupt


def _plus_one(text):
    return str(Fraction(text) + 1)


CLI_CORRUPTIONS = {
    "eval": _edit_report(-1, 0, _plus_one),
    "bfun": _edit_report(0, 2, _plus_one),
    "wf": _edit_report(1, 2, lambda v: "VanishingAtScale" if v == "Nonvanishing" else "Nonvanishing"),
    "smoothlocus": _edit_report(-1, 1, lambda v: "NotSmoothAtScale"),
    "extend": _edit_report(-1, 3, lambda v: "NO"),
    "regularize": _edit_report(-1, 3, lambda v: "VIOLATION"),
    "loci": _edit_report(0, -2, _plus_one),
}
DENSITY_CORRUPTIONS = {
    "ball_grid": [lambda o: _swap_value(o, 0, 2), lambda o: _swap_value(o, 0, 3)],
    "smooth_locus": [_flip_first_verdict],
    "extend": [lambda o: _swap_value(o, 0, 1), lambda o: _swap_value(o, -1, 1)],
    "regularize": [lambda o: _swap_value(o, 0, 1), lambda o: _swap_value(o, -1, 1)],
    "resolution": [lambda o: setattr(o.verdicts["4"], "passed", False)],
}
SHELL_CORRUPTIONS = [lambda o: _swap_value(o[0], 0, 1), lambda o: _swap_value(o[1], 0, 1)]


def _density_corruptions(name):
    if name.startswith("cli_"):
        return [CLI_CORRUPTIONS[name[4:]]]
    for prefix, edits in DENSITY_CORRUPTIONS.items():
        if name.startswith(prefix):
            return edits
    return SHELL_CORRUPTIONS


def test_density_checks_catch_corruption():
    for item, out in _run("densities"):
        item.check(out)
        for edit in _density_corruptions(item.name):
            bad = copy.deepcopy(out)
            edit(bad)
            with pytest.raises(CheckFailed):
                item.check(bad)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "densities",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_result_line_shape():
    root = BENCH.parent
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "densities",
                           "--seed", "3", "--seconds", "1", "--trace", "0"],
                          cwd=root, capture_output=True, text=True, timeout=170)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = json.loads((root / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for m in spec["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
