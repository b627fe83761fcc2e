import os
import subprocess
import sys
from pathlib import Path

import pytest

from padlab.cli import main
from padlab.scene import SceneError, load_scene, scene_roundtrip_text

ROOT = Path(__file__).resolve().parent.parent
SCENES = ROOT / "scenes"
GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(args, tmp_path, name):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out.read_text() if out.exists() else ""


def test_scene_parses_and_roundtrips():
    for scene_file in sorted(SCENES.glob("*.pad")):
        text = scene_file.read_text()
        scene = load_scene(text)
        back = load_scene(scene_roundtrip_text(scene))
        assert back.p == scene.p and back.dim == scene.dim
        assert set(back.schwartz) == set(scene.schwartz)
        for name in scene.schwartz:
            assert back.schwartz[name] == scene.schwartz[name]
        for name in scene.cexprs:
            assert back.cexprs[name].to_string() == scene.cexprs[name].to_string()


def test_scene_errors():
    with pytest.raises(SceneError):
        load_scene("dim = 1\n")  # missing prime
    with pytest.raises(SceneError) as err:
        load_scene("prime = 3\ndim = 1\n[clopen A]\nset = box(0 0)\n")
    assert "line" in str(err.value)
    with pytest.raises(SceneError):
        load_scene("prime = 3\ndim = 1\n[widget W]\nx = 1\n")


HEAD = "prime = 3\ndim = 1\n\n"


@pytest.mark.parametrize("text,line", [
    (HEAD + "[distribution d]\nkind = dirac\npoint = (1)\nfiber = 2\n", 7),  # a removed key
    (HEAD + "[schwartz f]\nsupport_level = 0\nconstancy_levle = 1\n", 6),    # a misspelt key
    (HEAD + "[distribution h]\nkind = haar\nset = box(0; 0)\npoint = (0)\n", 7),  # another kind's
    (HEAD + "[clopen A]\nset = box(0; 0)\nvalue (0) = 1\n", 6),  # value lines belong to [schwartz]
    (HEAD + "[clopen A]\nset (7) = box(0; 0)\n", 5),  # a coordinate tuple on a plain key
    ("prime = 3\ndim = 1\nprimes = 5\n", 3),  # an unknown header key
])
def test_scene_rejects_unknown_keys(text, line):
    with pytest.raises(SceneError) as err:
        load_scene(text)
    assert err.value.line == line


def test_cli_ft_deterministic(tmp_path):
    args = ["ft", "--scene", str(SCENES / "basic1d.pad"), "--name", "f"]
    code1, out1 = run_cli(args, tmp_path, "a.csv")
    code2, out2 = run_cli(args, tmp_path, "b.csv")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "rep,value_exact,value_float" in out1


def test_cli_golden_outputs(tmp_path):
    """Byte-identical against the shipped golden files."""
    cases = [
        (["ft", "--scene", str(SCENES / "basic1d.pad"), "--name", "f"], "ft_f.csv"),
        (["bfun", "--scene", str(SCENES / "basic1d.pad"), "--dist", "xi",
          "--vx-min", "-2", "--vx-max", "2", "--ordr-min", "-2", "--ordr-max", "2"],
         "bfun_xi.csv"),
        (["wf", "--scene", str(SCENES / "basic1d.pad"), "--dist", "delta",
          "--region", "box(0; 0)", "--kx", "1", "--ky", "1", "--ktest", "2",
          "--nmin", "1", "--nmax", "3"], "wf_delta.csv"),
        (["smoothlocus", "--scene", str(SCENES / "basic1d.pad"), "--dist", "mu",
          "--region", "box(0; 0)", "--depth", "2", "--level", "1"], "smooth_mu.csv"),
    ]
    for args, name in cases:
        code, text = run_cli(args, tmp_path, name)
        assert code == 0, (args, text)
        golden = GOLDEN / name
        assert golden.exists(), f"golden file {name} missing"
        assert text == golden.read_text(), f"{name} drifted from golden output"


def test_cli_eval(tmp_path, capsys):
    code = main(["eval", "--scene", str(SCENES / "basic1d.pad"),
                 "--name", "absx", "--point", "(9)"])
    assert code == 0
    out = capsys.readouterr().out
    assert "1/9" in out


def test_cli_eval_domain_error(capsys):
    code = main(["eval", "--scene", str(SCENES / "basic1d.pad"),
                 "--name", "osc", "--point", "(0)"])
    assert code == 3


def test_cli_usage_and_scene_errors(tmp_path, capsys):
    assert main(["frobnicate"]) == 1
    bad = tmp_path / "bad.pad"
    bad.write_text("prime = 3\ndim = 1\n[clopen A]\nset = box(;\n")
    assert main(["ft", "--scene", str(bad), "--name", "f"]) == 2


def test_cli_regularize_and_extend(tmp_path):
    code, text = run_cli(["regularize", "--scene", str(SCENES / "basic1d.pad"),
                          "--dist", "xi", "--split", "puncture", "--depth", "2"],
                         tmp_path, "reg.csv")
    assert code == 0
    assert "VIOLATION" not in text
    code, text = run_cli(["extend", "--scene", str(SCENES / "basic1d.pad"),
                          "--dist", "nu", "--depth", "2"], tmp_path, "ext.csv")
    assert code == 0
    assert "NO" not in text.replace("n/a", "")


def test_cli_pushforward_and_loci(tmp_path):
    code, text = run_cli(["pushforward", "--scene", str(SCENES / "basic1d.pad"),
                          "--dist", "xi", "--chart", "power N=2 lambda=(1)",
                          "--depth", "1"], tmp_path, "push.csv")
    assert code == 0
    assert "box(0; 0),1," in text
    code, text = run_cli(["loci", "--scene", str(SCENES / "plane.pad"),
                          "--dist", "lineloci", "--depth", "1"], tmp_path, "loci.csv")
    assert code == 0


def test_cli_resolve(tmp_path):
    code, text = run_cli(["resolve", "--f", "x1^3*x2^2*(1+5*x1)", "--p", "5",
                          "--level", "5", "--prec", "12", "--samples", "40"],
                         tmp_path, "res.txt")
    assert code == 0
    assert "PASS" in text and "FAIL" not in text
    code, text = run_cli(["resolve", "--f", "x1^2", "--p", "5", "--N", "2",
                          "--level", "5", "--prec", "12", "--samples", "40"],
                         tmp_path, "res2.txt")
    assert code == 0


def test_cli_checks(capsys):
    for which in ("plancherel", "fourier-inversion", "urysohn", "partition", "bfun-haar"):
        code = main(["check", which, "--p", "3", "--trials", "8", "--seed", "7"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out


def test_cli_console_script_entrypoint():
    proc = subprocess.run([sys.executable, "-m", "padlab.cli", "check", "bfun-haar",
                           "--p", "2", "--trials", "1", "--seed", "1"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "PASS" in proc.stdout
