"""Each script under scripts/ prints exactly its golden output."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "scripts"


@pytest.mark.parametrize("script", sorted((ROOT / "scripts").glob("*.py")), ids=lambda s: s.stem)
def test_script_output_matches_golden(script):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          cwd=ROOT, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    golden = GOLDEN / f"{script.stem}.txt"
    assert golden.exists(), f"golden file {golden.name} missing"
    assert proc.stdout == golden.read_text(), f"{script.name} drifted from its golden output"
