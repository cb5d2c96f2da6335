"""The example scripts run end to end, with RuntimeWarning as an error."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )


def test_linear_oracle_runs():
    proc = run_script("linear_oracle.py")
    assert proc.returncode == 0, proc.stderr
    assert "k0 = 2 (exact: 2)" in proc.stdout


def test_henon_saddle_runs(tmp_path):
    proc = run_script("henon_saddle.py", "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert "(exit 0)" in proc.stdout
    assert (tmp_path / "fixedpoint.json").is_file() and (tmp_path / "leaf.csv").is_file()
