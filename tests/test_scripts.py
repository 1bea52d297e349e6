"""Smoke tests of the example scripts the README documents, run as a user
runs them: in a fresh interpreter, with their default arguments."""

import pathlib
import re
import subprocess
import sys

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args], capture_output=True, text=True
    )


def test_ins_roundtrip_recovers_the_exchange_constant():
    result = run_script("ins_roundtrip.py")
    assert result.returncode == 0, result.stderr
    assert "converged: True" in result.stdout
    center = float(re.search(r"fitted center\s*:\s*(\S+)", result.stdout).group(1))
    assert abs(center - 7.81) <= 0.04


def test_correlation_panel_writes_one_sweep_per_coupling(tmp_path):
    result = run_script("correlation_panel.py", "--outdir", str(tmp_path))
    assert result.returncode == 0, result.stderr
    assert sorted(path.name for path in tmp_path.glob("*.csv")) == [
        "sweep_D0.csv", "sweep_D2.csv", "sweep_D4.csv", "sweep_D8.csv"
    ]
