"""Smoke test: each experiment script runs end to end and writes its files."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

COLREGS_CASES = ("overtaking", "head_on", "crossing", "three_ship", "narrow_channel")
STATIC_CASES = ("inverse", "sinkvortex", "mvortex", "inverse_far_goal")

#: script -> extra arguments and the files it must write under --out
SCRIPTS = {
    "run_waypoint_tracking.py": ([], [
        "trajectory.csv", "result.json", "path.svg",
        "rudder.svg", "heading.svg", "crosstrack.svg"]),
    "run_static_avoidance.py": ([], [
        f"{case}{suffix}" for case in STATIC_CASES
        for suffix in (".csv", "_path.svg", "_rudder.svg")]),
    "run_colregs_suite.py": (["--method", "mvortex"], [
        f"mvortex/{case}{suffix}" for case in COLREGS_CASES
        for suffix in (".csv", "_path.svg")]),
}


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_script_writes_its_outputs(script, tmp_path):
    args, expected = SCRIPTS[script]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--out", str(tmp_path), *args],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    missing = [name for name in expected if not (tmp_path / name).is_file()]
    assert missing == []
