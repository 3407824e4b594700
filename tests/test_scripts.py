"""Smoke runs of the two study scripts in scripts/ at tiny sizes."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("script", ["run_three_phase.py", "benchmark_profiles.py"])
def test_study_script_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script),
         "--speakers", "2", "--vowels-per-speaker", "3", "--n-estimators", "20",
         "--workdir", str(tmp_path / "work")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert "accuracy" in result.stdout
