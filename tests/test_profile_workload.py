"""Smoke test of scripts/profile_workload.py, the sampling profiler."""
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "profile_workload.py"


def test_profile_workload_samples_lp_curve(tmp_path):
    out = subprocess.run(
        [sys.executable, str(SCRIPT), "--workload", "lp-curve", "--seconds", "1"],
        capture_output=True, text=True, timeout=600, cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    assert "lp_curve" in out.stdout
    assert "inside fractions.py" in out.stdout
