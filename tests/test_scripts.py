"""The shipped scripts run end to end as a user would start them."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_python(*args: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_reproduce_correlations_within_tolerance():
    result = run_python(str(REPO_ROOT / "scripts" / "reproduce_correlations.py"))
    assert result.returncode == 0, result.stdout + result.stderr
    assert "all rho values within tolerance" in result.stdout


def test_generated_demo_dataset_validates_clean(tmp_path):
    demo = tmp_path / "demo"
    result = run_python(str(REPO_ROOT / "scripts" / "generate_demo_dataset.py"), "--out", str(demo))
    assert result.returncode == 0, result.stderr
    validate = run_python(
        "-m",
        "charnet",
        "validate",
        "--segments",
        str(demo / "segments"),
        "--ratings",
        str(demo / "ratings.csv"),
        "--out",
        str(tmp_path / "out"),
    )
    assert validate.returncode == 0, validate.stderr
    assert (tmp_path / "out" / "manifest.txt").is_file()
