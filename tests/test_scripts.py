"""The shipped scripts run end to end as a user would start them."""

from __future__ import annotations

import shlex

from charnet import cli
from support import REPO_ROOT, run_python


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


def test_next_line_quotes_paths_with_spaces(tmp_path):
    demo = tmp_path / "demo dir"
    result = run_python(str(REPO_ROOT / "scripts" / "generate_demo_dataset.py"), "--out", str(demo))
    assert result.returncode == 0, result.stderr
    (line,) = [line for line in result.stdout.splitlines() if line.startswith("next: ")]
    argv = shlex.split(line.removeprefix("next: "))
    assert argv == [
        "charnet",
        "all",
        "--segments",
        str(demo / "segments"),
        "--ratings",
        str(demo / "ratings.csv"),
        "--out",
        str(demo / "reports"),
    ]
    assert cli.main(argv[1:]) == 0
    assert (demo / "reports" / "manifest.txt").is_file()
