"""The shipped scripts and README's library example run end to end as a user
would start them."""

from __future__ import annotations

import shlex

import pytest

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


def test_generator_takes_no_dataset_shape_options(tmp_path):
    # series, episode count and seed are the script's constants; an option
    # that would change them is refused before anything is written
    demo = tmp_path / "demo"
    result = run_python(str(REPO_ROOT / "scripts" / "generate_demo_dataset.py"), "--out", str(demo), "--episodes", "3")
    assert result.returncode == 2
    assert "unrecognized arguments: --episodes 3" in result.stderr
    assert not demo.exists()


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


def test_readme_library_example_runs(capsys):
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    example = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(example, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    density, eigen_max = map(float, printed[0].split())
    assert (density, eigen_max) == (1.0, pytest.approx(0.5**0.5))
    assert printed[1].startswith("| Episode | Review | Density |")
    assert printed[3].startswith("| 1 | 8.500 | 1.000 |")
