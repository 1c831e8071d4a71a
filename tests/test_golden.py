"""Report bytes, stderr and exit codes pinned by sha256 digests.

golden_digests.json holds, per run, the exit code, the digest of stderr
and the digest of every file the run writes.  The generator run reads
the default dataset of scripts/generate_demo_dataset.py.  stdout is left
out: its `wrote <path>` lines hold temporary paths.  There is no update
switch: a change to any output edits the digest file in its own diff.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from charnet.cli import main

from support import REPO_ROOT, build_demo_dataset, build_messy_dataset, run_python

DIGESTS = Path(__file__).with_name("golden_digests.json")

FLAGS = {
    "plain": [],
    "neighborhood-perm": ["--efficiency", "neighborhood", "--permutations", "2000", "--seed", "4"],
}


def build_generated_dataset(dest: Path) -> tuple[Path, Path]:
    """The generator script's default dataset: (segments_dir, ratings_csv)."""
    result = run_python(str(REPO_ROOT / "scripts" / "generate_demo_dataset.py"), "--out", str(dest))
    assert result.returncode == 0, result.stderr
    return dest / "segments", dest / "ratings.csv"


# dataset: (builder, names of the FLAGS sets run on it)
DATASETS = {
    "demo": (build_demo_dataset, list(FLAGS)),
    "messy": (build_messy_dataset, list(FLAGS)),
    "generator": (build_generated_dataset, ["plain"]),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_digests(tmp_path: Path, capsys) -> dict[str, dict]:
    """{run name: {"exit", "stderr", "files"}} for every dataset and flag set."""
    capsys.readouterr()
    runs = {}
    for dataset, (build, flag_sets) in DATASETS.items():
        segments, ratings = build(tmp_path / dataset)
        for flags in flag_sets:
            out = tmp_path / f"{dataset}-{flags}"
            argv = ["all", "--segments", str(segments), "--ratings", str(ratings), "--out", str(out)]
            code = main([*argv, *FLAGS[flags]])
            files = sorted(p for p in out.rglob("*") if p.is_file())
            runs[f"{dataset} all {flags}"] = {
                "exit": code,
                "stderr": _sha(capsys.readouterr().err.encode("utf-8")),
                "files": {p.relative_to(out).as_posix(): _sha(p.read_bytes()) for p in files},
            }
    return runs


def test_reports_match_golden_digests(tmp_path, capsys):
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    actual = _run_digests(tmp_path, capsys)
    assert sorted(actual) == sorted(expected)
    differing = []
    for run, want in expected.items():
        got = actual[run]
        differing += [f"{run}: {field}" for field in ("exit", "stderr") if got[field] != want[field]]
        names = sorted(want["files"].keys() | got["files"].keys())
        differing += [f"{run}: {name}" for name in names if got["files"].get(name) != want["files"].get(name)]
    assert not differing, "outputs differ from golden_digests.json:\n" + "\n".join(differing)
