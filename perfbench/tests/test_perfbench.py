"""Tests of the benchmark itself, on toy datasets.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import bench
from check import tree_digest
from workloads import WORKLOADS, generate


def run_tiny(capsys, workload: str, trace: int) -> tuple[list[str], dict]:
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.3", "--trace", str(trace)]
    assert bench.main(argv, tiny=True) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_tiny_run_prints_every_metric_with_its_unit(capsys, workload):
    lines, result = run_tiny(capsys, workload, trace=1)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 3  # reference, at least one timed run, the traced run
    assert list(result["metrics"]) == [m.name for m in bench.PER_LAYER]
    assert all(result["metrics"][m.name]["unit"] == m.unit for m in bench.PER_LAYER)
    text = "\n".join(lines[:-1])
    for metric in bench.END_TO_END + bench.PER_LAYER:
        assert f"  {metric.name} = " in text
        line = next(l for l in lines if l.startswith(f"  {metric.name} = "))
        assert f" {metric.unit}  (" in line
    assert "failed_share = 0 " in text

    accounting = next(l for l in lines if "accounting:" in l).split()
    children, own, main = (float(accounting[i]) for i in (3, 7, 11))
    assert children + own == pytest.approx(main, abs=2e-6)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_untraced_tiny_run_reports_the_end_to_end_metrics(capsys, workload):
    _, result = run_tiny(capsys, workload, trace=0)
    assert result["correct"] is True
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m.name: m.unit for m in bench.END_TO_END
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("flipped_run", [1, 2], ids=["reference", "timed"])
def test_one_flipped_report_cell_fails_that_run(capsys, monkeypatch, flipped_run):
    real_run_child = bench.run_child
    charnet_runs = []

    def run_child_then_flip(spawner, cmd, out_dir):
        sample = real_run_child(spawner, cmd, out_dir)
        if out_dir is not None:
            charnet_runs.append(out_dir)
            if len(charnet_runs) == flipped_run:
                table = out_dir / "alpha_metrics.csv"
                rows = table.read_text(encoding="utf-8").split("\n")
                cells = rows[1].split(",")
                cells[2] = f"{float(cells[2]) + 0.5:.3f}"  # Density of the first episode
                rows[1] = ",".join(cells)
                table.write_text("\n".join(rows), encoding="utf-8")
        return sample

    monkeypatch.setattr(bench, "run_child", run_child_then_flip)
    lines, result = run_tiny(capsys, "stress", trace=0)
    assert result["correct"] is False
    failures = [l for l in lines if "FAILED" in l]
    if flipped_run == 1:
        # later runs, unflipped, no longer match the reference tree either
        assert result["failed"] == result["attempted"]
        assert any("reference run" in l and "alpha_metrics.csv" in l and "Density" in l for l in failures)
    else:
        assert result["failed"] == 1
        assert any("timed run 1" in l and "sha256" in l for l in failures)


def test_generator_is_seeded(tmp_path):
    shape = WORKLOADS["paper-perm"].tiny
    digests = [tree_digest(generate(shape, seed, tmp_path / str(i)).segments_dir.parent)
               for i, seed in enumerate((5, 5, 6))]
    assert digests[0] == digests[1] != digests[2]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(bench.BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stress", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
