"""The benchmark's tracer times charnet by replacing module attributes by
name; these tests fail when a rename or a changed call path leaves it
timing nothing."""

from __future__ import annotations

import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from charnet import cli

from support import build_demo_dataset

TRACER_FILE = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_run(monkeypatch):
    """A tracer wrapped around every TRACED name until the test ends."""
    tracer_module = load_tracer()
    tracer = tracer_module.Tracer("test")
    for module, attr, name, count in tracer_module.TRACED:
        monkeypatch.setattr(module, attr, getattr(module, attr))  # restored after the test
        tracer.wrap(module, attr, name, count)
    return tracer


def test_every_traced_name_exists():
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _, _ in load_tracer().TRACED
        if not hasattr(module, attr)
    ]
    assert missing == []


def test_traced_load_parses_and_aggregates_each_file_once(tmp_path, monkeypatch):
    segments_dir, ratings_csv = build_demo_dataset(tmp_path)  # before wrapping: count only the run
    tracer = traced_run(monkeypatch)
    files = sorted(segments_dir.glob("*.json"))

    episodes, _, _ = cli.load_dataset(files, ratings_csv)

    calls = Counter(span["name"] for span in tracer.spans)
    assert calls["ingest.load_dataset"] == 1
    assert calls["ingest.parse_segment_file"] == len(files) == len(episodes)
    assert calls["graph.aggregate_segments"] == len(episodes)
    parsed = [s for s in tracer.spans if s["name"] == "ingest.parse_segment_file"]
    assert sum(s["counts"]["segments"] for s in parsed) == sum(e.segment_count for e in episodes)


@pytest.mark.parametrize("mode", ["component-mean", "neighborhood"])
def test_traced_metrics_time_each_topology_metric_per_episode(tmp_path, monkeypatch, mode):
    segments_dir, ratings_csv = build_demo_dataset(tmp_path)  # before wrapping: count only the run
    tracer = traced_run(monkeypatch)
    argv = ["metrics", "--segments", str(segments_dir), "--ratings", str(ratings_csv)]

    assert cli.main([*argv, "--out", str(tmp_path / "out"), "--efficiency", mode]) == 0

    rows = sorted(s["id"] for s in tracer.spans if s["name"] == "metrics.compute_episode_metrics")
    assert len(rows) == len(list(segments_dir.glob("*.json")))
    for name in (
        "harmonic_vector",
        "efficiency_metric",
        "eigenvector_vector",
        "transitivity",
        "degree_vector",
    ):
        # one span per episode, each a child of that episode's row
        parents = sorted(s["parent"] for s in tracer.spans if s["name"] == f"metrics.{name}")
        assert parents == rows, name


def test_traced_all_run_records_one_report_span_per_file(tmp_path, monkeypatch):
    # a renderer called other than by its name in cli would leave report.render_s at 0
    segments_dir, ratings_csv = build_demo_dataset(tmp_path)  # before wrapping: count only the run
    tracer = traced_run(monkeypatch)
    out = tmp_path / "out"
    argv = ["all", "--segments", str(segments_dir), "--ratings", str(ratings_csv), "--out", str(out)]

    assert cli.main(argv) == 0

    files = [path.name for path in out.iterdir()]
    kinds = {
        "manifest.txt": "manifest",
        "_metrics.": "metrics",
        "_correlations.": "correlations",
        ".svg": "scatter_svg",
    }
    written = Counter(f"report.render_{kind}" for name in files for part, kind in kinds.items() if part in name)
    assert sum(written.values()) == len(files) == 1 + 4 + 4 + 2 * 12
    assert Counter(s["name"] for s in tracer.spans if s["name"].startswith("report.")) == written
