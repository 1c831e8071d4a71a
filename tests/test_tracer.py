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


def test_every_traced_name_exists():
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _, _ in load_tracer().TRACED
        if not hasattr(module, attr)
    ]
    assert missing == []


def test_traced_load_parses_and_aggregates_each_file_once(tmp_path, monkeypatch):
    segments_dir, ratings_csv = build_demo_dataset(tmp_path)  # before wrapping: count only the run
    tracer_module = load_tracer()
    tracer = tracer_module.Tracer("test")
    for module, attr, name, count in tracer_module.TRACED:
        monkeypatch.setattr(module, attr, getattr(module, attr))  # restored after the test
        tracer.wrap(module, attr, name, count)
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
    tracer_module = load_tracer()
    tracer = tracer_module.Tracer("test")
    for module, attr, name, count in tracer_module.TRACED:
        monkeypatch.setattr(module, attr, getattr(module, attr))  # restored after the test
        tracer.wrap(module, attr, name, count)
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
