"""Shared test fixtures: reference-table loading, synthetic datasets, and
child interpreters."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

from charnet import stats
from charnet.graph import EpisodeKey, SegmentGraph, add_interaction
from charnet.ingest import serialize_episode

REPO_ROOT = Path(__file__).resolve().parent.parent

sys.path.insert(0, str(REPO_ROOT / "scripts"))

# the shipped reproduction script owns the reference tables and their loaders
from reproduce_correlations import (  # noqa: E402
    COLUMNS as REFERENCE_COLUMNS,
    DATA_DIR,
    RHO_TOLERANCE,
    SERIES,
    SIGN_FLIPPED,
    load_reference as load_reference_correlations,
    load_series as load_reference_metrics,
)


def run_python(*args: str, **kwargs) -> subprocess.CompletedProcess:
    """`python *args` in a fresh interpreter that imports charnet from this
    checkout's src/, whether or not charnet is installed."""
    path = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        **kwargs,
    )



def count_shuffles(monkeypatch) -> list[int]:
    """Record the length of every list the permutation test shuffles, until the test ends."""
    shuffles: list[int] = []
    shuffle = stats._shuffle

    def counting_shuffle(ys, getrandbits, steps):
        shuffles.append(len(ys))
        shuffle(ys, getrandbits, steps)

    monkeypatch.setattr(stats, "_shuffle", counting_shuffle)
    return shuffles

CAST = [
    "Avery Hale",
    "Brook Marsh",
    "Casey Voss",
    "Devon Reyes",
    "Ellis Ward",
    "Frankie Soto",
    "Gray Holt",
    "Harper Quill",
    "Indigo Trent",
    "Jules Adler",
]


def random_segments(rng: random.Random, count: int | None = None) -> list[SegmentGraph]:
    """Segment list with at least one edge per segment and no duplicates."""
    segments = []
    for index in range(count or rng.randint(3, 6)):
        segment = SegmentGraph(index=index)
        pool = [(a, b) for i, a in enumerate(CAST) for b in CAST[i + 1 :]]
        for a, b in rng.sample(pool, rng.randint(1, 6)):
            add_interaction(segment, a, b, round(rng.uniform(1.0, 120.0), 3))
        segments.append(segment)
    return segments


def build_demo_dataset(
    dest: Path,
    series: tuple[str, ...] = ("alpha", "beta"),
    episodes: int = 6,
    seed: int = 20240817,
) -> tuple[Path, Path]:
    """Clean synthetic dataset: every episode rated, no warnings expected.

    Returns (segments_dir, ratings_csv).
    """
    rng = random.Random(seed)
    segments_dir = dest / "segments"
    segments_dir.mkdir(parents=True, exist_ok=True)
    ratings_lines = ["series,season,episode,rating"]
    for name in series:
        for episode in range(1, episodes + 1):
            key = EpisodeKey(name, 1, episode)
            text = serialize_episode(key, random_segments(rng))
            (segments_dir / f"{name}_s01e{episode:02d}.json").write_text(
                text, encoding="utf-8"
            )
            ratings_lines.append(f"{name},1,{episode},{round(rng.uniform(6.5, 9.5), 3)}")
    ratings_csv = dest / "ratings.csv"
    ratings_csv.write_text("\n".join(ratings_lines) + "\n", encoding="utf-8")
    return segments_dir, ratings_csv


def build_messy_dataset(dest: Path, seed: int = 555) -> tuple[Path, Path]:
    """Dataset that should load with warnings: a duplicate episode key, an
    isolated node, a duplicate edge declaration, an unrated episode, and a
    rating without an episode."""
    segments_dir, ratings_csv = build_demo_dataset(
        dest, series=("gamma",), episodes=5, seed=seed
    )
    duplicate = {
        "series": "gamma",
        "season": 1,
        "episode": 1,
        "segments": [
            {"index": 0, "edges": [{"a": "Avery Hale", "b": "Brook Marsh", "w": 3.0}]}
        ],
    }
    (segments_dir / "zz_duplicate.json").write_text(
        json.dumps(duplicate), encoding="utf-8"
    )
    messy = {
        "series": "gamma",
        "season": 1,
        "episode": 6,  # not rated
        "segments": [
            {
                "index": 0,
                "nodes": ["Loner Vale"],
                "edges": [
                    {"a": "Avery Hale", "b": "Brook Marsh", "w": 2.0},
                    {"a": "Brook Marsh", "b": "Avery Hale", "w": 1.0},
                ],
            }
        ],
    }
    (segments_dir / "gamma_s01e06.json").write_text(json.dumps(messy), encoding="utf-8")
    with open(ratings_csv, "a", encoding="utf-8") as fh:
        fh.write("gamma,1,9,8.1\n")  # rating without an episode
    return segments_dir, ratings_csv
