"""Benchmark workloads and the seeded dataset generator behind them.

Each workload is a dataset shape plus the charnet subcommand that runs on
it.  Datasets are built through charnet's public API (SegmentGraph,
add_interaction, serialize_episode), so the program under test only ever
sees files it would accept from a user.  The same seed gives the same
bytes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

from charnet import EpisodeKey, SegmentGraph, add_interaction, serialize_episode

SERIES_NAMES = ("alpha", "bravo", "charlie", "delta")

# Earlier members of an episode's sampled cast talk more: draw weights fall
# off as 1/sqrt(rank), which gives each episode a few leads and a long tail,
# like the casts of the paper's series.
LEAD_SKEW = 0.5


@dataclass(frozen=True)
class Shape:
    """Dataset dimensions; every episode has exactly `segments` segments."""

    series: int
    episodes: int  # per series
    segments: int  # per episode
    pairs: int  # pair draws per segment; repeats within a segment are summed
    cast: int  # characters available to one series
    active: tuple[int, int]  # inclusive range of the per-episode cast size

    def cast_sizes(self, rng: random.Random) -> list[int]:
        """Per-episode cast sizes of one series, spread evenly over `active`.

        Only their order is random, so the total work of a dataset barely
        depends on the seed while the metric columns still vary.
        """
        lo, hi = self.active
        step = (hi - lo) / max(1, self.episodes - 1)
        sizes = [lo + round(i * step) for i in range(self.episodes)]
        rng.shuffle(sizes)
        return sizes


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple[str, ...]  # charnet subcommand and flags, without paths
    shape: Shape
    tiny: Shape  # same command on a toy dataset, for the benchmark's tests

    @property
    def efficiency_mode(self) -> str:
        return self._flag("--efficiency", "component-mean")

    @property
    def permutations(self) -> int:
        return int(self._flag("--permutations", "0"))

    def _flag(self, name: str, default: str) -> str:
        if name in self.args:
            return self.args[self.args.index(name) + 1]
        return default


# Why each workload exists is recorded in BENCHMARK.json, which also lists
# which of them the benchmark offers.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="stress",
            args=("all",),
            shape=Shape(series=3, episodes=6, segments=40, pairs=25, cast=150, active=(130, 150)),
            tiny=Shape(series=2, episodes=5, segments=4, pairs=8, cast=14, active=(9, 12)),
        ),
        Workload(
            name="paper-perm",
            args=("all", "--efficiency", "neighborhood", "--permutations", "6000", "--seed", "7"),
            shape=Shape(series=3, episodes=25, segments=16, pairs=10, cast=120, active=(40, 80)),
            tiny=Shape(series=2, episodes=5, segments=4, pairs=8, cast=14, active=(9, 12)),
        ),
        Workload(
            name="validate-long",
            args=("validate",),
            shape=Shape(series=3, episodes=20, segments=150, pairs=12, cast=100, active=(20, 40)),
            tiny=Shape(series=2, episodes=4, segments=12, pairs=4, cast=10, active=(5, 8)),
        ),
    )
}


@dataclass
class EpisodeRecord:
    """What the generator wrote for one episode, kept for independent checks."""

    key: EpisodeKey
    segments: int
    edges_declared: int
    edges: dict[tuple[str, str], float]  # summed over segments, canonical pairs
    rating: float

    @property
    def nodes(self) -> set[str]:
        return {v for pair in self.edges for v in pair}


@dataclass
class Dataset:
    segments_dir: Path
    ratings_file: Path
    episodes: list[EpisodeRecord] = field(default_factory=list)
    bytes: int = 0

    def shape_summary(self) -> dict[str, float]:
        files = len(self.episodes)
        return {
            "files": files,
            "bytes": self.bytes,
            "segments": sum(e.segments for e in self.episodes),
            "edges_declared": sum(e.edges_declared for e in self.episodes),
            "mean_active_nodes": sum(len(e.nodes) for e in self.episodes) / files,
            "mean_edges": sum(len(e.edges) for e in self.episodes) / files,
        }


def _segment(rng: random.Random, index: int, members: list[str], weights: list[float], pairs: int) -> SegmentGraph:
    segment = SegmentGraph(index=index)
    for _ in range(pairs):
        a, b = rng.choices(members, weights, k=2)
        while a == b:
            b = rng.choices(members, weights)[0]
        add_interaction(segment, a, b, round(rng.uniform(1.0, 120.0), 3))
    return segment


def generate(shape: Shape, seed: int, root: Path) -> Dataset:
    """Write one episode file per episode plus a ratings CSV under root."""
    rng = random.Random(seed)
    data = Dataset(segments_dir=root / "segments", ratings_file=root / "ratings.csv")
    data.segments_dir.mkdir(parents=True)
    rating_lines = ["series,season,episode,rating"]
    for series in SERIES_NAMES[: shape.series]:
        cast = [f"{series.title()} Character {i:03d}" for i in range(shape.cast)]
        for number, size in enumerate(shape.cast_sizes(rng), start=1):
            key = EpisodeKey(series, 1, number)
            members = rng.sample(cast, size)
            weights = [1.0 / (rank + 1) ** LEAD_SKEW for rank in range(len(members))]
            segments = [
                _segment(rng, index, members, weights, shape.pairs)
                for index in range(shape.segments)
            ]
            text = serialize_episode(key, segments).encode("utf-8")
            (data.segments_dir / f"{series}_s01e{number:03d}.json").write_bytes(text)
            data.bytes += len(text)

            edges: dict[tuple[str, str], float] = {}
            for segment in segments:
                for pair, weight in segment.edges.items():
                    edges[pair] = edges.get(pair, 0.0) + weight
            rating = round(rng.uniform(5.0, 9.8), 3)
            rating_lines.append(f"{series},1,{number},{rating}")
            data.episodes.append(
                EpisodeRecord(
                    key=key,
                    segments=len(segments),
                    edges_declared=sum(len(s.edges) for s in segments),
                    edges=edges,
                    rating=rating,
                )
            )
    ratings = ("\n".join(rating_lines) + "\n").encode("utf-8")
    data.ratings_file.write_bytes(ratings)
    data.bytes += len(ratings)
    return data
