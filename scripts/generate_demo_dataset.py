#!/usr/bin/env python3
"""Generate a synthetic segment-graph dataset for demos and smoke tests.

Writes one JSON file per episode plus a ratings CSV, all derived from a
fixed seed, then prints the command that consumes them.
"""

from __future__ import annotations

import argparse
import random
import shlex
from pathlib import Path

from charnet import EpisodeKey, SegmentGraph, add_interaction, serialize_episode

CAST = [
    "Avery Hale",
    "Brennan Cole",
    "Corin Mathis",
    "Dara Quinn",
    "Edan Voss",
    "Fallon Reyes",
    "Greer Okafor",
    "Hollis Tran",
    "Imogen Park",
    "Jules Navarro",
]


def build_segments(rng: random.Random) -> list[SegmentGraph]:
    segments = []
    for index in range(rng.randint(3, 6)):
        segment = SegmentGraph(index=index)
        pair_count = rng.randint(1, 6)
        pairs = set()
        while len(pairs) < pair_count:
            pairs.add(tuple(rng.sample(CAST, 2)))
        for a, b in sorted(pairs):
            add_interaction(segment, a, b, round(rng.uniform(1.0, 120.0), 3))
        segments.append(segment)
    return segments


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, required=True, help="dataset directory to create")
    parser.add_argument(
        "--series",
        nargs="+",
        default=["alpha", "beta"],
        help="series keys to generate (default: alpha beta)",
    )
    parser.add_argument("--episodes", type=int, default=6, help="episodes per series")
    parser.add_argument("--seed", type=int, default=20240817, help="generation seed")
    args = parser.parse_args()

    rng = random.Random(args.seed)
    segments_dir = args.out / "segments"
    segments_dir.mkdir(parents=True, exist_ok=True)

    rating_lines = ["series,season,episode,rating"]
    for name in args.series:
        for episode in range(1, args.episodes + 1):
            key = EpisodeKey(name, 1, episode)
            text = serialize_episode(key, build_segments(rng))
            path = segments_dir / f"{name}_s01e{episode:02d}.json"
            path.write_text(text, encoding="utf-8", newline="")
            rating_lines.append(f"{name},1,{episode},{round(rng.uniform(6.5, 9.5), 3)}")

    ratings_csv = args.out / "ratings.csv"
    ratings_csv.write_text("\n".join(rating_lines) + "\n", encoding="utf-8", newline="")

    total = len(args.series) * args.episodes
    print(f"wrote {total} episode files under {segments_dir}")
    print(f"wrote {ratings_csv}")
    quoted = [shlex.quote(str(path)) for path in (segments_dir, ratings_csv, args.out / "reports")]
    print("next: charnet all --segments {} --ratings {} --out {}".format(*quoted))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
