"""`charnet all` on generated datasets with extreme but valid values.

Every run ends in a report or a clean error (exit 0, 1 or 2, never a
traceback), a rerun writes a byte-identical tree, and renaming the
characters leaves every metric and correlation file byte-identical.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from charnet.cli import main

NAMES = ["Ann", "Bo", "Cy", "Di", "Ed", "Flo", "Gus", "Hal", "Ivy"]
# targets of the renaming: more names than the cast, so order changes too
ALIASES = [*NAMES, "Jo", "Kit", "Lu", "Mo", "Ned", "Oz"]
# ties and gaps: None leaves an episode unrated
RATINGS = [None, 6.0, 7.5, 7.5, 8.0, 9.25]


@st.composite
def datasets(draw):
    """[(episode number, [(nodes, [(a, b, w)])], rating)] over one series."""
    cast = NAMES[: draw(st.integers(2, 9))]
    pairs = [(a, b) for i, a in enumerate(cast) for b in cast[i + 1 :]]
    # extremes are drawn often; plain weights keep many runs past the parser
    weight = st.floats(5e-324, 1.7e308) | st.floats(0.5, 100.0)
    edge = st.tuples(st.sampled_from(pairs), st.booleans(), weight).map(
        lambda e: (*(e[0][::-1] if e[1] else e[0]), e[2])
    )
    segment = st.tuples(st.lists(st.sampled_from(cast), max_size=2), st.lists(edge, max_size=8))
    numbers = sorted(draw(st.lists(st.integers(1, 12), min_size=1, max_size=7, unique=True)))
    return [
        (number, draw(st.lists(segment, min_size=1, max_size=3)), draw(st.sampled_from(RATINGS)))
        for number in numbers
    ]


def write_dataset(root: Path, episodes, name) -> list[str]:
    segments_dir = root / "segments"
    segments_dir.mkdir(parents=True)
    lines = ["series,season,episode,rating"]
    for number, segments, rating in episodes:
        doc = {
            "series": "alpha",
            "season": 1,
            "episode": number,
            "segments": [
                {
                    "index": index,
                    "nodes": [name[v] for v in nodes],
                    "edges": [{"a": name[a], "b": name[b], "w": w} for a, b, w in edges],
                }
                for index, (nodes, edges) in enumerate(segments)
            ],
        }
        (segments_dir / f"alpha_e{number:02d}.json").write_text(json.dumps(doc), encoding="utf-8")
        if rating is not None:
            lines.append(f"alpha,1,{number},{rating}")
    (root / "ratings.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return ["--segments", str(segments_dir), "--ratings", str(root / "ratings.csv")]


def run_all(argv: list[str], out: Path) -> tuple[int, str, dict[str, bytes]]:
    stderr = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
        code = main(["all", *argv, "--out", str(out)])
    tree = {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*") if p.is_file()}
    return code, stderr.getvalue(), tree


def _metric_and_correlation_files(tree: dict[str, bytes]) -> dict[str, bytes]:
    return {k: v for k, v in tree.items() if "_metrics." in k or "_correlations." in k}


# five rated episodes of one path each, a dataset that ends in exit 0
CLEAN = [(n, [([], [("Ann", "Bo", 1.0), ("Bo", "Cy", n / 2)])], 6.0 + n % 3) for n in range(1, 6)]


@settings(max_examples=40, deadline=None)
@given(datasets(), st.booleans(), st.booleans(), st.permutations(ALIASES))
@example(CLEAN, True, True, ALIASES[::-1])
def test_all_ends_cleanly_reruns_identically_and_ignores_names(
    tmp_path_factory, episodes, permute, neighborhood, aliases
):
    root = tmp_path_factory.mktemp("pipeline")
    flags = ["--permutations", "1000"] if permute else []
    flags += ["--efficiency", "neighborhood"] if neighborhood else []
    argv = [*write_dataset(root / "data", episodes, {v: v for v in NAMES}), *flags]
    code, stderr, tree = run_all(argv, root / "first")
    assert code in (0, 1, 2), stderr
    assert "Traceback" not in stderr

    assert run_all(argv, root / "second")[::2] == (code, tree)

    renamed = [*write_dataset(root / "renamed", episodes, dict(zip(NAMES, aliases))), *flags]
    other_code, _, other_tree = run_all(renamed, root / "third")
    assert other_code == code
    assert other_tree.keys() == tree.keys()
    assert _metric_and_correlation_files(other_tree) == _metric_and_correlation_files(tree)
