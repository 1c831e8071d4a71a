"""Command-line front end.

Subcommands mirror the pipeline stages: validate, metrics, correlate,
plot, and all.  Exit codes: 0 clean, 1 finished with warnings, 2 errors,
3 internal error (a bug: the traceback goes to stderr).
No network access, ever; ratings come from a local CSV.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import CharnetError, DegenerateInputError, FormatError
from .graph import EpisodeGraph
from .ingest import load_dataset
from .metrics import (
    EFFICIENCY_MODES,
    METRIC_BY_ATTR,
    MetricsConfig,
    check_eigen,
    compute_episode_metrics,
)
from .report import TABLE_FORMATS, render_correlations, render_manifest, render_metrics, render_scatter_svg
from .stats import add_permutation_pvalues, check_permutations, correlate_all

KNOWN_FORMATS = (*TABLE_FORMATS, "svg")


def _check_flags(args: argparse.Namespace) -> tuple[str, ...]:
    """Reject bad flag values before any file is read; returns the --format list."""
    formats = tuple(part.strip() for part in args.format.split(",") if part.strip())
    unknown = [f for f in formats if f not in KNOWN_FORMATS]
    if unknown:
        raise FormatError(
            f"unknown output format(s): {', '.join(unknown)}; choose from {','.join(KNOWN_FORMATS)}"
        )
    if not formats:
        raise FormatError("at least one output format is required")
    if args.command in ("metrics", "correlate") and not set(TABLE_FORMATS) & set(formats):
        raise FormatError(f"{args.command} writes tables only: --format needs {' or '.join(TABLE_FORMATS)}")
    check_eigen(args.eigen_tol, args.eigen_max_iter)
    if args.permutations is not None:
        check_permutations(args.permutations)
    if args.command == "plot" and args.metric not in METRIC_BY_ATTR:
        known = ", ".join(sorted(METRIC_BY_ATTR))
        raise FormatError(f"unknown metric {args.metric!r}; known metrics: {known}")
    return formats


def _echo_lines(args: argparse.Namespace) -> list[str]:
    # only settings that shape the numbers; paths stay out so output
    # trees are comparable across working directories
    lines = [
        f"efficiency mode: {args.efficiency}",
        f"eigen tol: {args.eigen_tol!r}",
        f"eigen max iterations: {args.eigen_max_iter}",
        "std convention: population",
    ]
    if args.permutations is not None:
        lines.append(f"permutations: {args.permutations}, seed: {args.seed}")
    return lines


def _write(path: Path, content: str) -> None:
    # --out is made by the first write, so a refused run leaves none
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(content, encoding="utf-8", newline="")
    print(f"wrote {path}")


def _run(args: argparse.Namespace) -> int:
    """Load once, compute what the subcommand writes, write it in stage order."""
    formats = _check_flags(args)
    everything = args.command == "all"
    if not args.segments.is_dir():
        raise FormatError(f"segments directory not found: {args.segments}")
    if not args.ratings.is_file():
        raise FormatError(f"ratings file not found: {args.ratings}")
    files = sorted(args.segments.glob("*.json"))
    if not files:
        raise FormatError(f"no episode files found in {args.segments}")
    episodes, ratings, dataset_warnings = load_dataset(files, args.ratings)
    # every subcommand, plot included, answers for the whole dataset's load warnings
    load_warned = bool(dataset_warnings) or any(graph.warnings for graph in episodes)

    if args.command == "validate":
        text = render_manifest(episodes, dataset_warnings)
        _write(args.out / "manifest.txt", text)
        sys.stdout.write(text)
        return 1 if load_warned else 0

    # episodes come sorted by key, so series and their rows are in key order
    graphs_by_series: dict[str, list[EpisodeGraph]] = {}
    for graph in episodes:
        graphs_by_series.setdefault(graph.key.series, []).append(graph)
    plots = []
    if args.command == "plot":
        if args.series not in graphs_by_series:
            known = ", ".join(graphs_by_series)
            raise FormatError(f"unknown series {args.series!r}; dataset has: {known}")
        plots = [(args.series, METRIC_BY_ATTR[args.metric])]
        # plot computes, and counts the row warnings of, its own series only
        graphs_by_series = {args.series: graphs_by_series[args.series]}
    elif everything and "svg" in formats:
        plots = [(s, METRIC_BY_ATTR[a]) for s in graphs_by_series for a in sorted(METRIC_BY_ATTR)]

    config = MetricsConfig(args.efficiency, args.eigen_tol, args.eigen_max_iter)
    rows_by_series = {
        series: [compute_episode_metrics(graph, config) for graph in graphs]
        for series, graphs in graphs_by_series.items()
    }
    # the reports carry no row warnings, so stderr names them, in key order
    row_warnings = [
        f"warning: {row.key}: {text}"
        for rows in rows_by_series.values()
        for row in rows
        for text in row.warnings
    ]
    for line in row_warnings:
        print(line, file=sys.stderr)
    reports = {}
    if everything or args.command == "correlate":
        # built before the first write: a series that cannot be correlated leaves no files
        reports = {series: correlate_all(rows, ratings) for series, rows in rows_by_series.items()}
        if args.permutations is not None:
            # one stage for every series: those of one size share a shuffle stream
            pairs = [(rows_by_series[series], report) for series, report in reports.items()]
            add_permutation_pvalues(pairs, ratings, args.permutations, args.seed)
    if everything:
        _write(args.out / "manifest.txt", render_manifest(episodes, dataset_warnings))
    echo = _echo_lines(args)
    tables = [f for f in TABLE_FORMATS if f in formats]
    if everything or args.command == "metrics":
        for series, rows in rows_by_series.items():
            for fmt in tables:
                _write(args.out / f"{series}_metrics.{fmt}", render_metrics(rows, ratings, echo, fmt))
    for series, report in reports.items():
        dropped = sum(graph.duplicates_dropped for graph in graphs_by_series[series])
        notes = [f"duplicate episodes dropped at load: {dropped}", *echo]
        for fmt in tables:
            _write(args.out / f"{series}_correlations.{fmt}", render_correlations(report, notes, fmt))
    # a plot is an SVG whatever --format says
    for series, column in plots:
        points = [
            (float(getattr(row, column.attr)), ratings.get(row.key))
            for row in rows_by_series[series]
            if row.key in ratings
        ]
        if not points:
            raise DegenerateInputError(f"no rated episodes to plot for {series!r}")
        svg = render_scatter_svg(points, column.label, series, echo)
        _write(args.out / f"{series}_{column.attr}_scatter.svg", svg)

    return 1 if load_warned or row_warnings else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="charnet",
        description=(
            "Build character networks from episode segment graphs, compute "
            "per-episode network metrics, and correlate them with review scores."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = MetricsConfig()
    descriptions = {
        "validate": "check the dataset and write the manifest",
        "metrics": "write per-series metric tables",
        "correlate": "write per-series correlation tables",
        "plot": "write one scatter plot (metric vs review)",
        "all": "run every stage",
    }
    for name, text in descriptions.items():
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--segments", required=True, type=Path, help="directory of episode JSON files")
        cmd.add_argument("--ratings", required=True, type=Path, help="ratings CSV file")
        cmd.add_argument("--out", required=True, type=Path, help="output directory")
        cmd.add_argument(
            "--efficiency",
            choices=EFFICIENCY_MODES,
            default=defaults.efficiency_mode,
            help=f"efficiency column mode (default: {defaults.efficiency_mode})",
        )
        cmd.add_argument(
            "--eigen-tol", type=float, default=defaults.eigen_tol, help="power-iteration tolerance (finite, > 0)"
        )
        cmd.add_argument(
            "--eigen-max-iter", type=int, default=defaults.eigen_max_iter, help="power-iteration cap (>= 1)"
        )
        cmd.add_argument(
            "--permutations",
            type=int,
            default=None,
            help="add a seeded permutation p-value cross-check with this many iterations (>= 1000)",
        )
        cmd.add_argument("--seed", type=int, default=0, help="permutation test seed; -S draws the same stream as S")
        cmd.add_argument(
            "--format",
            default=",".join(KNOWN_FORMATS),
            help=f"comma-separated subset of {','.join(KNOWN_FORMATS)} (default: all)",
        )
        if name == "plot":
            cmd.add_argument("--metric", required=True, help="metric field name, e.g. density")
            cmd.add_argument("--series", required=True, help="series key, e.g. got")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except (CharnetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug, never bad input: keep it apart from codes 1 and 2
        import traceback  # only here: importing it costs every launch a few ms

        print(f"internal error: {exc!r}", file=sys.stderr)
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
