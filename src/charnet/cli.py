"""Command-line front end.

Subcommands mirror the pipeline stages: validate, metrics, correlate,
plot, and all.  Exit codes: 0 clean, 1 finished with warnings, 2 errors,
3 internal error (a bug: the traceback goes to stderr).
No network access, ever; ratings come from a local CSV.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

from .errors import (
    CharnetError,
    EmptyDatasetError,
    FormatError,
    InsufficientDataError,
    UnknownMetricError,
    UnknownSeriesError,
)
from .graph import EpisodeGraph
from .ingest import DatasetManifest, RatingsTable, load_dataset
from .metrics import (
    EFFICIENCY_MODES,
    METRIC_BY_ATTR,
    EpisodeMetrics,
    MetricsConfig,
    compute_episode_metrics,
)
from .report import (
    render_correlations_csv,
    render_correlations_markdown,
    render_manifest,
    render_metrics_csv,
    render_metrics_markdown,
    render_scatter_svg,
)
from .stats import correlate_all

KNOWN_FORMATS = ("csv", "md", "svg")


@dataclass
class RunConfig:
    """One CLI invocation, fully determining every output byte."""

    segments_dir: Path
    ratings_file: Path
    out_dir: Path
    efficiency_mode: str = "component-mean"
    eigen_tol: float = 1e-10
    eigen_max_iter: int = 10000
    permutations: int | None = None
    seed: int = 0
    formats: tuple[str, ...] = KNOWN_FORMATS


@dataclass
class LoadedRun:
    """Dataset plus computed metric rows for one invocation."""

    episodes: list[EpisodeGraph]
    ratings: RatingsTable
    manifest: DatasetManifest
    rows: list[EpisodeMetrics]

    def series_names(self) -> list[str]:
        return sorted({e.key.series for e in self.episodes})

    def rows_for(self, series: str) -> list[EpisodeMetrics]:
        return [row for row in self.rows if row.key.series == series]

    def dedup_dropped(self, series: str) -> int:
        return sum(
            entry.duplicates_dropped
            for entry in self.manifest.entries
            if entry.key.series == series
        )

    def warning_count(self) -> int:
        return self.manifest.warning_count() + sum(len(r.warnings) for r in self.rows)


def _check_paths(config: RunConfig) -> None:
    if not config.segments_dir.is_dir():
        raise FormatError(f"segments directory not found: {config.segments_dir}")
    if not config.ratings_file.is_file():
        raise FormatError(f"ratings file not found: {config.ratings_file}")
    config.out_dir.mkdir(parents=True, exist_ok=True)


def _dataset(config: RunConfig) -> tuple[list[EpisodeGraph], RatingsTable, DatasetManifest]:
    _check_paths(config)
    files = sorted(config.segments_dir.glob("*.json"))
    if not files:
        raise EmptyDatasetError(f"no episode files found in {config.segments_dir}")
    return load_dataset(files, config.ratings_file)


def _load_run(config: RunConfig) -> LoadedRun:
    episodes, ratings, manifest = _dataset(config)
    metrics_config = MetricsConfig(
        efficiency_mode=config.efficiency_mode,
        eigen_tol=config.eigen_tol,
        eigen_max_iter=config.eigen_max_iter,
    )
    rows = [compute_episode_metrics(graph, metrics_config) for graph in episodes]
    return LoadedRun(episodes=episodes, ratings=ratings, manifest=manifest, rows=rows)


def _echo_lines(config: RunConfig) -> list[str]:
    # only settings that shape the numbers; paths stay out so output
    # trees are comparable across working directories
    lines = [
        f"efficiency mode: {config.efficiency_mode}",
        f"eigen tol: {config.eigen_tol:g}",
        f"eigen max iterations: {config.eigen_max_iter}",
        "std convention: population",
    ]
    if config.permutations is not None:
        lines.append(f"permutations: {config.permutations}, seed: {config.seed}")
    return lines


def _write(path: Path, content: str) -> None:
    path.write_text(content, encoding="utf-8", newline="")
    print(f"wrote {path}")


def cmd_validate(config: RunConfig) -> int:
    _, _, manifest = _dataset(config)
    text = render_manifest(manifest)
    _write(config.out_dir / "manifest.txt", text)
    sys.stdout.write(text)
    return 1 if manifest.warning_count() else 0


def cmd_metrics(config: RunConfig, run: LoadedRun | None = None) -> int:
    run = run or _load_run(config)
    echo = _echo_lines(config)
    for series in run.series_names():
        rows = run.rows_for(series)
        if "csv" in config.formats:
            _write(
                config.out_dir / f"{series}_metrics.csv",
                render_metrics_csv(rows, run.ratings, echo),
            )
        if "md" in config.formats:
            _write(
                config.out_dir / f"{series}_metrics.md",
                render_metrics_markdown(rows, run.ratings, echo),
            )
    return 1 if run.warning_count() else 0


def cmd_correlate(config: RunConfig, run: LoadedRun | None = None) -> int:
    run = run or _load_run(config)
    echo = _echo_lines(config)
    for series in run.series_names():
        report = correlate_all(
            run.rows_for(series),
            run.ratings,
            efficiency_mode=config.efficiency_mode,
            dedup_dropped=run.dedup_dropped(series),
            permutations=config.permutations,
            seed=config.seed,
        )
        if "csv" in config.formats:
            _write(
                config.out_dir / f"{series}_correlations.csv",
                render_correlations_csv(report, echo),
            )
        if "md" in config.formats:
            _write(
                config.out_dir / f"{series}_correlations.md",
                render_correlations_markdown(report, echo),
            )
    return 1 if run.warning_count() else 0


def _scatter_points(
    run: LoadedRun, series: str, metric_attr: str
) -> list[tuple[float, float]]:
    points = []
    for row in sorted(run.rows_for(series), key=lambda r: r.key):
        review = run.ratings.get(row.key)
        if review is not None:
            points.append((float(getattr(row, metric_attr)), review))
    return points


def cmd_plot(config: RunConfig, metric: str, series: str, run: LoadedRun | None = None) -> int:
    run = run or _load_run(config)
    column = METRIC_BY_ATTR.get(metric)
    if column is None:
        known = ", ".join(sorted(METRIC_BY_ATTR))
        raise UnknownMetricError(f"unknown metric {metric!r}; known metrics: {known}")
    if series not in run.series_names():
        known = ", ".join(run.series_names())
        raise UnknownSeriesError(f"unknown series {series!r}; dataset has: {known}")
    points = _scatter_points(run, series, column.attr)
    if not points:
        raise InsufficientDataError(f"no rated episodes to plot for {series!r}")
    svg = render_scatter_svg(points, column.label, series, _echo_lines(config))
    _write(config.out_dir / f"{series}_{column.attr}_scatter.svg", svg)
    return 1 if run.warning_count() else 0


def cmd_all(config: RunConfig) -> int:
    run = _load_run(config)
    _write(config.out_dir / "manifest.txt", render_manifest(run.manifest))
    code = max(
        cmd_metrics(config, run=run),
        cmd_correlate(config, run=run),
    )
    if "svg" in config.formats:
        for series in run.series_names():
            for attr in sorted(METRIC_BY_ATTR):
                code = max(code, cmd_plot(config, attr, series, run=run))
    return max(code, 1 if run.warning_count() else 0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="charnet",
        description=(
            "Build character networks from episode segment graphs, compute "
            "per-episode network metrics, and correlate them with review scores."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
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
            default="component-mean",
            help="efficiency column mode (default: component-mean)",
        )
        cmd.add_argument("--eigen-tol", type=float, default=1e-10, help="power-iteration tolerance")
        cmd.add_argument("--eigen-max-iter", type=int, default=10000, help="power-iteration cap")
        cmd.add_argument(
            "--permutations",
            type=int,
            default=None,
            help="add a seeded permutation p-value cross-check with this many iterations",
        )
        cmd.add_argument("--seed", type=int, default=0, help="permutation test seed")
        cmd.add_argument(
            "--format",
            default="csv,md,svg",
            help="comma-separated subset of csv,md,svg (default: all)",
        )
        if name == "plot":
            cmd.add_argument("--metric", required=True, help="metric field name, e.g. density")
            cmd.add_argument("--series", required=True, help="series key, e.g. got")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    formats = tuple(part.strip() for part in args.format.split(",") if part.strip())
    unknown = [f for f in formats if f not in KNOWN_FORMATS]
    if unknown:
        raise FormatError(
            f"unknown output format(s): {', '.join(unknown)}; choose from {','.join(KNOWN_FORMATS)}"
        )
    if not formats:
        raise FormatError("at least one output format is required")
    return RunConfig(
        segments_dir=args.segments,
        ratings_file=args.ratings,
        out_dir=args.out,
        efficiency_mode=args.efficiency,
        eigen_tol=args.eigen_tol,
        eigen_max_iter=args.eigen_max_iter,
        permutations=args.permutations,
        seed=args.seed,
        formats=formats,
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        if args.command == "validate":
            return cmd_validate(config)
        if args.command == "metrics":
            return cmd_metrics(config)
        if args.command == "correlate":
            return cmd_correlate(config)
        if args.command == "plot":
            return cmd_plot(config, args.metric, args.series)
        return cmd_all(config)
    except CharnetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug, never bad input: keep it apart from codes 1 and 2
        import traceback  # only here: importing it costs every launch a few ms

        print(f"internal error: {exc!r}", file=sys.stderr)
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
