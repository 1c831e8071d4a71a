"""Output checks that do not trust charnet's own code.

`tree_digest` fingerprints a report tree; every run of one commit on one
dataset must reproduce it byte for byte.  `check_reports` recomputes every
cell of the reports from the generator's own record of the dataset, with
networkx for the graph metrics and numpy for the rank correlations.
"""

from __future__ import annotations

import csv
import hashlib
import io
from dataclasses import dataclass, field
from pathlib import Path

import networkx as nx
import numpy as np

from workloads import Dataset, EpisodeRecord, Workload

TOLERANCE = 1e-3

# metrics CSV column -> correlation-table label, in the correlation table's row order
COLUMNS = (
    ("Active_Nodes", "Active Nodes"),
    ("Density", "Density"),
    ("Efficiency", "Efficiency"),
    ("Transitivity", "Transitivity"),
    ("Strength_max", "Max Strength"),
    ("Strength_std", "Std Strength"),
    ("Degree_max", "Max Degree"),
    ("Degree_std", "Std Degree"),
    ("Harmonic_max", "Max Harmonic"),
    ("Harmonic_std", "Std Harmonic"),
    ("Eigen_max", "Max Eigen"),
    ("Eigen_std", "Std Eigen"),
)
INTEGER_COLUMNS = {"Active_Nodes", "Degree_max"}


@dataclass
class Findings:
    problems: list[str] = field(default_factory=list)  # any one fails the run
    notes: list[str] = field(default_factory=list)  # reported, not failed


def tree_digest(out_dir: Path) -> str:
    """sha256 over every file's relative path and bytes, in path order."""
    digest = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        digest.update(path.relative_to(out_dir).as_posix().encode("utf-8") + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def episode_graph(record: EpisodeRecord) -> nx.Graph:
    graph = nx.Graph()
    graph.add_weighted_edges_from((a, b, w) for (a, b), w in record.edges.items())
    return graph


def bfs_sources(record: EpisodeRecord, efficiency_mode: str) -> int:
    """BFS runs charnet's metric code makes on this episode, counted from its graph.

    Harmonic runs one BFS per active node.  Component-mean efficiency runs
    one per node of every component with 2 or more members; neighborhood
    efficiency one per node of every neighbor subgraph, which sums to the
    degree total.
    """
    graph = episode_graph(record)
    if efficiency_mode == "neighborhood":
        efficiency = 2 * graph.number_of_edges()
    else:
        efficiency = sum(len(c) for c in nx.connected_components(graph) if len(c) >= 2)
    return graph.number_of_nodes() + efficiency


def expected_row(record: EpisodeRecord, efficiency_mode: str) -> dict[str, float]:
    """The 12 metric cells of one episode, from networkx and numpy."""
    graph = episode_graph(record)
    if efficiency_mode == "neighborhood":
        efficiency = nx.local_efficiency(graph)
    else:
        parts = [graph.subgraph(c) for c in nx.connected_components(graph) if len(c) >= 2]
        efficiency = float(np.mean([nx.global_efficiency(p) for p in parts]))
    strength = np.array([d for _, d in graph.degree(weight="weight")])
    degree = np.array([d for _, d in graph.degree()])
    harmonic = np.array(list(nx.harmonic_centrality(graph).values()))
    eigen = np.array(list(nx.eigenvector_centrality(graph, max_iter=100000, tol=1e-12).values()))
    return {
        "Active_Nodes": graph.number_of_nodes(),
        "Density": nx.density(graph),
        "Efficiency": efficiency,
        "Transitivity": nx.transitivity(graph),
        "Strength_max": strength.max(),
        "Strength_std": strength.std(),
        "Degree_max": degree.max(),
        "Degree_std": degree.std(),
        "Harmonic_max": harmonic.max(),
        "Harmonic_std": harmonic.std(),
        "Eigen_max": eigen.max(),
        "Eigen_std": eigen.std(),
    }


def _average_ranks(keys: list) -> np.ndarray:
    """1-based ranks of sortable keys; equal keys share their mean position."""
    order = sorted(range(len(keys)), key=keys.__getitem__)
    ranks = np.empty(len(keys))
    start = 0
    while start < len(order):
        end = start
        while end + 1 < len(order) and keys[order[end + 1]] == keys[order[start]]:
            end += 1
        for position in range(start, end + 1):
            ranks[order[position]] = (start + end + 2) / 2.0
        start = end + 1
    return ranks


def _near_tie_groups(values: list[float]) -> list[list[int]]:
    """Indices whose values agree to 1e-9 relative: equal up to float summation order."""
    order = sorted(range(len(values)), key=values.__getitem__)
    groups, current = [], [order[0]]
    for i in order[1:]:
        prev = values[current[-1]]
        if abs(values[i] - prev) <= 1e-9 * max(1.0, abs(prev)):
            current.append(i)
        else:
            groups.append(current)
            current = [i]
    groups.append(current)
    return [g for g in groups if len(g) > 1]


def _rho(rx: np.ndarray, ry: np.ndarray) -> float:
    return float(np.corrcoef(rx, ry)[0, 1])


def spearman_range(x: list[float], y: list[float], exact: bool) -> tuple[float, float, float] | None:
    """(all-tied, lowest, highest) rank correlation of x with y; None if x is constant.

    An independent recomputation cannot tell whether two metric values that
    agree to the last bits are tied in the program's floats, so unless x is
    exact (integers), each group of such values may tie or order either way.
    Ordering every group's members by y, ascending or descending, gives the
    extremes of rho over those orders (rearrangement inequality).
    """
    ry = _average_ranks(y)
    base = list(x)
    if not exact:
        for group in _near_tie_groups(x):
            for i in group:
                base[i] = x[group[0]]
    tied = _average_ranks(base)
    if np.ptp(tied) == 0 or np.ptp(ry) == 0:
        return None
    rho = _rho(tied, ry)
    rising = _rho(_average_ranks([(v, y[i], i) for i, v in enumerate(base)]), ry)
    falling = _rho(_average_ranks([(v, -y[i], i) for i, v in enumerate(base)]), ry)
    return rho, min(rho, rising, falling), max(rho, rising, falling)


def _read_csv(path: Path) -> list[list[str]]:
    text = path.read_text(encoding="utf-8")
    return [row for row in csv.reader(io.StringIO(text)) if row and not row[0].startswith("#")]


def _check_manifest(out_dir: Path, data: Dataset, found: Findings) -> None:
    lines = [
        f"{e.key}: {e.segments} segments, {len(e.nodes)} nodes, {len(e.edges)} edges"
        for e in sorted(data.episodes, key=lambda e: e.key)
    ]
    lines.append(f"episodes: {len(data.episodes)}, warnings: 0")
    expected = "\n".join(lines) + "\n"
    actual = (out_dir / "manifest.txt").read_text(encoding="utf-8")
    if actual != expected:
        got, want = actual.splitlines(), expected.splitlines()
        first = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), min(len(got), len(want)))
        found.problems.append(f"manifest.txt line {first + 1} differs from the generated dataset")


def _check_series(
    out_dir: Path, series: str, records: list[EpisodeRecord], mode: str, found: Findings
) -> None:
    problems = found.problems
    rows = _read_csv(out_dir / f"{series}_metrics.csv")
    header, body = rows[0], rows[1:]
    if len(body) != len(records):
        problems.append(f"{series}_metrics.csv has {len(body)} rows, expected {len(records)}")
        return
    expected = [expected_row(r, mode) for r in records]
    for record, cells, want in zip(records, body, expected):
        row = dict(zip(header, cells))
        if row["Episode"] != str(record.key.episode) or float(row["Review"]) != record.rating:
            problems.append(f"{series}_metrics.csv: row for {record.key} has the wrong key or review")
        for column, _ in COLUMNS:
            value = float(row[column])
            if column in INTEGER_COLUMNS:
                ok = value == want[column]
            else:
                ok = abs(value - want[column]) <= TOLERANCE
            if not ok:
                problems.append(
                    f"{series}_metrics.csv {record.key} {column}: {row[column]} != {want[column]:.6f}"
                )

    reviews = [r.rating for r in records]
    table = {cells[0]: cells[1] for cells in _read_csv(out_dir / f"{series}_correlations.csv")[1:]}
    for column, label in COLUMNS:
        values = [float(w[column]) for w in expected]
        rho = spearman_range(values, reviews, exact=column in INTEGER_COLUMNS)
        cell = table.get(label)
        if cell is None:
            problems.append(f"{series}_correlations.csv: no row for {label}")
        elif rho is None:
            if cell != "":
                problems.append(f"{series}_correlations.csv {label}: constant column reported rho {cell}")
        elif cell == "" or not rho[1] - TOLERANCE <= float(cell) <= rho[2] + TOLERANCE:
            problems.append(f"{series}_correlations.csv {label}: rho {cell!r} != {rho[0]:.6f}")
        elif abs(float(cell) - rho[0]) > TOLERANCE:
            found.notes.append(
                f"{series} {label}: rho {cell} matches only with last-bit ties ordered"
                f" (all tied: {rho[0]:.3f})"
            )


def check_reports(out_dir: Path, data: Dataset, workload: Workload) -> Findings:
    """Every problem found in one report tree; none when all cells match."""
    found = Findings()
    _check_manifest(out_dir, data, found)
    if workload.args[0] != "all":
        return found
    by_series: dict[str, list[EpisodeRecord]] = {}
    for record in sorted(data.episodes, key=lambda e: e.key):
        by_series.setdefault(record.key.series, []).append(record)
    for series, records in by_series.items():
        _check_series(out_dir, series, records, workload.efficiency_mode, found)
    return found
