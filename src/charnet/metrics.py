"""Per-episode network metrics.

Every metric is computed over the ACTIVE node set (degree >= 1): silent
characters never enter a denominator.  Topology metrics treat the graph as
unweighted; edge weights feed node strength only.

No value depends on the order in which nodes or pairs are visited: hop
distances are counted in integers and rounded once, and float sums go
through math.fsum.  So mathematically equal values are equal floats, and
renaming characters changes nothing.  Eigenvector centrality is the
exception: power iteration stops within its tolerance, in sorted node
order, so it is only identical across runs and hash seeds.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

from .errors import (
    CharnetError,
    ConvergenceError,
    DegenerateGraphError,
    EmptyVectorError,
    NoEdgesError,
)
from .graph import CharacterId, EpisodeGraph, EpisodeKey, connected_components


@dataclass(frozen=True)
class MetricsConfig:
    """Knobs for metric computation, echoed into every report."""

    efficiency_mode: str = "component-mean"
    eigen_tol: float = 1e-10
    eigen_max_iter: int = 10000


@dataclass
class CentralityVector:
    """One score per active node."""

    kind: str  # degree | strength | harmonic | eigenvector
    scores: dict[CharacterId, float]


@dataclass
class EpisodeMetrics:
    """The 12-column metric row for one episode."""

    key: EpisodeKey
    ordinal: int = 0
    active_nodes: int = 0
    density: float = 0.0
    efficiency: float = 0.0
    transitivity: float = 0.0
    strength_max: float = 0.0
    strength_std: float = 0.0
    degree_max: int = 0
    degree_std: float = 0.0
    harmonic_max: float = 0.0
    harmonic_std: float = 0.0
    eigen_max: float = 0.0
    eigen_std: float = 0.0
    warnings: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class MetricColumn:
    """Names one metric column everywhere it appears."""

    attr: str  # EpisodeMetrics field name, also the CLI --metric spelling
    header: str  # metrics CSV column header
    label: str  # correlation-table row label
    integer: bool = False  # rendered without decimals


METRICS: tuple[MetricColumn, ...] = (
    MetricColumn("active_nodes", "Active_Nodes", "Active Nodes", integer=True),
    MetricColumn("density", "Density", "Density"),
    MetricColumn("efficiency", "Efficiency", "Efficiency"),
    MetricColumn("transitivity", "Transitivity", "Transitivity"),
    MetricColumn("strength_max", "Strength_max", "Max Strength"),
    MetricColumn("strength_std", "Strength_std", "Std Strength"),
    MetricColumn("degree_max", "Degree_max", "Max Degree", integer=True),
    MetricColumn("degree_std", "Degree_std", "Std Degree"),
    MetricColumn("harmonic_max", "Harmonic_max", "Max Harmonic"),
    MetricColumn("harmonic_std", "Harmonic_std", "Std Harmonic"),
    MetricColumn("eigen_max", "Eigen_max", "Max Eigen"),
    MetricColumn("eigen_std", "Eigen_std", "Std Eigen"),
)

METRIC_BY_ATTR = {column.attr: column for column in METRICS}

EFFICIENCY_MODES = ("component-mean", "neighborhood")


def active_node_set(graph) -> set[CharacterId]:
    """Nodes with at least one edge."""
    return {v for pair in graph.edges for v in pair}


def active_nodes(graph) -> int:
    return len(active_node_set(graph))


def density(graph) -> float:
    """Realized fraction of possible edges among active nodes: 2m / (n(n-1))."""
    n = active_nodes(graph)
    if n < 2:
        raise DegenerateGraphError(f"density needs at least 2 active nodes, got {n}")
    return 2.0 * len(graph.edges) / (n * (n - 1))


def node_strengths(graph) -> CentralityVector:
    """Total conversation seconds per active node (sum of incident weights)."""
    incident: dict[CharacterId, list[float]] = {}
    for pair, weight in graph.edges.items():
        for v in pair:
            incident.setdefault(v, []).append(weight)
    return CentralityVector(
        "strength", {v: math.fsum(weights) for v, weights in incident.items()}
    )


def _index(graph) -> tuple[dict[CharacterId, int], list[int]]:
    """The active nodes in sorted order, each mapped to its bit position, and
    per position the neighbors as an int bitset (bit j set: edge to node j)."""
    position = {v: i for i, v in enumerate(sorted(active_node_set(graph)))}
    nbr = [0] * len(position)
    for a, b in graph.edges:
        i, j = position[a], position[b]
        nbr[i] |= 1 << j
        nbr[j] |= 1 << i
    return position, nbr


def _bits(mask: int) -> list[int]:
    """Positions of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _reciprocal_sum(nbr: list[int], sources: int, within: int) -> float:
    """Sum of 1 / hop distance from every node of `sources` to every other
    node it reaches by paths that stay inside `within`.

    One BFS per source with a bitset frontier.  Pairs are counted per hop as
    integers and only the final sum is rounded, so the result is the exact
    value correctly rounded: it depends on the distance histogram alone,
    never on node names or visiting order.
    """
    counts: list[int] = []  # counts[k - 1]: (source, node) pairs k hops apart
    for source in _bits(sources):
        reached = frontier = 1 << source
        hop = 0
        while True:
            step = 0
            for u in _bits(frontier):
                step |= nbr[u]
            frontier = step & within & ~reached
            if not frontier:
                break
            reached |= frontier
            if hop == len(counts):
                counts.append(0)
            counts[hop] += frontier.bit_count()
            hop += 1
    scale = math.lcm(*range(1, len(counts) + 1))
    return sum(c * (scale // k) for k, c in enumerate(counts, 1)) / scale


def _efficiency(nbr: list[int], mask: int) -> float:
    """Mean reciprocal hop distance over ordered node pairs of the subgraph
    induced by mask; 0 below 2 nodes."""
    n = mask.bit_count()
    if n < 2:
        return 0.0
    return _reciprocal_sum(nbr, mask, mask) / (n * (n - 1))


def global_efficiency(graph) -> float:
    """Efficiency of the whole graph as given; unreachable pairs contribute 0."""
    n = len(graph.nodes)
    if n < 2:
        return 0.0
    _, nbr = _index(graph)
    everyone = (1 << len(nbr)) - 1
    return _reciprocal_sum(nbr, everyone, everyone) / (n * (n - 1))


def efficiency_metric(graph, mode: str = "component-mean") -> float:
    """The Efficiency column.

    component-mean: unweighted mean of global efficiency over connected
    components with >= 2 nodes.  neighborhood: mean over active nodes of
    the efficiency of the subgraph induced by each node's neighbors.
    """
    if mode == "component-mean":
        parts = [part for part in connected_components(graph) if len(part) >= 2]
        if not parts:
            raise DegenerateGraphError("no connected component has 2 or more nodes")
        position, nbr = _index(graph)
        masks = [sum(1 << position[v] for v in part) for part in parts]
    elif mode == "neighborhood":
        _, nbr = _index(graph)
        if not nbr:
            raise DegenerateGraphError("no active nodes")
        masks = nbr
    else:
        raise ValueError(f"unknown efficiency mode {mode!r}")
    return math.fsum(_efficiency(nbr, mask) for mask in masks) / len(masks)


def transitivity(graph) -> float:
    """3 x triangles / triads; a triad is a 2-path centered at a node."""
    position, nbr = _index(graph)
    triads = sum(d * (d - 1) // 2 for d in (mask.bit_count() for mask in nbr))
    if triads == 0:
        return 0.0
    # each triangle contributes one common neighbor per edge, so this sum is 3 * triangles
    triangle_paths = sum(
        (nbr[position[a]] & nbr[position[b]]).bit_count() for a, b in graph.edges
    )
    return triangle_paths / triads


def degree_vector(graph) -> CentralityVector:
    """Unweighted edge count per active node."""
    position, nbr = _index(graph)
    return CentralityVector(
        "degree", {v: float(nbr[i].bit_count()) for v, i in position.items()}
    )


def harmonic_vector(graph) -> CentralityVector:
    """Sum of reciprocal hop distances from every other active node.

    Unreachable pairs contribute 0; no normalization by n - 1.
    """
    position, nbr = _index(graph)
    everyone = (1 << len(nbr)) - 1
    return CentralityVector(
        "harmonic",
        {v: _reciprocal_sum(nbr, 1 << i, everyone) for v, i in position.items()},
    )


def eigenvector_vector(
    graph, tol: float = 1e-10, max_iter: int = 10000
) -> CentralityVector:
    """Dominant eigenvector of the unweighted adjacency over active nodes.

    Power iteration from the uniform positive vector, normalized to unit
    Euclidean norm each step; converged when successive iterates differ by
    less than tol in max-norm.  Iterating with A + I instead of A leaves
    the eigenvectors unchanged but keeps bipartite graphs, whose extreme
    eigenvalues tie in magnitude, from oscillating forever.
    """
    if not graph.edges:
        raise NoEdgesError("eigenvector centrality needs at least one edge")
    position, nbr = _index(graph)
    neighbors = [_bits(mask) for mask in nbr]

    n = len(nbr)
    x = [1.0 / math.sqrt(n)] * n
    delta = math.inf
    for _ in range(max_iter):
        y = [xi + sum(map(x.__getitem__, nb)) for xi, nb in zip(x, neighbors)]
        norm = math.sqrt(sum(map(operator.mul, y, y)))
        y = [v / norm for v in y]
        delta = max(map(abs, map(operator.sub, y, x)))
        x = y
        if delta < tol:
            return CentralityVector("eigenvector", dict(zip(position, x)))
    raise ConvergenceError(
        f"power iteration missed tol={tol:g} after {max_iter} iterations (last delta {delta:.3e})"
    )


def summarize(vec: CentralityVector) -> tuple[float, float]:
    """(max, population std) of a centrality vector."""
    if not vec.scores:
        raise EmptyVectorError(f"cannot summarize an empty {vec.kind} vector")
    values = list(vec.scores.values())
    mean = math.fsum(values) / len(values)
    variance = math.fsum((v - mean) ** 2 for v in values) / len(values)
    return max(values), math.sqrt(variance)


def compute_episode_metrics(graph: EpisodeGraph, config: MetricsConfig | None = None) -> EpisodeMetrics:
    """Fill all 12 metric columns for one episode.

    A degenerate metric becomes 0 plus a warning; the row itself always
    comes back rectangular so downstream correlation never loses a column.
    """
    config = config or MetricsConfig()
    row = EpisodeMetrics(key=graph.key, ordinal=graph.ordinal)
    row.active_nodes = active_nodes(graph)
    if row.active_nodes == 0:
        row.warnings.append("DegenerateGraph: no active nodes, all metrics 0")
        return row

    def guarded(name: str, compute, fallback):
        try:
            return compute()
        except CharnetError as exc:
            row.warnings.append(f"{name}: {exc}")
            return fallback

    row.density = guarded("density", lambda: density(graph), 0.0)
    row.efficiency = guarded(
        "efficiency", lambda: efficiency_metric(graph, config.efficiency_mode), 0.0
    )
    row.transitivity = transitivity(graph)
    row.strength_max, row.strength_std = guarded(
        "strength", lambda: summarize(node_strengths(graph)), (0.0, 0.0)
    )
    degree_max, row.degree_std = guarded(
        "degree", lambda: summarize(degree_vector(graph)), (0.0, 0.0)
    )
    row.degree_max = int(degree_max)
    row.harmonic_max, row.harmonic_std = guarded(
        "harmonic", lambda: summarize(harmonic_vector(graph)), (0.0, 0.0)
    )
    row.eigen_max, row.eigen_std = guarded(
        "eigenvector",
        lambda: summarize(eigenvector_vector(graph, config.eigen_tol, config.eigen_max_iter)),
        (0.0, 0.0),
    )
    return row
