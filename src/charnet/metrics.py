"""Per-episode network metrics.

Every metric is computed over the ACTIVE node set (degree >= 1): silent
characters never enter a denominator.  Topology metrics treat the graph as
unweighted; edge weights feed node strength only.

No value depends on the order in which nodes or pairs are visited: hop
distances and eigenvector walk counts are counted in integers and rounded
once, float sums go through math.fsum, and a constant score vector has a
std of exactly 0.  So mathematically equal values are equal floats, and
renaming characters changes nothing.  Eigenvector centrality is still only
exact to its tolerance, where power iteration stops.

Score vectors are plain dicts, one float per active node.

Every topology metric reads an index of the active nodes (_Index), with
neighbor sets as int bitsets, and one all-sources traversal (_hop_counts)
gives every node its integer histogram of hop distances: all balls grow
together, one hop per round, and the popcount of a ball's new bits counts
the nodes at that distance.  Harmonic centrality reads a node's histogram;
component-mean efficiency pools its members' histograms; neighborhood
efficiency runs the same traversal masked to each neighborhood;
connected_components needs no histogram and grows one part at a time.  A row
indexes its episode once: compute_episode_metrics lends that index to the
public functions it calls (_index), for that graph object only and until
the row is done, so any other call indexes its graph afresh.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from functools import cached_property
from itertools import zip_longest

from .errors import (
    CharnetError,
    ConvergenceError,
    DegenerateGraphError,
    EmptyVectorError,
    NoEdgesError,
)
from .graph import CharacterId, EpisodeGraph, EpisodeKey, _Record


MetricsConfig = namedtuple(
    "MetricsConfig", "efficiency_mode eigen_tol eigen_max_iter", defaults=("component-mean", 1e-10, 10000)
)
MetricsConfig.__doc__ = "Knobs for metric computation, echoed into every report."

# attr: EpisodeMetrics attribute, also the CLI --metric spelling; header:
# metrics CSV column header; label: correlation-table row label; integer:
# rendered without decimals.
MetricColumn = namedtuple("MetricColumn", "attr header label integer", defaults=(False,))
MetricColumn.__doc__ = "Names one metric column everywhere it appears."

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


class EpisodeMetrics(_Record):
    """The 12-column metric row for one episode: one attribute per METRICS
    column, 0 until computed (an int in integer columns), then warnings."""

    __slots__ = ("key", "ordinal", *(column.attr for column in METRICS), "warnings")

    def __init__(self, key: EpisodeKey, ordinal: int = 0, *, warnings: list[str] | None = None, **cells) -> None:
        self.key = key
        self.ordinal = ordinal
        for column in METRICS:
            setattr(self, column.attr, cells.pop(column.attr, 0 if column.integer else 0.0))
        if cells:
            raise TypeError(f"EpisodeMetrics() got an unexpected keyword argument {next(iter(cells))!r}")
        self.warnings = [] if warnings is None else warnings


EFFICIENCY_MODES = ("component-mean", "neighborhood")


def active_nodes(graph) -> int:
    """Number of nodes with at least one edge."""
    return len(_index(graph).nbr)


def density(graph) -> float:
    """Realized fraction of possible edges among active nodes: 2m / (n(n-1))."""
    n = active_nodes(graph)
    if n < 2:
        raise DegenerateGraphError(f"density needs at least 2 active nodes, got {n}")
    return 2.0 * len(graph.edges) / (n * (n - 1))


def node_strengths(graph) -> dict[CharacterId, float]:
    """Total conversation seconds per active node (sum of incident weights)."""
    incident: dict[CharacterId, list[float]] = {}
    for pair, weight in graph.edges.items():
        for v in pair:
            incident.setdefault(v, []).append(weight)
    return {v: math.fsum(weights) for v, weights in incident.items()}


class _Index:
    """An episode's active nodes in sorted order, each mapped to its bit
    position, and per position the neighbors as an int bitset (bit j set:
    edge to node j).  Every topology metric reads one; the all-sources hop
    histogram is computed on first use."""

    def __init__(self, graph) -> None:
        active = {v for pair in graph.edges for v in pair}
        self.position = {v: i for i, v in enumerate(sorted(active))}
        self.nbr = [0] * len(self.position)
        for a, b in graph.edges:
            i, j = self.position[a], self.position[b]
            self.nbr[i] |= 1 << j
            self.nbr[j] |= 1 << i

    @cached_property
    def hops(self) -> tuple[list[int], list[list[int]]]:
        """_hop_counts over the whole graph, one entry per position."""
        return _hop_counts(self.nbr, (1 << len(self.nbr)) - 1)


# (graph, its _Index) while compute_episode_metrics fills that graph's row
_lent: tuple[EpisodeGraph | None, _Index | None] = (None, None)


def _index(graph) -> _Index:
    """The index lent for this very graph object, else a fresh one."""
    lent_graph, index = _lent  # read once: another thread's row may replace it
    return index if lent_graph is graph else _Index(graph)


def _bits(mask: int) -> list[int]:
    """Positions of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _hop_counts(nbr: list[int], within: int) -> tuple[list[int], list[list[int]]]:
    """For every node of `within`, in ascending order: the nodes it reaches
    by paths that stay inside `within` (its component there, as a bitset),
    and its distance histogram, counts[k - 1] = nodes exactly k hops away.

    Every source expands at once, one hop per round (bit-parallel BFS, as in
    Akiba, Iwata & Yoshida, SIGMOD 2013): a node's ball of radius k is the
    OR of its own ball and its neighbors' balls of radius k - 1, and the
    popcount of the new bits is its count at distance k.  A round reads
    only the previous round's balls; updating them in place would let a
    ball grow by more than one hop per round.  A node whose ball stops
    growing holds its whole component and drops out.  Work and memory grow
    with the nodes and edges inside `within`, not with the whole graph.
    """
    balls: dict[int, int] = {}
    around: dict[int, list[int]] = {}
    counts: dict[int, list[int]] = {}
    for v in _bits(within):
        inner = nbr[v] & within
        balls[v] = inner | 1 << v  # radius 1
        counts[v] = []
        if inner:
            around[v] = _bits(inner)
            counts[v].append(len(around[v]))
    growing = around
    while growing:
        grown = {}
        for v in growing:
            ball = old = balls[v]
            for u in around[v]:
                ball |= balls[u]
            if ball != old:
                grown[v] = ball
                counts[v].append((ball ^ old).bit_count())
        balls.update(grown)
        growing = grown
    return list(balls.values()), list(counts.values())


def connected_components(graph) -> list[set[CharacterId]]:
    """Disjoint node sets joined by edge paths, singletons included, in order
    of their smallest member.  Each part grows from the lowest unclaimed bit
    position over the neighbor bitsets, one hop per round."""
    index = _index(graph)
    names, nbr = list(index.position), index.nbr
    parts = [{v} for v in graph.nodes if v not in index.position]
    unclaimed = (1 << len(nbr)) - 1
    while unclaimed:
        part = frontier = unclaimed & -unclaimed
        while frontier:
            reach = 0
            for i in _bits(frontier):
                reach |= nbr[i]
            frontier = reach & ~part
            part |= frontier
        unclaimed ^= part
        parts.append({names[i] for i in _bits(part)})
    return sorted(parts, key=min)


def _reciprocal(counts: list[int]) -> float:
    """Sum over k of counts[k - 1] / k, added as exact integers and rounded
    once, so it depends on the histogram alone, never on visiting order."""
    scale = math.lcm(*range(1, len(counts) + 1))
    return sum(c * (scale // k) for k, c in enumerate(counts, 1)) / scale


def _efficiency(n: int, histograms) -> float:
    """Mean reciprocal hop distance over the ordered pairs of n >= 2 nodes,
    given each node's distance histogram: the histograms are added as
    integers and rounded once."""
    pooled = [sum(column) for column in zip_longest(*histograms, fillvalue=0)]
    return _reciprocal(pooled) / (n * (n - 1))


def global_efficiency(graph) -> float:
    """Efficiency of the whole graph as given; unreachable pairs contribute 0."""
    n = len(graph.nodes)
    if n < 2:
        return 0.0
    return _efficiency(n, _index(graph).hops[1])


def efficiency_metric(graph, mode: str = "component-mean") -> float:
    """The Efficiency column.

    component-mean: unweighted mean of global efficiency over connected
    components with >= 2 nodes.  neighborhood: mean over active nodes of
    the efficiency of the subgraph induced by each node's neighbors.
    """
    index = _index(graph)
    if mode == "component-mean":
        # an active node's reach is its component, which has >= 2 nodes
        parts: dict[int, list[list[int]]] = {}
        for reach, counts in zip(*index.hops):
            parts.setdefault(reach, []).append(counts)
        if not parts:
            raise DegenerateGraphError("no connected component has 2 or more nodes")
        values = [_efficiency(reach.bit_count(), part) for reach, part in parts.items()]
    elif mode == "neighborhood":
        nbr = index.nbr
        if not nbr:
            raise DegenerateGraphError("no active nodes")
        values = [
            _efficiency(mask.bit_count(), _hop_counts(nbr, mask)[1])
            if mask.bit_count() >= 2
            else 0.0
            for mask in nbr
        ]
    else:
        raise ValueError(f"unknown efficiency mode {mode!r}")
    return math.fsum(values) / len(values)


def transitivity(graph) -> float:
    """3 x triangles / triads; a triad is a 2-path centered at a node."""
    index = _index(graph)
    position, nbr = index.position, index.nbr
    triads = sum(d * (d - 1) // 2 for d in (mask.bit_count() for mask in nbr))
    if triads == 0:
        return 0.0
    # each triangle contributes one common neighbor per edge, so this sum is 3 * triangles
    triangle_paths = sum(
        (nbr[position[a]] & nbr[position[b]]).bit_count() for a, b in graph.edges
    )
    return triangle_paths / triads


def degree_vector(graph) -> dict[CharacterId, float]:
    """Unweighted edge count per active node."""
    index = _index(graph)
    return {v: float(index.nbr[i].bit_count()) for v, i in index.position.items()}


def harmonic_vector(graph) -> dict[CharacterId, float]:
    """Sum of reciprocal hop distances from every other active node.

    Unreachable pairs contribute 0; no normalization by n - 1.
    """
    index = _index(graph)
    return dict(zip(index.position, map(_reciprocal, index.hops[1])))


def eigenvector_vector(
    graph, tol: float = 1e-10, max_iter: int = 10000
) -> dict[CharacterId, float]:
    """Dominant eigenvector of the unweighted adjacency over active nodes.

    Power iteration from the uniform positive vector, normalized to unit
    Euclidean norm each step; converged when successive iterates differ by
    less than tol in max-norm.  Iterating with A + I instead of A leaves
    the eigenvectors unchanged but keeps bipartite graphs, whose extreme
    eigenvalues tie in magnitude, from oscillating forever.

    The iterates are (A + I)^k 1, walk counts kept as exact integers
    (Bonacich, J. Math. Sociol. 2(1), 1972), so no visiting order can
    show in them.  Past 120 bits every count is shifted right by one
    common amount that keeps 60; the shift acts on each count alone.
    """
    index = _index(graph)
    nbr = index.nbr
    if not nbr:
        raise NoEdgesError("eigenvector centrality needs at least one edge")
    # an active node's closed neighborhood has 2 or more members, so each getter returns a tuple
    closed = [operator.itemgetter(i, *_bits(mask)) for i, mask in enumerate(nbr)]

    n = len(nbr)
    y = [1] * n
    x = [1.0 / math.sqrt(n)] * n
    delta = math.inf
    for _ in range(max_iter):
        y = [sum(get(y)) for get in closed]
        top = max(y).bit_length()
        if top > 120:
            y = [v >> (top - 60) for v in y]
        norm = math.sqrt(sum(v * v for v in y))
        step = [v / norm for v in y]
        delta = max(map(abs, map(operator.sub, step, x)))
        x = step
        if delta < tol:
            return dict(zip(index.position, x))
    raise ConvergenceError(
        f"power iteration missed tol={tol:g} after {max_iter} iterations (last delta {delta:.3e})"
    )


def summarize(scores: dict[CharacterId, float]) -> tuple[float, float]:
    """(max, population std) of one score per node; a constant vector's std is exactly 0."""
    if not scores:
        raise EmptyVectorError("cannot summarize an empty score vector")
    values = list(scores.values())
    top = max(values)
    if min(values) == top:  # fsum(values) / n can miss the value by an ulp
        return top, 0.0
    mean = math.fsum(values) / len(values)
    variance = math.fsum((v - mean) ** 2 for v in values) / len(values)
    return top, math.sqrt(variance)


def compute_episode_metrics(graph: EpisodeGraph, config: MetricsConfig | None = None) -> EpisodeMetrics:
    """Fill all 12 metric columns for one episode.

    A degenerate metric, or a summary that overflows a float, becomes 0
    plus a warning; the row itself always comes back rectangular so
    downstream correlation never loses a column.
    """
    global _lent
    config = config or MetricsConfig()
    row = EpisodeMetrics(key=graph.key, ordinal=graph.ordinal)

    def guarded(name: str, compute, fallback):
        try:
            return compute()
        except CharnetError as exc:
            row.warnings.append(f"{name}: {exc}")
        except OverflowError:  # strengths of weights near the float limit
            row.warnings.append(f"{name}: summary overflows a float")
        return fallback

    _lent = (graph, _Index(graph))
    try:
        row.active_nodes = active_nodes(graph)
        if row.active_nodes == 0:
            row.warnings.append("DegenerateGraph: no active nodes, all metrics 0")
            return row
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
    finally:
        _lent = (None, None)
