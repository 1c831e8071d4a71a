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

Every topology metric reads an index of the active nodes (_Index), which
holds each node's neighbors twice, built in one pass over the edges: as an
int bitset, for set algebra, and as a list of positions in edge order, for
walking.  One all-sources traversal (_hop_counts) gives every node its
integer histogram of hop distances: all balls grow together, one hop per
round, and the popcount of a ball's new bits counts the nodes at that
distance.  Harmonic centrality reads a node's histogram; component-mean
efficiency pools its members' histograms; neighborhood efficiency runs the
same traversal masked to each neighborhood; connected_components needs no
histogram and grows one part at a time.  Every sum over a neighbor list is
exact, so edge order shows in no value.  A row indexes its episode once:
the index also carries the graph's nodes and edges, so
compute_episode_metrics passes it to each public function in place of the
graph, and any function given a graph indexes it afresh.  The index
applies graph._check_edge, add_interaction's edge rule, to every edge.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from functools import cached_property, lru_cache
from itertools import zip_longest

from .errors import ConvergenceError, DegenerateGraphError, DomainError, InvariantError
from .graph import CharacterId, EpisodeGraph, EpisodeKey, _check_edge, _Record


MetricsConfig = namedtuple(
    "MetricsConfig", "efficiency_mode eigen_tol eigen_max_iter", defaults=("component-mean", 1e-10, 10000)
)
MetricsConfig.__doc__ = "Knobs for metric computation, echoed into every report."
_DEFAULT = MetricsConfig()

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

    __slots__ = ("key", *(column.attr for column in METRICS), "warnings")

    def __init__(self, key: EpisodeKey, *, warnings: list[str] | None = None, **cells) -> None:
        self.key = key
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
    """Summed incident weights (seconds) per active node; the index ran graph._check_edge on each."""
    incident: dict[CharacterId, list[float]] = {}
    for pair, weight in _index(graph).edges.items():
        for v in pair:
            incident.setdefault(v, []).append(weight)
    return {v: math.fsum(weights) for v, weights in incident.items()}


class _Index:
    """An episode's active nodes in sorted order, each mapped to its bit
    position, and per position the neighbors twice: as an int bitset (bit j
    set: edge to node j) and as a list of positions in edge order.  Every
    topology metric reads one; the all-sources hop histogram is computed on
    first use.  It keeps the graph's nodes and edges, so every metric
    function accepts it in place of the graph.  Each edge, in dict order,
    must pass graph._check_edge and the index's own two rules: a sorted
    pair (or the lists hold a neighbor twice) and endpoints in the nodes,
    whose count global efficiency divides by."""

    def __init__(self, graph) -> None:
        self.nodes, self.edges = graph.nodes, graph.edges
        active = {v for pair in graph.edges for v in pair}
        self.position = {v: i for i, v in enumerate(sorted(active))}
        self.nbr = [0] * len(self.position)
        self.adj: list[list[int]] = [[] for _ in self.nbr]
        for (a, b), weight in graph.edges.items():
            _check_edge(a, b, weight)
            if not a < b:
                raise InvariantError(f"edge {a!r}-{b!r} is not stored as a sorted pair")
            if a not in self.nodes or b not in self.nodes:
                raise InvariantError(f"edge {a!r}-{b!r} has an endpoint missing from the nodes")
            i, j = self.position[a], self.position[b]
            self.nbr[i] |= 1 << j
            self.nbr[j] |= 1 << i
            self.adj[i].append(j)
            self.adj[j].append(i)

    @cached_property
    def hops(self) -> tuple[list[int], list[list[int]]]:
        """_hop_counts over the whole graph, one entry per position."""
        return _hop_counts(self.nbr, (1 << len(self.nbr)) - 1, dict(enumerate(self.adj)))


def _index(graph) -> _Index:
    """graph itself if it is already an index, else a fresh index of it."""
    return graph if type(graph) is _Index else _Index(graph)


def _bits(mask: int) -> list[int]:
    """Positions of the set bits of mask, descending."""
    out = []
    while mask:
        top = mask.bit_length() - 1
        out.append(top)
        mask ^= 1 << top
    return out


def _hop_counts(
    nbr: list[int], within: int, around: dict[int, list[int]]
) -> tuple[list[int], list[list[int]]]:
    """For every node of `within`, in the order of `around`, which maps each
    of them to its neighbors inside `within`: the nodes it reaches by paths
    that stay inside `within` (its component there, as a bitset), and its
    distance histogram, counts[k - 1] = nodes exactly k hops away.

    Every source expands at once, one hop per round (bit-parallel BFS, as in
    Akiba, Iwata & Yoshida, SIGMOD 2013): a node's ball of radius k is the
    OR of its own ball and its neighbors' balls of radius k - 1, and the
    popcount of the new bits is its count at distance k.  A round reads
    only the previous round's balls; updating them in place would let a
    ball grow by more than one hop per round.  A node whose ball stops
    growing holds its whole component and drops out.  Work and memory grow
    with the nodes and edges inside `within`, not with the whole graph.
    """
    balls = {v: nbr[v] & within | 1 << v for v in around}  # radius 1
    counts = {v: [len(near)] if near else [] for v, near in around.items()}
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


@lru_cache(maxsize=32)
def _harmonic_weights(length: int) -> tuple[int, tuple[int, ...]]:
    """(lcm of 1..length, that lcm // k for k = 1..length).  An episode's
    histograms have a handful of lengths; the bound keeps the weights of a
    long path, whose bits grow with the square of its length, from piling
    up."""
    scale = math.lcm(*range(1, length + 1))
    return scale, tuple(scale // k for k in range(1, length + 1))


def _reciprocal(counts: list[int]) -> float:
    """Sum over k of counts[k - 1] / k, added as exact integers and rounded
    once, so it depends on the histogram alone, never on visiting order."""
    scale, weights = _harmonic_weights(len(counts))
    return sum(map(operator.mul, counts, weights)) / scale


def _efficiency(n: int, histograms) -> float:
    """Mean reciprocal hop distance over the ordered pairs of n >= 2 nodes,
    given each node's distance histogram: the histograms are added as
    integers and rounded once."""
    pooled = [sum(column) for column in zip_longest(*histograms, fillvalue=0)]
    return _reciprocal(pooled) / (n * (n - 1))


def global_efficiency(graph) -> float:
    """Efficiency of the whole graph as given; unreachable pairs contribute 0."""
    index = _index(graph)
    n = len(index.nodes)
    if n < 2:
        return 0.0
    return _efficiency(n, index.hops[1])


def efficiency_metric(graph, mode: str = _DEFAULT.efficiency_mode) -> float:
    """The Efficiency column.

    component-mean: unweighted mean of global efficiency over connected
    components with >= 2 nodes.  neighborhood: mean over active nodes of
    the efficiency of the subgraph induced by each node's neighbors.
    """
    check_efficiency_mode(mode)
    index = _index(graph)
    if mode == "component-mean":
        # an active node's reach is its component, which has >= 2 nodes
        parts: dict[int, list[list[int]]] = {}
        for reach, counts in zip(*index.hops):
            parts.setdefault(reach, []).append(counts)
        if not parts:
            raise DegenerateGraphError("no connected component has 2 or more nodes")
        values = [_efficiency(reach.bit_count(), part) for reach, part in parts.items()]
    else:  # neighborhood
        nbr = index.nbr
        if not nbr:
            raise DegenerateGraphError("no active nodes")
        values = [
            _efficiency(len(members), _hop_counts(nbr, mask, {u: _bits(nbr[u] & mask) for u in members})[1])
            if len(members) >= 2
            else 0.0
            for mask, members in zip(nbr, index.adj)
        ]
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


def check_efficiency_mode(mode: str) -> None:
    """Refuse an efficiency mode outside EFFICIENCY_MODES."""
    if mode not in EFFICIENCY_MODES:
        raise DomainError(f"unknown efficiency mode {mode!r}")


def check_eigen(tol: float, max_iter: int) -> None:
    """Refuse power-iteration settings outside the rule: tol finite and > 0, max_iter at least 1."""
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError(f"eigen tol must be a finite number > 0, got {tol:g}")
    if max_iter < 1:
        raise DomainError(f"eigen max iterations must be at least 1, got {max_iter}")


def eigenvector_vector(
    graph, tol: float = _DEFAULT.eigen_tol, max_iter: int = _DEFAULT.eigen_max_iter
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
    A step forms the exact norms, the float iterate and its full max-norm
    delta only when one watched coordinate, the one that changed most at
    the last full check, could have moved by less than tol: its change
    bounds the delta from below.  The gate reads that change under
    math.hypot norms, which differs from the full check's reading by at
    most a few ulps of 1, about 2e-15, so a step is skipped only when the
    change passes tol by a slack of 1e-13.  The last step max_iter allows
    is always checked in full, so results and error text are those of
    checking every step.  Settings outside check_eigen's rule raise DomainError.
    """
    check_eigen(tol, max_iter)
    index = _index(graph)
    if not index.nbr:
        raise DegenerateGraphError("eigenvector centrality needs at least one edge")
    # an active node's closed neighborhood has 2 or more members, so each getter returns a tuple
    closed = [operator.itemgetter(i, *around) for i, around in enumerate(index.adj)]

    n = len(closed)
    y = [1] * n
    rough = math.sqrt(n)
    delta = math.inf
    watch = 0
    for left in reversed(range(max_iter)):  # steps left after this one
        prev, prev_rough = y, rough
        y = [sum(get(prev)) for get in closed]
        top = max(y).bit_length()
        if top > 120:
            y = [v >> (top - 60) for v in y]
        rough = math.hypot(*y)
        if left and abs(y[watch] / rough - prev[watch] / prev_rough) >= tol + 1e-13:
            continue
        prev_norm, norm = (math.sqrt(sum(map(operator.mul, v, v))) for v in (prev, y))
        step = [v / norm for v in y]
        diffs = list(map(abs, map(operator.sub, step, [v / prev_norm for v in prev])))
        delta = max(diffs)
        if delta < tol:
            return dict(zip(index.position, step))
        watch = diffs.index(delta)
    raise ConvergenceError(
        f"power iteration missed tol={tol:g} after {max_iter} iterations (last delta {delta:.3e})"
    )


def summarize(scores: dict[CharacterId, float]) -> tuple[float, float]:
    """(max, population std) of one score per node; a constant vector's std is exactly 0."""
    if not scores:
        raise DegenerateGraphError("cannot summarize an empty score vector")
    values = list(scores.values())
    top = max(values)
    if min(values) == top:  # fsum(values) / n can miss the value by an ulp
        return top, 0.0
    mean = math.fsum(values) / len(values)
    variance = math.fsum((v - mean) ** 2 for v in values) / len(values)
    return top, math.sqrt(variance)


def compute_episode_metrics(graph: EpisodeGraph, config: MetricsConfig | None = None) -> EpisodeMetrics:
    """Fill all 12 metric columns for one episode.

    A config outside check_efficiency_mode's or check_eigen's rule raises
    DomainError before the graph is read, whatever the graph.  An episode
    with no active node gets 0 in every column and a warning.  Otherwise it
    has an edge between two distinct nodes (the index refuses a self-loop),
    so every column is defined; only a strength summary past the float
    range and an eigen iteration short of its tolerance can fail, and each
    becomes 0 plus a warning.  The row always comes back rectangular, so
    correlation never loses a column.
    """
    config = config or _DEFAULT
    check_efficiency_mode(config.efficiency_mode)
    check_eigen(config.eigen_tol, config.eigen_max_iter)
    row = EpisodeMetrics(key=graph.key)
    index = _Index(graph)
    row.active_nodes = active_nodes(index)
    if row.active_nodes == 0:
        row.warnings.append("DegenerateGraph: no active nodes, all metrics 0")
        return row
    row.density = density(index)
    row.efficiency = efficiency_metric(index, config.efficiency_mode)
    row.transitivity = transitivity(index)
    try:
        row.strength_max, row.strength_std = summarize(node_strengths(index))
    except OverflowError:  # strengths of weights near the float limit
        row.warnings.append("strength: summary overflows a float")
    degree_max, row.degree_std = summarize(degree_vector(index))
    row.degree_max = int(degree_max)
    row.harmonic_max, row.harmonic_std = summarize(harmonic_vector(index))
    try:
        row.eigen_max, row.eigen_std = summarize(
            eigenvector_vector(index, config.eigen_tol, config.eigen_max_iter)
        )
    except ConvergenceError as exc:
        row.warnings.append(f"eigenvector: {exc}")
    return row
