"""Independent oracles for the test suite.

Each routine recomputes a quantity through a different route than the
library (dense matrices, exhaustive enumeration, quadrature), so agreement
is evidence of correctness rather than an identity check.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np

from charnet.errors import ConvergenceError


def floyd_warshall(nodes, edges) -> dict[tuple[str, str], float]:
    """All-pairs hop distances by O(n^3) relaxation; math.inf when unreachable."""
    names = sorted(nodes)
    index = {v: i for i, v in enumerate(names)}
    n = len(names)
    dist = [[math.inf] * n for _ in range(n)]
    for i in range(n):
        dist[i][i] = 0.0
    for a, b in edges:
        i, j = index[a], index[b]
        dist[i][j] = dist[j][i] = 1.0
    for k in range(n):
        row_k = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik == math.inf:
                continue
            row_i = dist[i]
            for j in range(n):
                alt = dik + row_k[j]
                if alt < row_i[j]:
                    row_i[j] = alt
    return {(u, v): dist[index[u]][index[v]] for u in names for v in names}


def brute_transitivity(nodes, edges) -> float:
    """Triangles by triple enumeration, triads by neighbor-pair counting."""
    present = {frozenset(e) for e in edges}
    names = sorted(nodes)
    triangles = sum(
        1
        for a, b, c in itertools.combinations(names, 3)
        if frozenset((a, b)) in present
        and frozenset((b, c)) in present
        and frozenset((a, c)) in present
    )
    triads = 0
    for center in names:
        degree = sum(1 for v in names if frozenset((center, v)) in present)
        triads += degree * (degree - 1) // 2
    return 0.0 if triads == 0 else 3.0 * triangles / triads


def active_names(edges) -> list[str]:
    return sorted({v for e in edges for v in e})


def brute_degrees(edges) -> dict[str, int]:
    out: dict[str, int] = {}
    for a, b in edges:
        out[a] = out.get(a, 0) + 1
        out[b] = out.get(b, 0) + 1
    return out


def brute_harmonic(edges) -> dict[str, float]:
    """Reciprocal-distance sums over the active nodes, from Floyd-Warshall."""
    active = active_names(edges)
    dist = floyd_warshall(active, edges)
    return {
        u: sum(
            1.0 / dist[(u, v)] for v in active if v != u and dist[(u, v)] < math.inf
        )
        for u in active
    }


def exact_harmonic(nodes, edges) -> dict[str, float]:
    """Per active node, sum over k of (nodes at Floyd-Warshall distance k) / k,
    added in exact rationals and rounded once."""
    active = active_names(edges)
    dist = floyd_warshall(nodes, edges)
    out = {}
    for u in active:
        histogram = Counter(dist[(u, v)] for v in active if v != u and dist[(u, v)] < math.inf)
        out[u] = float(sum(Fraction(count, int(k)) for k, count in histogram.items()))
    return out


def exact_efficiency(edges, mode: str) -> float:
    """The Efficiency column from Floyd-Warshall distances.  Per subgraph,
    the reciprocal distances of its ordered pairs are added in exact
    rationals and rounded once, then divided by the pair count; the mean
    over subgraphs is a math.fsum.  The subgraphs are the connected
    components with >= 2 nodes (component-mean) or the subgraphs induced by
    each active node's neighbors (neighborhood, 0 below 2 nodes)."""
    active = active_names(edges)
    if mode == "component-mean":
        dist = floyd_warshall(active, edges)
        reach = {frozenset(v for v in active if dist[(u, v)] < math.inf) for u in active}
        subgraphs = [part for part in reach if len(part) >= 2]
    else:
        subgraphs = [{v for e in edges if u in e for v in e if v != u} for u in active]
    values = []
    for nodes in subgraphs:
        n = len(nodes)
        if n < 2:
            values.append(0.0)
            continue
        inner = [e for e in edges if e[0] in nodes and e[1] in nodes]
        dist = floyd_warshall(nodes, inner)
        total = sum(Fraction(1, int(d)) for (u, v), d in dist.items() if u != v and d < math.inf)
        values.append(float(total) / (n * (n - 1)))
    return math.fsum(values) / len(values)


def brute_global_efficiency(nodes, edges) -> float:
    names = sorted(nodes)
    if len(names) < 2:
        return 0.0
    dist = floyd_warshall(names, edges)
    total = sum(
        1.0 / dist[(u, v)]
        for u in names
        for v in names
        if u != v and dist[(u, v)] < math.inf
    )
    return total / (len(names) * (len(names) - 1))


def brute_component_mean_efficiency(edges) -> float | None:
    """Mean global efficiency over the >=2-node components; None if there are none."""
    active = active_names(edges)
    if not active:
        return None
    dist = floyd_warshall(active, edges)
    seen: set[str] = set()
    values = []
    for u in active:
        if u in seen:
            continue
        comp = {v for v in active if dist[(u, v)] < math.inf}
        seen.update(comp)
        if len(comp) >= 2:
            inner = [e for e in edges if e[0] in comp and e[1] in comp]
            values.append(brute_global_efficiency(comp, inner))
    return sum(values) / len(values) if values else None


def dense_adjacency(edges) -> tuple[list[str], np.ndarray]:
    names = active_names(edges)
    index = {v: i for i, v in enumerate(names)}
    a = np.zeros((len(names), len(names)))
    for u, v in edges:
        a[index[u], index[v]] = a[index[v], index[u]] = 1.0
    return names, a


def dense_dominant_eigen(edges) -> tuple[list[str], np.ndarray, float, float, np.ndarray]:
    """(names, A, lambda1, lambda2, unit Perron-oriented eigenvector) via eigh."""
    names, a = dense_adjacency(edges)
    values, vectors = np.linalg.eigh(a)
    lam1 = float(values[-1])
    lam2 = float(values[-2]) if len(values) > 1 else -math.inf
    vec = vectors[:, -1]
    if vec.sum() < 0:
        vec = -vec
    return names, a, lam1, lam2, vec


def power_iteration_eigen(edges, tol: float, max_iter: int) -> dict[str, float]:
    """Shifted power iteration on exact walk counts that takes the full
    max-norm delta at every step.  Start, shift, normalization and error
    text are the library's, which skips the full check on steps that one
    coordinate rules out, so results must be equal, not close."""
    closed = {v: [v] for v in active_names(edges)}
    for a, b in edges:
        closed[a].append(b)
        closed[b].append(a)
    names = list(closed)
    n = len(names)
    y = dict.fromkeys(names, 1)
    x = dict.fromkeys(names, 1.0 / math.sqrt(n))
    delta = math.inf
    for _ in range(max_iter):
        y = {v: sum(y[u] for u in closed[v]) for v in names}
        top = max(y.values()).bit_length()
        if top > 120:
            y = {v: c >> (top - 60) for v, c in y.items()}
        norm = math.sqrt(sum(c * c for c in y.values()))
        step = {v: c / norm for v, c in y.items()}
        delta = max(abs(step[v] - x[v]) for v in names)
        x = step
        if delta < tol:
            return x
    raise ConvergenceError(
        f"power iteration missed tol={tol:g} after {max_iter} iterations (last delta {delta:.3e})"
    )


def t_two_tailed_quadrature(t: float, df: int, steps: int = 4000) -> float:
    """Two-tailed t-distribution tail mass by composite Simpson quadrature."""
    t = abs(float(t))
    if t == 0.0:
        return 1.0
    scale = math.exp(math.lgamma((df + 1) / 2.0) - math.lgamma(df / 2.0)) / math.sqrt(
        df * math.pi
    )

    def density(s: float) -> float:
        return scale * (1.0 + s * s / df) ** (-(df + 1) / 2.0)

    step = t / steps
    total = density(0.0) + density(t)
    for i in range(1, steps):
        total += density(i * step) * (4.0 if i % 2 else 2.0)
    central = total * step / 3.0
    return 1.0 - 2.0 * central


def tie_free_ranks(values) -> list[int]:
    position = {v: i + 1 for i, v in enumerate(sorted(values))}
    return [position[v] for v in values]


def spearman_shortcut(x, y) -> float:
    """1 - 6*sum(d^2)/(n(n^2-1)); exact only when neither vector has ties."""
    n = len(x)
    rx = tie_free_ranks(x)
    ry = tie_free_ranks(y)
    d2 = sum((a - b) ** 2 for a, b in zip(rx, ry))
    return 1.0 - 6.0 * d2 / (n * (n * n - 1))


def _rank_correlation(rx, ry) -> float:
    n = len(rx)
    mx = sum(rx) / n
    my = sum(ry) / n
    num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    den = math.sqrt(
        sum((a - mx) ** 2 for a in rx) * sum((b - my) ** 2 for b in ry)
    )
    return num / den


def exhaustive_permutation_pvalue(x, y) -> float:
    """Exact two-sided permutation p over all len(y)! rearrangements (tiny n only)."""
    rx = tie_free_ranks(x)
    ry = tie_free_ranks(y)
    observed = abs(_rank_correlation(rx, ry))
    hits = 0
    count = 0
    for perm in itertools.permutations(ry):
        count += 1
        if abs(_rank_correlation(rx, list(perm))) >= observed - 1e-12:
            hits += 1
    return hits / count


def _float_average_ranks(values) -> list[float]:
    data = [float(v) for v in values]
    n = len(data)
    order = sorted(range(n), key=lambda i: data[i])
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and data[order[j + 1]] == data[order[i]]:
            j += 1
        average = (i + j + 2) / 2.0  # mean of 1-based positions i..j
        for k in range(i, j + 1):
            ranks[order[k]] = average
        i = j + 1
    return ranks


def spearman_rho_float(x, y) -> float:
    """Spearman's rho through float ranks: float average ranks, centered on
    their float mean, and a float dot product over float norms.  This is the
    library's earlier float rank path, kept to hold its exact int form to the
    same bits."""
    centered = []
    for values in (x, y):
        ranks = _float_average_ranks(values)
        mean = sum(ranks) / len(ranks)
        centered.append([r - mean for r in ranks])
    cx, cy = centered
    dot = sum(a * b for a, b in zip(cx, cy))
    rho = dot / math.sqrt(sum(a * a for a in cx) * sum(b * b for b in cy))
    return max(-1.0, min(1.0, rho))


def permutation_pvalues_float(columns, cy, iterations: int, seed: int) -> list[float]:
    """Seeded permutation p-values with one plain rank dot product per column
    per shuffle after `Random.shuffle`: the direct form of the library's
    packed-integer loop, with the same shuffle stream, threshold and add-one
    smoothing."""
    thresholds = [abs(sum(a * b for a, b in zip(cx, cy))) for cx in columns]
    rng = random.Random(seed)
    shuffled = list(cy)
    hits = [0] * len(columns)
    for _ in range(iterations):
        rng.shuffle(shuffled)
        for i, cx in enumerate(columns):
            if abs(sum(a * b for a, b in zip(cx, shuffled))) >= thresholds[i]:
                hits[i] += 1
    return [(1 + h) / (1 + iterations) for h in hits]


def random_edge_set(rng, min_nodes: int = 2, max_nodes: int = 8):
    """Seeded random simple graph as a weight dict over sorted name pairs."""
    n = rng.randint(min_nodes, max_nodes)
    names = [f"N{i:02d}" for i in range(n)]
    keep = rng.uniform(0.15, 0.9)
    edges = {}
    for a, b in itertools.combinations(names, 2):
        if rng.random() < keep:
            edges[(a, b)] = rng.uniform(0.5, 300.0)
    return names, edges
