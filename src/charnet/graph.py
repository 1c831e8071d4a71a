"""Weighted undirected graphs for character interaction networks.

Two graph shapes share one edge representation: a SegmentGraph covers a
ten-scene window of an episode, and an EpisodeGraph is the weight-summed
union of all segments of that episode.  Edges live under canonically
ordered (sorted) name pairs so undirected lookups and serialization are
orientation-insensitive.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

from .errors import (
    EmptyEpisodeError,
    InvariantError,
    NonPositiveWeightError,
    SelfLoopError,
)

# Character identifiers are plain strings: trimmed, never empty.
CharacterId = str

Pair = tuple[CharacterId, CharacterId]


def normalize_character(name: str) -> CharacterId:
    """Trim surrounding whitespace; names are otherwise taken verbatim.

    No case folding: "JON" and "Jon" are distinct characters.
    """
    trimmed = name.strip()
    if not trimmed:
        raise InvariantError("character name is empty after trimming")
    return trimmed


def canonical_pair(a: CharacterId, b: CharacterId) -> Pair:
    """Order an unordered pair so {a, b} and {b, a} hit the same edge slot."""
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True, order=True)
class EpisodeKey:
    """Identity of one episode; sorts lexicographically by (series, season, episode)."""

    series: str
    season: int
    episode: int

    def __str__(self) -> str:
        return f"{self.series} {self.season} {self.episode}"


@dataclass
class SegmentGraph:
    """Character interactions within one ten-scene window of an episode."""

    index: int
    nodes: set[CharacterId] = field(default_factory=set)
    edges: dict[Pair, float] = field(default_factory=dict)


@dataclass
class EpisodeGraph:
    """Weighted union of an episode's segment graphs.

    ordinal is the 1-based flat position of the episode across the loaded
    dataset (the metric-table row number); 0 until a loader assigns it.
    """

    key: EpisodeKey
    nodes: set[CharacterId] = field(default_factory=set)
    edges: dict[Pair, float] = field(default_factory=dict)
    segment_count: int = 0
    ordinal: int = 0


def add_interaction(graph, a: CharacterId, b: CharacterId, seconds: float):
    """Record `seconds` of conversation between characters a and b.

    Accepts either graph shape.  The edge is created at `seconds` or its
    existing weight is increased; both endpoints join the node set.
    """
    a = normalize_character(a)
    b = normalize_character(b)
    if a == b:
        raise SelfLoopError(f"self-loop on {a!r}")
    if not isinstance(seconds, (int, float)) or not math.isfinite(seconds) or seconds <= 0:
        raise NonPositiveWeightError(
            f"edge {a!r}-{b!r} needs a positive finite weight, got {seconds!r}"
        )
    pair = canonical_pair(a, b)
    graph.nodes.add(a)
    graph.nodes.add(b)
    graph.edges[pair] = graph.edges.get(pair, 0.0) + float(seconds)
    return graph


def aggregate_segments(segments: list[SegmentGraph], key: EpisodeKey) -> EpisodeGraph:
    """Sum segment edge weights into one episode graph.

    A pair occurs once per segment at most, so each pair's weight is summed
    in segment order whatever order a segment's edges are visited in, and
    the float sums are reproducible run to run.
    """
    if not segments:
        raise EmptyEpisodeError(f"episode {key} has no segments")
    episode = EpisodeGraph(key=key, segment_count=len(segments))
    for segment in segments:
        episode.nodes.update(segment.nodes)
        for pair, weight in segment.edges.items():
            episode.edges[pair] = episode.edges.get(pair, 0.0) + weight
    return episode


def adjacency(graph) -> dict[CharacterId, set[CharacterId]]:
    """Neighbor sets for every node; isolated nodes map to empty sets."""
    neighbors: dict[CharacterId, set[CharacterId]] = {v: set() for v in graph.nodes}
    for a, b in graph.edges:
        neighbors.setdefault(a, set()).add(b)
        neighbors.setdefault(b, set()).add(a)
    return neighbors


def connected_components(graph) -> list[set[CharacterId]]:
    """Disjoint node sets joined by edge paths, singletons included.

    Components are listed in order of their smallest member, keeping the
    result stable under hash randomization.
    """
    neighbors = adjacency(graph)
    seen: set[CharacterId] = set()
    parts: list[set[CharacterId]] = []
    for start in sorted(graph.nodes):
        if start in seen:
            continue
        part = {start}
        seen.add(start)
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in neighbors[u]:
                if v not in seen:
                    seen.add(v)
                    part.add(v)
                    queue.append(v)
        parts.append(part)
    return parts
