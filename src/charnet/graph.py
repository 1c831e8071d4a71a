"""Weighted undirected graphs for character interaction networks.

Two graph shapes share one edge representation: a SegmentGraph covers a
ten-scene window of an episode, and an EpisodeGraph is the weight-summed
union of all segments of that episode.  An EpisodeGraph is also the one
record of what loading found for its episode: its segment count, its
manifest warnings and its dropped duplicate files.  Edges live under
canonically ordered (sorted) name pairs so undirected lookups and
serialization are orientation-insensitive.  This module only builds graphs;
metrics answers every question about their shape, components included, on
one index.
"""

from __future__ import annotations

import math
import operator
import sys
from collections import namedtuple

from .errors import InvariantError

# Character identifiers are plain strings: trimmed, never empty.
CharacterId = str

Pair = tuple[CharacterId, CharacterId]

_FLOAT_MAX = sys.float_info.max


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


class EpisodeKey(namedtuple("EpisodeKey", "series season episode")):
    """Identity of one episode; sorts lexicographically by (series, season, episode)."""

    __slots__ = ()

    def __str__(self) -> str:
        return f"{self.series} {self.season} {self.episode}"


class _Record:
    """Value equality and a keyword repr over a class's __slots__, in slot
    order; unequal to any other type.  Defining __eq__ alone leaves records
    unhashable, as fits mutable values.  Records can be weakly referenced."""

    __slots__ = ("__weakref__",)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        fields = operator.attrgetter(*self.__slots__)
        return fields(self) == fields(other)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class SegmentGraph(_Record):
    """Character interactions within one ten-scene window of an episode."""

    __slots__ = ("index", "nodes", "edges")

    def __init__(
        self, index: int, nodes: set[CharacterId] | None = None, edges: dict[Pair, float] | None = None
    ) -> None:
        self.index = index
        self.nodes = set() if nodes is None else nodes
        self.edges = {} if edges is None else edges


class EpisodeGraph(_Record):
    """Weighted union of an episode's segment graphs, with its load facts.

    warnings are the episode's manifest warnings in manifest order, and
    duplicates_dropped counts the later files with the same key that the
    loader skipped.
    """

    __slots__ = ("key", "nodes", "edges", "segment_count", "warnings", "duplicates_dropped")

    def __init__(
        self,
        key: EpisodeKey,
        nodes: set[CharacterId] | None = None,
        edges: dict[Pair, float] | None = None,
        segment_count: int = 0,
        warnings: list[str] | None = None,
        duplicates_dropped: int = 0,
    ) -> None:
        self.key = key
        self.nodes = set() if nodes is None else nodes
        self.edges = {} if edges is None else edges
        self.segment_count = segment_count
        self.warnings = [] if warnings is None else warnings
        self.duplicates_dropped = duplicates_dropped


def add_interaction(graph, a: CharacterId, b: CharacterId, seconds: float):
    """Record `seconds` of conversation between characters a and b.

    Accepts either graph shape.  The edge is created at `seconds` or its
    existing weight is increased; both endpoints join the node set.
    """
    _add_edge(graph, normalize_character(a), normalize_character(b), seconds)
    return graph


def _check_weight(a: CharacterId, b: CharacterId, weight) -> None:
    """The weight rule of every edge: a positive finite int or float."""
    # bool is an int subtype but no weight; an int past the largest float
    # would not convert; nan fails both compares
    if isinstance(weight, bool) or not isinstance(weight, (int, float)) or not 0 < weight <= _FLOAT_MAX:
        raise InvariantError(f"edge {a!r}-{b!r} needs a positive finite weight, got {weight!r}")


def _add_edge(graph, a: CharacterId, b: CharacterId, seconds) -> Pair | None:
    """Add an edge between normalized names: the one home of the edge rules
    (no self-loops; weights and their sums positive finite floats).  ingest's
    parse loop stores inline only a new pair that these rules would store
    unchanged; every other edge, error and merge comes through here, its slow
    path.  Returns the pair if it already had an edge, now merged, else None."""
    if a == b:
        raise InvariantError(f"self-loop on {a!r}")
    _check_weight(a, b, seconds)
    pair = canonical_pair(a, b)
    graph.nodes.add(a)
    graph.nodes.add(b)
    old = graph.edges.get(pair)
    if old is None:
        graph.edges[pair] = float(seconds)
        return None
    total = old + seconds
    if total == math.inf:
        raise InvariantError(f"edge {a!r}-{b!r}: merged weights sum past the float range")
    graph.edges[pair] = total
    return pair


def aggregate_segments(segments: list[SegmentGraph], key: EpisodeKey) -> EpisodeGraph:
    """Sum segment edge weights into one episode graph.

    A pair occurs once per segment at most, so each pair's weight is summed
    in segment order whatever order a segment's edges are visited in, and
    the float sums are reproducible run to run.
    """
    if not segments:
        raise InvariantError(f"episode {key} has no segments")
    episode = EpisodeGraph(key=key, segment_count=len(segments))
    edges = episode.edges
    get = edges.get
    for segment in segments:
        episode.nodes.update(segment.nodes)
        for pair, weight in segment.edges.items():
            edges[pair] = get(pair, 0.0) + weight
    for (a, b), weight in edges.items():
        if weight == math.inf:  # positive finite weights can only overflow upward
            raise InvariantError(f"episode {key}: weights of {a}-{b} sum past the float range")
    return episode
