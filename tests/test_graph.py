"""Graph construction and aggregation, and the traversals read off them."""

from __future__ import annotations

import math
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charnet import metrics
from charnet.errors import InvariantError
from charnet.graph import (
    EpisodeGraph,
    EpisodeKey,
    SegmentGraph,
    add_interaction,
    aggregate_segments,
    canonical_pair,
    normalize_character,
)
from charnet.metrics import connected_components, harmonic_vector

from oracles import exact_harmonic, floyd_warshall
from support import random_segments

KEY = EpisodeKey("demo", 1, 1)


def graph_from(edges: dict[tuple[str, str], float]) -> EpisodeGraph:
    g = EpisodeGraph(key=KEY)
    for (a, b), w in edges.items():
        add_interaction(g, a, b, w)
    return g


class TestNormalize:
    def test_trims_whitespace(self):
        assert normalize_character("  Jaime Lannister ") == "Jaime Lannister"

    def test_empty_after_trim_rejected(self):
        with pytest.raises(InvariantError):
            normalize_character("   ")

    def test_case_is_significant(self):
        assert normalize_character("JON") != normalize_character("Jon")


class TestAddInteraction:
    def test_single_insertion(self):
        g = SegmentGraph(index=0)
        add_interaction(g, "A", "B", 5.0)
        assert g.nodes == {"A", "B"}
        assert g.edges == {("A", "B"): 5.0}

    def test_additive_accumulation(self):
        g = SegmentGraph(index=0)
        add_interaction(g, "A", "B", 5.0)
        add_interaction(g, "A", "B", 2.5)
        assert g.edges[("A", "B")] == 7.5

    def test_orientation_insensitive(self):
        g = SegmentGraph(index=0)
        add_interaction(g, "A", "B", 7.5)
        add_interaction(g, "B", "A", 1.0)
        assert g.edges == {("A", "B"): 8.5}

    def test_self_loop_rejected(self):
        with pytest.raises(InvariantError, match="^self-loop on 'A'$"):
            add_interaction(SegmentGraph(index=0), "A", " A ", 1.0)

    @pytest.mark.parametrize("weight", [0.0, -1.0, math.nan, math.inf, -math.inf, 10**400, True, False, "1"])
    def test_bad_weight_rejected(self, weight):
        g = SegmentGraph(index=0)
        with pytest.raises(InvariantError, match=f"^edge 'A'-'B' needs a positive finite weight, got {weight!r}$"):
            add_interaction(g, "A", "B", weight)
        assert g.nodes == set() and g.edges == {}

    def test_merge_past_float_range_rejected(self):
        g = SegmentGraph(index=0)
        add_interaction(g, "A", "B", 1e308)
        with pytest.raises(InvariantError, match="^edge 'B'-'A': merged weights sum past the float range$"):
            add_interaction(g, "B", "A", 1e308)

    def test_int_weight_is_stored_as_float(self):
        g = SegmentGraph(index=0)
        add_interaction(g, "A", "B", 2)
        assert type(g.edges[("A", "B")]) is float
        add_interaction(g, "B", "A", 3)
        assert type(g.edges[("A", "B")]) is float and g.edges[("A", "B")] == 5.0

    def test_works_on_episode_graphs_too(self):
        g = EpisodeGraph(key=KEY)
        add_interaction(g, "A", "B", 2.0)
        assert g.edges == {("A", "B"): 2.0}


class TestAggregate:
    def test_weights_sum_across_segments(self):
        weights = [3.25, 1.5, 7.0, 0.25]
        segments = []
        for i, w in enumerate(weights):
            s = SegmentGraph(index=i)
            add_interaction(s, "A", "B", w)
            segments.append(s)
        g = aggregate_segments(segments, KEY)
        assert g.edges[("A", "B")] == pytest.approx(sum(weights), rel=1e-12)
        assert g.segment_count == 4

    def test_single_segment_is_identity(self):
        s = SegmentGraph(index=0)
        add_interaction(s, "A", "B", 3.0)
        add_interaction(s, "B", "C", 1.0)
        g = aggregate_segments([s], KEY)
        assert g.nodes == s.nodes
        assert g.edges == s.edges

    def test_two_pair_accumulation(self):
        layouts = [[("A", "B", 3.0)], [("B", "C", 2.0)], [("A", "B", 1.0)]]
        segments = []
        for i, layout in enumerate(layouts):
            s = SegmentGraph(index=i)
            for a, b, w in layout:
                add_interaction(s, a, b, w)
            segments.append(s)
        g = aggregate_segments(segments, KEY)
        assert g.edges == {("A", "B"): 4.0, ("B", "C"): 2.0}
        assert g.nodes == {"A", "B", "C"}

    def test_empty_segment_list_rejected(self):
        with pytest.raises(InvariantError, match=f"^episode {KEY} has no segments$"):
            aggregate_segments([], KEY)

    def test_sum_past_float_range_names_episode_and_pair(self):
        segments = [add_interaction(SegmentGraph(index=i), "A", "B", 1e308) for i in range(2)]
        with pytest.raises(InvariantError, match=f"episode {KEY}: weights of A-B"):
            aggregate_segments(segments, KEY)

    def test_isolated_nodes_survive_union(self):
        s = SegmentGraph(index=0, nodes={"Quiet One"})
        add_interaction(s, "A", "B", 1.0)
        g = aggregate_segments([s], KEY)
        assert "Quiet One" in g.nodes


# segment-list strategy: up to 6 segments of up to 8 edges over 8 characters
_pairs = st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(lambda t: t[0] != t[1])
_edge = st.tuples(_pairs, st.floats(min_value=0.001, max_value=500.0))
_segment = st.lists(_edge, min_size=0, max_size=8)
_episode = st.lists(_segment, min_size=1, max_size=6)


def _build_segments(layout) -> list[SegmentGraph]:
    segments = []
    for index, edges in enumerate(layout):
        s = SegmentGraph(index=index)
        for (ia, ib), w in edges:
            add_interaction(s, f"C{ia}", f"C{ib}", w)
        segments.append(s)
    return segments


def _total_weight(graph) -> float:
    return sum(graph.edges.values())


@settings(max_examples=150, deadline=None)
@given(_episode, st.randoms(use_true_random=False))
def test_aggregation_permutation_invariance(layout, rng):
    segments = _build_segments(layout)
    base = aggregate_segments(segments, KEY)
    shuffled = list(segments)
    rng.shuffle(shuffled)
    other = aggregate_segments(shuffled, KEY)
    assert other.nodes == base.nodes
    assert set(other.edges) == set(base.edges)
    for pair, w in base.edges.items():
        assert other.edges[pair] == pytest.approx(w, rel=1e-9)


@settings(max_examples=150, deadline=None)
@given(_episode, st.data())
def test_aggregation_split_merge_linearity(layout, data):
    segments = _build_segments(layout)
    whole = aggregate_segments(segments, KEY)
    cut = data.draw(st.integers(0, len(segments)))
    merged: dict[tuple[str, str], float] = {}
    nodes: set[str] = set()
    for part in (segments[:cut], segments[cut:]):
        if not part:
            continue
        g = aggregate_segments(part, KEY)
        nodes |= g.nodes
        for pair, w in g.edges.items():
            merged[pair] = merged.get(pair, 0.0) + w
    assert nodes == whole.nodes
    assert set(merged) == set(whole.edges)
    for pair, w in whole.edges.items():
        assert merged[pair] == pytest.approx(w, rel=1e-9)


@settings(max_examples=150, deadline=None)
@given(_episode)
def test_aggregation_conserves_total_weight(layout):
    segments = _build_segments(layout)
    whole = aggregate_segments(segments, KEY)
    assert _total_weight(whole) == pytest.approx(
        sum(_total_weight(s) for s in segments), rel=1e-9
    )


class TestBfs:
    """The metrics' BFS kernel, observed through harmonic_vector: every score
    must be the distance histogram's sum of count_k / k, correctly rounded."""

    def test_path_graph(self):
        g = graph_from({("A", "B"): 1.0, ("B", "C"): 1.0})
        assert harmonic_vector(g) == {"A": 1.5, "B": 2.0, "C": 1.5}

    def test_unreachable_component(self):
        g = graph_from({("A", "B"): 1.0, ("C", "D"): 1.0})
        assert harmonic_vector(g) == {"A": 1.0, "B": 1.0, "C": 1.0, "D": 1.0}

    def test_four_cycle(self):
        g = graph_from(
            {("A", "B"): 1.0, ("B", "C"): 1.0, ("C", "D"): 1.0, ("A", "D"): 1.0}
        )
        assert harmonic_vector(g) == {"A": 2.5, "B": 2.5, "C": 2.5, "D": 2.5}

    def test_isolated_node_is_no_source(self):
        g = graph_from({("A", "B"): 1.0})
        g.nodes.add("Z")
        assert harmonic_vector(g) == {"A": 1.0, "B": 1.0}

    def test_matches_floyd_warshall_on_random_graphs(self):
        rng = random.Random(99)
        for _ in range(60):
            g = EpisodeGraph(key=KEY)
            n = rng.randint(2, 10)
            names = [f"V{i}" for i in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.35:
                        add_interaction(g, names[i], names[j], 1.0)
            for v in names:
                g.nodes.add(v)
            assert harmonic_vector(g) == exact_harmonic(g.nodes, g.edges)


class TestComponents:
    def test_chain_plus_isolated(self):
        g = graph_from({("A", "B"): 1.0, ("B", "C"): 1.0})
        g.nodes.add("D")
        assert connected_components(g) == [{"A", "B", "C"}, {"D"}]

    def test_empty_graph(self):
        assert connected_components(EpisodeGraph(key=KEY)) == []

    def test_two_disjoint_clusters(self):
        g = graph_from(
            {
                ("Jaime", "Tyrion"): 2.0,
                ("Jaime", "Ros"): 1.0,
                ("Ros", "Tyrion"): 4.0,
                ("Jon", "Theon"): 3.0,
                ("Robb", "Theon"): 2.0,
            }
        )
        parts = connected_components(g)
        assert sorted(len(p) for p in parts) == [3, 3]

    def test_agrees_with_bfs_reachability(self):
        rng = random.Random(3)
        g = EpisodeGraph(key=KEY)
        names = [f"V{i}" for i in range(9)]
        for i in range(9):
            for j in range(i + 1, 9):
                if rng.random() < 0.2:
                    add_interaction(g, names[i], names[j], 1.0)
        for v in names:
            g.nodes.add(v)
        parts = connected_components(g)
        assert set().union(*parts) == g.nodes
        component_of = {v: i for i, part in enumerate(parts) for v in part}
        dist = floyd_warshall(g.nodes, g.edges)
        for u in names:
            for v in names:
                same = component_of[u] == component_of[v]
                assert same == (dist[(u, v)] < math.inf)

    def test_matches_networkx_on_random_graphs(self):
        rng = random.Random(17)
        for _ in range(300):
            n = rng.randint(0, 30)
            names = [f"V{i:02d}" for i in range(n)]
            rng.shuffle(names)  # insertion order must not matter
            g = EpisodeGraph(key=KEY)
            p = rng.choice([0.0, 0.03, 0.08, 0.2, 0.5])
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < p:
                        add_interaction(g, names[i], names[j], 1.0)
            g.nodes.update(v for v in names if rng.random() < 0.6)  # some isolated
            reference = nx.Graph(list(g.edges))
            reference.add_nodes_from(g.nodes)
            parts = connected_components(g)
            assert sorted(map(sorted, parts)) == sorted(map(sorted, nx.connected_components(reference)))
            assert [min(part) for part in parts] == sorted(min(part) for part in parts)

    def test_reads_no_hop_histogram(self, monkeypatch):
        calls = []
        hop_counts = metrics._hop_counts

        def counting(nbr, within, around):
            calls.append(within)
            return hop_counts(nbr, within, around)

        monkeypatch.setattr(metrics, "_hop_counts", counting)
        g = graph_from({("A", "B"): 1.0, ("B", "C"): 1.0, ("D", "E"): 1.0})
        g.nodes.add("F")
        assert connected_components(g) == [{"A", "B", "C"}, {"D", "E"}, {"F"}]
        assert calls == []
        harmonic_vector(g)  # the counter does see the metrics' traversal
        assert calls == [0b11111]


def test_canonical_pair_sorts():
    assert canonical_pair("B", "A") == ("A", "B")
    assert canonical_pair("A", "B") == ("A", "B")


def test_random_segments_fixture_aggregates():
    # the shared fixture builder must satisfy the aggregation contract
    segments = random_segments(random.Random(1))
    g = aggregate_segments(segments, KEY)
    assert g.segment_count == len(segments)
    assert _total_weight(g) == pytest.approx(
        sum(_total_weight(s) for s in segments), rel=1e-9
    )
