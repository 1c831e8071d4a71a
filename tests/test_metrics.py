"""Metric computations against brute-force and dense-matrix oracles."""

from __future__ import annotations

import itertools
import math
import random
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from charnet import metrics
from charnet.errors import ConvergenceError, DegenerateGraphError, DomainError, InvariantError
from charnet.graph import EpisodeGraph, EpisodeKey, add_interaction, canonical_pair
from charnet.metrics import (
    EFFICIENCY_MODES,
    METRICS,
    MetricsConfig,
    active_nodes,
    compute_episode_metrics,
    connected_components,
    degree_vector,
    density,
    efficiency_metric,
    eigenvector_vector,
    global_efficiency,
    harmonic_vector,
    node_strengths,
    summarize,
    transitivity,
)

from oracles import (
    brute_component_mean_efficiency,
    brute_degrees,
    brute_global_efficiency,
    brute_harmonic,
    brute_transitivity,
    dense_dominant_eigen,
    exact_efficiency,
    power_iteration_eigen,
    random_edge_set,
)

KEY = EpisodeKey("demo", 1, 1)


def graph_from(edges: dict[tuple[str, str], float], extra_nodes=()) -> EpisodeGraph:
    g = EpisodeGraph(key=KEY)
    for (a, b), w in edges.items():
        add_interaction(g, a, b, w)
    for v in extra_nodes:
        g.nodes.add(v)
    return g


TRIANGLE = {("A", "B"): 1.0, ("B", "C"): 1.0, ("A", "C"): 1.0}
PATH3 = {("A", "B"): 1.0, ("B", "C"): 1.0}
PATH4 = {("A", "B"): 1.0, ("B", "C"): 1.0, ("C", "D"): 1.0}
STAR3 = {("X", "a"): 1.0, ("X", "b"): 1.0, ("X", "c"): 1.0}
TWO_EDGES = {("A", "B"): 1.0, ("C", "D"): 1.0}


class TestActiveNodes:
    def test_isolated_excluded(self):
        assert active_nodes(graph_from({("A", "B"): 1.0}, extra_nodes=["C"])) == 2

    def test_empty(self):
        assert active_nodes(EpisodeGraph(key=KEY)) == 0

    def test_triangle_plus_isolates(self):
        assert active_nodes(graph_from(TRIANGLE, extra_nodes=["D", "E"])) == 3


class TestDensity:
    def test_complete_graph(self):
        assert density(graph_from(TRIANGLE)) == 1.0

    def test_path_on_four(self):
        assert density(graph_from(PATH4)) == 0.5

    def test_two_clusters(self):
        g = graph_from(
            {
                ("Jaime", "Tyrion"): 2.0,
                ("Jaime", "Ros"): 1.0,
                ("Ros", "Tyrion"): 4.0,
                ("Jon", "Theon"): 3.0,
                ("Robb", "Theon"): 2.0,
            }
        )
        assert density(g) == pytest.approx(1.0 / 3.0)

    def test_isolates_do_not_deflate(self):
        with_isolates = graph_from(TRIANGLE, extra_nodes=["X", "Y"])
        assert density(with_isolates) == 1.0

    def test_degenerate(self):
        with pytest.raises(DegenerateGraphError):
            density(EpisodeGraph(key=KEY))


class TestStrength:
    def test_sums_incident_weights(self):
        vec = node_strengths(graph_from({("A", "B"): 5.0, ("B", "C"): 3.0}))
        assert vec == {"A": 5.0, "B": 8.0, "C": 3.0}
        top, spread = summarize(vec)
        assert top == 8.0
        assert spread == pytest.approx(2.0548, abs=1e-4)

    def test_single_edge_both_ends(self):
        vec = node_strengths(graph_from({("A", "B"): 7.5}))
        assert vec == {"A": 7.5, "B": 7.5}

    def test_defined_on_active_set_only(self):
        vec = node_strengths(graph_from({("A", "B"): 1.0}, extra_nodes=["Mute"]))
        assert "Mute" not in vec


class TestGlobalEfficiency:
    def test_k2(self):
        assert global_efficiency(graph_from({("A", "B"): 9.0})) == 1.0

    def test_path3(self):
        assert global_efficiency(graph_from(PATH3)) == pytest.approx(5.0 / 6.0)

    def test_disconnected_pairs_contribute_zero(self):
        assert global_efficiency(graph_from(TWO_EDGES)) == pytest.approx(1.0 / 3.0)

    def test_isolated_node_included_when_present(self):
        g = graph_from({("A", "B"): 1.0}, extra_nodes=["C"])
        # 6 ordered pairs, 2 finite at distance 1
        assert global_efficiency(g) == pytest.approx(1.0 / 3.0)

    def test_below_two_nodes(self):
        assert global_efficiency(EpisodeGraph(key=KEY)) == 0.0


class TestEfficiencyMetric:
    def test_triangle_component_mean(self):
        assert efficiency_metric(graph_from(TRIANGLE)) == 1.0

    def test_triangle_neighborhood(self):
        assert efficiency_metric(graph_from(TRIANGLE), mode="neighborhood") == 1.0

    def test_two_components(self):
        g = graph_from({("A", "B"): 1.0, ("P", "Q"): 1.0, ("Q", "R"): 1.0})
        assert efficiency_metric(g) == pytest.approx((1.0 + 5.0 / 6.0) / 2.0)

    def test_star_neighborhood_is_zero(self):
        assert efficiency_metric(graph_from(STAR3), mode="neighborhood") == 0.0

    def test_singleton_components_excluded(self):
        g = graph_from(PATH3, extra_nodes=["Hermit"])
        assert efficiency_metric(g) == pytest.approx(5.0 / 6.0)

    def test_no_edges_degenerate(self):
        with pytest.raises(DegenerateGraphError):
            efficiency_metric(graph_from({}, extra_nodes=["A", "B"]))

    def test_no_edges_degenerate_neighborhood(self):
        with pytest.raises(DegenerateGraphError, match="^no active nodes$"):
            efficiency_metric(graph_from({}, extra_nodes=["A", "B"]), mode="neighborhood")

    def test_unknown_mode(self):
        with pytest.raises(DomainError, match="^unknown efficiency mode 'global'$"):
            efficiency_metric(graph_from(TRIANGLE), mode="global")

    def test_matches_brute_oracle(self):
        rng = random.Random(4242)
        for _ in range(80):
            _, edges = random_edge_set(rng)
            if not edges:
                continue
            g = graph_from(edges)
            expected = brute_component_mean_efficiency(edges)
            assert efficiency_metric(g) == pytest.approx(expected, abs=1e-12)


class TestTransitivity:
    def test_triangle(self):
        assert transitivity(graph_from(TRIANGLE)) == 1.0

    def test_path_has_triads_but_no_triangles(self):
        assert transitivity(graph_from(PATH3)) == 0.0

    def test_triangle_with_pendant(self):
        edges = dict(TRIANGLE)
        edges[("C", "D")] = 1.0
        assert transitivity(graph_from(edges)) == pytest.approx(0.6)

    def test_no_triads(self):
        assert transitivity(graph_from({("A", "B"): 1.0})) == 0.0


class TestDegree:
    def test_star(self):
        vec = degree_vector(graph_from(STAR3))
        assert vec == {"X": 3.0, "a": 1.0, "b": 1.0, "c": 1.0}

    def test_triangle(self):
        assert set(degree_vector(graph_from(TRIANGLE)).values()) == {2.0}


class TestHarmonic:
    def test_star(self):
        scores = harmonic_vector(graph_from(STAR3))
        assert scores["X"] == pytest.approx(3.0)
        assert scores["a"] == pytest.approx(2.0)

    def test_two_components_each_pair(self):
        scores = harmonic_vector(graph_from(TWO_EDGES))
        assert all(v == pytest.approx(1.0) for v in scores.values())

    def test_path4_end(self):
        scores = harmonic_vector(graph_from(PATH4))
        assert scores["A"] == pytest.approx(1.0 + 0.5 + 1.0 / 3.0)

    def test_path6_exact(self):
        # on a path, an all-sources round that updated balls in place would
        # let a node read a neighbor's ball already grown this round and
        # count far nodes one hop too close
        names = "ABCDEF"
        g = graph_from({(a, b): 1.0 for a, b in zip(names, names[1:])})
        scores = harmonic_vector(g)
        for i, v in enumerate(names):
            exact = sum(Fraction(1, abs(i - j)) for j in range(len(names)) if j != i)
            assert scores[v] == float(exact), v
        pairs = sum(Fraction(2 * (len(names) - k), k) for k in range(1, len(names)))
        assert efficiency_metric(g) == float(pairs) / 30
        assert global_efficiency(g) == float(pairs) / 30


_PATH10 = [f"N{i:02d}" for i in range(10)]


@st.composite
def _shaped_edges(draw):
    """Edges of a star, path, complete graph or random bipartite graph."""
    kind = draw(st.sampled_from(["star", "path", "complete", "bipartite"]))
    names = [f"N{i:02d}" for i in range(draw(st.integers(2, 16)))]
    if kind == "star":
        return [(names[0], v) for v in names[1:]]
    if kind == "path":
        return list(zip(names, names[1:]))
    if kind == "complete":
        return list(itertools.combinations(names, 2))
    k = draw(st.integers(1, len(names) - 1))
    cross = [(a, b) for a in names[:k] for b in names[k:]]
    return draw(st.lists(st.sampled_from(cross), min_size=1, unique=True))


class TestEigenvector:
    def test_k2(self):
        scores = eigenvector_vector(graph_from({("A", "B"): 4.0}))
        assert scores["A"] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-9)
        assert scores["B"] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-9)

    def test_triangle_symmetry(self):
        scores = eigenvector_vector(graph_from(TRIANGLE))
        for v in scores.values():
            assert v == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-9)

    def test_star_analytic(self):
        scores = eigenvector_vector(graph_from(STAR3))
        assert scores["X"] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-8)
        for leaf in "abc":
            assert scores[leaf] == pytest.approx(1.0 / math.sqrt(6.0), abs=1e-8)

    def test_weights_are_ignored(self):
        light = eigenvector_vector(graph_from(STAR3))
        heavy = eigenvector_vector(
            graph_from({pair: w * 250.0 for pair, w in STAR3.items()})
        )
        assert light == heavy

    def test_no_edges(self):
        with pytest.raises(DegenerateGraphError, match="^eigenvector centrality needs at least one edge$"):
            eigenvector_vector(graph_from({}, extra_nodes=["A"]))

    def test_iteration_cap(self):
        with pytest.raises(ConvergenceError, match="iterations"):
            eigenvector_vector(graph_from(PATH3), max_iter=1)

    @pytest.mark.parametrize(
        "tol, max_iter, message",
        [
            (-1.0, 10000, "eigen tol must be a finite number > 0, got -1"),
            (0.0, 10000, "eigen tol must be a finite number > 0, got 0"),
            (math.nan, 10000, "eigen tol must be a finite number > 0, got nan"),
            (math.inf, 10000, "eigen tol must be a finite number > 0, got inf"),
            (1e-10, 0, "eigen max iterations must be at least 1, got 0"),
            (1e-10, -3, "eigen max iterations must be at least 1, got -3"),
        ],
    )
    @pytest.mark.parametrize(
        "compute, edges",
        [
            (eigenvector_vector, PATH3),
            (eigenvector_vector, {}),  # the setting is reported, not the missing edge
            (
                lambda g, tol, max_iter: compute_episode_metrics(g, MetricsConfig("component-mean", tol, max_iter)),
                PATH3,
            ),
        ],
        ids=["eigenvector_vector", "eigenvector_vector-edgeless", "compute_episode_metrics"],
    )
    def test_setting_outside_the_rule_raises(self, compute, edges, tol, max_iter, message):
        # a row never turns a bad setting into a warning: it is not a ConvergenceError
        with pytest.raises(DomainError) as refused:
            compute(graph_from(edges), tol, max_iter)
        assert str(refused.value) == message

    def test_bipartite_converges(self):
        # 4-cycle is bipartite; the +-lambda pair must not oscillate
        cycle = {("A", "B"): 1.0, ("B", "C"): 1.0, ("C", "D"): 1.0, ("A", "D"): 1.0}
        scores = eigenvector_vector(graph_from(cycle))
        for v in scores.values():
            assert v == pytest.approx(0.5, abs=1e-9)

    def test_far_leaf_against_dense_solver(self):
        # a 30-node path hanging off a triangle takes about 400 steps to meet
        # tol=1e-15, so the walk counts are shifted about 10 times; the far
        # leaf scores ~1.9e-7, and with too few bits kept per shift the
        # iteration never meets the tolerance
        path = ["K0"] + [f"T{i:02d}" for i in range(1, 31)]
        edges = {pair: 1.0 for pair in itertools.combinations(["K0", "K1", "K2"], 2)}
        edges.update({pair: 1.0 for pair in zip(path, path[1:])})
        names, _, _, _, dense_vec = dense_dominant_eigen(edges)
        scores = eigenvector_vector(graph_from(edges), tol=1e-15)
        for i, v in enumerate(names):
            assert scores[v] == pytest.approx(dense_vec[i], abs=1e-13), v
        leaf = names.index(path[-1])
        assert scores[path[-1]] == pytest.approx(dense_vec[leaf], rel=1e-6)

    @settings(max_examples=80, deadline=None)
    @given(
        _shaped_edges(),
        st.sampled_from([0.5, 1e-3, 1e-10, 1e-13, 1e-14, 1e-15]),
        st.sampled_from([1, 2, 3, 10, 10000]),
    )
    @example([("A", "B"), ("B", "C")], 1e-10, 1)  # the cap reached on the first step
    @example(list(itertools.combinations("ABCD", 2)), 0.5, 10000)  # a fixed point at once
    # 134 steps, whose counts cross 120 bits twice and are shifted
    @example(list(zip(_PATH10, _PATH10[1:])), 1e-15, 10000)
    def test_equals_full_delta_loop(self, edges, tol, max_iter):
        # the watched coordinate, read under hypot norms, only skips steps
        # the full delta check would not stop at, even at tolerances near
        # the gate's slack, so scores and error text match exactly
        g = graph_from({pair: 1.0 for pair in edges})
        try:
            expected = power_iteration_eigen(edges, tol, max_iter)
        except ConvergenceError as exc:
            with pytest.raises(ConvergenceError) as raised:
                eigenvector_vector(g, tol, max_iter)
            assert str(raised.value) == str(exc)
        else:
            assert eigenvector_vector(g, tol, max_iter) == expected


class TestSummarize:
    def test_max_and_population_std(self):
        vec = {"a": 5.0, "b": 8.0, "c": 3.0}
        top, spread = summarize(vec)
        assert top == 8.0
        mean = 16.0 / 3.0
        expected = math.sqrt(((5 - mean) ** 2 + (8 - mean) ** 2 + (3 - mean) ** 2) / 3.0)
        assert spread == pytest.approx(expected, rel=1e-12)

    def test_constant_vector(self):
        assert summarize({"a": 4.0, "b": 4.0}) == (4.0, 0.0)

    def test_constant_vectors_have_exactly_zero_std(self):
        # the fsum mean of n equal floats can miss them by an ulp
        rng = random.Random(20261018)
        for _ in range(2000):
            value = rng.uniform(0.0, 1.0)
            scores = {f"v{i}": value for i in range(rng.randint(1, 40))}
            assert summarize(scores) == (value, 0.0), scores

    def test_single_entry(self):
        assert summarize({"a": 2.5}) == (2.5, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(DegenerateGraphError, match="^cannot summarize an empty score vector$"):
            summarize({})


class TestComputeEpisodeMetrics:
    def test_k2_composite(self):
        row = compute_episode_metrics(graph_from({("A", "B"): 10.0}))
        assert row.active_nodes == 2
        assert row.density == 1.0
        assert row.transitivity == 0.0
        assert row.efficiency == 1.0
        assert (row.strength_max, row.strength_std) == (10.0, 0.0)
        assert (row.degree_max, row.degree_std) == (1, 0.0)
        assert (row.harmonic_max, row.harmonic_std) == (1.0, 0.0)
        assert row.eigen_max == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-9)
        assert row.eigen_std == pytest.approx(0.0, abs=1e-9)
        assert row.warnings == []

    def test_uniform_triangle(self):
        row = compute_episode_metrics(graph_from(TRIANGLE))
        assert row.density == 1.0
        assert row.transitivity == 1.0
        assert row.eigen_std == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize(
        "edges",
        [
            list(itertools.combinations("ABCDEF", 2)),  # K6
            list(zip("ABCDE", "BCDEA")),  # C5
        ],
        ids=["K6", "C5"],
    )
    def test_vertex_transitive_eigen_std_is_zero(self, edges):
        # every node scores the same float, so the std is 0, not an ulp of the mean
        row = compute_episode_metrics(graph_from({pair: 1.0 for pair in edges}))
        assert row.eigen_std == 0.0

    def test_empty_graph_all_zero_with_warning(self):
        row = compute_episode_metrics(EpisodeGraph(key=KEY))
        assert row.active_nodes == 0
        for attr in (
            "density",
            "efficiency",
            "transitivity",
            "strength_max",
            "strength_std",
            "degree_max",
            "degree_std",
            "harmonic_max",
            "harmonic_std",
            "eigen_max",
            "eigen_std",
        ):
            assert getattr(row, attr) == 0
        assert any("DegenerateGraph" in w for w in row.warnings)

    @pytest.mark.parametrize(
        "edges",
        [{("A", "B"): 1e308, ("A", "C"): 1e308}, {("A", "B"): 1e160, ("B", "C"): 1.0}],
    )
    def test_strength_overflow_becomes_warning(self, edges):
        row = compute_episode_metrics(graph_from(edges))
        assert (row.strength_max, row.strength_std) == (0.0, 0.0)
        assert row.warnings == ["strength: summary overflows a float"]

    def test_equal_strengths_near_float_limit_need_no_sum(self):
        # summarize takes no mean of equal values, so no partial sum can overflow
        row = compute_episode_metrics(graph_from({("A", "B"): 1e308}))
        assert (row.strength_max, row.strength_std) == (1e308, 0.0)
        assert row.warnings == []

    @pytest.mark.parametrize(
        "config, message",
        [
            # the mode is checked before the eigen settings
            (MetricsConfig("nosuch", math.nan, 0), "unknown efficiency mode 'nosuch'"),
            (MetricsConfig("neighborhood", 1e-10, 0), "eigen max iterations must be at least 1, got 0"),
        ],
        ids=["mode", "eigen"],
    )
    @pytest.mark.parametrize("edges, extra", [(PATH3, ()), ({}, ("A",))], ids=["edge", "one-node-edgeless"])
    def test_bad_setting_raises_whatever_the_graph(self, edges, extra, config, message):
        # a graph with no active node returns a warning row, but only for a good config
        with pytest.raises(DomainError) as refused:
            compute_episode_metrics(graph_from(edges, extra_nodes=extra), config)
        assert str(refused.value) == message

    def test_convergence_failure_becomes_warning(self):
        row = compute_episode_metrics(
            graph_from(PATH3), MetricsConfig(eigen_max_iter=1)
        )
        assert row.eigen_max == 0.0
        assert any("eigenvector" in w for w in row.warnings)


class TestSelfLoop:
    """Only a hand-built graph can hold a pair of one node; every metric
    refuses it with a CharnetError instead of dividing by zero."""

    GRAPHS = [{("A", "A"): 1.0}, {("A", "A"): 1.0, ("A", "B"): 2.0}]

    @staticmethod
    def _looped(edges) -> EpisodeGraph:
        return EpisodeGraph(key=KEY, nodes={v for pair in edges for v in pair}, edges=dict(edges))

    @pytest.mark.parametrize("edges", GRAPHS)
    @pytest.mark.parametrize("mode", EFFICIENCY_MODES)
    def test_row_raises(self, edges, mode):
        with pytest.raises(InvariantError, match="^self-loop on 'A'$"):
            compute_episode_metrics(self._looped(edges), MetricsConfig(efficiency_mode=mode))

    FUNCTIONS = [
        active_nodes,
        density,
        node_strengths,
        global_efficiency,
        efficiency_metric,
        lambda g: efficiency_metric(g, mode="neighborhood"),
        transitivity,
        degree_vector,
        harmonic_vector,
        eigenvector_vector,
        connected_components,
    ]

    @pytest.mark.parametrize("edges", GRAPHS)
    @pytest.mark.parametrize("function", FUNCTIONS)
    def test_every_metric_function_raises(self, edges, function):
        with pytest.raises(InvariantError, match="^self-loop on 'A'$"):
            function(self._looped(edges))


class TestUnsortedPair:
    """Only a hand-built graph can hold a pair out of sorted order, alone or
    beside its sorted twin; every metric refuses it with an InvariantError
    instead of counting one neighbor twice."""

    GRAPHS = [{("B", "A"): 1.0}, {("A", "B"): 1.0, ("B", "A"): 1.0, ("B", "C"): 1.0}]

    @pytest.mark.parametrize("edges", GRAPHS)
    @pytest.mark.parametrize("mode", EFFICIENCY_MODES)
    def test_row_raises(self, edges, mode):
        with pytest.raises(InvariantError, match="edge 'B'-'A' is not stored as a sorted pair"):
            compute_episode_metrics(TestSelfLoop._looped(edges), MetricsConfig(efficiency_mode=mode))

    @pytest.mark.parametrize("edges", GRAPHS)
    @pytest.mark.parametrize("function", TestSelfLoop.FUNCTIONS)
    def test_every_metric_function_raises(self, edges, function):
        with pytest.raises(InvariantError):
            function(TestSelfLoop._looped(edges))


class TestBadWeight:
    """Only a hand-built graph can hold a weight that is not a positive finite
    number; every metric function refuses it with the message
    add_interaction gives, though only strength reads weights."""

    @pytest.mark.parametrize("weight", [-5.0, 0.0, math.nan, math.inf, True])
    def test_strength_and_row_raise(self, weight):
        with pytest.raises(InvariantError) as refused:
            add_interaction(EpisodeGraph(key=KEY), "A", "B", weight)
        message = f"edge 'A'-'B' needs a positive finite weight, got {weight!r}"
        assert str(refused.value) == message
        graph = TestSelfLoop._looped({("A", "B"): weight, ("B", "C"): 2.0})
        for compute in (*TestSelfLoop.FUNCTIONS, compute_episode_metrics):
            with pytest.raises(InvariantError) as refused:
                compute(graph)
            assert str(refused.value) == message, compute


class TestMissingEndpoint:
    """Only a hand-built graph can hold an edge whose endpoint is not one of
    its nodes; every metric function refuses it instead of counting fewer
    nodes than it reaches, which put global efficiency above 1."""

    @pytest.mark.parametrize("function", [*TestSelfLoop.FUNCTIONS, compute_episode_metrics])
    def test_every_metric_function_raises(self, function):
        graph = EpisodeGraph(KEY, nodes={"A", "B"}, edges={("A", "B"): 1.0, ("B", "C"): 1.0})
        with pytest.raises(InvariantError, match="^edge 'B'-'C' has an endpoint missing from the nodes$"):
            function(graph)


class TestSharedIndex:
    """compute_episode_metrics builds one index per row and passes it to the
    public functions it calls; the graph itself is never indexed again."""

    @pytest.mark.parametrize("mode", EFFICIENCY_MODES)
    def test_one_index_per_row(self, monkeypatch, mode):
        built = []
        init = metrics._Index.__init__

        def counting(self, graph):
            built.append(graph)
            init(self, graph)

        monkeypatch.setattr(metrics._Index, "__init__", counting)
        for edges in (TRIANGLE, PATH4, STAR3, TWO_EDGES):
            built.clear()
            g = graph_from(edges)
            row = compute_episode_metrics(g, MetricsConfig(efficiency_mode=mode))
            assert row.warnings == []
            assert built == [g], edges

    def test_rows_from_threads_match_rows_in_turn(self):
        rng = random.Random(19)
        graphs = [graph_from(random_edge_set(rng, 2, 30)[1]) for _ in range(48)]
        expected = [compute_episode_metrics(g) for g in graphs]
        with ThreadPoolExecutor(max_workers=4) as pool:
            assert list(pool.map(compute_episode_metrics, graphs)) == expected

    @pytest.mark.parametrize("mode", EFFICIENCY_MODES)
    def test_one_whole_graph_traversal_per_row(self, monkeypatch, mode):
        whole = []
        hop_counts = metrics._hop_counts

        def counting(nbr, within, around):
            whole.append(within == (1 << len(nbr)) - 1)
            return hop_counts(nbr, within, around)

        monkeypatch.setattr(metrics, "_hop_counts", counting)
        for edges in (TRIANGLE, PATH4, STAR3, TWO_EDGES):
            whole.clear()
            row = compute_episode_metrics(graph_from(edges), MetricsConfig(efficiency_mode=mode))
            assert row.warnings == []
            assert whole.count(True) == 1, edges
            if mode == "component-mean":  # harmonic and efficiency share that one
                assert whole == [True], edges

    def _assert_fresh_after_edge(self, g):
        add_interaction(g, "A", "C", 1.0)
        fresh = graph_from(g.edges)
        assert harmonic_vector(g) == harmonic_vector(fresh)
        assert transitivity(g) == transitivity(fresh)

    def test_no_stale_index_after_row(self):
        g = graph_from(PATH4)
        compute_episode_metrics(g)
        self._assert_fresh_after_edge(g)

    def test_no_stale_index_after_row_raises(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("eigen broke")

        g = graph_from(PATH4)
        with monkeypatch.context() as patch:
            patch.setattr(metrics, "eigenvector_vector", broken)
            with pytest.raises(RuntimeError):
                compute_episode_metrics(g)
        self._assert_fresh_after_edge(g)


# random graphs on up to 20 nodes with positive weights
_pair20 = st.tuples(st.integers(0, 19), st.integers(0, 19)).filter(lambda t: t[0] != t[1])
_edges20 = st.lists(
    st.tuples(_pair20, st.floats(min_value=0.01, max_value=500.0)),
    min_size=1,
    max_size=60,
)


def _graph_from_layout(layout) -> EpisodeGraph:
    g = EpisodeGraph(key=KEY)
    for (ia, ib), w in layout:
        add_interaction(g, f"P{ia:02d}", f"P{ib:02d}", w)
    return g


@settings(max_examples=80, deadline=None)
@given(_edges20)
def test_bounded_metrics_stay_in_unit_interval(layout):
    g = _graph_from_layout(layout)
    row = compute_episode_metrics(g)
    assert 0.0 <= row.density <= 1.0
    assert 0.0 <= row.efficiency <= 1.0
    assert 0.0 <= row.transitivity <= 1.0
    assert 0.0 <= row.eigen_max <= 1.0
    assert row.strength_std >= 0.0
    assert row.degree_std >= 0.0
    assert row.harmonic_std >= 0.0
    assert row.eigen_std >= 0.0
    assert row.degree_max <= row.active_nodes - 1
    neighborhood = efficiency_metric(g, mode="neighborhood")
    assert 0.0 <= neighborhood <= 1.0


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(_pair20, st.floats(min_value=5e-324, max_value=1.7e308)), max_size=40),
    st.sampled_from(EFFICIENCY_MODES),
    st.sampled_from([1, 3, 10000]),
)
def test_rows_warn_only_on_strength_and_eigen(layout, mode, max_iter):
    # a row with an edge has two active nodes, so only a strength sum past the
    # float range or an eigen iteration short of its tolerance can fail
    g = EpisodeGraph(key=KEY, nodes={"Hermit"})
    for (ia, ib), w in layout:
        a, b = f"P{ia:02d}", f"P{ib:02d}"
        g.nodes.update((a, b))
        g.edges[canonical_pair(a, b)] = w
    row = compute_episode_metrics(g, MetricsConfig(mode, 1e-10, max_iter))
    allowed = ("strength: ", "eigenvector: ") if g.edges else ("DegenerateGraph: ",)
    assert all(w.startswith(allowed) for w in row.warnings), row.warnings


@settings(max_examples=60, deadline=None)
@given(_edges20, st.floats(min_value=0.001, max_value=900.0))
def test_scale_invariance(layout, factor):
    g = _graph_from_layout(layout)
    scaled = EpisodeGraph(key=KEY, nodes=set(g.nodes))
    for pair, w in g.edges.items():
        scaled.edges[pair] = w * factor
    base = compute_episode_metrics(g)
    other = compute_episode_metrics(scaled)
    assert other.density == base.density
    assert other.efficiency == base.efficiency
    assert other.transitivity == base.transitivity
    assert other.degree_max == base.degree_max
    assert other.degree_std == base.degree_std
    assert other.harmonic_max == base.harmonic_max
    assert other.harmonic_std == base.harmonic_std
    assert other.eigen_max == base.eigen_max
    assert other.eigen_std == base.eigen_std
    assert other.strength_max == pytest.approx(base.strength_max * factor, rel=1e-12)
    assert other.strength_std == pytest.approx(base.strength_std * factor, rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(_edges20)
def test_neighbor_lists_match_bitsets(layout):
    index = metrics._Index(_graph_from_layout(layout))
    for around, mask in zip(index.adj, index.nbr):
        assert len(around) == mask.bit_count()
        assert set(around) == set(metrics._bits(mask))


@settings(max_examples=60, deadline=None)
@given(_edges20, st.randoms(use_true_random=False), st.sampled_from([3, 10000]))
def test_edge_order_invariance(layout, rng, max_iter):
    # neighbor lists follow edge order; no column, nor any warning, may show it
    g = _graph_from_layout(layout)
    pairs = list(g.edges.items())
    rng.shuffle(pairs)
    reordered = EpisodeGraph(key=KEY, nodes=set(g.nodes), edges=dict(pairs))
    for mode in EFFICIENCY_MODES:
        config = MetricsConfig(mode, 1e-10, max_iter)
        assert compute_episode_metrics(reordered, config) == compute_episode_metrics(g, config), mode


def _relabeled(g: EpisodeGraph, rng) -> tuple[dict[str, str], EpisodeGraph]:
    """g with its nodes renamed by a random permutation of their names."""
    names = sorted(g.nodes)
    renamed = names[:]
    rng.shuffle(renamed)
    mapping = dict(zip(names, renamed))
    relabeled = EpisodeGraph(key=KEY)
    for (a, b), w in g.edges.items():
        add_interaction(relabeled, mapping[a], mapping[b], w)
    return mapping, relabeled


@settings(max_examples=60, deadline=None)
@given(_edges20, st.randoms(use_true_random=False))
def test_label_invariance(layout, rng):
    # names decide no summation order: every column comes back bit-equal
    g = _graph_from_layout(layout)
    _, relabeled = _relabeled(g, rng)
    for mode in EFFICIENCY_MODES:
        config = MetricsConfig(efficiency_mode=mode)
        base = compute_episode_metrics(g, config)
        other = compute_episode_metrics(relabeled, config)
        for column in METRICS:
            assert getattr(other, column.attr) == getattr(base, column.attr), (mode, column.attr)


@settings(max_examples=60, deadline=None)
@given(_edges20, st.randoms(use_true_random=False))
def test_eigenvector_scores_follow_relabelling(layout, rng):
    # every node keeps its exact score under its new name
    g = _graph_from_layout(layout)
    mapping, relabeled = _relabeled(g, rng)
    scores = eigenvector_vector(g)
    assert eigenvector_vector(relabeled) == {mapping[v]: x for v, x in scores.items()}


# a connected graph whose per-node reciprocal sums, rounded one by one and
# then added, miss the once-rounded pooled sum by an ulp
_ULP_APART = [
    ((6, 8), 1.0), ((1, 5), 1.0), ((5, 7), 1.0), ((3, 7), 1.0), ((6, 2), 1.0),
    ((7, 0), 1.0), ((2, 7), 1.0), ((1, 2), 1.0), ((6, 0), 1.0), ((3, 0), 1.0),
    ((7, 5), 1.0), ((6, 7), 1.0), ((3, 8), 1.0), ((4, 3), 1.0), ((4, 5), 1.0),
    ((3, 5), 1.0), ((6, 5), 1.0), ((2, 8), 1.0),
]


@settings(max_examples=80, deadline=None)
@given(_edges20, st.one_of(st.just([]), _edges20))
@example(_ULP_APART, [])
def test_efficiency_bit_equal_to_exact_oracle(layout, second):
    # a second block on its own names keeps disconnected graphs common
    g = _graph_from_layout(layout)
    for (ia, ib), w in second:
        add_interaction(g, f"Q{ia:02d}", f"Q{ib:02d}", w)
    for mode in EFFICIENCY_MODES:
        assert efficiency_metric(g, mode) == exact_efficiency(list(g.edges), mode), mode


@settings(max_examples=60, deadline=None)
@given(_edges20)
def test_episode_row_bit_equal_to_public_functions(layout):
    # compute_episode_metrics shares one index and one traversal between
    # columns; each column must still equal its public function bit for bit
    g = _graph_from_layout(layout)
    for mode in EFFICIENCY_MODES:
        row = compute_episode_metrics(g, MetricsConfig(efficiency_mode=mode))
        assert row.efficiency == efficiency_metric(g, mode), mode
    assert row.active_nodes == active_nodes(g)
    assert row.density == density(g)
    assert row.transitivity == transitivity(g)
    assert (row.strength_max, row.strength_std) == summarize(node_strengths(g))
    degree_max, degree_std = summarize(degree_vector(g))
    assert (row.degree_max, row.degree_std) == (int(degree_max), degree_std)
    assert (row.harmonic_max, row.harmonic_std) == summarize(harmonic_vector(g))
    assert (row.eigen_max, row.eigen_std) == summarize(eigenvector_vector(g))
    assert row.warnings == []


@settings(max_examples=80, deadline=None)
@given(_edges20)
def test_topology_matches_networkx(layout):
    g = _graph_from_layout(layout)
    reference = nx.Graph(list(g.edges))
    harmonic = harmonic_vector(g)
    for node, expected in nx.harmonic_centrality(reference).items():
        assert harmonic[node] == pytest.approx(expected, abs=1e-9)
    parts = [reference.subgraph(c) for c in nx.connected_components(reference)]
    assert efficiency_metric(g) == pytest.approx(
        sum(nx.global_efficiency(part) for part in parts) / len(parts), abs=1e-9
    )
    assert efficiency_metric(g, mode="neighborhood") == pytest.approx(
        nx.local_efficiency(reference), abs=1e-9
    )
    assert transitivity(g) == pytest.approx(nx.transitivity(reference), abs=1e-9)


def test_oracle_equivalence_on_small_graphs():
    rng = random.Random(20260816)
    checked = 0
    for _ in range(120):
        _, edges = random_edge_set(rng, min_nodes=2, max_nodes=8)
        if not edges:
            continue
        g = graph_from(edges)
        checked += 1
        assert transitivity(g) == pytest.approx(
            brute_transitivity(g.nodes, edges), abs=1e-6
        )
        assert global_efficiency(g) == pytest.approx(
            brute_global_efficiency(g.nodes, edges), abs=1e-6
        )
        harmonic = harmonic_vector(g)
        for node, expected in brute_harmonic(edges).items():
            assert harmonic[node] == pytest.approx(expected, abs=1e-6)
        degrees = degree_vector(g)
        for node, expected in brute_degrees(edges).items():
            assert degrees[node] == expected
    assert checked >= 100


def test_eigenvector_against_dense_solver():
    rng = random.Random(777)
    compared = 0
    for _ in range(120):
        _, edges = random_edge_set(rng, min_nodes=2, max_nodes=8)
        if not edges:
            continue
        names, a, lam1, lam2, dense_vec = dense_dominant_eigen(edges)
        scores = eigenvector_vector(graph_from(edges))
        x = [scores[v] for v in names]
        norm = math.sqrt(sum(v * v for v in x))
        assert norm == pytest.approx(1.0, abs=1e-9)
        assert all(v >= 0.0 for v in x)
        # Rayleigh quotient and fixed-point residual
        ax = [sum(a[i][j] * x[j] for j in range(len(x))) for i in range(len(x))]
        lam = sum(x[i] * ax[i] for i in range(len(x)))
        residual = max(abs(ax[i] - lam * x[i]) for i in range(len(x)))
        assert residual < 1e-8
        assert lam > 0.0
        if lam1 - lam2 > 0.05:  # dominant eigenvector is well separated: compare entrywise
            compared += 1
            for i, v in enumerate(x):
                assert v == pytest.approx(max(dense_vec[i], 0.0), abs=1e-6)
    assert compared >= 60


def test_adding_edge_never_hurts_density_or_harmonic():
    rng = random.Random(31337)
    tried = 0
    while tried < 50:
        _, edges = random_edge_set(rng, min_nodes=4, max_nodes=8)
        if not edges:
            continue
        g = graph_from(edges)
        active = sorted({v for pair in g.edges for v in pair})
        candidates = [
            (a, b)
            for i, a in enumerate(active)
            for b in active[i + 1 :]
            if (a, b) not in g.edges
        ]
        if not candidates:
            continue
        tried += 1
        a, b = rng.choice(candidates)
        before_density = density(g)
        before_harmonic = harmonic_vector(g)
        add_interaction(g, a, b, 1.0)
        assert density(g) > before_density
        after_harmonic = harmonic_vector(g)
        for node, value in before_harmonic.items():
            assert after_harmonic[node] >= value - 1e-12
