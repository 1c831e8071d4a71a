"""Acceptance gate: the seven checks every release must clear.

Each criterion is one test so the verbose run shows one pass/fail line per
criterion.  Quantitative targets come from data/reference, which transcribes
the correlation and metric tables this pipeline is meant to
reproduce.  Known source-table quirks (one sign flip, two star assignments
sitting on the 0.01 boundary, one anomalous star) are asserted explicitly
rather than skipped; see the repository notes for the analysis.
"""

from __future__ import annotations

import math
import random
import time
from pathlib import Path

import pytest

from charnet.graph import EpisodeGraph, EpisodeKey, add_interaction, aggregate_segments
from charnet.metrics import (
    METRIC_BY_ATTR,
    compute_episode_metrics,
    degree_vector,
    efficiency_metric,
    eigenvector_vector,
    harmonic_vector,
    transitivity,
)
from charnet.report import render_correlations
from charnet.stats import (
    correlate_all,
    permutation_pvalue,
    significance_stars,
    spearman_pvalue,
    spearman_rho,
)

from oracles import (
    brute_component_mean_efficiency,
    brute_degrees,
    brute_harmonic,
    brute_transitivity,
    dense_adjacency,
    random_edge_set,
    spearman_shortcut,
)
from support import (
    DATA_DIR,
    REPO_ROOT,
    REFERENCE_COLUMNS,
    RHO_TOLERANCE,
    SERIES,
    SIGN_FLIPPED,
    build_demo_dataset,
    load_reference_correlations,
    load_reference_metrics,
    random_segments,
    run_python,
)


def _graph_of(edges: dict, key: EpisodeKey) -> EpisodeGraph:
    graph = EpisodeGraph(key=key)
    for (a, b), weight in edges.items():
        add_interaction(graph, a, b, weight)
    return graph


def test_criterion_1_pvalue_anchors():
    """Six (rho, n) pairs from the reference tables, each within 0.001."""
    started = time.perf_counter()
    anchors = [
        (-0.490, 22, 0.021),
        (0.561, 22, 0.007),
        (0.418, 26, 0.034),
        (0.499, 26, 0.009),
        (-0.493, 26, 0.010),
        (0.448, 26, 0.022),
    ]
    for rho, n, expected in anchors:
        got = spearman_pvalue(rho, n)
        assert got == pytest.approx(expected, abs=1e-3), (rho, n, got)
    assert time.perf_counter() - started < 1.0
    print("criterion 1 (p-value anchors): PASS")


# source-table quirks asserted explicitly below:
#   hoc/harmonic_std   reference rho has the opposite sign of what its own
#                      metric column yields; magnitude must still agree
#   hoc/efficiency     reference prints a star at p = 0.051, which the strict
#                      thresholds never award
#   hoc/degree_max     an integer column, so nothing was rounded: rho -0.4931
#                      matches the reference, and p 0.01047 prints as 0.010 but
#                      is not below 0.01, so strict stars give * where the
#                      reference prints **
#   hoc/eigen_std      reference p 0.009 sits just below 0.01; recomputed from
#                      3-decimal inputs, rho is 0.488 and p 0.0114
STAR_EXCEPTIONS = {
    ("hoc", "efficiency"): dict(p_tol=0.004),
    ("hoc", "degree_max"): dict(p_tol=0.002),
    ("hoc", "eigen_std"): dict(p_tol=0.004),
}


def test_criterion_2_reference_correlation_tables():
    """Recompute all three series' correlation tables from the transcribed
    metric fixtures: every shared-column rho within 0.03, stars as printed
    except the known boundary cases."""
    started = time.perf_counter()
    reference = load_reference_correlations()
    expected_n = {"got": 22, "hoc": 26, "bb": 26}
    for series in SERIES:
        rows, ratings = load_reference_metrics(series)
        report = correlate_all(rows, ratings)
        assert report.n == expected_n[series]
        by_label = {r.metric_name: r for r in report.results}
        # the Stars cell of each rendered row, by metric label
        table = render_correlations(report, [], "csv").splitlines()[1 : 1 + len(report.results)]
        stars = {cells[0]: cells[3] for cells in (line.split(",") for line in table)}
        for attr in REFERENCE_COLUMNS:
            rho_ref, p_ref, stars_ref = reference[(series, attr)]
            result = by_label[METRIC_BY_ATTR[attr].label]
            assert result.rho is not None, (series, attr)
            if (series, attr) in SIGN_FLIPPED:
                assert abs(result.rho + rho_ref) <= RHO_TOLERANCE, (series, attr, result.rho)
                continue
            assert abs(result.rho - rho_ref) <= RHO_TOLERANCE, (series, attr, result.rho)
            exception = STAR_EXCEPTIONS.get((series, attr))
            if exception is None:
                assert stars[result.metric_name] == stars_ref, (series, attr, result.p_value)
            else:
                assert abs(result.p_value - p_ref) <= exception["p_tol"], (
                    series,
                    attr,
                    result.p_value,
                )
                # strict thresholds, applied to the recomputed p, decide
                assert stars[result.metric_name] == significance_stars(result.p_value)
    assert time.perf_counter() - started < 5.0
    print("criterion 2 (reference correlation tables): PASS")


def test_criterion_3_metric_oracles():
    """500 seeded random graphs on 2-8 nodes against brute-force oracles."""
    started = time.perf_counter()
    rng = random.Random(1030)
    checked = 0
    attempts = 0
    while checked < 500:
        attempts += 1
        assert attempts < 5000
        _, edges = random_edge_set(rng, min_nodes=2, max_nodes=8)
        if not edges:
            continue
        checked += 1
        graph = _graph_of(edges, EpisodeKey("fuzz", 1, checked))
        assert transitivity(graph) == pytest.approx(
            brute_transitivity(graph.nodes, edges), abs=1e-6
        )
        assert efficiency_metric(graph) == pytest.approx(
            brute_component_mean_efficiency(edges), abs=1e-6
        )
        harmonic = harmonic_vector(graph)
        expected_harmonic = brute_harmonic(edges)
        assert set(harmonic) == set(expected_harmonic)
        for node, value in expected_harmonic.items():
            assert harmonic[node] == pytest.approx(value, abs=1e-6)
        degrees = degree_vector(graph)
        for node, value in brute_degrees(edges).items():
            assert degrees[node] == pytest.approx(value, abs=1e-6)

        names, a = dense_adjacency(edges)
        scores = eigenvector_vector(graph)
        x = [scores[v] for v in names]
        ax = [sum(a[i][j] * x[j] for j in range(len(x))) for i in range(len(x))]
        lam = sum(xi * axi for xi, axi in zip(x, ax))
        residual = max(abs(axi - lam * xi) for axi, xi in zip(ax, x))
        assert residual < 1e-8
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"criterion 3 (metric oracle suite, 500 graphs in {elapsed:.1f}s): PASS")


def test_criterion_4_aggregation_properties():
    """Permutation invariance, split-merge linearity, weight conservation
    on 200 seeded random episodes (1e-9 relative)."""
    started = time.perf_counter()
    rng = random.Random(40432)
    key = EpisodeKey("agg", 1, 1)
    for round_no in range(200):
        segments = random_segments(rng)
        base = aggregate_segments(segments, key)

        shuffled = segments[:]
        rng.shuffle(shuffled)
        permuted = aggregate_segments(shuffled, key)
        assert permuted.nodes == base.nodes
        assert set(permuted.edges) == set(base.edges)
        for pair, weight in base.edges.items():
            assert permuted.edges[pair] == pytest.approx(weight, rel=1e-9)

        cut = rng.randrange(1, len(segments)) if len(segments) > 1 else 1
        left = aggregate_segments(segments[:cut], key)
        right_part = segments[cut:]
        merged: dict = dict(left.edges)
        if right_part:
            right = aggregate_segments(right_part, key)
            for pair, weight in right.edges.items():
                merged[pair] = merged.get(pair, 0.0) + weight
        assert set(merged) == set(base.edges)
        for pair, weight in base.edges.items():
            assert merged[pair] == pytest.approx(weight, rel=1e-9)

        total_in = sum(w for seg in segments for w in seg.edges.values())
        total_out = sum(base.edges.values())
        assert total_out == pytest.approx(total_in, rel=1e-9)
    assert time.perf_counter() - started < 30.0
    print("criterion 4 (aggregation properties, 200 episodes): PASS")


# rating permutations frozen so the three targeted rho values are hit exactly;
# x is always 1..n
PERMUTATION_FIXTURES = [
    # target rho -0.49 at n=22
    (-0.49, [18, 14, 2, 19, 12, 20, 22, 13, 11, 17, 21, 10, 7, 5, 4, 8, 6, 16,
             15, 9, 3, 1]),
    # target rho 0.561 at n=22
    (0.561, [3, 2, 4, 11, 18, 10, 17, 12, 1, 8, 6, 14, 7, 19, 5, 9, 20, 13, 21,
             22, 15, 16]),
    # target rho 0.448 at n=26
    (0.448, [17, 1, 4, 3, 5, 24, 7, 13, 6, 12, 14, 10, 19, 25, 2, 16, 23, 18,
             21, 8, 9, 22, 20, 26, 11, 15]),
]


def test_criterion_5_statistics_properties():
    """Transform invariance (1e-12), tie-free shortcut agreement (1e-12),
    and permutation-vs-t agreement within 0.01 at 100k iterations."""
    started = time.perf_counter()

    rng = random.Random(505)
    for _ in range(40):
        n = rng.randrange(4, 12)
        x = rng.sample(range(1000), n)
        y = rng.sample(range(1000), n)
        base = spearman_rho(x, y)
        assert spearman_rho([math.exp(v / 300.0) for v in x], y) == pytest.approx(
            base, abs=1e-12
        )
        assert spearman_rho(x, [7.0 * v + 3.0 for v in y]) == pytest.approx(
            base, abs=1e-12
        )
        assert spearman_rho([v**3 for v in x], y) == pytest.approx(base, abs=1e-12)

    for _ in range(60):
        n = rng.randrange(4, 8)
        x = [float(v) for v in rng.sample(range(100), n)]
        y = [float(v) for v in rng.sample(range(100), n)]
        assert spearman_rho(x, y) == pytest.approx(
            spearman_shortcut(x, y), abs=1e-12
        )

    for target, ranks in PERMUTATION_FIXTURES:
        n = len(ranks)
        x = list(range(1, n + 1))
        y = [float(r) for r in ranks]
        rho = spearman_rho(x, y)
        assert rho == pytest.approx(target, abs=2e-3)
        t_p = spearman_pvalue(rho, n)
        perm_p = permutation_pvalue(x, y, 100000, 2024)
        assert perm_p == pytest.approx(t_p, abs=0.01), (target, t_p, perm_p)

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(f"criterion 5 (statistics properties in {elapsed:.1f}s): PASS")


def _output_tree(root: Path) -> dict[str, bytes]:
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_criterion_6_pipeline_determinism(tmp_path):
    """`charnet all` twice on the same dataset gives byte-identical trees,
    even when written to different output directories."""
    segments, ratings = build_demo_dataset(tmp_path / "dataset")
    trees = []
    for run in ("first", "second"):
        out = tmp_path / run
        result = run_python(
            "-m", "charnet", "all", "--segments", str(segments), "--ratings", str(ratings), "--out", str(out),
            cwd=REPO_ROOT,
        )
        assert result.returncode == 0, result.stderr
        trees.append(_output_tree(out))
    first, second = trees
    assert first.keys() == second.keys()
    assert len(first) == 33  # manifest + 2 series x (2 tables x 2 formats + 12 plots)
    for name in first:
        assert first[name] == second[name], name
    print("criterion 6 (pipeline determinism): PASS")


def test_criterion_7_density_column_not_reproducible():
    """The reference metric tables carry density values above 1, impossible
    under 2m/(n(n-1)); whole-column reproduction is out of scope and the
    README says so."""
    bb = (DATA_DIR / "bb_metrics.csv").read_text().splitlines()
    header = bb[0].split(",")
    density_idx = header.index("density")
    episode_idx = header.index("episode")
    row = next(
        line.split(",") for line in bb[1:] if line.split(",")[episode_idx] == "2"
    )
    assert float(row[density_idx]) == pytest.approx(18.716, abs=1e-9)
    assert float(row[density_idx]) > 1.0  # cannot come from 2m/(n(n-1))

    # while the implemented density never leaves [0, 1]
    rng = random.Random(8)
    for _ in range(50):
        _, edges = random_edge_set(rng)
        if not edges:
            continue
        graph = _graph_of(edges, EpisodeKey("bound", 1, 1))
        assert 0.0 < compute_episode_metrics(graph).density <= 1.0

    readme = " ".join((REPO_ROOT / "README.md").read_text().split())
    assert "cannot be recomputed" in readme
    assert "greater than 1" in readme
    print("criterion 7 (density non-reproducibility documented): PASS")
