"""Renderer output contracts: column order, fixed formatting, determinism."""

from __future__ import annotations

import re
from decimal import ROUND_HALF_EVEN, Decimal, localcontext

import pytest

from charnet.errors import DomainError
from charnet.graph import EpisodeGraph, EpisodeKey
from charnet.metrics import EpisodeMetrics
from charnet.report import (
    METRICS_CSV_HEADER,
    fmt_real,
    render_correlations,
    render_manifest,
    render_metrics,
    render_scatter_svg,
)
from charnet.stats import CorrelationReport, CorrelationResult

ECHO = ["efficiency mode: component-mean", "eigen tol: 1e-10"]


def test_metrics_header_is_frozen():
    assert METRICS_CSV_HEADER == [
        "Episode",
        "Review",
        "Density",
        "Efficiency",
        "Transitivity",
        "Strength_max",
        "Strength_std",
        "Degree_max",
        "Degree_std",
        "Harmonic_max",
        "Harmonic_std",
        "Eigen_max",
        "Eigen_std",
        "Active_Nodes",
    ]


def _rows() -> list[EpisodeMetrics]:
    return [
        EpisodeMetrics(
            key=EpisodeKey("demo", 1, 2),
            active_nodes=4,
            density=0.5,
            efficiency=0.75,
            transitivity=0.0,
            strength_max=12.3456,
            strength_std=1.0,
            degree_max=3,
            degree_std=0.5,
            harmonic_max=2.5,
            harmonic_std=0.25,
            eigen_max=0.7071,
            eigen_std=0.1,
        ),
        EpisodeMetrics(
            key=EpisodeKey("demo", 1, 1),
            active_nodes=2,
            density=1.0,
            efficiency=1.0,
            transitivity=0.0,
            strength_max=10.0,
            strength_std=0.0,
            degree_max=1,
            degree_std=0.0,
            harmonic_max=1.0,
            harmonic_std=0.0,
            eigen_max=0.70710678,
            eigen_std=0.0,
        ),
    ]


def _ratings() -> dict[EpisodeKey, float]:
    return {EpisodeKey("demo", 1, 1): 8.1}


class TestMetricsCsv:
    def test_layout(self):
        text = render_metrics(_rows(), _ratings(), ECHO, "csv")
        lines = text.splitlines()
        assert lines[0] == ",".join(METRICS_CSV_HEADER)
        # rows come out in key order even when passed shuffled
        assert lines[1].startswith("1,8.100,1.000,")
        assert lines[2].startswith("2,,0.500,")
        assert lines[3] == "# efficiency mode: component-mean"
        assert lines[4] == "# eigen tol: 1e-10"
        assert text.endswith("\n")
        assert "\r" not in text

    def test_rows_are_numbered_by_key_order(self):
        # a row's number is its place in the table, not its episode number
        rows = [
            EpisodeMetrics(key=EpisodeKey("s", 2, 1), density=0.1),
            EpisodeMetrics(key=EpisodeKey("s", 1, 3), density=0.3),
        ]
        lines = render_metrics(rows, {}, [], "csv").splitlines()
        assert [line.split(",")[:3] for line in lines[1:]] == [["1", "", "0.300"], ["2", "", "0.100"]]

    def test_three_decimal_reals_and_bare_integers(self):
        text = render_metrics(_rows(), _ratings(), [], "csv")
        row2 = text.splitlines()[2].split(",")
        assert row2[2] == "0.500"
        assert row2[5] == "12.346"  # rounded, not truncated
        header = METRICS_CSV_HEADER
        assert row2[header.index("Degree_max")] == "3"
        assert row2[header.index("Active_Nodes")] == "4"

    def test_deterministic_bytes(self):
        first = render_metrics(_rows(), _ratings(), ECHO, "csv")
        second = render_metrics(_rows(), _ratings(), ECHO, "csv")
        assert first == second

    def test_echo_changes_bytes(self):
        base = render_metrics(_rows(), _ratings(), ECHO, "csv")
        other = render_metrics(
            _rows(), _ratings(), ["efficiency mode: neighborhood"], "csv"
        )
        assert base != other


class TestMetricsMarkdown:
    def test_mirrors_csv_cells(self):
        csv_text = render_metrics(_rows(), _ratings(), [], "csv")
        md_text = render_metrics(_rows(), _ratings(), [], "md")
        csv_cells = [line.split(",") for line in csv_text.splitlines()[1:3]]
        md_rows = [
            [cell.strip() for cell in line.strip("|").split("|")]
            for line in md_text.splitlines()[2:4]
        ]
        assert md_rows == csv_cells

    def test_pipe_table_shape(self):
        md_text = render_metrics(_rows(), _ratings(), ECHO, "md")
        lines = md_text.splitlines()
        assert lines[0].startswith("| Episode | Review |")
        assert set(lines[1].strip("|")) == {"-", "|"}
        assert "_efficiency mode: component-mean_" in lines


def _report(with_permutation: bool = False) -> CorrelationReport:
    results = [
        CorrelationResult(
            metric_name="Density",
            rho=0.418,
            p_value=0.0336,
            permutation_p=0.034 if with_permutation else None,
        ),
        CorrelationResult(
            metric_name="Active Nodes",
            rho=None,
            p_value=None,
            note="x is constant",
        ),
    ]
    return CorrelationReport(results=results, n=26, excluded=1)


NOTES = ["duplicate episodes dropped at load: 2", *ECHO]


class TestCorrelationsCsv:
    def test_header_and_rows(self):
        lines = render_correlations(_report(), NOTES, "csv").splitlines()
        assert lines[0] == "Metric,Correlation,pValue,Stars"
        assert lines[1] == "Density,0.418,0.034,*"
        assert lines[2] == "Active Nodes,,,"

    def test_stars_follow_the_p_value(self):
        results = [CorrelationResult("Density", 0.1, 0.9), CorrelationResult("Efficiency", 0.7, 0.005)]
        lines = render_correlations(CorrelationReport(results=results, n=26, excluded=0), [], "csv").splitlines()
        assert lines[1:3] == ["Density,0.100,0.900,", "Efficiency,0.700,0.005,**"]

    def test_footer_fields(self):
        lines = render_correlations(_report(with_permutation=True), NOTES, "csv").splitlines()
        assert lines[3:] == [
            "# n: 26",
            "# excluded (no rating): 1",
            "# duplicate episodes dropped at load: 2",
            "# efficiency mode: component-mean",
            "# eigen tol: 1e-10",
            "# stars: ** p < 0.01, * p < 0.05 (strict thresholds, no exceptions)",
            "# flagged Active Nodes: x is constant",
            "# permutation pValue Density: 0.034",
        ]

    def test_permutation_lines_only_when_present(self):
        without = render_correlations(_report(), [], "csv")
        assert "permutation pValue" not in without
        with_perm = render_correlations(_report(with_permutation=True), [], "csv")
        assert "# permutation pValue Density: 0.034" in with_perm

    def test_markdown_mirrors_cells(self):
        md = render_correlations(_report(), NOTES, "md")
        assert "| Density | 0.418 | 0.034 | * |" in md
        assert "| Active Nodes |  |  |  |" in md
        csv_footer = render_correlations(_report(), NOTES, "csv").splitlines()[3:]
        assert md.splitlines()[5:] == [f"_{line[2:]}_" for line in csv_footer]


@pytest.mark.parametrize("fmt", ["svg", "markdown", "CSV", ""])
def test_table_renderers_refuse_an_unknown_format(fmt):
    message = f"unknown table format {fmt!r}; choose csv or md"
    with pytest.raises(DomainError) as metrics_refused:
        render_metrics(_rows(), _ratings(), [], fmt)
    with pytest.raises(DomainError) as correlations_refused:
        render_correlations(_report(), [], fmt)
    assert str(metrics_refused.value) == str(correlations_refused.value) == message


POINTS = [(0.1, 7.5), (0.4, 8.2), (0.25, 6.9), (0.33, 9.1)]


class TestScatterSvg:
    def test_one_circle_per_point(self):
        svg = render_scatter_svg(POINTS, "Density", "demo", ECHO)
        assert svg.count("<circle") == len(POINTS)

    def test_title_and_axis_labels(self):
        svg = render_scatter_svg(POINTS, "Max Eigen", "got", [])
        assert "Max Eigen vs Review for got" in svg
        assert ">Review</text>" in svg
        assert "rotate(-90" in svg

    def test_config_comment_embedded(self):
        svg = render_scatter_svg(POINTS, "Density", "demo", ECHO)
        assert "<!-- efficiency mode: component-mean; eigen tol: 1e-10 -->" in svg

    def test_fixed_canvas_and_coordinates(self):
        svg = render_scatter_svg(POINTS, "Density", "demo", [])
        assert 'width="800" height="600"' in svg
        for match in re.finditer(r'c[xy]="([0-9.]+)"', svg):
            whole, _, frac = match.group(1).partition(".")
            assert len(frac) == 2

    def test_deterministic_bytes(self):
        first = render_scatter_svg(POINTS, "Density", "demo", ECHO)
        second = render_scatter_svg(POINTS, "Density", "demo", ECHO)
        assert first == second

    def test_single_point_does_not_collapse_axes(self):
        svg = render_scatter_svg([(0.5, 8.0)], "Density", "demo", [])
        assert svg.count("<circle") == 1
        # tick labels span the padded half-unit window, not a zero-width one
        assert "-0.050" in svg
        assert "1.050" in svg

    def test_tick_labels_round_the_exact_value_once(self):
        # The midpoints of these 3-decimal spans sit on a 4th-decimal tie up
        # to the binary error of the endpoints, so only the exact value of
        # lo + i/4 * (hi - lo) with a pad of exactly 1/20 may pick the digit
        # (float arithmetic printed 0.940 and 1.345 for the two midpoints).
        for lo, hi, middle in ((0.939, 0.94, "0.939"), (1.344, 1.347, "1.346")):
            svg = render_scatter_svg([(lo, 1.0), (hi, 2.0)], "Density", "demo", [])
            labels = re.findall(r'text-anchor="middle"[^>]*font-size="12">([^<]+)<', svg)
            with localcontext() as exact:
                exact.prec = 80  # enough for every sum and quotient here
                low, high = Decimal(lo), Decimal(hi)
                pad = (high - low) / 20
                ticks = [low - pad + Decimal(i) / 4 * (high - low + 2 * pad) for i in range(5)]
                rounded = [str(t.quantize(Decimal("0.001"), ROUND_HALF_EVEN)) for t in ticks]
            assert labels == rounded
            assert labels[2] == middle

    def test_values_near_the_float_limit_stay_on_the_canvas(self):
        # the padded axis end lies past the largest float; the plot is still
        # laid out exactly: the smallest and largest values sit 1/22 of the
        # axis from either end, and the labels print the exact ends
        svg = render_scatter_svg([(1.75e308, 1.0), (0.0, 2.0)], "Strength", "demo", [])
        assert 'cx="738.64"' in svg and 'cx="111.36"' in svg
        assert "nan" not in svg and "inf" not in svg
        whole, milli = divmod(int(1.75e308) * 21 * 50, 1000)  # 1.05 * max, in 1/1000
        assert f">{whole}.{milli:03d}<" in svg

    def test_axis_tick_count(self):
        svg = render_scatter_svg(POINTS, "Density", "demo", [])
        # 5 ticks per axis, plus the two axis lines themselves
        assert svg.count("<line") == 12


class TestManifest:
    def test_shape(self):
        episodes = [
            EpisodeGraph(
                key=EpisodeKey("demo", 1, 1),
                nodes=set("ABCDE"),
                edges={("A", "B"): 1.0, ("B", "C"): 1.0, ("C", "D"): 1.0, ("D", "E"): 1.0},
                segment_count=3,
                warnings=["segment 2: no edges"],
            ),
            EpisodeGraph(
                key=EpisodeKey("demo", 1, 2),
                nodes=set("ABCD"),
                edges={("A", "B"): 1.0, ("B", "C"): 1.0, ("C", "D"): 1.0},
                segment_count=2,
            ),
        ]
        lines = render_manifest(episodes, ["rating without episode: demo 1 9"]).splitlines()
        assert lines[0] == "demo 1 1: 3 segments, 5 nodes, 4 edges"
        assert lines[1] == "  warning: segment 2: no edges"
        assert lines[2] == "demo 1 2: 2 segments, 4 nodes, 3 edges"
        assert lines[3] == "warning: rating without episode: demo 1 9"
        assert lines[4] == "episodes: 2, warnings: 2"

    def test_empty_dataset_summary_line(self):
        text = render_manifest([], [])
        assert text == "episodes: 0, warnings: 0\n"


def test_fmt_real_fixed_width():
    assert fmt_real(0.0) == "0.000"
    assert fmt_real(1.23456) == "1.235"
    assert fmt_real(-0.49) == "-0.490"
    assert fmt_real(91.3501) == "91.350"
