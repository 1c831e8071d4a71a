"""Deterministic renderers: metric tables, correlation tables, SVG scatter
plots, and the dataset manifest.

Every renderer returns a string with "\\n" line endings and fixed decimal
formatting, so identical inputs give byte-identical files on any platform.
Each report embeds a configuration echo; reports produced under different
settings can never be byte-identical.
"""

from __future__ import annotations

from .errors import DomainError
from .graph import EpisodeGraph, EpisodeKey
from .metrics import METRICS, EpisodeMetrics
from .stats import CorrelationReport, significance_stars

# metric files put Active_Nodes last; correlation tables keep it first
CSV_METRIC_ORDER = METRICS[1:] + (METRICS[0],)

METRICS_CSV_HEADER = ["Episode", "Review"] + [column.header for column in CSV_METRIC_ORDER]
CORRELATIONS_HEADER = ["Metric", "Correlation", "pValue", "Stars"]

SVG_WIDTH = 800
SVG_HEIGHT = 600
SVG_MARGIN = {"left": 80.0, "right": 30.0, "top": 60.0, "bottom": 70.0}


def fmt_real(value: float) -> str:
    return f"{value:.3f}"


def _cell(row: EpisodeMetrics, column) -> str:
    value = getattr(row, column.attr)
    return str(int(value)) if column.integer else fmt_real(value)


def _metric_rows(rows: list[EpisodeMetrics], ratings: dict[EpisodeKey, float]) -> list[list[str]]:
    rendered = []
    for number, row in enumerate(sorted(rows, key=lambda r: r.key), 1):
        review = ratings.get(row.key)
        cells = [str(number), "" if review is None else fmt_real(review)]
        cells.extend(_cell(row, column) for column in CSV_METRIC_ORDER)
        rendered.append(cells)
    return rendered


def _csv(header: list[str], rows: list[list[str]], notes: list[str]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(cells) for cells in rows)
    lines.extend(f"# {note}" for note in notes)
    return "\n".join(lines) + "\n"


def _markdown(header: list[str], rows: list[list[str]], notes: list[str]) -> str:
    lines = ["| " + " | ".join(header) + " |", "|" + "|".join(["---"] * len(header)) + "|"]
    lines.extend("| " + " | ".join(cells) + " |" for cells in rows)
    lines.append("")
    lines.extend(f"_{note}_" for note in notes)
    return "\n".join(lines) + "\n"


_WRITERS = {"csv": _csv, "md": _markdown}
TABLE_FORMATS = tuple(_WRITERS)


def _writer(fmt: str):
    if fmt not in _WRITERS:
        raise DomainError(f"unknown table format {fmt!r}; choose {' or '.join(TABLE_FORMATS)}")
    return _WRITERS[fmt]


def render_metrics(
    rows: list[EpisodeMetrics], ratings: dict[EpisodeKey, float], echo: list[str], fmt: str
) -> str:
    """One row per episode, fixed column order, 3-decimal reals; fmt is "csv" or "md"."""
    return _writer(fmt)(METRICS_CSV_HEADER, _metric_rows(rows, ratings), echo)


def _correlation_cells(report: CorrelationReport) -> list[list[str]]:
    return [
        [r.metric_name, "", "", ""]
        if r.rho is None or r.p_value is None
        else [r.metric_name, fmt_real(r.rho), fmt_real(r.p_value), significance_stars(r.p_value)]
        for r in report.results
    ]


def _correlation_footer(report: CorrelationReport, notes: list[str]) -> list[str]:
    lines = [f"n: {report.n}", f"excluded (no rating): {report.excluded}", *notes]
    lines.append("stars: ** p < 0.01, * p < 0.05 (strict thresholds, no exceptions)")
    lines += [f"flagged {r.metric_name}: {r.note}" for r in report.results if r.note]
    lines += [
        f"permutation pValue {r.metric_name}: {fmt_real(r.permutation_p)}"
        for r in report.results
        if r.permutation_p is not None
    ]
    return lines


def render_correlations(report: CorrelationReport, notes: list[str], fmt: str) -> str:
    """One row per metric column; footer lines carry the sample, the notes and
    the stars.  fmt is "csv" or "md"."""
    return _writer(fmt)(CORRELATIONS_HEADER, _correlation_cells(report), _correlation_footer(report, notes))


def _axis_range(values: list[float]) -> tuple[int, int, int]:
    """Axis ends lo/den and hi/den, exact: the span of the values padded by
    1/20 of itself on each side.  A float is an integer over a power of two,
    so integers hold every end and tick without rounding.
    """
    (a, p), (b, q) = min(values).as_integer_ratio(), max(values).as_integer_ratio()
    den = max(p, q)
    lo, hi = a * (den // p), b * (den // q)
    if lo == hi:
        # degenerate span: fall back to a half-unit pad on each side
        lo, hi, den = 2 * lo - den, 2 * hi + den, 2 * den
    # lo - (hi - lo)/20 and hi + (hi - lo)/20, both over 20 * den
    return 21 * lo - hi, 21 * hi - lo, 20 * den


def _share(value: float, axis: tuple[int, int, int]) -> float:
    """How far along the exact axis (lo, hi, den) a value lies, from 0 to 1."""
    lo, hi, den = axis
    num, p = value.as_integer_ratio()
    return (num * den - lo * p) / ((hi - lo) * p)


def _tick_label(axis: tuple[int, int, int], i: int) -> str:
    """fmt_real of tick i of 0..4, lo + i/4 * (hi - lo), rounded once."""
    lo, hi, den = axis
    num, den = 4 * lo + i * (hi - lo), 4 * den
    milli, rest = divmod(abs(num) * 1000, den)  # round half-even
    if 2 * rest > den or 2 * rest == den and milli % 2:
        milli += 1
    whole, milli = divmod(milli, 1000)
    return f"{'-' if num < 0 else ''}{whole}.{milli:03d}"


def _xml_text(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _line(x1: float, y1: float, x2: float, y2: float) -> str:
    return (
        f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}"'
        ' stroke="#333333" stroke-width="1"/>'
    )


def _text(x, y, anchor: str, size: int, body: str, transform: str = "") -> str:
    """A text element: number coordinates get two decimals, str ones are kept; body is escaped."""
    x, y = (v if isinstance(v, str) else f"{v:.2f}" for v in (x, y))
    extra = f' transform="{transform}"' if transform else ""
    return (
        f'<text x="{x}" y="{y}" text-anchor="{anchor}" font-family="sans-serif"'
        f' font-size="{size}"{extra}>{_xml_text(body)}</text>'
    )


def render_scatter_svg(
    points: list[tuple[float, float]],
    metric_label: str,
    series_label: str,
    echo: list[str],
) -> str:
    """Standalone scatter plot: metric on x, review on y, one circle per episode."""
    left = SVG_MARGIN["left"]
    top = SVG_MARGIN["top"]
    plot_w = SVG_WIDTH - left - SVG_MARGIN["right"]
    plot_h = SVG_HEIGHT - top - SVG_MARGIN["bottom"]

    x_range = _axis_range([x for x, _ in points])
    y_range = _axis_range([y for _, y in points])

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}"'
        f' width="{SVG_WIDTH}" height="{SVG_HEIGHT}">',
        f"<!-- {'; '.join(echo)} -->",
        f'<rect x="0" y="0" width="{SVG_WIDTH}" height="{SVG_HEIGHT}" fill="#ffffff"/>',
        _text(SVG_WIDTH / 2, "30", "middle", 18, f"{metric_label} vs Review for {series_label}"),
        _line(left, top + plot_h, left + plot_w, top + plot_h),
        _line(left, top, left, top + plot_h),
    ]
    for i in range(5):
        px = left + i / 4 * plot_w
        lines.append(_line(px, top + plot_h, px, top + plot_h + 6))
        lines.append(_text(px, top + plot_h + 22, "middle", 12, _tick_label(x_range, i)))
        py = top + (1 - i / 4) * plot_h
        lines.append(_line(left - 6, py, left, py))
        lines.append(_text(left - 10, py + 4, "end", 12, _tick_label(y_range, i)))
    lines.append(_text(left + plot_w / 2, SVG_HEIGHT - 18, "middle", 14, metric_label))
    middle = top + plot_h / 2
    lines.append(_text("22", middle, "middle", 14, "Review", f"rotate(-90 22 {middle:.2f})"))
    for x, y in points:
        cx, cy = left + _share(x, x_range) * plot_w, top + (1 - _share(y, y_range)) * plot_h
        lines.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="4" fill="#1f6fb2" fill-opacity="0.8"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def render_manifest(episodes: list[EpisodeGraph], dataset_warnings: list[str]) -> str:
    """Per-episode counts and warnings in the given order, then the dataset's warnings."""
    lines = []
    for graph in episodes:
        lines.append(
            f"{graph.key}: {graph.segment_count} segments,"
            f" {len(graph.nodes)} nodes, {len(graph.edges)} edges"
        )
        lines.extend(f"  warning: {w}" for w in graph.warnings)
    lines.extend(f"warning: {w}" for w in dataset_warnings)
    count = len(dataset_warnings) + sum(len(graph.warnings) for graph in episodes)
    lines.append(f"episodes: {len(episodes)}, warnings: {count}")
    return "\n".join(lines) + "\n"
