#!/usr/bin/env python3
"""Recompute the shipped reference correlation tables and diff them.

Loads the transcribed per-episode metric tables under data/reference, runs
the Spearman pipeline on each series, and prints computed vs reference rho,
p, and stars side by side.  Exits 1 if any rho moves more than the 0.03
transcription tolerance (the hoc Std Harmonic sign flip is expected and
compared by magnitude; see the README's reproduction notes).
"""

from __future__ import annotations

import csv
from pathlib import Path

from charnet import EpisodeKey, EpisodeMetrics, correlate_all
from charnet.metrics import METRIC_BY_ATTR, METRICS
from charnet.stats import significance_stars

DATA_DIR = Path(__file__).resolve().parent.parent / "data" / "reference"
SERIES = ("got", "hoc", "bb")
COLUMNS = tuple(column.attr for column in METRICS[1:])  # active_nodes is not tabulated
SIGN_FLIPPED = {("hoc", "harmonic_std")}
RHO_TOLERANCE = 0.03  # allowed |computed - reference| for rho


def load_series(series: str) -> tuple[list[EpisodeMetrics], dict[EpisodeKey, float]]:
    """Reference per-episode rows as EpisodeMetrics plus their review scores.

    The got table repeats episode 1; the first occurrence is kept.
    """
    rows: list[EpisodeMetrics] = []
    ratings: dict[EpisodeKey, float] = {}
    parse = {attr: int if METRIC_BY_ATTR[attr].integer else float for attr in COLUMNS}
    with open(DATA_DIR / f"{series}_metrics.csv", newline="", encoding="utf-8") as handle:
        for record in csv.DictReader(handle):
            episode = int(record["episode"])
            key = EpisodeKey(series, 1, episode)
            if key in ratings:
                continue
            values = {attr: parse[attr](record[attr]) for attr in COLUMNS}
            rows.append(EpisodeMetrics(key=key, **values))
            ratings[key] = float(record["review"])
    return rows, ratings


def load_reference() -> dict[tuple[str, str], tuple[float, float, str]]:
    """(series, metric attr) -> (rho, p, stars) as printed in the reference table."""
    out: dict[tuple[str, str], tuple[float, float, str]] = {}
    with open(DATA_DIR / "reference_correlations.csv", newline="", encoding="utf-8") as handle:
        for record in csv.DictReader(handle):
            out[(record["series"], record["metric"])] = (
                float(record["rho"]),
                float(record["p"]),
                record["stars"],
            )
    return out


def main() -> int:
    reference = load_reference()
    failures = 0
    for series in SERIES:
        rows, ratings = load_series(series)
        report = correlate_all(rows, ratings)
        by_label = {result.metric_name: result for result in report.results}
        print(f"\n{series}  (n={report.n})")
        print(f"{'metric':<14} {'rho':>8} {'p':>8} {'stars':<5} | {'ref rho':>8} {'ref p':>8} {'ref':<5}")
        for attr in COLUMNS:
            result = by_label[METRIC_BY_ATTR[attr].label]
            rho_ref, p_ref, stars_ref = reference[(series, attr)]
            delta = abs(result.rho - rho_ref)
            note = ""
            if (series, attr) in SIGN_FLIPPED:
                delta = abs(result.rho + rho_ref)
                note = "  (sign differs in reference)"
            if delta > RHO_TOLERANCE:
                failures += 1
                note = "  <-- rho off"
            stars = significance_stars(result.p_value)
            print(
                f"{attr:<14} {result.rho:>8.3f} {result.p_value:>8.3f} {stars:<5}"
                f" | {rho_ref:>8.3f} {p_ref:>8.3f} {stars_ref:<5}{note}"
            )
    print()
    if failures:
        print(f"{failures} rho value(s) outside tolerance")
        return 1
    print("all rho values within tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
