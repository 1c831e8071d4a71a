"""Spearman rank correlation with significance testing.

rho is the Pearson correlation of average ranks, which stays correct under
ties; the classic 6*sum(d^2) shortcut is deliberately not used (it is only
valid tie-free, and review scores repeat).  rho and the permutation test
read the same exact int ranks, each twice a centered rank; only
rank_with_ties returns float ranks.  rho is their int dot product over the
root of the product of their int sums of squares; below about 2*10^5
values that is the float that half-integer centered ranks give in
floating point.  Two-tailed p-values come from the Student-t
approximation with n-2 degrees of freedom, whose tail at an integer df is
an exact finite sum.  A seeded permutation test provides an
independent cross-check of that approximation.
"""

from __future__ import annotations

import math
import operator
import random
from collections import namedtuple

from .errors import DegenerateInputError, DomainError
from .graph import EpisodeKey
from .metrics import METRICS, EpisodeMetrics


CorrelationResult = namedtuple("CorrelationResult", "metric_name rho p_value note permutation_p", defaults=("", None))
CorrelationResult.__doc__ = """One metric column against the review column.

rho and p_value are None when the column was degenerate (constant); note
says why.  A result's stars are significance_stars(p_value).
"""

CorrelationReport = namedtuple("CorrelationReport", "results n excluded")
CorrelationReport.__doc__ = "All 12 metric correlations for one series, over n rated episodes."


def significance_stars(p: float) -> str:
    """The Stars cell of a p-value, by strict thresholds: '**' below 0.01, '*' below 0.05."""
    if p < 0.01:
        return "**"
    if p < 0.05:
        return "*"
    return ""


def _doubled_ranks(values) -> list[int]:
    """Twice each ascending 1-based average rank, as an exact int."""
    try:
        data = [float(v) for v in values]
    except OverflowError as exc:
        raise DomainError("rank input contains a value past the float range") from exc
    if any(not math.isfinite(v) for v in data):
        raise DomainError("rank input contains a non-finite value")
    if not data:
        raise DegenerateInputError("cannot rank an empty list")
    n = len(data)
    order = sorted(range(n), key=lambda i: data[i])
    ranks = [0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and data[order[j + 1]] == data[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = i + j + 2  # twice the mean of 1-based positions i..j
        i = j + 1
    return ranks


def rank_with_ties(values) -> list[float]:
    """Ascending 1-based ranks; tied values share the mean of their positions."""
    return [r / 2 for r in _doubled_ranks(values)]


def _centered(values) -> list[int]:
    """The doubled centered ranks: each doubled rank minus n + 1, twice the mean rank."""
    ranks = _doubled_ranks(values)
    return [r - len(ranks) - 1 for r in ranks]


def _paired(x, y) -> tuple[list[int], list[int]]:
    """Check a pair of columns and return both doubled centered rank vectors."""
    if len(x) != len(y):
        raise DomainError(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 3:
        raise DegenerateInputError(f"need at least 3 pairs, got {len(x)}")
    centered = []
    for values, what in ((x, "x"), (y, "y")):
        centered.append(_centered(values))
        if not any(centered[-1]):
            raise DegenerateInputError(f"{what} is constant")
    return centered[0], centered[1]


def _rho(cx: list[int], cy: list[int]) -> float:
    dot = sum(map(operator.mul, cx, cy))
    rho = dot / math.sqrt(sum(a * a for a in cx) * sum(b * b for b in cy))
    return max(-1.0, min(1.0, rho))


def spearman_rho(x, y) -> float:
    """Pearson correlation of the two average-rank vectors."""
    return _rho(*_paired(x, y))


def spearman_pvalue(rho: float, n: int) -> float:
    """Two-tailed p for an observed rho at sample size n.

    t = rho * sqrt(df / (1 - rho^2)) is referred to the t-distribution
    with df = n - 2 degrees of freedom.  At integer df its tail is a finite
    sum (Abramowitz & Stegun 26.7.3 for even df, 26.7.4 for odd df) in
    sin(theta) = |rho| and cos^2(theta) = df / (df + t^2) = 1 - rho^2, so t
    is never formed.  The sum has about df/2 terms: O(n), about 1 ms at
    n = 10^4, while a TV series has at most a few hundred rated episodes.
    Near p = 0 the sum can land an ulp below 0, so it is clamped there.
    """
    if n < 4:
        raise DomainError(f"p-value needs n >= 4, got {n}")
    if not math.isfinite(rho) or abs(rho) > 1.0:
        raise DomainError(f"rho must lie in [-1, 1], got {rho!r}")
    r = abs(rho)
    cos2 = 1.0 - rho * rho
    df = n - 2
    odd = df % 2
    term = total = 1.0
    for k in range(1, df // 2):
        # successive A&S coefficients differ by (2k-1)/(2k) at even df, 2k/(2k+1) at odd
        term *= cos2 * (2 * k - 1 + odd) / (2 * k + odd)
        total += term
    if odd:
        p = 1.0 - 2.0 / math.pi * (math.asin(r) + r * math.sqrt(cos2) * total)
    else:
        p = 1.0 - r * total
    return max(0.0, p)


# bytes of shuffled y values that one batch of the permutation test packs
_BATCH_BYTES = 16384


def check_permutations(permutations: int) -> None:
    """The one floor on permutation counts, for the CLI and both entry points."""
    if permutations < 1000:
        raise DomainError(f"permutation test needs >= 1000 iterations, got {permutations}")


def _permutation_pvalues(series, permutations: int, seed: int) -> list[list[float]]:
    """Seeded permutation p-values of every doubled centered column of
    every series against its own reviews; series is a list of
    (columns, cy) pairs that all share one length n.

    The draws depend only on n and the seed, so one shuffle stream of the
    positions serves every column of every series, and each value equals
    the one a lone column gets from the same seed.  Permuting y permutes
    its rank vector, so only rank dot products are recomputed per shuffle.
    Add-one smoothing on both sides keeps the estimates away from 0.

    The dots run in exact integers.  Each c lies in [1 - n, n - 1], so
    c + n is a non-negative int, and as each column sums to 0,
    sum (a + n)(b + n) = dot + n^3, which lies in [0, 2n^3].  Each series'
    value of y at a position is a little-endian field of `size` bytes,
    enough for bits(2n^3) + 1 bits whatever the permutation count; a
    position holds the fields of all series side by side, and the
    positions themselves are shuffled: the draws do not depend on the
    values.  Each shuffle's row of positions is appended to a batch of
    about _BATCH_BYTES, so a wider row means fewer shuffles per batch.
    Per batch, each series cuts its own fields out at its own byte offset:
    strided slices transpose them into one int per position, holding
    that position's value in every shuffle of the batch, one field each.
    So per batch one multiply-accumulate per column yields the column's
    dot for every shuffle, each in its own field.

    The hit test is packed too.  A field's top bit is a guard above 2n^3,
    which no field reaches.  A shuffle hits when its |dot| is at least k_c,
    the observed |dot| of column c; that holds when the field is at least
    hi_c = n^3 + k_c or at most lo_c = n^3 - k_c.
    Adding guard - hi_c to a field sets its guard bit iff field >= hi_c, and
    adding guard - lo_c - 1 sets it iff field > lo_c; as k_c <= n^3, neither
    sum is negative or carries out of its field.  So each shuffle leaves its
    hit in its own field's guard bit, and a popcount per batch adds the
    column's hits.
    """
    n = len(series[0][1])
    cube = n**3
    size = ((2 * cube).bit_length() + 8) // 8
    guard = 1 << (8 * size - 1)
    width = len(series) * size
    fields = [b"".join((cy[i] + n).to_bytes(size, "little") for _, cy in series) for i in range(n)]
    tests = [
        [([a + n for a in cx], abs(sum(map(operator.mul, cx, cy)))) for cx in columns] for columns, cy in series
    ]
    getrandbits = random.Random(seed).getrandbits
    steps = [(i, i + 1, (i + 1).bit_length()) for i in range(n - 1, 0, -1)]
    row = n * width
    batch = max(1, _BATCH_BYTES // row)
    join = b"".join
    hits = [[0] * len(columns) for columns, _ in series]
    for done in range(0, permutations, batch):
        count = min(batch, permutations - done)
        flat = bytearray()
        for _ in range(count):
            _shuffle(fields, getrandbits, steps)
            flat += join(fields)
        lane = bytearray(count * size)
        ones = int.from_bytes((b"\1" + bytes(size - 1)) * count, "little")
        guards = guard * ones
        for at, (columns, counts) in enumerate(zip(tests, hits)):
            lanes = []
            for start in range(at * size, row, width):
                for j in range(size):
                    lane[j::size] = flat[start + j :: row]
                lanes.append(int.from_bytes(lane, "little"))
            for c, (w, k) in enumerate(columns):
                total = sum(map(operator.mul, w, lanes))
                high = total + (guard - cube - k) * ones
                low = total + (guard - cube + k - 1) * ones
                counts[c] += ((high | ~low) & guards).bit_count()
    return [[(1 + h) / (1 + permutations) for h in counts] for counts in hits]


def _shuffle(ys: list, getrandbits, steps) -> None:
    """Random.shuffle(ys), drawn from getrandbits exactly as CPython draws it.

    Each step (i, i + 1, bits of i + 1) swaps ys[i] with ys[j], j <= i,
    taken by rejection as Random._randbelow_with_getrandbits takes it.
    """
    for i, bound, k in steps:
        j = getrandbits(k)
        while j >= bound:
            j = getrandbits(k)
        ys[i], ys[j] = ys[j], ys[i]


def permutation_pvalue(x, y, permutations: int, seed: int) -> float:
    """Share of seeded permutations of y at least as extreme as observed."""
    check_permutations(permutations)  # reported ahead of any input error
    cx, cy = _paired(x, y)
    return _permutation_pvalues([([cx], cy)], permutations, seed)[0][0]


def _rated(
    rows: list[EpisodeMetrics], ratings: dict[EpisodeKey, float]
) -> tuple[list[EpisodeMetrics], list[float], int]:
    """One series' rated rows in key order, their reviews, and how many rows had none."""
    series_names = sorted({row.key.series for row in rows})
    if len(series_names) != 1:
        raise DomainError(f"expected rows from exactly one series, got {series_names}")
    usable = [row for row in sorted(rows, key=lambda r: r.key) if row.key in ratings]
    if len(usable) < 4:
        raise DegenerateInputError(f"series {series_names[0]!r}: need at least 4 rated episodes, got {len(usable)}")
    return usable, [ratings[row.key] for row in usable], len(rows) - len(usable)


def correlate_all(rows: list[EpisodeMetrics], ratings: dict[EpisodeKey, float]) -> CorrelationReport:
    """Correlate every metric column of one series against its reviews.

    Episodes without a rating are dropped and counted.  A constant metric
    column yields a flagged row (rho and p empty, note set) instead of an
    error so the report always carries all 12 rows.  add_permutation_pvalues
    adds the seeded permutation p-value cross-check to a report.
    """
    usable, reviews, excluded = _rated(rows, ratings)
    n = len(usable)
    results = []
    for column in METRICS:
        values = [float(getattr(row, column.attr)) for row in usable]
        try:
            rho = _rho(*_paired(values, reviews))
        except DegenerateInputError as exc:
            results.append(CorrelationResult(column.label, None, None, note=str(exc)))
            continue
        results.append(CorrelationResult(column.label, rho, spearman_pvalue(rho, n)))
    return CorrelationReport(results, n, excluded)


def add_permutation_pvalues(
    series: list[tuple[list[EpisodeMetrics], CorrelationReport]],
    ratings: dict[EpisodeKey, float],
    permutations: int,
    seed: int,
) -> None:
    """Replace every tested row of each series' report.results with a copy
    that carries its permutation_p.

    Each report is correlate_all's for the rows it is paired with.  The
    permutations floor is checked first, even when no row is tested.
    Series with the same number of rated episodes share one shuffle
    stream, yet each row's value equals permutation_pvalue(values,
    reviews, permutations, seed) for that row's column alone.
    """
    check_permutations(permutations)
    groups: dict[int, list] = {}
    for rows, report in series:
        usable, reviews, _ = _rated(rows, ratings)
        tested = [i for i, result in enumerate(report.results) if result.rho is not None]
        if tested:
            columns = [_centered([float(getattr(row, METRICS[i].attr)) for row in usable]) for i in tested]
            groups.setdefault(len(usable), []).append((report.results, tested, columns, _centered(reviews)))
    for group in groups.values():
        pvalues = _permutation_pvalues([(columns, cy) for _, _, columns, cy in group], permutations, seed)
        for (results, tested, _, _), values in zip(group, pvalues):
            for i, value in zip(tested, values):
                results[i] = results[i]._replace(permutation_p=value)
