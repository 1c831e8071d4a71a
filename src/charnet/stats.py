"""Spearman rank correlation with significance testing.

rho is the Pearson correlation of average ranks, which stays correct under
ties; the classic 6*sum(d^2) shortcut is deliberately not used (it is only
valid tie-free, and review scores repeat).  Two-tailed p-values come from
the Student-t approximation with n-2 degrees of freedom, evaluated through
a continued-fraction regularized incomplete beta.  A seeded permutation
test provides an independent cross-check of that approximation.
"""

from __future__ import annotations

import math
import operator
import random

from .errors import (
    ConvergenceError,
    DegenerateInputError,
    DomainError,
    InsufficientDataError,
    LengthMismatchError,
    NonFiniteError,
)
from .graph import EpisodeKey, _Record
from .metrics import METRICS, EpisodeMetrics

_BETA_EPS = 1e-12
_BETA_FPMIN = 1e-300
_BETA_MAX_ITER = 300


class CorrelationResult(_Record):
    """One metric column against the review column.

    rho and p_value are None when the column was degenerate (constant);
    note says why.  significance: '**' p < 0.01, '*' p < 0.05, else ''.
    """

    __slots__ = ("metric_name", "rho", "p_value", "significance", "note", "permutation_p")

    def __init__(
        self,
        metric_name: str,
        rho: float | None,
        p_value: float | None,
        significance: str = "",
        note: str = "",
        permutation_p: float | None = None,
    ) -> None:
        self.metric_name = metric_name
        self.rho = rho
        self.p_value = p_value
        self.significance = significance
        self.note = note
        self.permutation_p = permutation_p


class CorrelationReport(_Record):
    """All 12 metric correlations for one series, over n rated episodes."""

    __slots__ = ("results", "n", "excluded")

    def __init__(self, results: list[CorrelationResult] | None = None, n: int = 0, excluded: int = 0) -> None:
        self.results = [] if results is None else results
        self.n = n
        self.excluded = excluded


def significance_stars(p: float) -> str:
    if p < 0.01:
        return "**"
    if p < 0.05:
        return "*"
    return ""


def _check_finite(values, what: str) -> list[float]:
    out = [float(v) for v in values]
    if any(not math.isfinite(v) for v in out):
        raise NonFiniteError(f"{what} contains a non-finite value")
    return out


def rank_with_ties(values) -> list[float]:
    """Ascending 1-based ranks; tied values share the mean of their positions."""
    data = _check_finite(values, "rank input")
    if not data:
        raise DegenerateInputError("cannot rank an empty list")
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


def _paired(x, y) -> tuple[list[float], list[float]]:
    """Check a pair of columns and return both centered rank vectors."""
    if len(x) != len(y):
        raise LengthMismatchError(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 3:
        raise DegenerateInputError(f"need at least 3 pairs, got {len(x)}")
    centered = []
    for values, what in ((x, "x"), (y, "y")):
        ranks = rank_with_ties(values)
        mean = sum(ranks) / len(ranks)
        centered.append([r - mean for r in ranks])
        if all(c == 0.0 for c in centered[-1]):
            raise DegenerateInputError(f"{what} is constant")
    return centered[0], centered[1]


def _rho(cx: list[float], cy: list[float]) -> float:
    dot = sum(a * b for a, b in zip(cx, cy))
    rho = dot / math.sqrt(sum(a * a for a in cx) * sum(b * b for b in cy))
    return max(-1.0, min(1.0, rho))


def spearman_rho(x, y) -> float:
    """Pearson correlation of the two average-rank vectors."""
    return _rho(*_paired(x, y))


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz scheme)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _BETA_FPMIN:
        d = _BETA_FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _BETA_MAX_ITER + 1):
        m2 = 2 * m
        even = m * (b - m) * x / ((qam + m2) * (a + m2))
        odd = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        for aa in (even, odd):  # one Lentz step per coefficient
            d = 1.0 + aa * d
            if abs(d) < _BETA_FPMIN:
                d = _BETA_FPMIN
            c = 1.0 + aa / c
            if abs(c) < _BETA_FPMIN:
                c = _BETA_FPMIN
            d = 1.0 / d
            step = d * c
            h *= step
        if abs(step - 1.0) < _BETA_EPS:
            return h
    raise ConvergenceError(
        f"incomplete beta continued fraction stalled at a={a:g} b={b:g} x={x:g}"
    )


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0 or b <= 0:
        raise DomainError(f"beta parameters must be positive, got a={a:g} b={b:g}")
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"beta argument x={x:g} outside [0, 1]")
    if x == 0.0 or x == 1.0:
        return x
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log(1.0 - x)
    )
    front = math.exp(ln_front)
    # continued fraction converges fast only on one side of the mean
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def spearman_pvalue(rho: float, n: int) -> float:
    """Two-tailed p for an observed rho at sample size n.

    t = rho * sqrt((n-2) / (1-rho^2)) referred to the t-distribution with
    n-2 degrees of freedom: p = I_{df/(df+t^2)}(df/2, 1/2).
    """
    if n < 4:
        raise DomainError(f"p-value needs n >= 4, got {n}")
    if not math.isfinite(rho) or abs(rho) > 1.0:
        raise DomainError(f"rho must lie in [-1, 1], got {rho!r}")
    if abs(rho) == 1.0:
        return 0.0
    df = float(n - 2)
    t_squared = rho * rho * df / (1.0 - rho * rho)
    return regularized_incomplete_beta(df / 2.0, 0.5, df / (df + t_squared))


def check_permutations(iterations: int) -> None:
    """The one floor on permutation counts, for the CLI and both entry points."""
    if iterations < 1000:
        raise DomainError(f"permutation test needs >= 1000 iterations, got {iterations}")


def _permutation_pvalues(columns, cy, iterations: int, seed: int) -> list[float]:
    """Seeded permutation p-values of every centered column against cy.

    One shuffle stream of cy serves all columns, so each value equals the
    one a lone column gets from the same seed.  Permuting y permutes its
    rank vector, so only rank dot products are recomputed per shuffle.
    Add-one smoothing on both sides keeps the estimates away from 0.

    The dots run in exact integers.  Centered ranks are half-integers, so
    2c + n is a non-negative integer, and as each column sums to 0,
    sum (2a + n)(2b + n) = 4*dot + n^3, which lies in [0, 2n^3].  Every
    column gets a bit field in one packed int per position, so one
    multiply-accumulate per shuffle yields all the dots at once.

    The hit test is packed too.  A field is max(bits(2n^3), bits(iterations))
    + 1 bits wide, and its top bit is a guard that no dot reaches.  A field
    is an integer, so |4*dot| >= limit_c holds exactly when the field is at
    least hi_c = n^3 + k_c or at most lo_c = n^3 - k_c, with k_c =
    ceil(limit_c).  Adding guard - hi_c to a field sets its guard bit iff
    field >= hi_c, and adding guard - lo_c - 1 sets it iff field > lo_c;
    neither sum carries out of its field.  So each shuffle leaves every
    column's hit in its guard bit, and the hits add up there: a count of
    at most `iterations` fits in the bits up to the next field's guard.
    """
    check_permutations(iterations)
    observed = [abs(sum(a * b for a, b in zip(cx, cy))) for cx in columns]
    # 4*dot is an integer and scaling a float by 4 is exact, so
    # |dot| >= threshold is |4*dot| >= ceil(4*threshold) with no rounding.
    bounds = [math.ceil(4 * (o - 1e-9 * max(1.0, o))) for o in observed]
    n = len(cy)
    cube = n**3
    width = max((2 * cube).bit_length(), iterations.bit_length()) + 1
    guard = 1 << (width - 1)
    lanes = [0] * n
    add_hi = add_lo = guards = 0
    for c, (cx, k) in enumerate(zip(columns, bounds)):
        shift = c * width
        for i, a in enumerate(cx):
            lanes[i] |= _doubled(a, n) << shift
        add_hi |= (guard - cube - k) << shift
        add_lo |= (guard - cube + k - 1) << shift
        guards |= guard << shift
    ys = [_doubled(b, n) for b in cy]
    getrandbits = random.Random(seed).getrandbits
    steps = [(i, i + 1, (i + 1).bit_length()) for i in range(n - 1, 0, -1)]
    acc = 0
    for _ in range(iterations):
        _shuffle(ys, getrandbits, steps)
        total = sum(map(operator.mul, ys, lanes))
        acc += ((total + add_hi) | ~(total + add_lo)) & guards
    mask = (1 << width) - 1
    hits = [acc >> (c * width + width - 1) & mask for c in range(len(columns))]
    return [(1 + h) / (1 + iterations) for h in hits]


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


def _doubled(centered: float, n: int) -> int:
    """2*centered + n as an int; centered ranks are exact half-integers."""
    doubled = int(2 * centered)
    assert doubled == 2 * centered, f"centered rank {centered!r} is no half-integer"
    return doubled + n


def permutation_pvalue(x, y, iterations: int, rng_seed: int) -> float:
    """Share of seeded permutations of y at least as extreme as observed."""
    check_permutations(iterations)  # reported ahead of any input error
    cx, cy = _paired(x, y)
    return _permutation_pvalues([cx], cy, iterations, rng_seed)[0]


def correlate_all(
    rows: list[EpisodeMetrics],
    ratings: dict[EpisodeKey, float],
    permutations: int | None = None,
    seed: int = 0,
) -> CorrelationReport:
    """Correlate every metric column of one series against its reviews.

    Episodes without a rating are dropped and counted.  A constant metric
    column yields a flagged row (rho and p empty, note set) instead of an
    error so the report always carries all 12 rows.  When `permutations`
    is set, each row also gets a seeded permutation p-value cross-check.
    """
    series_names = sorted({row.key.series for row in rows})
    if len(series_names) != 1:
        raise ValueError(f"expected rows from exactly one series, got {series_names}")

    paired = [(row, ratings.get(row.key)) for row in sorted(rows, key=lambda r: r.key)]
    usable = [(row, review) for row, review in paired if review is not None]
    n = len(usable)
    if n < 4:
        raise InsufficientDataError(f"series {series_names[0]!r}: need at least 4 rated episodes, got {n}")

    reviews = [review for _, review in usable]
    report = CorrelationReport(n=n, excluded=len(paired) - n)
    tested: list[CorrelationResult] = []
    columns: list[list[float]] = []
    for column in METRICS:
        values = [float(getattr(row, column.attr)) for row, _ in usable]
        try:
            cx, cy = _paired(values, reviews)
        except DegenerateInputError as exc:
            report.results.append(CorrelationResult(column.label, None, None, note=str(exc)))
            continue
        rho = _rho(cx, cy)
        p = spearman_pvalue(rho, n)
        tested.append(CorrelationResult(column.label, rho, p, significance_stars(p)))
        report.results.append(tested[-1])
        columns.append(cx)
    if permutations is not None and tested:  # cy is the same for every column
        pvalues = _permutation_pvalues(columns, cy, permutations, seed)
        for result, pvalue in zip(tested, pvalues):
            result.permutation_p = pvalue
    return report
