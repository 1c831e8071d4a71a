"""Rank correlation and significance machinery against quadrature and
exhaustive-enumeration oracles."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from charnet import report, stats
from charnet.errors import DegenerateInputError, DomainError
from charnet.graph import EpisodeKey
from charnet.metrics import METRICS, EpisodeMetrics
from charnet.report import render_correlations
from charnet.stats import (
    correlate_all,
    permutation_pvalue,
    rank_with_ties,
    significance_stars,
    spearman_pvalue,
    spearman_rho,
)

from oracles import (
    exhaustive_permutation_pvalue,
    permutation_pvalues_float,
    spearman_rho_float,
    spearman_shortcut,
    t_two_tailed_quadrature,
)
from support import count_shuffles


class TestSignificanceStars:
    @pytest.mark.parametrize(
        "p,expected",
        [
            (0.0, "**"),
            (0.0099, "**"),
            (0.01, "*"),
            (0.034, "*"),
            (0.0499, "*"),
            (0.05, ""),
            (0.051, ""),
            (0.9, ""),
        ],
    )
    def test_strict_boundaries(self, p, expected):
        assert significance_stars(p) == expected


class TestRankWithTies:
    def test_distinct(self):
        assert rank_with_ties([10.0, 30.0, 20.0]) == [1.0, 3.0, 2.0]

    def test_pair_tie(self):
        assert rank_with_ties([1.0, 2.0, 2.0, 4.0]) == [1.0, 2.5, 2.5, 4.0]

    def test_all_tied(self):
        assert rank_with_ties([7.0, 7.0, 7.0]) == [2.0, 2.0, 2.0]

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError, match="^rank input contains a non-finite value$"):
            rank_with_ties([1.0, math.nan])
        with pytest.raises(DomainError, match="^rank input contains a non-finite value$"):
            rank_with_ties([1.0, math.inf])

    def test_empty_rejected(self):
        with pytest.raises(DegenerateInputError):
            rank_with_ties([])

    def test_int_past_float_range_rejected(self):
        with pytest.raises(DomainError, match="^rank input contains a value past the float range$"):
            rank_with_ties([10**400, 1, 2])
        with pytest.raises(DomainError, match="^rank input contains a value past the float range$"):
            spearman_rho([10**400, 1, 2, 3], [1, 2, 3, 4])

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40))
    def test_rank_sum_invariant(self, values):
        ranks = rank_with_ties(values)
        n = len(values)
        assert sum(ranks) == pytest.approx(n * (n + 1) / 2.0, rel=1e-12)
        assert all(1.0 <= r <= n for r in ranks)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=30))
    def test_equal_values_share_rank(self, values):
        ranked = rank_with_ties(values)
        by_value: dict[float, set[float]] = {}
        for v, r in zip(values, ranked):
            by_value.setdefault(v, set()).add(r)
        assert all(len(rs) == 1 for rs in by_value.values())


class TestSpearmanRho:
    def test_monotone_is_one(self):
        assert spearman_rho([1, 2, 3, 4], [10, 20, 30, 40]) == 1.0

    def test_reversed_is_minus_one(self):
        assert spearman_rho([1, 2, 3, 4], [9, 7, 5, 3]) == -1.0

    def test_textbook_example(self):
        # d^2 sums to 4: rho = 1 - 6*4 / (5*24) = 0.8
        assert spearman_rho([1, 2, 3, 4, 5], [2, 1, 4, 3, 5]) == pytest.approx(0.8)

    def test_symmetry(self):
        x = [3.0, 1.0, 4.0, 1.5, 9.0]
        y = [2.0, 7.0, 1.0, 8.0, 2.5]
        assert spearman_rho(x, y) == pytest.approx(spearman_rho(y, x), abs=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(DomainError, match="^length mismatch: 3 vs 2$"):
            spearman_rho([1, 2, 3], [1, 2])

    def test_too_short(self):
        with pytest.raises(DegenerateInputError):
            spearman_rho([1, 2], [3, 4])

    def test_constant_column(self):
        with pytest.raises(DegenerateInputError, match="constant"):
            spearman_rho([5, 5, 5, 5], [1, 2, 3, 4])

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
            min_size=3,
            max_size=25,
        )
    )
    def test_bounded(self, pairs):
        x = [a for a, _ in pairs]
        y = [b for _, b in pairs]
        try:
            rho = spearman_rho(x, y)
        except DegenerateInputError:
            return
        assert -1.0 <= rho <= 1.0

    @settings(max_examples=100, deadline=None)
    @given(
        # integers, so the transforms below stay strictly increasing in
        # float arithmetic (nearly-equal floats can collide under exp)
        st.lists(st.integers(1, 500), min_size=4, max_size=15, unique=True),
        st.randoms(use_true_random=False),
    )
    def test_monotone_transform_invariance(self, x, rng):
        x = [float(v) for v in x]
        y = x[:]
        rng.shuffle(y)
        base = spearman_rho(x, y)
        assert spearman_rho([math.exp(v / 100.0) for v in x], y) == pytest.approx(
            base, abs=1e-12
        )
        assert spearman_rho([3.0 * v + 11.0 for v in x], y) == pytest.approx(
            base, abs=1e-12
        )
        assert spearman_rho(x, [v**3 for v in y]) == pytest.approx(base, abs=1e-12)

    @settings(max_examples=120, deadline=None)
    @given(
        st.lists(st.floats(-900.0, 900.0), min_size=4, max_size=12, unique=True),
        st.lists(st.floats(-900.0, 900.0), min_size=12, max_size=12, unique=True),
    )
    def test_tie_free_shortcut_agreement(self, x, y_pool):
        y = y_pool[: len(x)]
        assert spearman_rho(x, y) == pytest.approx(spearman_shortcut(x, y), abs=1e-12)

    @settings(max_examples=120, deadline=None)
    @given(
        st.tuples(
            st.integers(3, 400),
            st.sampled_from(
                [st.integers(0, 2), st.integers(0, 9), st.integers(-(10**6), 10**6).map(lambda v: v / 1000)]
            ),
        ).flatmap(
            lambda shape: st.tuples(
                st.lists(shape[1], min_size=shape[0], max_size=shape[0]),
                st.lists(shape[1], min_size=shape[0], max_size=shape[0]),
            )
        )
    )
    def test_same_bits_as_float_ranks(self, columns):
        # tied int columns and 3-decimal columns: the int rank form rounds
        # to the same float as float centered ranks did
        x, y = columns
        assume(len(set(x)) > 1 and len(set(y)) > 1)
        assert spearman_rho(x, y).hex() == spearman_rho_float(x, y).hex()


class TestSpearmanPvalue:
    # anchors from data/reference/reference_correlations.csv, rounded to 3
    # decimals there; the t approximation must land within 0.001 of each
    @pytest.mark.parametrize(
        "rho,n,expected",
        [
            (-0.49, 22, 0.021),
            (0.561, 22, 0.007),
            (0.418, 26, 0.034),
            (0.499, 26, 0.009),
            (-0.493, 26, 0.010),
            (0.448, 26, 0.022),
        ],
    )
    def test_reference_anchors(self, rho, n, expected):
        assert spearman_pvalue(rho, n) == pytest.approx(expected, abs=1e-3)

    def test_perfect_correlation(self):
        for n in (4, 5, 10, 11):  # even and odd df
            assert spearman_pvalue(1.0, n) == 0.0
            assert spearman_pvalue(-1.0, n) == 0.0

    def test_zero_rho(self):
        for n in (4, 5, 12, 13):
            assert spearman_pvalue(0.0, n) == pytest.approx(1.0, abs=1e-12)

    def test_two_df_tail_is_one_minus_abs_rho(self):
        # the t_2 tail: P(|T| > t) = 1 - t / sqrt(2 + t^2) = 1 - |rho| at df = 2
        for rho in (-0.93, -0.4, 0.05, 0.5, 0.999):
            assert spearman_pvalue(rho, 4) == pytest.approx(1.0 - abs(rho), abs=1e-15)

    def test_tail_is_clamped_at_zero(self):
        # unclamped, the finite sum lands at -2.2e-16 here and prints -0.000
        p = spearman_pvalue(0.7591299450687021, 101)
        assert p >= 0.0
        assert report.fmt_real(p) == "0.000"

    def test_sign_symmetry(self):
        for rho in (0.1, 0.37, 0.82):
            assert spearman_pvalue(rho, 17) == pytest.approx(
                spearman_pvalue(-rho, 17), abs=1e-15
            )

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            spearman_pvalue(0.5, 3)
        with pytest.raises(DomainError):
            spearman_pvalue(1.2, 10)
        with pytest.raises(DomainError):
            spearman_pvalue(math.nan, 10)

    def test_matches_quadrature_oracle(self):
        for n in (4, 5, 7, 10, 24, 31, 40):  # even and odd df
            df = n - 2
            for rho in (0.05, -0.2, 0.45, -0.7, 0.9):
                t = abs(rho) * math.sqrt(df / (1.0 - rho * rho))
                expected = t_two_tailed_quadrature(t, df)
                assert spearman_pvalue(rho, n) == pytest.approx(expected, abs=1e-8)

    def test_monotone_in_effect_size(self):
        for n in (20, 21):  # even and odd df
            ps = [spearman_pvalue(rho / 100.0, n) for rho in range(0, 100, 5)]
            assert all(a > b for a, b in zip(ps, ps[1:]))

    def test_monotone_in_sample_size(self):
        # step 1, so every step crosses from one df parity's sum to the other's
        ps = [spearman_pvalue(0.45, n) for n in range(4, 60)]
        assert all(a > b for a, b in zip(ps, ps[1:]))

    def test_matches_incomplete_beta_to_full_precision(self):
        # the t tail is I_{df/(df+t^2)}(df/2, 1/2), here at 50 digits
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(2604)
        worst = 0.0
        with mpmath.workdps(50):
            for i in range(300):
                n = rng.randint(4, 300)
                rho = rng.uniform(0.9, 1.0) if i % 3 == 0 else rng.uniform(-1.0, 1.0)
                x = 1 - mpmath.mpf(rho) ** 2  # df/(df+t^2), without forming t
                exact = mpmath.betainc(mpmath.mpf(n - 2) / 2, mpmath.mpf(1) / 2, 0, x, regularized=True)
                worst = max(worst, abs(spearman_pvalue(rho, n) - float(exact)))
        assert worst <= 1e-14


class TestPermutationPvalue:
    def test_iteration_floor(self):
        with pytest.raises(DomainError, match="1000"):
            permutation_pvalue([1, 2, 3, 4, 5], [5, 3, 4, 1, 2], 999, 0)

    def test_seed_determinism(self):
        x = [1, 2, 3, 4, 5, 6, 7, 8]
        y = [2, 1, 4, 3, 6, 5, 8, 7]
        first = permutation_pvalue(x, y, 2000, 42)
        second = permutation_pvalue(x, y, 2000, 42)
        assert first == second

    def test_perfect_monotone_is_extreme(self):
        x = list(range(1, 9))
        p = permutation_pvalue(x, x, 10000, 3)
        assert p <= 0.002

    def test_matches_exhaustive_enumeration(self):
        rng = random.Random(909)
        for _ in range(4):
            x = list(range(1, 7))
            y = list(range(1, 7))
            rng.shuffle(y)
            exact = exhaustive_permutation_pvalue(x, y)
            estimate = permutation_pvalue(x, y, 20000, rng.randrange(10**6))
            assert estimate == pytest.approx(exact, abs=0.02)

    def test_constant_side_rejected(self):
        with pytest.raises(DegenerateInputError):
            permutation_pvalue([1, 1, 1, 1], [1, 2, 3, 4], 1000, 0)


def _tied_column(n: int, top: int):
    return st.lists(st.integers(0, top), min_size=n, max_size=n)


def _field_bytes(n: int) -> int:
    return ((2 * n**3).bit_length() + 8) // 8


def _batch(n: int) -> int:
    """Shuffles per batch of the packed permutation loop."""
    return max(1, stats._BATCH_BYTES // (n * _field_bytes(n)))


def _boundary_columns(n: int, salt: int = 0):
    """Seeded tied columns against binary reviews, plus rho = +1 and -1:
    many shuffles meet the observed |dot| exactly."""
    rng = random.Random(n + 1000 * salt)
    reviews = [i % 2 for i in range(n)]
    rng.shuffle(reviews)
    columns = []
    for values in ([rng.randint(0, 1) for _ in range(n)], [rng.randint(0, 3) for _ in range(n)], reviews):
        for signed in (values, [-v for v in values]):
            cx, cy = stats._paired(signed, reviews)
            columns.append(cx)
    return columns, cy


class TestPackedPermutationLoop:
    """The integer loop against the float loop it replaced, bit for bit."""

    @settings(max_examples=15, deadline=None)
    @given(
        st.tuples(st.integers(4, 200), st.integers(1, 3)).flatmap(
            lambda shape: st.tuples(
                st.lists(_tied_column(*shape), min_size=1, max_size=2),
                _tied_column(*shape),
            )
        ),
        st.integers(0, 2**16),
    )
    def test_equals_float_oracle_on_ties(self, drawn, seed):
        # top 1 makes both sides binary: |dot| takes few values, so many
        # shuffles tie the observed one exactly and meet the >= boundary
        drawn_columns, reviews = drawn
        columns = []
        for values in drawn_columns + [reviews, [-r for r in reviews]]:  # rho = +1, -1
            try:
                cx, cy = stats._paired(values, reviews)
            except DegenerateInputError:
                continue
            columns.append(cx)
        assume(columns)
        packed = stats._permutation_pvalues([(columns, cy)], 1000, seed)[0]
        assert packed == permutation_pvalues_float(columns, cy, 1000, seed)
        assert packed[-2] == packed[-1]  # rho = +1 and -1 have the same |dot|

    def test_threshold_is_exact_at_large_n(self, monkeypatch):
        # At n = 1500 the observed |dot| of doubled ranks exceeds 1e9, where
        # a relative tolerance of 1e-9 would pass 1 and count a shuffle whose
        # dot lies exactly 1 below the observed one.  A stand-in shuffle
        # applies two swaps that move the dot by -1; applying them again
        # restores y, so the dots alternate o - 1, o and exactly every second
        # one hits.
        x = [3, 0, 3, 1, 4, 5] + list(range(10, 1504))
        y = [0, 5, 1, 0, 3, 5] + list(range(10, 1504))
        cx, cy = stats._paired(x, y)

        def swap(v):
            v[1], v[4] = v[4], v[1]
            v[2], v[5] = v[5], v[2]

        observed = abs(sum(a * b for a, b in zip(cx, cy)))
        near = list(cy)
        swap(near)
        assert abs(sum(a * b for a, b in zip(cx, near))) == observed - 1
        assert 1e-9 * observed > 1

        class TwoSwaps(random.Random):  # the float oracle shuffles through Random
            def shuffle(self, v):
                swap(v)

        monkeypatch.setattr(random, "Random", TwoSwaps)
        monkeypatch.setattr(stats, "_shuffle", lambda ys, getrandbits, steps: swap(ys))
        packed = stats._permutation_pvalues([([cx], cy)], 1000, 0)[0]
        assert packed == permutation_pvalues_float([cx], cy, 1000, 0) == [501 / 1001]

    @pytest.mark.parametrize("iterations", [1023, 1024, 2047, 4095, 4096])
    def test_hit_counts_stay_in_their_fields(self, iterations):
        # At n = 4 a field is 2 bytes whatever the iteration count, and a
        # batch holds _batch(4) = 512 shuffles, so these counts end one
        # short of a batch end or exactly on one.  The middle column has
        # dot 0, so every shuffle is a hit; a hit landing in the wrong
        # shuffle's field, or a shuffle lost or counted twice at a batch
        # end, would change a p-value.
        reviews = [1, 2, 3, 4]
        columns = []
        for values in ([2, 1, 4, 3], [1, 2, 2, 1], [4, 1, 3, 2]):
            cx, cy = stats._paired(values, reviews)
            columns.append(cx)
        assert sum(a * b for a, b in zip(columns[1], cy)) == 0
        packed = stats._permutation_pvalues([(columns, cy)], iterations, 5)[0]
        assert packed == permutation_pvalues_float(columns, cy, iterations, 5)
        assert packed[1] == 1.0

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("n", [4, 25, 26])
    def test_iterations_around_batch_ends(self, n, offset):
        # the first whole number of batches past 1000, then one short and one past it
        batch = _batch(n)
        iterations = batch * -(-1001 // batch) + offset
        columns, cy = _boundary_columns(n)
        packed = stats._permutation_pvalues([(columns, cy)], iterations, 17)[0]
        assert packed == permutation_pvalues_float(columns, cy, iterations, 17)

    @pytest.mark.parametrize("n", [25, 26, 161, 162, 203, 204])
    def test_field_grows_a_byte(self, n):
        # a field holds bits(2n^3) + 1 bits: 2 bytes up to n = 25, 3 up to
        # n = 161, then 4; 203/204 is where bits(2n^3) alone would grow
        assert _field_bytes(n) == (2 if n <= 25 else 3 if n <= 161 else 4)
        columns, cy = _boundary_columns(n)
        packed = stats._permutation_pvalues([(columns, cy)], 1000, n)[0]
        assert packed == permutation_pvalues_float(columns, cy, 1000, n)

    @pytest.mark.parametrize("wide", [False, True])
    @pytest.mark.parametrize("n", [4, 25, 26])
    def test_series_of_one_size_share_the_stream(self, monkeypatch, n, wide):
        # Three series of one size, each with its own reviews and column
        # count, share one shuffle stream, yet each gets what it gets alone.
        # When wide, the row of three series' fields exceeds _BATCH_BYTES,
        # so each batch holds one shuffle.
        series = [_boundary_columns(n, salt) for salt in range(3)]
        series = [(columns[salt:], cy) for salt, (columns, cy) in enumerate(series)]
        alone = [stats._permutation_pvalues([one], 1500, 23)[0] for one in series]
        assert alone == [permutation_pvalues_float(columns, cy, 1500, 23) for columns, cy in series]
        if wide:
            monkeypatch.setattr(stats, "_BATCH_BYTES", 3 * n * _field_bytes(n) - 1)
        shuffles = count_shuffles(monkeypatch)
        assert stats._permutation_pvalues(series, 1500, 23) == alone
        assert shuffles == [n] * 1500

    def test_integer_bound_edges(self):
        # For rho = +1 and -1 no shuffle exceeds |observed dot|: a hit needs
        # the field to equal hi_c (or lo_c) exactly.  The last two columns
        # have |dot| = 25, and shuffles reach 24 on either side: one below
        # the observed 25, so they must not count.
        reviews = [0, 0, 0, 0, 1, 2]
        near = [0, 0, 0, 1, 0, 2]
        columns = []
        for values in (reviews, [-r for r in reviews], near, [-v for v in near]):
            cx, cy = stats._paired(values, reviews)
            columns.append(cx)
        assert sum(a * b for a, b in zip(columns[2], cy)) == 25
        packed = stats._permutation_pvalues([(columns, cy)], 5000, 11)[0]
        assert packed == permutation_pvalues_float(columns, cy, 5000, 11)
        assert packed[0] == packed[1] > 1 / 5001  # some shuffles did hit


class TestShuffle:
    def test_same_stream_as_random_shuffle(self):
        # _shuffle must consume a Random's getrandbits exactly as
        # Random.shuffle does.  If this fails on some Python version, its
        # shuffle stream changed there, and every permutation p-value would
        # drift from the float oracle's and from earlier releases.
        for seed in (0, 1, 7, 2**31):
            for n in range(2, 65):
                steps = [(i, i + 1, (i + 1).bit_length()) for i in range(n - 1, 0, -1)]
                ours, reference = random.Random(seed), random.Random(seed)
                inline, shuffled = list(range(n)), list(range(n))
                for _ in range(20):
                    stats._shuffle(inline, ours.getrandbits, steps)
                    reference.shuffle(shuffled)
                    assert inline == shuffled, (seed, n)
                assert ours.getrandbits(64) == reference.getrandbits(64)


def _demo_rows() -> list[EpisodeMetrics]:
    rng = random.Random(11)
    rows = []
    for i in range(1, 9):
        rows.append(
            EpisodeMetrics(
                key=EpisodeKey("demo", 1, i),
                active_nodes=5,  # constant on purpose: must be flagged
                density=i / 10.0,
                efficiency=rng.random(),
                transitivity=(9 - i) / 10.0,
                strength_max=rng.uniform(10, 400),
                strength_std=rng.uniform(0, 50),
                degree_max=rng.randrange(2, 9),
                degree_std=rng.uniform(0, 3),
                harmonic_max=rng.uniform(1, 8),
                harmonic_std=rng.uniform(0, 2),
                eigen_max=rng.uniform(0.3, 0.9),
                eigen_std=rng.uniform(0, 0.3),
            )
        )
    return rows


def _demo_ratings() -> dict[EpisodeKey, float]:
    return {EpisodeKey("demo", 1, i): float(i) for i in range(1, 9)}


def _assert_rows_match_standalone(rows, ratings, permutations, seed, report=None):
    """Every tested row's permutation p equals a lone call with the same seed."""
    if report is None:
        report = correlate_all(rows, ratings, permutations=permutations, seed=seed)
    usable = [row for row in sorted(rows, key=lambda r: r.key) if row.key in ratings]
    reviews = [ratings.get(row.key) for row in usable]
    for column, result in zip(METRICS, report.results):
        if result.rho is None:
            assert result.permutation_p is None
            continue
        values = [float(getattr(row, column.attr)) for row in usable]
        assert result.permutation_p == permutation_pvalue(values, reviews, permutations, seed)


class TestCorrelateAll:
    def test_report_shape_and_order(self):
        report = correlate_all(_demo_rows(), _demo_ratings())
        assert report.n == 8
        assert report.excluded == 0
        assert [r.metric_name for r in report.results] == [c.label for c in METRICS]

    def test_perfectly_aligned_column(self):
        report = correlate_all(_demo_rows(), _demo_ratings())
        density = next(r for r in report.results if r.metric_name == "Density")
        assert density.rho == 1.0
        assert density.p_value == 0.0
        assert significance_stars(density.p_value) == "**"
        reversed_col = next(
            r for r in report.results if r.metric_name == "Transitivity"
        )
        assert reversed_col.rho == -1.0

    def test_constant_column_flagged_not_fatal(self):
        report = correlate_all(_demo_rows(), _demo_ratings())
        flagged = next(r for r in report.results if r.metric_name == "Active Nodes")
        assert flagged.rho is None
        assert flagged.p_value is None
        assert "\nActive Nodes,,,\n" in render_correlations(report, [], "csv")
        assert "constant" in flagged.note

    def test_unrated_episodes_excluded_and_counted(self):
        rows = _demo_rows()
        rows.append(EpisodeMetrics(key=EpisodeKey("demo", 1, 99), density=0.5))
        rows.append(EpisodeMetrics(key=EpisodeKey("demo", 2, 1), density=0.6))
        report = correlate_all(rows, _demo_ratings())
        assert report.n == 8
        assert report.excluded == 2

    def test_permutation_column(self):
        report = correlate_all(
            _demo_rows(), _demo_ratings(), permutations=1000, seed=7
        )
        for result in report.results:
            if result.rho is None:
                assert result.permutation_p is None
            else:
                assert 0.0 < result.permutation_p <= 1.0
        again = correlate_all(
            _demo_rows(), _demo_ratings(), permutations=1000, seed=7
        )
        assert report == again

    def test_permutation_rows_equal_standalone_calls(self):
        _assert_rows_match_standalone(_demo_rows(), _demo_ratings(), 1000, 7)

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(5, 9).flatmap(
            lambda n: st.tuples(
                st.lists(_tied_column(n, 3), min_size=12, max_size=12),
                _tied_column(n, 4),
            )
        ),
        st.integers(0, 2**16),
    )
    def test_permutation_rows_equal_standalone_calls_with_ties(self, drawn, seed):
        columns, reviews = drawn
        rows, ratings = [], {}
        for i, review in enumerate(reviews):
            key = EpisodeKey("ties", 1, i + 1)
            cells = {c.attr: column[i] for c, column in zip(METRICS, columns)}
            rows.append(EpisodeMetrics(key=key, **cells))
            ratings[key] = float(review)
        _assert_rows_match_standalone(rows, ratings, 1000, seed)

    def test_constant_reviews_flag_every_row(self):
        ratings = {key: 7.5 for key in _demo_ratings()}
        report = correlate_all(_demo_rows(), ratings, permutations=1000, seed=7)
        assert len(report.results) == 12
        for result in report.results:
            assert result.rho is None and result.p_value is None
            assert result.permutation_p is None
            expected = "x is constant" if result.metric_name == "Active Nodes" else "y is constant"
            assert result.note == expected

    def test_one_shuffle_stream_per_series(self, monkeypatch):
        shuffles = count_shuffles(monkeypatch)
        report = correlate_all(_demo_rows(), _demo_ratings(), permutations=1000, seed=7)
        assert len(shuffles) == 1000
        _assert_rows_match_standalone(_demo_rows(), _demo_ratings(), 1000, 7, report)

    def test_permutation_floor_applies_to_tested_rows(self):
        with pytest.raises(DomainError):
            correlate_all(_demo_rows(), _demo_ratings(), permutations=999)

    def test_permutation_floor_applies_when_no_row_is_tested(self):
        # constant reviews flag every row, so no column reaches the permutation test
        ratings = {key: 7.5 for key in _demo_ratings()}
        with pytest.raises(DomainError, match="^permutation test needs >= 1000 iterations, got 5$"):
            correlate_all(_demo_rows(), ratings, permutations=5)

    def test_mixed_series_rejected(self):
        rows = _demo_rows()
        rows.append(EpisodeMetrics(key=EpisodeKey("other", 1, 1)))
        with pytest.raises(DomainError, match="^expected rows from exactly one series, got \\['demo', 'other'\\]$"):
            correlate_all(rows, _demo_ratings())

    def test_insufficient_rated_episodes(self):
        rows = _demo_rows()[:3]
        with pytest.raises(DegenerateInputError, match="^series 'demo': need at least 4 rated episodes, got 3$"):
            correlate_all(rows, _demo_ratings())
