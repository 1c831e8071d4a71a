"""Value semantics of the record types: the namedtuples (the key, the
config and the records built in one step), and the mutable graph and row
records that are filled step by step."""

from __future__ import annotations

import pytest

from charnet import (
    METRICS,
    CorrelationReport,
    CorrelationResult,
    EpisodeGraph,
    EpisodeKey,
    EpisodeMetrics,
    MetricsConfig,
    SegmentGraph,
)
from charnet.ingest import ParsedEpisode

KEY = EpisodeKey("got", 1, 1)


class TestEpisodeKey:
    def test_sorts_like_its_field_tuple(self):
        keys = [EpisodeKey("got", 2, 1), EpisodeKey("bb", 3, 1), EpisodeKey("got", 1, 10), EpisodeKey("got", 1, 2)]
        assert sorted(keys) == sorted(keys, key=lambda k: (k.series, k.season, k.episode))
        assert [str(k) for k in sorted(keys)] == ["bb 3 1", "got 1 2", "got 1 10", "got 2 1"]

    def test_hashes_as_its_field_tuple(self):
        # set and dict orders, and so the report bytes, follow this hash
        assert hash(KEY) == hash(("got", 1, 1))
        assert hash(EpisodeKey("a", 2, 3)) == hash(("a", 2, 3))

    def test_str_and_repr(self):
        assert str(KEY) == "got 1 1"
        assert repr(KEY) == "EpisodeKey(series='got', season=1, episode=1)"

    @pytest.mark.parametrize("field", ["series", "season", "episode"])
    def test_fields_cannot_be_assigned(self, field):
        with pytest.raises(AttributeError):
            setattr(KEY, field, 2)
        assert KEY == EpisodeKey("got", 1, 1)


def test_metrics_config_defaults():
    config = MetricsConfig()
    assert (config.efficiency_mode, config.eigen_tol, config.eigen_max_iter) == ("component-mean", 1e-10, 10000)


def test_immutable_records_are_their_field_tuples():
    # as README "Library use" documents
    assert KEY == ("got", 1, 1)
    assert MetricsConfig()._replace(efficiency_mode="neighborhood") == MetricsConfig("neighborhood")


MUTABLE_RECORDS = [SegmentGraph(index=0), EpisodeGraph(key=KEY), EpisodeMetrics(key=KEY)]


@pytest.mark.parametrize("record", MUTABLE_RECORDS, ids=lambda record: type(record).__name__)
def test_mutable_records_are_unhashable(record):
    with pytest.raises(TypeError):
        hash(record)


@pytest.mark.parametrize("record", MUTABLE_RECORDS, ids=lambda record: type(record).__name__)
def test_mutable_records_equal_only_records_of_their_class(record):
    assert record != tuple(getattr(record, name) for name in record.__slots__)
    assert all(record != other for other in MUTABLE_RECORDS if other is not record)


BUILT_RECORDS = [
    ParsedEpisode(KEY, [SegmentGraph(index=0)], []),
    CorrelationResult("Density", 0.5, 0.04),
    CorrelationReport([CorrelationResult("Density", None, None, note="x is constant")], 5, 1),
]


@pytest.mark.parametrize("record", BUILT_RECORDS, ids=lambda record: type(record).__name__)
def test_built_records_are_their_field_tuples(record):
    assert record == tuple(getattr(record, name) for name in record._fields)
    last = record._fields[-1]
    changed = record._replace(**{last: 7})
    assert getattr(changed, last) == 7 and changed[:-1] == record[:-1]
    assert getattr(record, last) != 7


def _graph(**facts) -> EpisodeGraph:
    return EpisodeGraph(key=KEY, nodes={"A", "B"}, edges={("A", "B"): 1.5}, **facts)


class TestEpisodeGraph:
    @pytest.mark.parametrize(
        "facts",
        [{"warnings": ["MissingRating: no review score"]}, {"duplicates_dropped": 1}, {"segment_count": 3}],
        ids=lambda facts: next(iter(facts)),
    )
    def test_equality_compares_load_facts(self, facts):
        assert _graph() == _graph()
        assert _graph() != _graph(**facts)

    def test_equality_compares_edges(self):
        other = _graph()
        other.edges[("A", "B")] = 2.5
        assert _graph() != other

    def test_repr_names_every_field(self):
        assert repr(EpisodeGraph(key=KEY)) == (
            "EpisodeGraph(key=EpisodeKey(series='got', season=1, episode=1), nodes=set(), edges={}, "
            "segment_count=0, warnings=[], duplicates_dropped=0)"
        )

    def test_defaults_are_not_shared(self):
        a, b = EpisodeGraph(key=KEY), EpisodeGraph(key=KEY)
        a.nodes.add("A")
        a.warnings.append("w")
        assert b.nodes == set() and b.warnings == []


class TestEpisodeMetrics:
    def test_unknown_keyword_is_a_type_error(self):
        with pytest.raises(TypeError, match="bogus"):
            EpisodeMetrics(key=KEY, bogus=1)

    def test_attributes_are_key_warnings_and_the_metric_columns(self):
        public = {name for name in dir(EpisodeMetrics(key=KEY)) if not name.startswith("_")}
        assert public == {"key", "warnings", *(column.attr for column in METRICS)}

    def test_cells_start_at_zero_of_their_column_type(self):
        row = EpisodeMetrics(key=KEY)
        for column in METRICS:
            cell = getattr(row, column.attr)
            assert cell == 0 and type(cell) is (int if column.integer else float), column.attr

    def test_equality_compares_cells(self):
        assert EpisodeMetrics(key=KEY, density=0.5) == EpisodeMetrics(key=KEY, density=0.5)
        assert EpisodeMetrics(key=KEY, density=0.5) != EpisodeMetrics(key=KEY, density=0.25)
        assert EpisodeMetrics(key=KEY) != EpisodeMetrics(key=KEY, warnings=["w"])


def test_report_equality_compares_results():
    def report(rho):
        return CorrelationReport(results=[CorrelationResult("Density", rho, 0.5)], n=5, excluded=1)

    assert report(0.25) == report(0.25)
    assert report(0.25) != report(0.5)
