"""Parsing, validation, and dataset loading."""

from __future__ import annotations

import json
import random
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from charnet import ingest
from charnet.errors import (
    CharnetError,
    DuplicateKeyError,
    EmptyDatasetError,
    FormatError,
    InvariantError,
    RangeError,
)
from charnet.graph import EpisodeKey
from charnet.ingest import (
    load_dataset,
    parse_ratings_csv,
    parse_segment_file,
    serialize_episode,
)
from charnet.report import render_manifest

from support import build_demo_dataset, build_messy_dataset, random_segments


def minimal_file(**overrides) -> str:
    doc = {
        "series": "demo",
        "season": 1,
        "episode": 1,
        "segments": [{"index": 0, "edges": [{"a": "A", "b": "B", "w": 2.0}]}],
    }
    doc.update(overrides)
    return json.dumps(doc)


class TestParseSegmentFile:
    def test_minimal_file(self):
        parsed = parse_segment_file(minimal_file())
        assert parsed.key == EpisodeKey("demo", 1, 1)
        assert len(parsed.segments) == 1
        seg = parsed.segments[0]
        assert seg.nodes == {"A", "B"}
        assert seg.edges == {("A", "B"): 2.0}
        assert parsed.warnings == []

    def test_thirty_one_segments(self):
        segments = [
            {"index": i, "edges": [{"a": "A", "b": "B", "w": 1.0}]} for i in range(31)
        ]
        parsed = parse_segment_file(minimal_file(segments=segments))
        assert len(parsed.segments) == 31
        assert [s.index for s in parsed.segments] == list(range(31))

    def test_duplicate_edge_merged_with_warning(self):
        segments = [
            {
                "index": 0,
                "edges": [
                    {"a": "A", "b": "B", "w": 1.0},
                    {"a": "B", "b": "A", "w": 2.0},
                ],
            }
        ]
        parsed = parse_segment_file(minimal_file(segments=segments))
        assert parsed.segments[0].edges == {("A", "B"): 3.0}
        assert len(parsed.warnings) == 1
        assert "duplicate edge" in parsed.warnings[0]

    def test_nodes_field_optional_and_unioned(self):
        segments = [
            {
                "index": 0,
                "nodes": ["Silent Sam"],
                "edges": [{"a": "A", "b": "B", "w": 1.0}],
            }
        ]
        parsed = parse_segment_file(minimal_file(segments=segments))
        assert parsed.segments[0].nodes == {"A", "B", "Silent Sam"}

    def test_names_are_trimmed(self):
        segments = [{"index": 0, "edges": [{"a": " A ", "b": "B", "w": 1.0}]}]
        parsed = parse_segment_file(minimal_file(segments=segments))
        assert parsed.segments[0].edges == {("A", "B"): 1.0}

    def test_malformed_json_names_line(self):
        with pytest.raises(FormatError, match="line"):
            parse_segment_file('{"series": "x",\n  "season": }')

    @pytest.mark.parametrize("missing", ["series", "season", "episode", "segments"])
    def test_missing_field(self, missing):
        doc = json.loads(minimal_file())
        del doc[missing]
        with pytest.raises(FormatError, match=missing):
            parse_segment_file(json.dumps(doc))

    @pytest.mark.parametrize(
        "overrides",
        [
            {"season": "one"},
            {"season": 0},
            {"season": True},
            {"episode": -2},
            {"series": ""},
            {"series": 4},
            {"segments": {}},
            {"segments": []},
            {"segments": [{"index": 0, "edges": [{"a": "A", "b": "B", "w": "fast"}]}]},
            {"segments": [{"index": 0, "edges": [{"a": "A", "b": "B"}]}]},
            {"segments": [{"index": 0, "edges": [{"a": 1, "b": "B", "w": 1.0}]}]},
            {"segments": [{"index": 0, "nodes": [3], "edges": []}]},
            {"segments": ["nope"]},
            {"segments": [{"index": 0, "nodes": "Jon", "edges": []}]},
            {"segments": [{"index": 0, "nodes": 5, "edges": []}]},
            {"segments": [{"index": 0, "nodes": {"Jon": 1}, "edges": []}]},
            {"series": "../escaped"},
            {"series": "a/b"},
            {"series": "a\\b"},
            {"series": "a\x00b"},
            {"series": "a\x1bb"},
            {"series": "a\x85b"},
            {"segments": [{"index": 1, "edges": [{"a": "A", "b": "B", "w": 1.0}]}]},
            {"segments": [{"index": "0", "edges": [{"a": "A", "b": "B", "w": 1.0}]}]},
            {"segments": [{"index": True, "edges": [{"a": "A", "b": "B", "w": 1.0}]}]},
            {"segments": [{"index": -1, "edges": [{"a": "A", "b": "B", "w": 1.0}]}]},
            {"segments": [{"index": 0, "edges": [{"a": ["A"], "b": "B", "w": 1.0}]}]},
            {"segments": [{"index": 0, "nodes": [{}], "edges": []}]},
        ],
    )
    def test_format_violations(self, overrides):
        with pytest.raises(FormatError):
            parse_segment_file(minimal_file(**overrides))

    @pytest.mark.parametrize(
        "edge",
        [
            {"a": "A", "b": "A", "w": 1.0},
            {"a": "A", "b": " A ", "w": 1.0},
            {"a": "A", "b": "B", "w": 0.0},
            {"a": "A", "b": "B", "w": -4.0},
            {"a": " ", "b": "B", "w": 1.0},
        ],
    )
    def test_invariant_violations_name_the_segment(self, edge):
        segments = [
            {"index": 0, "edges": [{"a": "X", "b": "Y", "w": 1.0}]},
            {"index": 1, "edges": [edge]},
        ]
        with pytest.raises(InvariantError, match="segment 1"):
            parse_segment_file(minimal_file(segments=segments))

    def test_not_utf8(self):
        with pytest.raises(FormatError, match="UTF-8"):
            parse_segment_file(b"\xff\xfe{}")

    @pytest.mark.parametrize(
        "overrides",
        [
            {"series": "s\ud800"},
            {"segments": [{"index": 0, "nodes": ["J\udc00n"], "edges": [{"a": "A", "b": "B", "w": 1.0}]}]},
            {"segments": [{"index": 0, "edges": [{"a": "A\ud800", "b": "B", "w": 1.0}]}]},
        ],
    )
    def test_lone_surrogate(self, overrides):
        # json.dumps writes the surrogate as a \uXXXX escape, which json.loads
        # decodes back to a str that no UTF-8 report can hold
        with pytest.raises(FormatError, match="not encodable as UTF-8"):
            parse_segment_file(minimal_file(**overrides))

    @pytest.mark.parametrize(
        "name",
        [
            "Lone\nepisodes: 0, warnings: 0",
            "Lo\x85ne",
            "Z\u2028episodes: 7, warnings: 0",  # LINE SEPARATOR: str.splitlines breaks here
            "Z\u2029episodes: 7, warnings: 0",  # PARAGRAPH SEPARATOR: so does it here
        ],
    )
    @pytest.mark.parametrize("place", ["nodes", "edge endpoint"])
    def test_control_character_in_name(self, name, place):
        # a line break in a name would forge lines of the manifest
        segment = {"index": 0, "edges": [{"a": "A", "b": "B", "w": 1.0}]}
        if place == "nodes":
            segment["nodes"] = [name]
        else:
            segment["edges"].append({"a": "B", "b": name, "w": 1.0})
        with pytest.raises(FormatError, match="must not contain control characters"):
            parse_segment_file(minimal_file(segments=[segment]))

    @pytest.mark.parametrize("place", ["nodes", "edge endpoint"])
    def test_bare_line_break_is_empty_after_trimming(self, place):
        segment = {"index": 0, "edges": [{"a": "A", "b": "B", "w": 1.0}]}
        if place == "nodes":
            segment["nodes"] = ["\n"]
        else:
            segment["edges"].append({"a": "B", "b": "\n", "w": 1.0})
        with pytest.raises(InvariantError, match="segment 0: character name is empty after trimming"):
            parse_segment_file(minimal_file(segments=[segment]))

    def test_surrogate_pair_escape_accepted(self):
        parsed = parse_segment_file(minimal_file(series="s\U0001f600"))
        assert parsed.key.series == "s\U0001f600"

    def test_deep_nesting(self):
        depth = 100_000
        with pytest.raises(FormatError, match="nested too deeply"):
            parse_segment_file(minimal_file(segments=[]).replace("[]", "[" * depth + "]" * depth))

    def test_integer_literal_too_long(self):
        # json.loads refuses to convert an integer of more than 4300 digits
        # with a plain ValueError, not a JSONDecodeError
        with pytest.raises(FormatError, match="integer"):
            parse_segment_file(minimal_file().replace('"season": 1', '"season": ' + "1" * 5000))


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=300))
@example("")
@example("[]")
@example("null")
@example('{"series": 1}')
def test_parser_totality_text(blob):
    # any input must produce a parse result or a structured error
    try:
        parse_segment_file(blob)
    except CharnetError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=300))
def test_parser_totality_bytes(blob):
    try:
        parse_segment_file(blob)
    except CharnetError:
        pass


_JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
_FIELD_NAMES = st.sampled_from(
    ["series", "season", "episode", "segments", "index", "nodes", "edges", "a", "b", "w"]
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_FIELD_NAMES | st.text(max_size=3), inner, max_size=5),
    max_leaves=25,
)
# Episode-shaped documents get past the header, so the segment, node and
# edge checks see awkward values too; arbitrary values rarely get that far.
_AWKWARD = st.sampled_from(
    ["A", "B", " A ", "", "\n", 0, 1, -1, 2.5, -0.0, 1e308, 2**1024, True, None, [], {}]
    + [float("nan"), float("inf"), float("-inf")]
)
_ANY = st.one_of(_AWKWARD, _JSON_VALUES)
_EDGE = st.fixed_dictionaries({}, optional={key: _ANY for key in ("a", "b", "w")})
_SEGMENT = st.fixed_dictionaries(
    {},
    optional={
        "nodes": st.one_of(st.lists(st.one_of(_AWKWARD, st.text(max_size=3)), max_size=4), _ANY),
        "edges": st.one_of(st.lists(_EDGE, max_size=4), _ANY),
    },
)
_EPISODES = st.fixed_dictionaries(
    {
        "series": st.just("fuzz"),
        "season": st.just(1),
        "episode": st.just(1),
        "segments": st.one_of(st.lists(_SEGMENT, min_size=1, max_size=4), _ANY),
    }
)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_JSON_VALUES, _EPISODES))
@example(
    {"series": "fuzz", "season": 1, "episode": 1, "segments": [{"edges": [{"a": "A", "b": "B", "w": 2**1024}]}]}
)
def test_parser_totality_json_values(doc):
    text = json.dumps(doc)
    for blob in (text, text.encode("utf-8")):
        try:
            parse_segment_file(blob)
        except CharnetError:
            pass


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_round_trip(seed):
    rng = random.Random(seed)
    key = EpisodeKey("roundtrip", rng.randint(1, 9), rng.randint(1, 99))
    segments = random_segments(rng)
    parsed = parse_segment_file(serialize_episode(key, segments))
    assert parsed.key == key
    assert len(parsed.segments) == len(segments)
    for ours, theirs in zip(segments, parsed.segments):
        assert theirs.nodes == ours.nodes
        assert theirs.edges == ours.edges  # weights exact, not approximate


class TestParseRatingsCsv:
    def test_basic_rows(self):
        table = parse_ratings_csv(
            "series,season,episode,rating\ngot,1,9,9.601\nbb,1,1,9.001\n"
        )
        assert table.get(EpisodeKey("got", 1, 9)) == 9.601
        assert table.get(EpisodeKey("bb", 1, 1)) == 9.001
        assert len(table) == 2

    def test_crlf_and_whitespace(self):
        table = parse_ratings_csv("series,season,episode,rating\r\n got , 1 , 2 , 8.5 \r\n")
        assert table.get(EpisodeKey("got", 1, 2)) == 8.5

    def test_byte_order_mark_skipped(self):
        table = parse_ratings_csv(b"\xef\xbb\xbfseries,season,episode,rating\ngot,1,2,8.5\n")
        assert table.get(EpisodeKey("got", 1, 2)) == 8.5

    def test_header_required(self):
        with pytest.raises(FormatError, match="header"):
            parse_ratings_csv("show,year,ep,score\ngot,1,1,8\n")

    def test_arity_checked(self):
        with pytest.raises(FormatError, match="line 2"):
            parse_ratings_csv("series,season,episode,rating\ngot,1,1\n")

    @pytest.mark.parametrize("rating", ["10.5", "0.9", "-3", "nan", "inf"])
    def test_rating_bounds(self, rating):
        base = "series,season,episode,rating\ngot,1,1,{}\n"
        with pytest.raises((RangeError, FormatError)):
            parse_ratings_csv(base.format(rating))

    def test_rating_bounds_inclusive(self):
        table = parse_ratings_csv(
            "series,season,episode,rating\na,1,1,1\na,1,2,10\n"
        )
        assert table.get(EpisodeKey("a", 1, 1)) == 1.0
        assert table.get(EpisodeKey("a", 1, 2)) == 10.0

    def test_duplicate_key_rejected(self):
        with pytest.raises(DuplicateKeyError):
            parse_ratings_csv(
                "series,season,episode,rating\ngot,1,1,8.0\ngot,1,1,9.0\n"
            )

    @pytest.mark.parametrize(
        "series", ["../escaped", "a/b", "a\\b", "a\x7fb", "a\tb", "a\u2028b", "a\u2029b"]
    )
    def test_series_must_be_file_safe(self, series):
        with pytest.raises(FormatError, match="line 2: series"):
            parse_ratings_csv(f"series,season,episode,rating\n{series},1,1,8.0\n")

    def test_quoted_line_break_stays_in_its_cell(self):
        # the series cell then holds a line break, which no report line may;
        # the row is numbered by the line it ends on
        with pytest.raises(FormatError, match="line 3: series"):
            parse_ratings_csv('series,season,episode,rating\n"go\nt",1,1,9.1\n')

    def test_non_numeric_season(self):
        with pytest.raises(FormatError):
            parse_ratings_csv("series,season,episode,rating\ngot,one,1,8.0\n")

    @pytest.mark.parametrize(
        "row",
        [
            "got,1_0,1,9.1",  # int() reads '_' as a digit separator
            "got,1,1_0,9.1",
            "got,1,1,1_0",
            "got,1,\u0661,9.1",  # ARABIC-INDIC DIGIT ONE
            "got,\uff11,1,9.1",  # FULLWIDTH DIGIT ONE
            "got,1,1,\u0669.1",  # ARABIC-INDIC DIGIT NINE
        ],
    )
    def test_number_cells_are_plain_ascii(self, row):
        with pytest.raises(FormatError, match="line 2"):
            parse_ratings_csv(f"series,season,episode,rating\n{row}\n")

    def test_number_cells_keep_sign_exponent_and_trimming(self):
        table = parse_ratings_csv("series,season,episode,rating\ngot, +1 ,2\t,1e1\n")
        assert table == {EpisodeKey("got", 1, 2): 10.0}

    def test_empty_input(self):
        with pytest.raises(FormatError):
            parse_ratings_csv("")


@settings(max_examples=150, deadline=None)
@given(st.text(max_size=200))
def test_ratings_totality(blob):
    try:
        parse_ratings_csv(blob)
    except CharnetError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=200) | st.binary(max_size=200).map(lambda b: b"series,season,episode,rating\n" + b))
def test_ratings_totality_bytes(blob):
    try:
        parse_ratings_csv(blob)
    except CharnetError:
        pass


class TestLoadDataset:
    def test_clean_load(self, tmp_path):
        segments_dir, ratings_csv = build_demo_dataset(tmp_path)
        files = sorted(segments_dir.glob("*.json"))
        episodes, ratings, dataset_warnings = load_dataset(files, ratings_csv)
        assert len(episodes) == 12
        assert dataset_warnings == [] and all(e.warnings == [] for e in episodes)
        assert [e.key for e in episodes] == sorted(e.key for e in episodes)
        # per-series ordinals restart at 1
        alpha = [e.ordinal for e in episodes if e.key.series == "alpha"]
        beta = [e.ordinal for e in episodes if e.key.series == "beta"]
        assert alpha == list(range(1, 7))
        assert beta == list(range(1, 7))

    def test_messy_load_warns(self, tmp_path):
        segments_dir, ratings_csv = build_messy_dataset(tmp_path)
        files = sorted(segments_dir.glob("*.json"))
        episodes, ratings, dataset_warnings = load_dataset(files, ratings_csv)
        keys = [e.key for e in episodes]
        assert len(keys) == len(set(keys)) == 6  # duplicate dropped
        text = " | ".join(w for e in episodes for w in e.warnings) + " | ".join(dataset_warnings)
        assert "duplicate episode key" in text
        assert "isolated node" in text
        assert "MissingRating" in text
        assert "duplicate edge" in text
        assert any("rating without episode" in w for w in dataset_warnings)
        first = next(e for e in episodes if e.key.episode == 1)
        assert first.duplicates_dropped == 1

    def test_duplicate_keeps_first_file(self, tmp_path):
        seg_dir = tmp_path / "segments"
        seg_dir.mkdir()
        (seg_dir / "a_first.json").write_text(minimal_file(), encoding="utf-8")
        bigger = minimal_file(
            segments=[
                {"index": 0, "edges": [{"a": "A", "b": "B", "w": 2.0}]},
                {"index": 1, "edges": [{"a": "B", "b": "C", "w": 5.0}]},
            ]
        )
        (seg_dir / "b_second.json").write_text(bigger, encoding="utf-8")
        ratings = tmp_path / "ratings.csv"
        ratings.write_text("series,season,episode,rating\ndemo,1,1,8.0\n", encoding="utf-8")
        episodes, _, _ = load_dataset(sorted(seg_dir.glob("*.json")), ratings)
        assert len(episodes) == 1
        assert episodes[0].segment_count == 1  # the first file had one segment
        assert episodes[0].duplicates_dropped == 1

    def test_dedup_idempotence(self, tmp_path):
        segments_dir, ratings_csv = build_demo_dataset(tmp_path)
        files = sorted(segments_dir.glob("*.json"))
        once, _, _ = load_dataset(files, ratings_csv)
        twice, _, _ = load_dataset(files + files, ratings_csv)
        assert [e.key for e in twice] == [e.key for e in once]
        for a, b in zip(once, twice):
            assert a.edges == b.edges

    def test_holds_at_most_one_parsed_file_when_reading_ratings(self, tmp_path, monkeypatch):
        segments_dir, ratings_csv = build_demo_dataset(tmp_path)
        files = sorted(segments_dir.glob("*.json"))
        results = []
        alive_at_ratings = []

        def parse(data):
            parsed = parse_segment_file(data)
            results.append(weakref.ref(parsed))
            return parsed

        def ratings(data):
            alive_at_ratings.append(sum(ref() is not None for ref in results))
            return parse_ratings_csv(data)

        monkeypatch.setattr(ingest, "parse_segment_file", parse)
        monkeypatch.setattr(ingest, "parse_ratings_csv", ratings)
        load_dataset(files, ratings_csv)
        assert len(results) == len(files)
        assert alive_at_ratings[0] <= 1

    def test_ratings_without_episode_warn_in_key_order(self, tmp_path):
        seg_dir = tmp_path / "segments"
        seg_dir.mkdir()
        (seg_dir / "demo.json").write_text(minimal_file(), encoding="utf-8")
        ratings = tmp_path / "ratings.csv"
        ratings.write_text(
            "series,season,episode,rating\nzeta,2,1,7.0\nbeta,1,99,8.0\n"
            "demo,1,1,8.0\nalpha,3,1,6.0\n",
            encoding="utf-8",
        )
        _, _, dataset_warnings = load_dataset([seg_dir / "demo.json"], ratings)
        assert dataset_warnings == [
            "rating without episode: alpha 3 1",
            "rating without episode: beta 1 99",
            "rating without episode: zeta 2 1",
        ]

    def test_manifest_order_of_one_episodes_warnings(self, tmp_path):
        # parse warnings, duplicate files in file order, isolated nodes, missing rating
        seg_dir = tmp_path / "segments"
        seg_dir.mkdir()
        segment = {
            "index": 0,
            "nodes": ["Zed"],
            "edges": [{"a": "A", "b": "B", "w": 1.0}, {"a": "B", "b": "A", "w": 2.0}],
        }
        for name in ("a_first.json", "b_dup.json", "c_dup.json"):
            (seg_dir / name).write_text(minimal_file(segments=[segment]), encoding="utf-8")
        ratings = tmp_path / "ratings.csv"
        ratings.write_text("series,season,episode,rating\nother,1,1,8.0\n", encoding="utf-8")
        episodes, _, dataset_warnings = load_dataset(sorted(seg_dir.glob("*.json")), ratings)
        assert render_manifest(episodes, dataset_warnings) == (
            "demo 1 1: 1 segments, 3 nodes, 1 edges\n"
            "  warning: segment 0: duplicate edge A-B merged\n"
            "  warning: duplicate episode key in b_dup.json, first kept\n"
            "  warning: duplicate episode key in c_dup.json, first kept\n"
            "  warning: 1 isolated node(s) kept: Zed\n"
            "  warning: MissingRating: excluded from correlation\n"
            "warning: rating without episode: other 1 1\n"
            "episodes: 1, warnings: 6\n"
        )
        assert episodes[0].duplicates_dropped == 2

    def test_empty_dataset_rejected(self, tmp_path):
        ratings = tmp_path / "ratings.csv"
        ratings.write_text("series,season,episode,rating\n", encoding="utf-8")
        with pytest.raises(EmptyDatasetError):
            load_dataset([], ratings)

    def test_parse_error_names_file(self, tmp_path):
        seg_dir = tmp_path / "segments"
        seg_dir.mkdir()
        bad = seg_dir / "broken.json"
        bad.write_text("{", encoding="utf-8")
        ratings = tmp_path / "ratings.csv"
        ratings.write_text("series,season,episode,rating\n", encoding="utf-8")
        with pytest.raises(FormatError, match="broken.json"):
            load_dataset([bad], ratings)
