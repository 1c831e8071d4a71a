"""Parsing, validation, and dataset loading."""

from __future__ import annotations

import json
import math
import random
import re
import sys
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from charnet import ingest
from charnet.errors import CharnetError, FormatError, InvariantError
from charnet.graph import EpisodeKey, SegmentGraph, add_interaction, canonical_pair, normalize_character
from charnet.ingest import (
    load_dataset,
    parse_ratings_csv,
    parse_segment_file,
    serialize_episode,
)
from charnet.metrics import METRICS
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
            {"segments": [{"index": 0, "edges": ["A-B"]}]},
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

    def test_edges_must_be_a_list(self):
        with pytest.raises(FormatError) as raised:
            parse_segment_file(minimal_file(segments=[{"index": 0, "edges": 5}]))
        assert str(raised.value) == "segment 0: edges must be a list"

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
        where = "episode file: series" if "series" in overrides else "segment 0: character name"
        with pytest.raises(FormatError, match=f"^{where} .* is not encodable as UTF-8$"):
            parse_segment_file(minimal_file(**overrides))

    @pytest.mark.parametrize("series", ["x" * 230, "\u00e9" * 115], ids=["230-ascii", "115-two-byte"])
    def test_series_at_the_byte_bound(self, series):
        assert parse_segment_file(minimal_file(series=series)).key.series == series

    @pytest.mark.parametrize(
        "series", ["x" * 231, "\u00e9" * 116, "\ud800" + "x" * 228], ids=["231-ascii", "116-two-byte", "surrogate"]
    )
    def test_series_past_the_byte_bound(self, series):
        # surrogatepass counts a lone surrogate as 3 bytes; a shorter name meets test_lone_surrogate's error
        with pytest.raises(FormatError, match=r"^episode file: series .* is longer than 230 UTF-8 bytes$"):
            parse_segment_file(minimal_file(series=series))

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
        with pytest.raises(
            FormatError, match="^segment 0: character name .* must not contain control characters$"
        ):
            parse_segment_file(minimal_file(segments=[segment]))

    def test_control_set_is_c0_del_c1_and_the_separators(self):
        documented = {*range(0x20), *range(0x7F, 0xA0), 0x2028, 0x2029}
        flagged = {c for c in range(0x110000) if ingest._has_control(chr(c))}
        assert flagged == documented
        assert ingest._has_control("Jon Snow\x1f") and ingest._has_control("\u2029Arya")
        assert not ingest._has_control("Daenerys Targaryen, \u00e9\u00a0\u202f\U0001f3ac")

    @pytest.mark.parametrize("place", ["nodes", "edge endpoint"])
    def test_bare_line_break_is_empty_after_trimming(self, place):
        segment = {"index": 0, "edges": [{"a": "A", "b": "B", "w": 1.0}]}
        if place == "nodes":
            segment["nodes"] = ["\n"]
        else:
            segment["edges"].append({"a": "B", "b": "\n", "w": 1.0})
        with pytest.raises(InvariantError, match="segment 0: character name is empty after trimming"):
            parse_segment_file(minimal_file(segments=[segment]))

    @pytest.mark.parametrize(
        "segment",
        [
            *(
                {"index": 1, "edges": [edge]}
                for edge in [
                    {"a": "A", "b": "B", "w": "fast"},
                    {"a": "A", "b": "B", "w": True},
                    {"a": "A", "b": "B", "w": None},
                    {"a": "A", "b": "B", "w": 0.0},
                    {"a": "A", "b": "B", "w": -4.0},
                    {"a": "A", "b": "B", "w": 2**1024},
                    {"a": "A", "b": "B", "w": math.nan},
                    {"a": "A", "b": "B", "w": math.inf},
                    {"a": "A", "b": "B"},
                    {"b": "B", "w": 1.0},
                    {"a": "A", "w": 1.0},
                    {"a": 1, "b": "B", "w": 1.0},
                    {"a": ["A"], "b": "B", "w": 1.0},
                    {"a": "A", "b": "A", "w": 1.0},
                    {"a": "A", "b": " A ", "w": 1.0},
                    {"a": "A", "b": "", "w": 1.0},
                    {"a": "A", "b": "Lo\x85ne", "w": 1.0},
                    {"a": "A", "b": "\ud800", "w": 1.0},
                    {"a": " ", "b": "B", "w": "fast"},
                    "nope",
                    ["A", "B", 1.0],
                    None,
                ]
            ),
            *(
                {"index": 1, "nodes": nodes, "edges": []}
                for nodes in [["A", 3], ["A", {}], ["A", " "], ["A", "B", "\n"], ["A", "\ud800"]]
            ),
        ],
    )
    def test_warm_name_memo_changes_no_error(self, segment):
        # segment 0 leaves the name memo cold for A and B, or warm with A,
        # B and " A ": either way segment 1 must fail with the same error
        cold = {"index": 0, "edges": [{"a": "X", "b": "Y", "w": 1.0}]}
        warm = {"index": 0, "nodes": [" A "], "edges": [{"a": "A", "b": "B", "w": 1.0}]}
        errors = []
        for first in (cold, warm):
            with pytest.raises(CharnetError) as caught:
                parse_segment_file(minimal_file(segments=[first, segment]))
            errors.append((type(caught.value), str(caught.value)))
        assert errors[0] == errors[1]
        assert errors[0][1].startswith("segment 1: ")

    def test_warm_name_memo_merges_duplicates_alike(self):
        first = {"index": 0, "edges": [{"a": "A", "b": "B", "w": 1.0}]}
        twice = {"index": 1, "edges": [{"a": "A", "b": "B", "w": 0.1}, {"a": "B", "b": "A", "w": 0.2}]}
        parsed = parse_segment_file(minimal_file(segments=[first, twice]))
        assert parsed.warnings == ["segment 1: duplicate edge A-B merged"]
        assert parsed.segments[1].edges[("A", "B")].hex() == (0.1 + 0.2).hex()

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
        except CharnetError as exc:
            # each reader names its place once: never lost, never doubled
            assert re.match(r"^(episode file|segment \d+): (?!episode file: |segment \d+: )", str(exc)), str(exc)


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


def _hand_segment(edges, nodes=None) -> SegmentGraph:
    """A segment built without add_interaction's checks; its nodes default
    to the edge endpoints."""
    return SegmentGraph(0, {v for pair in edges for v in pair} if nodes is None else nodes, dict(edges))


def _unchecked_file(key: EpisodeKey, segments) -> str:
    """The file serialize_episode would write for these segments, unchecked."""
    return json.dumps(
        {
            **key._asdict(),
            "segments": [
                {
                    "index": position,
                    "nodes": sorted(seg.nodes),
                    "edges": [{"a": a, "b": b, "w": w} for (a, b), w in sorted(seg.edges.items())],
                }
                for position, seg in enumerate(segments)
            ],
        }
    )


_JON = _hand_segment({("Arya", "Jon"): 1.0})
_CHANGED = "segment 0: its nodes and edges would not read back as given"


@pytest.mark.parametrize(
    "key, segments, error, message",
    [
        (("demo", 1, 1), [_hand_segment({("Arya", "Jon\nSnow"): 1.0})], FormatError,
         r"segment 0: character name 'Jon\nSnow' must not contain control characters"),
        (("demo", 1, 1), [_hand_segment({("Arya", "Jon\ud800"): 1.0})], FormatError,
         r"segment 0: character name 'Jon\ud800' is not encodable as UTF-8"),
        (("a/b", 1, 1), [_JON], FormatError, r"episode file: series 'a/b' must not contain '/', '\' or control characters"),
        (("demo", 0, 1), [_JON], FormatError, "episode file: season must be a positive integer, got 0"),
        (("demo", 1, 1), [], FormatError, "episode file: segments list is empty"),
        (("demo", 1, 1), [_hand_segment({("Arya", "Jon"): 0.0})], InvariantError,
         "segment 0: edge 'Arya'-'Jon' needs a positive finite weight, got 0.0"),
        (("demo", 1, 1), [_JON, _hand_segment({("Arya", "Jon"): -2.5})], InvariantError,
         "segment 1: edge 'Arya'-'Jon' needs a positive finite weight, got -2.5"),
        (("demo", 1, 1), [_hand_segment({("Arya", "Jon"): math.nan})], InvariantError,
         "segment 0: edge 'Arya'-'Jon' needs a positive finite weight, got nan"),
        (("demo", 1, 1), [_hand_segment({("Arya", "Jon"): math.inf})], InvariantError,
         "segment 0: edge 'Arya'-'Jon' needs a positive finite weight, got inf"),
        (("demo", 1, 1), [_hand_segment({("Arya", "Jon"): True})], InvariantError,
         "segment 0: edge 'Arya'-'Jon' needs a positive finite weight, got True"),
        (("demo", 1, 1), [_hand_segment({("Jon", "Jon"): 1.0})], InvariantError, "segment 0: self-loop on 'Jon'"),
        (("demo", 1, 1), [_hand_segment({(" ", "Jon"): 1.0})], InvariantError,
         "segment 0: character name is empty after trimming"),
        # the parser takes the rest, but reads back other graphs
        (("demo", 1, 1), [_hand_segment({(" Arya", "Jon"): 1.0})], FormatError, _CHANGED),
        (("demo", 1, 1), [_hand_segment({("Jon", "Arya"): 1.0})], FormatError, _CHANGED),
        (("demo", 1, 1), [_hand_segment({("Arya", "Jon"): 1.0, ("Jon", "Arya"): 2.0})], FormatError, _CHANGED),
        (("demo", 1, 1), [_hand_segment({("Arya", "Jon"): 1.0}, nodes={"Arya"})], FormatError, _CHANGED),
        (("demo", 1, 1), [_hand_segment({("Arya", "Jon"): 2**53 + 1})], FormatError, _CHANGED),
        ((" demo", 1, 1), [_JON], FormatError, "episode file: its key would not read back as given"),
    ],
    ids=[
        "line-break-in-name", "lone-surrogate-in-name", "slash-in-series", "season-zero", "no-segments",
        "zero-weight", "negative-weight", "nan-weight", "inf-weight", "bool-weight", "self-loop",
        "empty-name", "untrimmed-name", "unsorted-pair", "pair-twice", "endpoint-not-a-node", "int-past-float",
        "untrimmed-series",
    ],
)
def test_serialize_refuses_what_the_parser_refuses(key, segments, error, message):
    key = EpisodeKey(*key)
    with pytest.raises(error) as raised:
        serialize_episode(key, segments)
    assert str(raised.value) == message
    try:
        parsed = parse_segment_file(_unchecked_file(key, segments))
    except CharnetError as exc:  # the parser's own error, word for word
        assert (type(exc), str(exc)) == (error, message)
    else:
        assert (parsed.key, [(seg.nodes, seg.edges) for seg in parsed.segments]) != (
            key,
            [(seg.nodes, seg.edges) for seg in segments],
        )


# Raw names that trim to four distinct characters, so one character can be
# first sighted under one spelling and hit the memo under another.
_RAW_NAMES = [pad + name + end for name in ("Ann", "Bo", "Cy", "Dee") for pad in ("", " ") for end in ("", " ")]
_DIFF_WEIGHTS = st.one_of(
    st.integers(1, 10**6),
    st.floats(min_value=5e-324, max_value=sys.float_info.max),
    st.sampled_from([5e-324, sys.float_info.max]),
)
_DIFF_EDGES = st.tuples(st.sampled_from(_RAW_NAMES), st.sampled_from(_RAW_NAMES), _DIFF_WEIGHTS).filter(
    lambda edge: edge[0].strip() != edge[1].strip()
)
_DIFF_SEGMENTS = st.lists(
    st.tuples(st.lists(st.sampled_from(_RAW_NAMES), max_size=3), st.lists(_DIFF_EDGES, max_size=8)),
    min_size=1,
    max_size=4,
)


def _reference_parse(segments):
    """(segments, warnings) built with the public add_interaction, which
    always applies the edge rules through graph._add_edge."""
    built, warnings = [], []
    for position, (nodes, edges) in enumerate(segments):
        where = f"segment {position}"
        seg = SegmentGraph(index=position)
        seg.nodes.update(normalize_character(name) for name in nodes)
        for a, b, w in edges:
            pair = canonical_pair(normalize_character(a), normalize_character(b))
            merged = pair in seg.edges
            try:
                add_interaction(seg, a, b, w)
            except InvariantError as exc:
                raise InvariantError(f"{where}: {exc}") from exc
            if merged:
                warnings.append(f"{where}: duplicate edge {pair[0]}-{pair[1]} merged")
        if not seg.edges:
            warnings.append(f"{where}: no edges")
        built.append(seg)
    return built, warnings


@settings(max_examples=300, deadline=None)
@given(_DIFF_SEGMENTS)
# a float pair stored by the parse loop itself, then repeated with an int weight
@example([(["Ann", "Bo"], [("Ann", "Bo", 0.5), ("Bo", "Ann", 3)])])
# the largest float stored by the parse loop itself, then repeated: the sum overflows
@example([(["Ann", "Bo"], [("Ann", "Bo", sys.float_info.max), ("Bo", "Ann", sys.float_info.max)])])
def test_parse_matches_add_interaction(segments):
    doc = {
        "series": "diff",
        "season": 1,
        "episode": 1,
        "segments": [
            {"index": position, "nodes": nodes, "edges": [{"a": a, "b": b, "w": w} for a, b, w in edges]}
            for position, (nodes, edges) in enumerate(segments)
        ],
    }
    try:
        expected, expected_warnings = _reference_parse(segments)
    except InvariantError as exc:
        with pytest.raises(InvariantError) as raised:
            parse_segment_file(json.dumps(doc))
        assert str(raised.value) == str(exc)
        return
    parsed = parse_segment_file(json.dumps(doc))
    assert parsed.warnings == expected_warnings
    assert len(parsed.segments) == len(expected)
    for ours, theirs in zip(parsed.segments, expected):
        assert ours.nodes == theirs.nodes
        assert [(pair, w.hex()) for pair, w in ours.edges.items()] == [
            (pair, w.hex()) for pair, w in theirs.edges.items()
        ]


def test_series_bound_leaves_room_for_the_longest_report_name():
    # a file name holds 255 bytes, and each report name is the series plus a suffix
    longest = max(len(f"_{column.attr}_scatter.svg".encode()) for column in METRICS)
    assert ingest.SERIES_MAX_BYTES == 255 - longest


@pytest.mark.parametrize(
    "series",
    [" ", "a/b", "a\\b", "a\tb", "x" * 231, "\ud800x"],
    ids=["blank", "slash", "backslash", "tab", "231-bytes", "lone-surrogate"],
)
def test_both_readers_share_the_series_rule(series):
    # an episode file and the ratings CSV refuse a series name alike
    with pytest.raises(FormatError) as episode_error:
        parse_segment_file(minimal_file(series=series))
    with pytest.raises(FormatError) as ratings_error:
        parse_ratings_csv(f"series,season,episode,rating\n{series},1,1,8.0\n")
    episode_text, ratings_text = str(episode_error.value), str(ratings_error.value)
    assert episode_text.startswith("episode file: ") and ratings_text.startswith("ratings CSV line 2: ")
    assert episode_text.removeprefix("episode file: ") == ratings_text.removeprefix("ratings CSV line 2: ")


@pytest.mark.parametrize(
    "w",
    [True, False, "5", None, [1], {}, 0, -4.0, 2**1024, math.nan, math.inf],
    ids=["true", "false", "str", "null", "list", "object", "zero", "negative", "int-past-float", "nan", "inf"],
)
def test_parser_and_add_interaction_refuse_a_weight_alike(w):
    # graph._check_edge is the one weight rule: a file gets its class and words
    with pytest.raises(InvariantError) as direct:
        add_interaction(SegmentGraph(index=0), "A", "B", w)
    with pytest.raises(InvariantError) as parsed:
        parse_segment_file(minimal_file(segments=[{"index": 0, "edges": [{"a": "A", "b": "B", "w": w}]}]))
    assert str(parsed.value) == f"segment 0: {direct.value}"


@pytest.mark.parametrize(
    "season, episode",
    [(0, 1), (-3, 1), (1, 0), (1, -1)],
    ids=["season-zero", "season-negative", "episode-zero", "episode-negative"],
)
def test_both_readers_share_the_key_number_rule(season, episode):
    with pytest.raises(FormatError) as episode_error:
        parse_segment_file(minimal_file(season=season, episode=episode))
    with pytest.raises(FormatError) as ratings_error:
        parse_ratings_csv(f"series,season,episode,rating\ndemo,{season},{episode},8.0\n")
    episode_text, ratings_text = str(episode_error.value), str(ratings_error.value)
    assert episode_text.startswith("episode file: ") and ratings_text.startswith("ratings CSV line 2: ")
    assert episode_text.removeprefix("episode file: ") == ratings_text.removeprefix("ratings CSV line 2: ")


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

    def test_byte_order_mark_is_one_rule_for_str_and_bytes(self):
        text = "series,season,episode,rating\ngot,1,2,8.5\n"
        marked = "\ufeff" + text
        assert parse_ratings_csv(marked) == parse_ratings_csv(marked.encode()) == parse_ratings_csv(text)

    def test_header_required(self):
        with pytest.raises(FormatError, match="header"):
            parse_ratings_csv("show,year,ep,score\ngot,1,1,8\n")

    def test_arity_checked(self):
        with pytest.raises(FormatError, match="line 2"):
            parse_ratings_csv("series,season,episode,rating\ngot,1,1\n")

    @pytest.mark.parametrize("rating", ["10.5", "0.9", "-3", "nan", "inf"])
    def test_rating_bounds(self, rating):
        base = "series,season,episode,rating\ngot,1,1,{}\n"
        with pytest.raises(FormatError, match=f"^ratings CSV line 2: rating {rating} outside \\[1, 10\\]$"):
            parse_ratings_csv(base.format(rating))

    def test_rating_bounds_inclusive(self):
        table = parse_ratings_csv(
            "series,season,episode,rating\na,1,1,1\na,1,2,10\n"
        )
        assert table.get(EpisodeKey("a", 1, 1)) == 1.0
        assert table.get(EpisodeKey("a", 1, 2)) == 10.0

    def test_duplicate_key_rejected(self):
        with pytest.raises(FormatError, match="^ratings CSV line 3: duplicate rating for got 1 1$"):
            parse_ratings_csv(
                "series,season,episode,rating\ngot,1,1,8.0\ngot,1,1,9.0\n"
            )

    @pytest.mark.parametrize(
        "row, message",
        [
            (" ,1,1,8.0", "series is empty"),
            ("got,0,1,8.0", "season must be a positive integer, got 0"),
            ("got,1,1,abc", "could not convert string to float: 'abc'"),
            ("\ud800x,1,1,8.0", "series '\\ud800x' is not encodable as UTF-8"),
        ],
    )
    def test_row_errors_name_their_line(self, row, message):
        with pytest.raises(FormatError) as raised:
            parse_ratings_csv(f"series,season,episode,rating\n{row}\n")
        assert str(raised.value) == f"ratings CSV line 2: {message}"

    def test_oversized_cell_is_unreadable(self):
        cell = '"' + "x" * 140_000 + '"'
        with pytest.raises(FormatError) as raised:
            parse_ratings_csv(f"series,season,episode,rating\n{cell},1,1,8.0\n")
        assert str(raised.value) == "ratings CSV is unreadable: field larger than field limit (131072)"

    @pytest.mark.parametrize(
        "series",
        ["../escaped", "a/b", "a\\b", "a\x7fb", "a\tb", "a\u2028b", "a\u2029b", pytest.param("x" * 231, id="231-bytes")],
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
    except CharnetError as exc:
        assert str(exc).startswith("ratings CSV"), str(exc)


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=200) | st.binary(max_size=200).map(lambda b: b"series,season,episode,rating\n" + b))
def test_ratings_totality_bytes(blob):
    try:
        parse_ratings_csv(blob)
    except CharnetError as exc:
        assert str(exc).startswith("ratings CSV"), str(exc)


class TestLoadDataset:
    def test_clean_load(self, tmp_path):
        segments_dir, ratings_csv = build_demo_dataset(tmp_path)
        files = sorted(segments_dir.glob("*.json"))
        episodes, ratings, dataset_warnings = load_dataset(files, ratings_csv)
        assert len(episodes) == 12
        assert dataset_warnings == [] and all(e.warnings == [] for e in episodes)
        assert [e.key for e in episodes] == sorted(e.key for e in episodes)

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
            # a tuple cannot be weakly referenced; its segment graphs can
            results.append(weakref.ref(parsed.segments[0]))
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
        with pytest.raises(FormatError, match="^no episode files found$"):
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
