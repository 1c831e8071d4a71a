"""Dataset ingestion: segment-graph JSON files and the ratings CSV.

One JSON file holds one episode as a list of segment graphs.  Ratings come
from a local CSV only; nothing here ever touches the network.  Parsers are
total: any input terminates with a parse result or a structured error.
Each distinct character name is checked once per file, on its first sight,
and memoized: a memo hit is the fast path and is proof of a checked name,
while an unseen name or a malformed edge misses and takes every check.
On a memo hit, an edge that graph's edge rules would accept unchanged (a
new pair of distinct names, a positive finite float weight) is stored
inline; every other edge takes graph._add_edge, the slow path and the one
home of those rules.
load_dataset records what it finds per episode on the EpisodeGraph itself
(its warnings and dropped duplicate files); only the warnings that belong
to no episode come back on their own.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from collections import namedtuple
from pathlib import Path

from .errors import FormatError, InvariantError
from .graph import (
    _FLOAT_MAX,
    EpisodeGraph,
    EpisodeKey,
    SegmentGraph,
    _add_edge,
    aggregate_segments,
    normalize_character,
)

RATINGS_HEADER = ("series", "season", "episode", "rating")

RATING_MIN = 1.0
RATING_MAX = 10.0
# a file name holds 255 bytes, and the longest report name is <series>_transitivity_scatter.svg
SERIES_MAX_BYTES = 230


ParsedEpisode = namedtuple("ParsedEpisode", "key segments warnings")
ParsedEpisode.__doc__ = "One parsed episode file: identity, segments in file order, parse warnings."


def _require(mapping: dict, key: str):
    if not isinstance(mapping, dict):
        raise FormatError(f"expected an object, got {type(mapping).__name__}")
    if key not in mapping:
        raise FormatError(f"missing field {key!r}")
    return mapping[key]


def _positive_int(value, what: str) -> int:
    # bool is an int subtype; reject it explicitly
    if isinstance(value, bool) or not isinstance(value, int) or value <= 0:
        raise FormatError(f"{what} must be a positive integer, got {value!r}")
    return value


def _text(value, what: str) -> str:
    if not isinstance(value, str):
        raise FormatError(f"{what} must be a string, got {type(value).__name__}")
    return value


# a match is a C0 or C1 control character, DEL, or a line or paragraph
# separator (U+2028, U+2029): no report line may hold one
_has_control = re.compile("[\x00-\x1f\x7f-\x9f\u2028\u2029]").search


def _line_safe(text: str, what: str) -> None:
    """Reject text that no report line can hold: control characters, or lone
    surrogates, which JSON escapes and undecodable file-name bytes give."""
    if _has_control(text):
        raise FormatError(f"{what} {text!r} must not contain control characters")
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise FormatError(f"{what} {text!r} is not encodable as UTF-8") from exc


def _series(value) -> str:
    """A series name, trimmed and checked as report file names and lines
    need; the one series rule of episode files and the ratings CSV."""
    series = _text(value, "series").strip()
    if not series:
        raise FormatError("series is empty")
    # report file names start with the series name: no path separators, no control characters
    if "/" in series or "\\" in series or _has_control(series):
        raise FormatError(f"series {series!r} must not contain '/', '\\' or control characters")
    # surrogatepass never raises: a lone surrogate is _line_safe's to refuse
    if len(series.encode("utf-8", "surrogatepass")) > SERIES_MAX_BYTES:
        raise FormatError(f"series {series!r} is longer than {SERIES_MAX_BYTES} UTF-8 bytes")
    _line_safe(series, "series")
    return series


def _character(names: dict[str, str], raw: str) -> str:
    """The checked form of a raw name, checked on its first sight in a file.

    A name enters the memo only once every check has passed, so a memo hit
    is proof of a checked string name: the parse loop looks names up in
    `names` directly and comes here only on a miss."""
    name = names.get(raw)
    if name is None:
        name = normalize_character(raw)
        _line_safe(name, "character name")
        names[raw] = name
    return name


def parse_segment_file(data: bytes | str) -> ParsedEpisode:
    """Parse one episode file into its segment graphs.

    Segments keep file order and are indexed from 0; an `index` field, if
    given, must equal that position.  Duplicate unordered edge declarations
    within a segment are summed and reported as a warning rather than
    rejected.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"not valid UTF-8: {exc}") from exc
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise FormatError(f"malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal too long to convert
        raise FormatError(f"malformed JSON: {exc}") from exc
    except RecursionError as exc:
        raise FormatError("JSON nested too deeply") from exc
    return _read_episode(doc)


def _read_episode(doc) -> ParsedEpisode:
    """parse_segment_file's reading of a decoded document; serialize_episode
    reads what it writes through it too."""
    try:
        key = EpisodeKey(
            series=_series(_require(doc, "series")),
            season=_positive_int(_require(doc, "season"), "season"),
            episode=_positive_int(_require(doc, "episode"), "episode"),
        )
        segments_json = _require(doc, "segments")
        if not isinstance(segments_json, list):
            raise FormatError("segments must be a list")
        if not segments_json:
            raise FormatError("segments list is empty")
    except FormatError as exc:
        raise FormatError(f"episode file: {exc}") from exc

    segments: list[SegmentGraph] = []
    warnings: list[str] = []
    names: dict[str, str] = {}  # raw name -> checked name
    for position, seg_json in enumerate(segments_json):
        where = f"segment {position}"
        try:
            if not isinstance(seg_json, dict):
                raise FormatError(f"expected an object, got {type(seg_json).__name__}")
            index = seg_json.get("index", position)
            if isinstance(index, bool) or not isinstance(index, int) or index != position:
                raise FormatError(f"index must equal the segment's position {position}, got {index!r}")
            seg = SegmentGraph(index=position)

            nodes_json = seg_json.get("nodes", [])
            if not isinstance(nodes_json, list):
                raise FormatError("nodes must be a list")
            try:
                seg.nodes.update(map(names.__getitem__, nodes_json))
            except (KeyError, TypeError):  # a name not yet checked: check the list from its start
                for name in nodes_json:
                    seg.nodes.add(_character(names, _text(name, "node name")))

            edges_json = seg_json.get("edges", [])
            if not isinstance(edges_json, list):
                raise FormatError("edges must be a list")
            nodes, edges = seg.nodes, seg.edges
            for edge_json in edges_json:
                try:
                    a = names[edge_json["a"]]
                    b = names[edge_json["b"]]
                    w = edge_json["w"]
                except (KeyError, TypeError):  # a name not yet checked, or a malformed edge
                    a = _text(_require(edge_json, "a"), "edge endpoint")
                    b = _text(_require(edge_json, "b"), "edge endpoint")
                    w = _require(edge_json, "w")
                    a, b = _character(names, a), _character(names, b)
                else:
                    # a new pair, positive finite float weight: stored as _add_edge would
                    if type(w) is float and 0.0 < w <= _FLOAT_MAX and a != b:
                        pair = (a, b) if a < b else (b, a)
                        if pair not in edges:
                            edges[pair] = w
                            nodes.add(a)
                            nodes.add(b)
                            continue
                merged = _add_edge(seg, a, b, w)
                if merged:
                    warnings.append(f"{where}: duplicate edge {merged[0]}-{merged[1]} merged")
        except (FormatError, InvariantError) as exc:
            raise type(exc)(f"{where}: {exc}") from exc
        if not seg.edges:
            warnings.append(f"{where}: no edges")
        segments.append(seg)

    return ParsedEpisode(key=key, segments=segments, warnings=warnings)


def serialize_episode(key: EpisodeKey, segments: list[SegmentGraph]) -> str:
    """Render an episode back to the canonical JSON file form.

    Node and edge lists are emitted sorted, so output is unique for a
    given episode and re-parsing reproduces the same key and graphs
    exactly: the document is read back by the parser's own reader before
    it is written.  What the parser would refuse raises the parser's own
    error, and what it would read back changed (an untrimmed name, a pair
    out of sorted order, an edge endpoint missing from the nodes, an int
    weight no float holds) raises FormatError.
    """
    payload = {
        "series": key.series,
        "season": key.season,
        "episode": key.episode,
        "segments": [
            {
                "index": position,
                "nodes": sorted(seg.nodes),
                "edges": [
                    {"a": a, "b": b, "w": seg.edges[(a, b)]} for a, b in sorted(seg.edges)
                ],
            }
            for position, seg in enumerate(segments)
        ],
    }
    read = _read_episode(payload)
    if read.key != key:
        raise FormatError("episode file: its key would not read back as given")
    for position, (seg, back) in enumerate(zip(segments, read.segments)):
        if (back.nodes, back.edges) != (seg.nodes, seg.edges):
            raise FormatError(f"segment {position}: its nodes and edges would not read back as given")
    return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"


def parse_ratings_csv(data: bytes | str) -> dict[EpisodeKey, float]:
    """Parse the ratings CSV (header: series,season,episode,rating) into
    one review score per episode, on the 1-10 scale."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"ratings CSV is not valid UTF-8: {exc}") from exc
    data = data.removeprefix("\ufeff")  # spreadsheets often prepend a BOM

    # csv alone splits rows, so a line break inside a quoted cell stays in
    # its cell; a row is numbered by the line it ends on
    reader = csv.reader(io.StringIO(data, newline=""))
    try:
        filled = [(reader.line_num, row) for row in reader if row]
    except csv.Error as exc:
        raise FormatError(f"ratings CSV is unreadable: {exc}") from exc
    if not filled:
        raise FormatError("ratings CSV is empty")

    header_number, header = filled[0]
    if tuple(cell.strip() for cell in header) != RATINGS_HEADER:
        raise FormatError(
            f"ratings CSV line {header_number}: header must be "
            f"{','.join(RATINGS_HEADER)!r}, got {','.join(header)!r}"
        )

    ratings: dict[EpisodeKey, float] = {}
    for number, row in filled[1:]:
        try:
            if len(row) != len(RATINGS_HEADER):
                raise FormatError(f"expected {len(RATINGS_HEADER)} fields, got {len(row)}")
            series_cell, season_cell, episode_cell, rating_cell = (cell.strip() for cell in row)
            series = _series(series_cell)
            for cell in (season_cell, episode_cell, rating_cell):
                if "_" in cell or not cell.isascii():  # int() and float() read "1_0" and non-ASCII digits
                    raise FormatError(f"{cell!r} is not a plain ASCII number")
            season = _positive_int(int(season_cell), "season")
            episode = _positive_int(int(episode_cell), "episode")
            rating = float(rating_cell)
            if not math.isfinite(rating) or not (RATING_MIN <= rating <= RATING_MAX):
                raise FormatError(f"rating {rating_cell} outside [{RATING_MIN:g}, {RATING_MAX:g}]")
            key = EpisodeKey(series=series, season=season, episode=episode)
            if key in ratings:
                raise FormatError(f"duplicate rating for {key}")
        except (FormatError, ValueError) as exc:  # ValueError: int() or float() refused a cell
            raise FormatError(f"ratings CSV line {number}: {exc}") from exc
        ratings[key] = rating
    return ratings


def load_dataset(
    segment_files, ratings_file
) -> tuple[list[EpisodeGraph], dict[EpisodeKey, float], list[str]]:
    """Parse and aggregate a whole dataset.

    Returns (episodes, ratings, dataset warnings).  Episodes are sorted by
    key, and each carries its own manifest warnings: parse warnings, one
    per dropped duplicate file, isolated nodes, then a missing rating.
    Duplicate episode keys keep their first file.  The dataset warnings
    name ratings that have no episode, in key order.
    """
    paths = [Path(p) for p in segment_files]
    if not paths:
        raise FormatError("no episode files found")

    kept: dict[EpisodeKey, EpisodeGraph] = {}
    for path in paths:
        try:
            episode = parse_segment_file(path.read_bytes())
        except (FormatError, InvariantError) as exc:
            raise type(exc)(f"{path}: {exc}") from exc
        graph = kept.get(episode.key)
        if graph is None:
            graph = aggregate_segments(episode.segments, episode.key)
            graph.warnings = episode.warnings
            kept[episode.key] = graph
        else:
            try:  # the one file name that a report writes
                _line_safe(path.name, "name")
            except FormatError as exc:
                raise FormatError(f"duplicate episode file {str(path)!r}: {exc}") from exc
            graph.warnings.append(f"duplicate episode key in {path.name}, first kept")
            graph.duplicates_dropped += 1

    ratings = parse_ratings_csv(Path(ratings_file).read_bytes())

    episodes = [kept[key] for key in sorted(kept)]
    for graph in episodes:
        linked = {v for pair in graph.edges for v in pair}
        isolated = sorted(graph.nodes - linked)
        if isolated:
            shown = ", ".join(isolated[:5]) + ("..." if len(isolated) > 5 else "")
            graph.warnings.append(f"{len(isolated)} isolated node(s) kept: {shown}")
        if graph.key not in ratings:
            graph.warnings.append("MissingRating: excluded from correlation")

    dataset_warnings = [f"rating without episode: {key}" for key in sorted(ratings) if key not in kept]
    return episodes, ratings, dataset_warnings
