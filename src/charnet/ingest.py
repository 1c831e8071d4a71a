"""Dataset ingestion: segment-graph JSON files and the ratings CSV.

One JSON file holds one episode as a list of segment graphs.  Ratings come
from a local CSV only; nothing here ever touches the network.  Parsers are
total: any input terminates with a parse result or a structured error.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import (
    DuplicateKeyError,
    EmptyDatasetError,
    FormatError,
    InvariantError,
    NonPositiveWeightError,
    RangeError,
    SelfLoopError,
)
from .graph import (
    EpisodeGraph,
    EpisodeKey,
    SegmentGraph,
    add_interaction,
    aggregate_segments,
    canonical_pair,
    normalize_character,
)

RATINGS_HEADER = ("series", "season", "episode", "rating")

RATING_MIN = 1.0
RATING_MAX = 10.0


@dataclass
class ParsedEpisode:
    """One parsed episode file: identity, segments in file order, parse warnings."""

    key: EpisodeKey
    segments: list[SegmentGraph]
    warnings: list[str] = field(default_factory=list)


@dataclass
class RatingsTable:
    """Review score per episode, on the 1-10 scale."""

    ratings: dict[EpisodeKey, float] = field(default_factory=dict)

    def get(self, key: EpisodeKey) -> float | None:
        return self.ratings.get(key)

    def __contains__(self, key: EpisodeKey) -> bool:
        return key in self.ratings

    def __len__(self) -> int:
        return len(self.ratings)

    def keys(self) -> list[EpisodeKey]:
        return sorted(self.ratings)


@dataclass
class ManifestEntry:
    """Validation summary for one episode."""

    key: EpisodeKey
    segment_count: int
    node_count: int
    edge_count: int
    warnings: list[str] = field(default_factory=list)
    duplicates_dropped: int = 0


@dataclass
class DatasetManifest:
    """Per-episode counts and warnings, plus dataset-level warnings."""

    entries: list[ManifestEntry] = field(default_factory=list)
    dataset_warnings: list[str] = field(default_factory=list)

    def warning_count(self) -> int:
        return len(self.dataset_warnings) + sum(len(e.warnings) for e in self.entries)


def _require(mapping: dict, key: str, where: str):
    if not isinstance(mapping, dict):
        raise FormatError(f"{where}: expected an object, got {type(mapping).__name__}")
    if key not in mapping:
        raise FormatError(f"{where}: missing field {key!r}")
    return mapping[key]


def _positive_int(value, what: str, where: str) -> int:
    # bool is an int subtype; reject it explicitly
    if isinstance(value, bool) or not isinstance(value, int) or value <= 0:
        raise FormatError(f"{where}: {what} must be a positive integer, got {value!r}")
    return value


def _text(value, what: str, where: str) -> str:
    if not isinstance(value, str):
        raise FormatError(f"{where}: {what} must be a string, got {type(value).__name__}")
    return value


def _file_safe(series: str, where: str) -> None:
    # report file names start with the series name: no path separators, no control characters
    if any(ch in "/\\" or ord(ch) < 32 or 127 <= ord(ch) < 160 for ch in series):
        raise FormatError(
            f"{where}: series {series!r} must not contain '/', '\\' or control characters"
        )


def _encodable(text: str, what: str) -> None:
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise FormatError(f"episode file: {what} {text!r} is not encodable as UTF-8") from exc


def parse_segment_file(data: bytes | str) -> ParsedEpisode:
    """Parse one episode file into its segment graphs.

    Segments keep file order and are indexed from 0.  Duplicate unordered
    edge declarations within a segment are summed and reported as a
    warning rather than rejected.
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

    series = _text(_require(doc, "series", "episode file"), "series", "episode file").strip()
    if not series:
        raise FormatError("episode file: series must be a non-empty string")
    _file_safe(series, "episode file")
    season = _positive_int(_require(doc, "season", "episode file"), "season", "episode file")
    episode = _positive_int(_require(doc, "episode", "episode file"), "episode", "episode file")
    key = EpisodeKey(series=series, season=season, episode=episode)

    segments_json = _require(doc, "segments", "episode file")
    if not isinstance(segments_json, list):
        raise FormatError("episode file: segments must be a list")

    segments: list[SegmentGraph] = []
    warnings: list[str] = []
    for position, seg_json in enumerate(segments_json):
        where = f"segment {position}"
        if not isinstance(seg_json, dict):
            raise FormatError(f"{where}: expected an object, got {type(seg_json).__name__}")
        seg = SegmentGraph(index=position)

        nodes_json = seg_json.get("nodes", [])
        if not isinstance(nodes_json, list):
            raise FormatError(f"{where}: nodes must be a list")
        for name in nodes_json:
            _text(name, "node name", where)
            try:
                seg.nodes.add(normalize_character(name))
            except InvariantError as exc:
                raise InvariantError(f"{where}: {exc}") from exc

        edges_json = seg_json.get("edges", [])
        if not isinstance(edges_json, list):
            raise FormatError(f"{where}: edges must be a list")
        for edge_json in edges_json:
            a = _text(_require(edge_json, "a", where), "edge endpoint", where)
            b = _text(_require(edge_json, "b", where), "edge endpoint", where)
            w = _require(edge_json, "w", where)
            if isinstance(w, bool) or not isinstance(w, (int, float)):
                raise FormatError(f"{where}: edge weight must be a number, got {w!r}")
            try:
                a, b = normalize_character(a), normalize_character(b)
                pair = canonical_pair(a, b)
                if pair in seg.edges:
                    warnings.append(f"{where}: duplicate edge {pair[0]}-{pair[1]} merged")
                add_interaction(seg, a, b, w)
            except (SelfLoopError, NonPositiveWeightError, InvariantError) as exc:
                raise InvariantError(f"{where}: {exc}") from exc
        if not seg.edges:
            warnings.append(f"{where}: no edges")
        segments.append(seg)

    if not segments:
        raise FormatError("episode file: segments list is empty")
    # JSON escapes can decode to lone surrogates, which no report could write
    _encodable(series, "series")
    for name in set().union(*(seg.nodes for seg in segments)):
        _encodable(name, "character name")
    return ParsedEpisode(key=key, segments=segments, warnings=warnings)


def serialize_episode(key: EpisodeKey, segments: list[SegmentGraph]) -> str:
    """Render an episode back to the canonical JSON file form.

    Node and edge lists are emitted sorted, so output is unique for a
    given episode and re-parsing reproduces the same graphs exactly.
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
    return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"


def parse_ratings_csv(data: bytes | str) -> RatingsTable:
    """Parse the ratings CSV (header: series,season,episode,rating)."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8-sig")  # spreadsheets often prepend a BOM
        except UnicodeDecodeError as exc:
            raise FormatError(f"ratings CSV is not valid UTF-8: {exc}") from exc

    lines = data.splitlines()
    try:
        rows = list(csv.reader(lines))
    except csv.Error as exc:
        raise FormatError(f"ratings CSV is unreadable: {exc}") from exc
    filled = [(number, row) for number, row in enumerate(rows, start=1) if row]
    if not filled:
        raise FormatError("ratings CSV is empty")

    header_number, header = filled[0]
    if tuple(cell.strip() for cell in header) != RATINGS_HEADER:
        raise FormatError(
            f"ratings CSV line {header_number}: header must be "
            f"{','.join(RATINGS_HEADER)!r}, got {','.join(header)!r}"
        )

    table = RatingsTable()
    for number, row in filled[1:]:
        if len(row) != len(RATINGS_HEADER):
            raise FormatError(
                f"ratings CSV line {number}: expected {len(RATINGS_HEADER)} fields, got {len(row)}"
            )
        series_cell, season_cell, episode_cell, rating_cell = (cell.strip() for cell in row)
        if not series_cell:
            raise FormatError(f"ratings CSV line {number}: series is empty")
        _file_safe(series_cell, f"ratings CSV line {number}")
        try:
            season = int(season_cell)
            episode = int(episode_cell)
        except ValueError as exc:
            raise FormatError(f"ratings CSV line {number}: {exc}") from exc
        if season <= 0 or episode <= 0:
            raise FormatError(f"ratings CSV line {number}: season and episode must be positive")
        try:
            rating = float(rating_cell)
        except ValueError as exc:
            raise FormatError(f"ratings CSV line {number}: {exc}") from exc
        if not math.isfinite(rating) or not (RATING_MIN <= rating <= RATING_MAX):
            raise RangeError(
                f"ratings CSV line {number}: rating {rating_cell} outside [{RATING_MIN:g}, {RATING_MAX:g}]"
            )
        key = EpisodeKey(series=series_cell, season=season, episode=episode)
        if key in table.ratings:
            raise DuplicateKeyError(f"ratings CSV line {number}: duplicate rating for {key}")
        table.ratings[key] = rating
    return table


def load_dataset(
    segment_files, ratings_file
) -> tuple[list[EpisodeGraph], RatingsTable, DatasetManifest]:
    """Parse and aggregate a whole dataset.

    Duplicate episode keys keep their first file and warn.  Episodes are
    returned sorted by key, with 1-based ordinals assigned per series in
    (season, episode) order.
    """
    paths = [Path(p) for p in segment_files]
    if not paths:
        raise EmptyDatasetError("no episode files found")

    parsed: dict[EpisodeKey, ParsedEpisode] = {}
    extra_warnings: dict[EpisodeKey, list[str]] = {}
    for path in paths:
        try:
            episode = parse_segment_file(path.read_bytes())
        except FormatError as exc:
            raise FormatError(f"{path}: {exc}") from exc
        except InvariantError as exc:
            raise InvariantError(f"{path}: {exc}") from exc
        if episode.key in parsed:
            extra_warnings.setdefault(episode.key, []).append(
                f"duplicate episode key in {path.name}, first kept"
            )
            continue
        parsed[episode.key] = episode

    ratings = parse_ratings_csv(Path(ratings_file).read_bytes())

    episodes: list[EpisodeGraph] = []
    manifest = DatasetManifest()
    per_series_counter: dict[str, int] = {}
    for key in sorted(parsed):
        item = parsed[key]
        graph = aggregate_segments(item.segments, key)
        per_series_counter[key.series] = per_series_counter.get(key.series, 0) + 1
        graph.ordinal = per_series_counter[key.series]

        warnings = list(item.warnings)
        warnings.extend(extra_warnings.get(key, []))
        linked = {v for pair in graph.edges for v in pair}
        isolated = sorted(graph.nodes - linked)
        if isolated:
            shown = ", ".join(isolated[:5]) + ("..." if len(isolated) > 5 else "")
            warnings.append(f"{len(isolated)} isolated node(s) kept: {shown}")
        if key not in ratings:
            warnings.append("MissingRating: excluded from correlation")

        episodes.append(graph)
        manifest.entries.append(
            ManifestEntry(
                key=key,
                segment_count=graph.segment_count,
                node_count=len(graph.nodes),
                edge_count=len(graph.edges),
                warnings=warnings,
                duplicates_dropped=len(extra_warnings.get(key, ())),
            )
        )

    for key in ratings.keys():
        if key not in parsed:
            manifest.dataset_warnings.append(f"rating without episode: {key}")
    return episodes, ratings, manifest
