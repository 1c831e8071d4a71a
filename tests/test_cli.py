"""End-to-end CLI behaviour: subcommands, exit codes, file layout."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path
from xml.dom import minidom

import pytest

import charnet
from charnet import cli
from charnet.cli import main
from charnet.graph import EpisodeKey
from charnet.ingest import serialize_episode
from charnet.metrics import METRIC_BY_ATTR, METRICS
from charnet.report import METRICS_CSV_HEADER

from support import build_demo_dataset, build_messy_dataset, count_shuffles, random_segments, run_python


@pytest.fixture(scope="module")
def clean_dataset(tmp_path_factory):
    return build_demo_dataset(tmp_path_factory.mktemp("clean"))


@pytest.fixture(scope="module")
def messy_dataset(tmp_path_factory):
    return build_messy_dataset(tmp_path_factory.mktemp("messy"))


def run_cli(command, dataset, out, *extra) -> int:
    segments, ratings = dataset
    argv = [
        command,
        "--segments",
        str(segments),
        "--ratings",
        str(ratings),
        "--out",
        str(out),
    ]
    argv.extend(extra)
    return main(argv)


class TestValidate:
    def test_clean_dataset_exits_zero(self, clean_dataset, tmp_path, capsys):
        code = run_cli("validate", clean_dataset, tmp_path / "out")
        assert code == 0
        out = capsys.readouterr().out
        assert "episodes: 12, warnings: 0" in out
        assert (tmp_path / "out" / "manifest.txt").is_file()

    def test_messy_dataset_exits_one(self, messy_dataset, tmp_path, capsys):
        code = run_cli("validate", messy_dataset, tmp_path / "out")
        assert code == 1
        manifest = (tmp_path / "out" / "manifest.txt").read_text()
        assert "warning:" in manifest

    def test_line_break_in_name_exits_two(self, tmp_path, capsys):
        segments, ratings = build_demo_dataset(tmp_path / "data", episodes=1)
        path = next(segments.glob("*.json"))
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["segments"][0]["nodes"].append("Lone\nepisodes: 0, warnings: 0")
        path.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "out"
        assert run_cli("validate", (segments, ratings), out) == 2
        assert "must not contain control characters" in capsys.readouterr().err
        assert not (out / "manifest.txt").exists()

    @pytest.mark.parametrize(
        "name, message",
        [
            ("b\nepisodes: 9, warnings: 0\n.json", "must not contain control characters"),
            (os.fsdecode(b"b\xff.json"), "not encodable as UTF-8"),
        ],
    )
    def test_unsafe_duplicate_file_name_exits_two(self, clean_dataset, tmp_path, capsys, name, message):
        # a dropped duplicate's file name is written into the manifest
        segments = tmp_path / "segments"
        segments.mkdir()
        text = serialize_episode(EpisodeKey("demo", 1, 1), random_segments(random.Random(1), 2))
        (segments / "a.json").write_text(text, encoding="utf-8")
        duplicate = segments / name
        duplicate.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        assert run_cli("validate", (segments, clean_dataset[1]), out) == 2
        err = capsys.readouterr().err
        assert repr(str(duplicate)) in err and message in err
        assert not (out / "manifest.txt").exists()

    def test_computes_no_metrics(self, clean_dataset, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("validate must not compute metrics")

        monkeypatch.setattr(cli, "compute_episode_metrics", refuse)
        assert run_cli("validate", clean_dataset, tmp_path / "out") == 0

    def test_missing_ratings_file(self, clean_dataset, tmp_path, capsys):
        segments, _ = clean_dataset
        code = main(
            [
                "validate",
                "--segments",
                str(segments),
                "--ratings",
                str(tmp_path / "nope.csv"),
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 2
        assert "ratings file not found" in capsys.readouterr().err

    def test_missing_segments_dir(self, clean_dataset, tmp_path, capsys):
        missing = tmp_path / "nope"
        code = run_cli("validate", (missing, clean_dataset[1]), tmp_path / "out")
        assert code == 2
        assert capsys.readouterr().err == f"error: segments directory not found: {missing}\n"
        assert not (tmp_path / "out").exists()

    def test_empty_segments_dir(self, clean_dataset, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        _, ratings = clean_dataset
        code = main(
            [
                "validate",
                "--segments",
                str(empty),
                "--ratings",
                str(ratings),
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 2
        assert "no episode files found" in capsys.readouterr().err

    @staticmethod
    def _validate_in_child(segments, ratings, out, command="validate"):
        """`charnet <command>` (validate by default) in a fresh interpreter, so a crash shows as one."""
        return run_python(
            "-m", "charnet", command, "--segments", str(segments), "--ratings", str(ratings), "--out", str(out)
        )

    def test_undecodable_episode_exits_two(self, clean_dataset, tmp_path):
        segments = tmp_path / "segments"
        segments.mkdir()
        (segments / "latin1.json").write_bytes(
            b'{"series": "Se\xf1or", "season": 1, "episode": 1, "segments": []}'
        )
        result = self._validate_in_child(segments, clean_dataset[1], tmp_path / "out")
        assert result.returncode == 2
        assert "not valid UTF-8" in result.stderr
        assert "Traceback" not in result.stderr

    def test_deeply_nested_episode_exits_two(self, clean_dataset, tmp_path):
        segments = tmp_path / "segments"
        segments.mkdir()
        depth = 100_000
        (segments / "deep.json").write_bytes(
            b'{"series": "deep", "season": 1, "episode": 1, "segments": '
            + b"[" * depth
            + b"]" * depth
            + b"}"
        )
        result = self._validate_in_child(segments, clean_dataset[1], tmp_path / "out")
        assert result.returncode == 2
        assert "JSON nested too deeply" in result.stderr
        assert "Traceback" not in result.stderr

    def test_lone_surrogate_exits_two(self, clean_dataset, tmp_path):
        segments = tmp_path / "segments"
        segments.mkdir()
        (segments / "surrogate.json").write_bytes(
            b'{"series": "s\\ud800", "season": 1, "episode": 1, '
            b'"segments": [{"edges": [{"a": "A", "b": "B", "w": 1.0}]}]}'
        )
        result = self._validate_in_child(segments, clean_dataset[1], tmp_path / "out")
        assert result.returncode == 2
        assert "not encodable as UTF-8" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize(
        "content",
        [
            pytest.param(b'{"series": "Se\xf1or", "season": 1, "episode": 1, "segments": []}', id="not-utf8"),
            pytest.param(
                b'{"series": "deep", "season": 1, "episode": 1, "segments": '
                + b"[" * 100_000
                + b"]" * 100_000
                + b"}",
                id="deep-nesting",
            ),
            pytest.param(
                b'{"series": "big", "season": ' + b"7" * 5000 + b', "episode": 1, "segments": []}',
                id="5000-digit-integer",
            ),
            pytest.param(
                b'{"series": "s", "season": 1, "episode": 1, "segments": [{"nodes": 5, "edges": []}]}',
                id="nodes-not-a-list",
            ),
            pytest.param(
                b'{"series": "s\\udc00", "season": 1, "episode": 1, '
                b'"segments": [{"edges": [{"a": "A", "b": "B", "w": 1.0}]}]}',
                id="lone-surrogate",
            ),
            pytest.param(
                b'{"series": "s", "season": 1, "episode": 1, '
                b'"segments": [{"edges": [{"a": "A", "b": "B", "w": -1}]}]}',
                id="non-positive-weight",
            ),
            pytest.param(
                b'{"series": "s", "season": 1, "episode": 1, '
                b'"segments": [{"edges": [{"a": "A", "b": "A", "w": 1.0}]}]}',
                id="self-loop",
            ),
            pytest.param(
                b'{"series": "s", "season": 1, "segments": [{"edges": [{"a": "A", "b": "B", "w": 1.0}]}]}',
                id="missing-key",
            ),
            pytest.param(
                b'{"series": "../escaped", "season": 1, "episode": 1, '
                b'"segments": [{"edges": [{"a": "A", "b": "B", "w": 1.0}]}]}',
                id="series-leaves-out-dir",
            ),
            pytest.param(
                b'{"series": "a/b", "season": 1, "episode": 1, '
                b'"segments": [{"edges": [{"a": "A", "b": "B", "w": 1.0}]}]}',
                id="series-with-slash",
            ),
            pytest.param(
                b'{"series": "s", "season": 1, "episode": 1, '
                b'"segments": [{"edges": [{"a": "A", "b": "B", "w": 1' + b"0" * 400 + b"}]}]}",
                id="weight-past-float-range",
            ),
            pytest.param(
                b'{"series": "s", "season": 1, "episode": 1, "segments": [{"edges": '
                b'[{"a": "A", "b": "B", "w": 1e308}, {"a": "A", "b": "C", "w": 1e308}]}]}',
                id="strength-past-float-range",
            ),
            pytest.param(
                b'{"series": "s", "season": 1, "episode": 1, "segments": [{"edges": '
                b'[{"a": "A", "b": "B", "w": 1e160}, {"a": "B", "b": "C", "w": 1.0}]}]}',
                id="strength-variance-past-float-range",
            ),
            pytest.param(
                b'{"series": "s", "season": 1, "episode": 1, "segments": '
                b'[{"edges": [{"a": "A", "b": "B", "w": 1e308}]}, {"edges": [{"a": "B", "b": "A", "w": 1e308}]}]}',
                id="segment-sum-past-float-range",
            ),
        ],
    )
    def test_malformed_corpus_never_crashes(self, clean_dataset, tmp_path, content):
        segments = tmp_path / "segments"
        segments.mkdir()
        (segments / "case.json").write_bytes(content)
        out = tmp_path / "out"
        # `all` runs the same load as `validate`, then writes per-series files
        result = self._validate_in_child(segments, clean_dataset[1], out, command="all")
        assert result.returncode in (0, 1, 2)
        assert "Traceback" not in result.stderr
        assert result.returncode != 2 or not out.exists()
        written = [p for p in tmp_path.rglob("*") if p.is_file()]
        assert all(segments in p.parents or out in p.parents for p in written)


def test_internal_error_exits_three(clean_dataset, tmp_path, monkeypatch, capsys):
    # a bug must not pass for "finished with warnings" (1) or bad input (2)
    def broken(*args, **kwargs):
        raise RuntimeError("metric stage broke")

    monkeypatch.setattr(cli, "compute_episode_metrics", broken)
    assert run_cli("metrics", clean_dataset, tmp_path / "out") == 3
    err = capsys.readouterr().err
    assert "internal error: RuntimeError('metric stage broke')" in err
    assert "Traceback" in err


@pytest.mark.parametrize(
    "flag, value, message, command",
    [
        ("--eigen-tol", "nan", "eigen tol must be a finite number > 0, got nan", "metrics"),
        ("--eigen-tol", "-1", "eigen tol must be a finite number > 0, got -1", "metrics"),
        ("--eigen-max-iter", "0", "eigen max iterations must be at least 1, got 0", "metrics"),
        ("--permutations", "5", "permutation test needs >= 1000 iterations, got 5", "metrics"),
        # only --series waits for the data: it names one of the dataset's series
        ("--metric", "nosuch", "unknown metric 'nosuch'; known metrics: active_nodes, ", "plot --series alpha"),
    ],
)
def test_invalid_numeric_flag_exits_two_before_reading(
    clean_dataset, tmp_path, monkeypatch, capsys, flag, value, message, command
):
    def refuse(*args, **kwargs):
        raise AssertionError("flags must be checked before the dataset is read")

    monkeypatch.setattr(cli, "load_dataset", refuse)
    out = tmp_path / "out"
    name, *extra = command.split()
    assert run_cli(name, clean_dataset, out, *extra, flag, value) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["metrics", "correlate"])
def test_table_command_without_table_format_exits_two_before_reading(
    clean_dataset, tmp_path, monkeypatch, capsys, command
):
    def refuse(*args, **kwargs):
        raise AssertionError("flags must be checked before the dataset is read")

    monkeypatch.setattr(cli, "load_dataset", refuse)
    out = tmp_path / "out"
    assert run_cli(command, clean_dataset, out, "--format", "svg") == 2
    assert f"error: {command} writes tables only: --format needs csv or md" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "dataset, ignored",
    [
        pytest.param("clean_dataset", [], id="clean_dataset"),
        pytest.param("messy_dataset", [], id="messy_dataset"),
        # validate and plot write the same bytes, with the same exit code, under any valid --format
        pytest.param("messy_dataset", ["--format", "md"], id="messy_dataset-md"),
        pytest.param("messy_dataset", ["--format", "csv"], id="messy_dataset-csv"),
    ],
)
def test_subcommands_write_what_all_writes(request, tmp_path, capsys, dataset, ignored):
    data = request.getfixturevalue(dataset)
    whole = tmp_path / "all"
    code = run_cli("all", data, whole)
    expected = {p.name: p.read_bytes() for p in whole.iterdir()}
    series = sorted(n[: -len("_metrics.csv")] for n in expected if n.endswith("_metrics.csv"))
    runs = [["validate", *ignored], ["metrics"], ["correlate"]] + [
        ["plot", "--metric", attr, "--series", name, *ignored] for name in series for attr in METRIC_BY_ATTR
    ]
    written = {}
    for number, (command, *extra) in enumerate(runs):
        out = tmp_path / f"run{number}"
        assert run_cli(command, data, out, *extra) == code, command
        written.update((p.name, p.read_bytes()) for p in out.iterdir())
    assert sorted(written) == sorted(expected)
    assert written == expected


def test_runtime_imports_only_stdlib():
    # dataclasses is stdlib, but it and the inspect, ast and dis it pulls in
    # cost every launch 10-12 ms, and its decorations exec generated source
    src = Path(charnet.__file__).resolve().parent.parent
    probe = (
        "import sys, charnet, charnet.cli; "
        "print(sorted(m for m in ('numpy', 'networkx', 'scipy', 'mpmath', 'dataclasses', 'inspect') if m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


class TestMetrics:
    def test_writes_per_series_tables(self, clean_dataset, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("metrics", clean_dataset, out) == 0
        for series in ("alpha", "beta"):
            csv_path = out / f"{series}_metrics.csv"
            assert csv_path.is_file()
            assert (out / f"{series}_metrics.md").is_file()
            lines = csv_path.read_text().splitlines()
            assert lines[0] == ",".join(METRICS_CSV_HEADER)
            # 6 episodes, all rated, episode ordinals 1..6
            data = [line for line in lines[1:] if not line.startswith("#")]
            assert [row.split(",")[0] for row in data] == ["1", "2", "3", "4", "5", "6"]
            assert all(row.split(",")[1] for row in data)

    def test_format_filter(self, clean_dataset, tmp_path):
        out = tmp_path / "md_only"
        assert run_cli("metrics", clean_dataset, out, "--format", "md") == 0
        written = {p.name for p in out.iterdir()}
        assert written == {"alpha_metrics.md", "beta_metrics.md"}

    def test_unknown_format_rejected(self, clean_dataset, tmp_path, capsys):
        code = run_cli("metrics", clean_dataset, tmp_path / "out", "--format", "pdf")
        assert code == 2
        assert "unknown output format" in capsys.readouterr().err

    def test_empty_format_list_rejected(self, clean_dataset, tmp_path, capsys):
        code = run_cli("metrics", clean_dataset, tmp_path / "out", "--format", ",")
        assert code == 2
        assert capsys.readouterr().err == "error: at least one output format is required\n"


class TestCorrelate:
    def test_writes_reports(self, clean_dataset, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("correlate", clean_dataset, out) == 0
        text = (out / "alpha_correlations.csv").read_text()
        assert text.startswith("Metric,Correlation,pValue,Stars\n")
        assert "# n: 6" in text
        assert "# efficiency mode: component-mean" in text

    def test_permutation_flag_adds_cross_check(self, clean_dataset, tmp_path, capsys):
        out = tmp_path / "perm"
        code = run_cli(
            "correlate",
            clean_dataset,
            out,
            "--permutations",
            "1000",
            "--seed",
            "5",
        )
        assert code == 0
        text = (out / "alpha_correlations.csv").read_text()
        assert "permutation pValue" in text
        assert "permutations: 1000, seed: 5" in text

    def test_series_of_one_size_share_a_stream_yet_match_a_lone_run(self, tmp_path, monkeypatch, capsys):
        # alpha and beta have 6 rated episodes each and gamma 8: two
        # shuffle streams, and each series' tables are those of a dataset
        # that holds that series alone
        segments, ratings = build_demo_dataset(tmp_path / "mixed")
        gamma_segments, gamma_ratings = build_demo_dataset(tmp_path / "gamma", series=("gamma",), episodes=8)
        for path in gamma_segments.iterdir():
            (segments / path.name).write_bytes(path.read_bytes())
        lines = ratings.read_text(encoding="utf-8").splitlines(keepends=True)
        lines += gamma_ratings.read_text(encoding="utf-8").splitlines(keepends=True)[1:]
        ratings.write_text("".join(lines), encoding="utf-8")
        shuffles = count_shuffles(monkeypatch)
        flags = ("--permutations", "2000", "--seed", "4")
        assert run_cli("correlate", (segments, ratings), tmp_path / "out", *flags) == 0
        assert sorted(shuffles) == [6] * 2000 + [8] * 2000
        for series in ("alpha", "beta", "gamma"):
            alone = tmp_path / "alone" / series
            (alone / "segments").mkdir(parents=True)
            for path in segments.glob(f"{series}_*.json"):
                (alone / "segments" / path.name).write_bytes(path.read_bytes())
            rated = [line for line in lines if line.startswith((f"{series},", "series,"))]
            (alone / "ratings.csv").write_text("".join(rated), encoding="utf-8")
            assert run_cli("correlate", (alone / "segments", alone / "ratings.csv"), alone / "out", *flags) == 0
            for fmt in ("csv", "md"):
                name = f"{series}_correlations.{fmt}"
                assert (alone / "out" / name).read_bytes() == (tmp_path / "out" / name).read_bytes(), name

    def test_neighborhood_mode_changes_output(self, clean_dataset, tmp_path, capsys):
        base = tmp_path / "base"
        other = tmp_path / "other"
        assert run_cli("correlate", clean_dataset, base) == 0
        assert (
            run_cli("correlate", clean_dataset, other, "--efficiency", "neighborhood")
            == 0
        )
        assert (base / "alpha_correlations.csv").read_text() != (
            other / "alpha_correlations.csv"
        ).read_text()


class TestPlot:
    def test_named_output_file(self, clean_dataset, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli(
            "plot", clean_dataset, out, "--metric", "density", "--series", "alpha"
        )
        assert code == 0
        svg = (out / "alpha_density_scatter.svg").read_text()
        assert svg.count("<circle") == 6
        assert "Density vs Review for alpha" in svg

    def test_computes_and_counts_only_its_series(self, tmp_path, monkeypatch, capsys):
        # two 1e308 edges on one node overflow beta 1 2's strength summary,
        # a row warning that the manifest cannot see
        segments, ratings = build_demo_dataset(tmp_path / "data")
        path = segments / "beta_s01e02.json"
        episode = json.loads(path.read_text(encoding="utf-8"))
        episode["segments"][0]["edges"] += [
            {"a": "Zed One", "b": "Zed Two", "w": 1e308},
            {"a": "Zed One", "b": "Zed Three", "w": 1e308},
        ]
        path.write_text(json.dumps(episode), encoding="utf-8")
        computed = []
        compute = cli.compute_episode_metrics

        def counting(graph, config):
            computed.append(graph.key)
            return compute(graph, config)

        monkeypatch.setattr(cli, "compute_episode_metrics", counting)
        dataset = (segments, ratings)
        assert run_cli("validate", dataset, tmp_path / "v") == 0
        code = run_cli("plot", dataset, tmp_path / "a", "--metric", "density", "--series", "alpha")
        assert code == 0
        assert [key.series for key in computed] == ["alpha"] * 6
        assert capsys.readouterr().err == ""
        code = run_cli("plot", dataset, tmp_path / "b", "--metric", "density", "--series", "beta")
        assert code == 1
        assert capsys.readouterr().err == "warning: beta 1 2: strength: summary overflows a float\n"

    def test_unknown_metric(self, clean_dataset, tmp_path, capsys):
        code = run_cli(
            "plot", clean_dataset, tmp_path / "out", "--metric", "pagerank", "--series", "alpha"
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown metric" in err
        assert "density" in err  # the known list is spelled out

    def test_unknown_series(self, clean_dataset, tmp_path, capsys):
        code = run_cli(
            "plot", clean_dataset, tmp_path / "out", "--metric", "density", "--series", "zeta"
        )
        assert code == 2
        assert "unknown series" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_no_rated_episodes(self, tmp_path, capsys):
        segments_dir = tmp_path / "segments"
        segments_dir.mkdir()
        episode = serialize_episode(
            EpisodeKey("lonely", 1, 1), random_segments(random.Random(1))
        )
        (segments_dir / "lonely_s01e01.json").write_text(episode)
        ratings = tmp_path / "ratings.csv"
        ratings.write_text("series,season,episode,rating\nother,1,1,8.0\n")
        code = main(
            [
                "plot",
                "--segments",
                str(segments_dir),
                "--ratings",
                str(ratings),
                "--out",
                str(tmp_path / "out"),
                "--metric",
                "density",
                "--series",
                "lonely",
            ]
        )
        assert code == 2
        assert "no rated episodes" in capsys.readouterr().err


class TestAll:
    def test_full_output_tree(self, clean_dataset, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("all", clean_dataset, out) == 0
        names = {p.name for p in out.iterdir()}
        assert "manifest.txt" in names
        for series in ("alpha", "beta"):
            assert f"{series}_metrics.csv" in names
            assert f"{series}_metrics.md" in names
            assert f"{series}_correlations.csv" in names
            assert f"{series}_correlations.md" in names
            scatters = {n for n in names if n.startswith(f"{series}_") and n.endswith("_scatter.svg")}
            assert len(scatters) == 12
        assert len(names) == 1 + 2 * (2 + 2 + 12)

    def test_svg_text_is_escaped(self, tmp_path, capsys):
        series = "Tom & Jerry <3"
        dataset = build_demo_dataset(tmp_path / "data", series=(series,))
        out = tmp_path / "out"
        assert run_cli("all", dataset, out) == 0
        svgs = sorted(out.glob("*.svg"))
        assert len(svgs) == 12
        for path in svgs:
            column = METRIC_BY_ATTR[path.name[len(series) + 1 : -len("_scatter.svg")]]
            texts = minidom.parse(str(path)).getElementsByTagName("text")
            assert texts[0].firstChild.data == f"{column.label} vs Review for {series}"

    def test_messy_dataset_still_writes_but_flags(self, messy_dataset, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli("all", messy_dataset, out)
        assert code == 1
        assert (out / "gamma_metrics.csv").is_file()
        assert (out / "gamma_correlations.csv").is_file()

    def test_row_warnings_go_to_stderr_in_key_order(self, clean_dataset, tmp_path, capsys):
        assert run_cli("all", clean_dataset, tmp_path / "clean") == 0
        clean = capsys.readouterr()
        assert clean.err == ""
        out = tmp_path / "capped"
        assert run_cli("all", clean_dataset, out, "--eigen-max-iter", "1") == 1
        capped = capsys.readouterr()
        # stdout lists the files written, as in a clean run
        assert capped.out == clean.out.replace(str(tmp_path / "clean"), str(out))
        keys = [f"{series} 1 {episode}" for series in ("alpha", "beta") for episode in range(1, 7)]
        lines = capped.err.splitlines()
        assert len(lines) == len(keys)
        for line, key in zip(lines, keys):
            prefix = f"warning: {key}: eigenvector: power iteration missed tol=1e-10 after 1 iterations"
            assert line.startswith(prefix), line
        # the manifest counts dataset warnings only
        assert (out / "manifest.txt").read_text(encoding="utf-8").endswith("warnings: 0\n")

    def test_svg_format_writes_manifest_and_plots(self, clean_dataset, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("all", clean_dataset, out, "--format", "svg") == 0
        names = {p.name for p in out.iterdir()}
        assert "manifest.txt" in names
        assert len(names) == 1 + 2 * 12
        assert all(name.endswith("_scatter.svg") for name in names - {"manifest.txt"})

    @pytest.mark.parametrize("command", ["all", "correlate"])
    def test_too_short_series_is_named_and_nothing_is_written(self, tmp_path, capsys, command):
        segments, ratings = build_demo_dataset(tmp_path / "data")
        for episode in (4, 5, 6):
            (segments / f"beta_s01e{episode:02d}.json").unlink()
        out = tmp_path / "out"
        assert run_cli(command, (segments, ratings), out) == 2
        captured = capsys.readouterr()
        assert "error: series 'beta': need at least 4 rated episodes, got 3" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_correlation_footer_holds_notes_in_echo_order(self, messy_dataset, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("all", messy_dataset, out, "--permutations", "1000", "--seed", "3") == 1
        lines = (out / "gamma_correlations.csv").read_text(encoding="utf-8").splitlines()
        pvalues = ["0.385", "0.963", "0.078", "0.318", "1.000", "0.946"]
        pvalues += ["1.000", "0.946", "1.000", "0.957", "0.963", "0.787"]
        labels = [column.label for column in METRICS]
        assert lines[13:] == [
            "# n: 5",
            "# excluded (no rating): 1",
            "# duplicate episodes dropped at load: 1",
            "# efficiency mode: component-mean",
            "# eigen tol: 1e-10",
            "# eigen max iterations: 10000",
            "# std convention: population",
            "# permutations: 1000, seed: 3",
            "# stars: ** p < 0.01, * p < 0.05 (strict thresholds, no exceptions)",
            *(f"# permutation pValue {label}: {p}" for label, p in zip(labels, pvalues)),
        ]

    def test_close_eigen_tols_write_different_footers(self, clean_dataset, tmp_path, capsys):
        # 1.000004e-10 and 1e-10 print alike to 6 significant digits
        footers = []
        for tol in ("1e-10", "1.000004e-10"):
            out = tmp_path / tol
            assert run_cli("correlate", clean_dataset, out, "--eigen-tol", tol, "--format", "csv") == 0
            lines = (out / "alpha_correlations.csv").read_text(encoding="utf-8").splitlines()
            footers.append([line for line in lines if line.startswith("# eigen tol:")])
        assert footers == [["# eigen tol: 1e-10"], ["# eigen tol: 1.000004e-10"]]

    def test_every_report_carries_each_echo_line_once(self, messy_dataset, tmp_path, capsys):
        flags = ["--permutations", "1000", "--seed", "3"]
        out = tmp_path / "out"
        assert run_cli("all", messy_dataset, out, *flags) == 1
        segments, ratings = messy_dataset
        argv = ["all", "--segments", str(segments), "--ratings", str(ratings), "--out", str(out)]
        echo = cli._echo_lines(cli.build_parser().parse_args(argv + flags))
        assert len(echo) == 5
        reports = sorted(p for p in out.iterdir() if p.name != "manifest.txt")
        assert len(reports) == 4 + 12
        for path in reports:
            text = path.read_text(encoding="utf-8")
            for line in echo:
                assert text.count(line) == 1, (path.name, line)

    def test_correlate_needs_four_rated(self, tmp_path, capsys):
        segments_dir = tmp_path / "segments"
        segments_dir.mkdir()
        rng = random.Random(7)
        lines = ["series,season,episode,rating"]
        for ep in (1, 2, 3):
            episode = serialize_episode(
                EpisodeKey("tiny", 1, ep), random_segments(rng)
            )
            (segments_dir / f"tiny_s01e{ep:02d}.json").write_text(episode)
            lines.append(f"tiny,1,{ep},8.{ep}")
        ratings = tmp_path / "ratings.csv"
        ratings.write_text("\n".join(lines) + "\n")
        code = main(
            [
                "correlate",
                "--segments",
                str(segments_dir),
                "--ratings",
                str(ratings),
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 2
        assert "series 'tiny': need at least 4 rated episodes" in capsys.readouterr().err


def test_module_entry_point(clean_dataset, tmp_path):
    segments, ratings = clean_dataset
    out = tmp_path / "out"
    result = run_python(
        "-m", "charnet", "metrics", "--segments", str(segments), "--ratings", str(ratings), "--out", str(out),
        "--format", "csv",
    )
    assert result.returncode == 0
    assert "wrote" in result.stdout
    assert (out / "alpha_metrics.csv").is_file()
