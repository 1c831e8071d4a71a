"""Seeded end-to-end and per-layer benchmark of the charnet CLI.

One run: generate the workload's dataset from --seed, run charnet once as a
reference (checked cell by cell against networkx and numpy), time many
fresh interpreters doing charnet's fixed start-up work, then run charnet
over and over for --seconds in a closed loop with one client: one child
process at a time, the next started when the previous one exits.  Every
run must exit 0 and reproduce the reference report tree byte for byte.
With --trace 1 one more run goes through tracer.py, which times the calls
into each layer from outside; the timed runs never carry the tracer.

The shared machines this runs on change speed by tens of percent from
minute to minute, more than a regression bound can absorb.  So between
any two timed children the benchmark times a fixed calibration workload
(calibrate.py), and the end-to-end timings wall_cal and cpu_cal are each
child's seconds divided by the median of the nearest calibrations: the
unit `cal` is one pass of that workload.  setup_s, which must read in
seconds, is the same ratio times calibrate.REFERENCE_S.  The children's
own seconds are printed beside them and reported as process.wall_s,
process.cpu_s and process.setup_s with the per-layer metrics.  Per-layer
timings come from the one traced run and are raw seconds.

The last line of stdout is one JSON object: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  Everything above it is
the human-readable record of the same run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import charnet
from calibrate import REFERENCE_S, Calibration
from check import bfs_sources, check_reports, tree_digest
from workloads import WORKLOADS, Dataset, Shape, Workload, generate

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RUN_SECONDS = SPEC["run_seconds"]
CAL_WINDOW = 3
SETUP_LAUNCHES = 20  # a launch takes about 0.08 s; one alone is too noisy
EXPECTED_EXIT = 0  # generated datasets carry nothing charnet warns about
SETUP_CODE = "import charnet.cli; charnet.cli.build_parser()"
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None  # end-to-end only: allowed worsening, as a share of the median


END_TO_END = tuple(Metric(**m) for m in SPEC["end_to_end"])
PER_LAYER = tuple(Metric(**m) for m in SPEC["per_layer"])

# per-layer timing -> the traced span it sums; report.render_s sums every report.* span
SPAN_TIMINGS = {
    "ingest.parse_segment_file_s": "ingest.parse_segment_file",
    "ingest.load_dataset_s": "ingest.load_dataset",
    "ingest.parse_ratings_csv_s": "ingest.parse_ratings_csv",
    "graph.aggregate_segments_s": "graph.aggregate_segments",
    "graph.connected_components_s": "graph.connected_components",
    "metrics.compute_episode_metrics_s": "metrics.compute_episode_metrics",
    "metrics.harmonic_s": "metrics.harmonic_vector",
    "metrics.efficiency_s": "metrics.efficiency_metric",
    "metrics.eigen_s": "metrics.eigenvector_vector",
    "metrics.transitivity_s": "metrics.transitivity",
    "metrics.degree_s": "metrics.degree_vector",
    "metrics.strength_s": "metrics.node_strengths",
    "metrics.density_s": "metrics.density",
    "metrics.summarize_s": "metrics.summarize",
    "stats.correlate_all_s": "stats.correlate_all",
    "stats.permutation_pvalue_s": "stats.permutation_pvalue",
    "report.render_scatter_svg_s": "report.render_scatter_svg",
    "cli.main_s": "cli.main",
}


@dataclass
class Sample:
    """One charnet child process, from spawn to exit."""

    wall: float
    cpu: float
    rss_mb: float
    exit_code: int
    stderr: str
    cal: float = 0.0  # calibration seconds around this run, see attach_calibrations


@dataclass
class Value:
    """One reported metric: the number plus how it was obtained."""

    value: float
    how: str


@dataclass
class Run:
    workload: Workload
    episodes: int
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    reference_digest: str = ""
    cells_checked: bool = False
    samples: list[Sample] = field(default_factory=list)
    setup: list[Sample] = field(default_factory=list)
    traced: Sample | None = None
    spans: list[dict] = field(default_factory=list)
    trace_cost: dict = field(default_factory=dict)  # what tracing added, from tracer.py
    report_bytes: int = 0
    report_files: int = 0

    def judge(self, label: str, sample: Sample, digest: str, problems: list[str] = ()) -> None:
        """Count one charnet run, failing it on a wrong exit code, tree or cell."""
        self.attempted += 1
        found = list(problems)
        if sample.exit_code != EXPECTED_EXIT:
            tail = sample.stderr.strip().splitlines()[-1:] or ["no stderr"]
            found.append(f"exit code {sample.exit_code}, expected {EXPECTED_EXIT}: {tail[0]}")
        if digest != self.reference_digest:
            found.append(f"report tree sha256 {digest[:16]} differs from the reference")
        if found:
            self.failed += 1
            self.failures.extend(f"{label}: {problem}" for problem in found)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Spawner:
    """The small helper process, spawner.py, that starts every child.

    Children inherit its peak RSS rather than this process's, so
    ru_maxrss measures charnet and not the benchmark.
    """

    def __init__(self, work: Path) -> None:
        self.stderr_file = work / "child-stderr.txt"
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "spawner.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=child_env(),
            cwd=ROOT,
        )

    def run(self, cmd: list[str]) -> Sample:
        self.proc.stdin.write(json.dumps({"cmd": cmd, "stderr": str(self.stderr_file)}) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the spawner process exited early")
        done = json.loads(reply)
        return Sample(
            wall=done["wall"],
            cpu=done["cpu"],
            rss_mb=done["maxrss_kb"] / 1024.0,  # Linux reports kilobytes
            exit_code=done["exit_code"],
            stderr=self.stderr_file.read_text(encoding="utf-8", errors="replace"),
        )

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)


def run_child(spawner: Spawner, cmd: list[str], out_dir: Path | None) -> Sample:
    """One child process, timed from spawn to exit, writing into a fresh out_dir."""
    if out_dir is not None:
        shutil.rmtree(out_dir, ignore_errors=True)
    return spawner.run(cmd)


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def tail_percentile(count: int) -> float | None:
    """The highest reported percentile with at least 10 samples beyond it."""
    for p in TAIL_PERCENTILES:
        if count * (1.0 - p / 100.0) >= 10:
            return p
    return None


def describe(values: list[float], unit: str) -> str:
    """Median, quartiles, tail and sample count of a sample list."""
    parts = [f"n={len(values)}"]
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        parts.append(f"q1={q1:.4f} q3={q3:.4f}")
    p = tail_percentile(len(values))
    if p is None:
        parts.append("tail: n/a below 20 samples")
    else:
        parts.append(f"p{p:g}={percentile(values, p):.4f} {unit}")
    return "median of " + ", ".join(parts)


def attach_calibrations(samples: list[Sample], cals: list[float]) -> None:
    """Give each sample the median of the CAL_WINDOW calibrations on either side.

    cals[i] was timed just before samples[i] and cals[i + 1] just after.  One
    calibration pass catches or misses a burst of a neighbour's load; the
    median of several tracks the machine's speed without that noise.
    """
    for i, sample in enumerate(samples):
        sample.cal = statistics.median(cals[max(0, i + 1 - CAL_WINDOW) : i + 1 + CAL_WINDOW])


def measure(workload: Workload, seed: int, seconds: float, trace: bool, shape: Shape) -> tuple[Run, Dataset]:
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    spawner = Spawner(work)
    try:
        started = time.perf_counter()
        data = generate(shape, seed, work / "data")
        print(f"generated dataset in {time.perf_counter() - started:.2f} s")
        out = work / "out"
        argv = [
            *workload.args,
            "--segments", str(data.segments_dir),
            "--ratings", str(data.ratings_file),
            "--out", str(out),
        ]
        run = Run(workload=workload, episodes=len(data.episodes))

        # reference run: also fills the bytecode cache before anything is timed
        sample = run_child(spawner, [sys.executable, "-m", "charnet", *argv], out)
        run.reference_digest = tree_digest(out)
        problems: list[str] = []
        if sample.exit_code == EXPECTED_EXIT:
            try:
                found = check_reports(out, data, workload)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems.append(f"report tree unreadable: {exc!r}")
            else:
                problems.extend(found.problems)
                run.notes.extend(found.notes)
                run.cells_checked = not found.problems
        run.judge("reference run", sample, run.reference_digest, problems)

        calibration = Calibration()
        cals = [calibration.measure()]
        for _ in range(SETUP_LAUNCHES):
            launch = run_child(spawner, [sys.executable, "-c", SETUP_CODE], None)
            if launch.exit_code != 0:
                raise RuntimeError(f"setup launch failed: {launch.stderr.strip()}")
            cals.append(calibration.measure())
            run.setup.append(launch)
        attach_calibrations(run.setup, cals)

        cals = [calibration.measure()]
        loop_start = time.perf_counter()
        while not run.samples or time.perf_counter() - loop_start < seconds:
            sample = run_child(spawner, [sys.executable, "-m", "charnet", *argv], out)
            cals.append(calibration.measure())
            run.samples.append(sample)
            run.judge(f"timed run {len(run.samples)}", sample, tree_digest(out))
        attach_calibrations(run.samples, cals)

        if trace:
            spans_file = work / "spans.json"
            run_id = f"{workload.name}-seed{seed}"
            cmd = [sys.executable, str(BENCH_DIR / "tracer.py"), str(spans_file), run_id, "--", *argv]
            run.traced = run_child(spawner, cmd, out)
            if spans_file.is_file():
                traced = json.loads(spans_file.read_text(encoding="utf-8"))
                run.spans, run.trace_cost = traced["spans"], traced["overhead"]
            run.judge("traced run", run.traced, tree_digest(out), [] if run.spans else ["wrote no spans"])
            report_files = [p for p in out.rglob("*") if p.is_file()]
            run.report_bytes = sum(p.stat().st_size for p in report_files)
            run.report_files = len(report_files)
        return run, data
    finally:
        spawner.close()
        shutil.rmtree(work, ignore_errors=True)


def end_to_end(run: Run) -> dict[str, Value]:
    """Medians over the timed runs and setup launches; timings are relative to the calibrations."""
    samples = run.samples
    wall = [s.wall / s.cal for s in samples]
    cpu = [s.cpu / s.cal for s in samples]
    setup = [s.wall / s.cal * REFERENCE_S for s in run.setup]
    rss = [s.rss_mb for s in samples]

    def raw(seconds: list[float]) -> str:
        return f"; raw median {statistics.median(seconds):.4f} s"

    return {
        "wall_cal": Value(statistics.median(wall), describe(wall, "cal") + raw([s.wall for s in samples])),
        "cpu_cal": Value(statistics.median(cpu), describe(cpu, "cal") + raw([s.cpu for s in samples])),
        "episodes_per_cal": Value(
            statistics.median([run.episodes / w for w in wall]),
            f"{run.episodes} episodes / wall_cal, median of {len(samples)} timed runs",
        ),
        "peak_rss_mb": Value(statistics.median(rss), describe(rss, "MB")),
        "setup_s": Value(
            statistics.median(setup),
            describe(setup, "s") + f" at {REFERENCE_S * 1e3:g} ms per cal" + raw([s.wall for s in run.setup]),
        ),
    }


def self_times(spans: list[dict]) -> dict[str, tuple[int, float, float]]:
    """Calls, total and self seconds per span name.

    Self time is a span's duration minus the part of it its child spans
    cover; the program is single-threaded, so children never overlap.
    """
    child_time: dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] = child_time.get(span["parent"], 0.0) + span["end"] - span["start"]
    table: dict[str, tuple[int, float, float]] = {}
    for span in spans:
        duration = span["end"] - span["start"]
        calls, total, own = table.get(span["name"], (0, 0.0, 0.0))
        table[span["name"]] = (calls + 1, total + duration, own + duration - child_time.get(span["id"], 0.0))
    return table


def per_layer(run: Run, data: Dataset) -> dict[str, Value]:
    spans = run.spans
    table = self_times(spans)
    values: dict[str, Value] = {}
    for metric, name in SPAN_TIMINGS.items():
        calls, total, _ = table.get(name, (0, 0.0, 0.0))
        values[metric] = Value(total, f"traced, {calls} calls")
    renders = [row for name, row in table.items() if name.startswith("report.")]
    values["report.render_s"] = Value(
        sum(total for _, total, _ in renders), f"traced, {sum(c for c, _, _ in renders)} calls"
    )

    def counted(name: str, key: str) -> int:
        return sum(s["counts"][key] for s in spans if s["name"] == name)

    parse_s = values["ingest.parse_segment_file_s"].value
    values["ingest.bytes"] = Value(data.bytes, "computed: episode files plus ratings CSV")
    values["ingest.parse_mb_per_s"] = Value(
        data.bytes / 1e6 / parse_s if parse_s else 0.0, "ingest.bytes / ingest.parse_segment_file_s"
    )
    values["ingest.segments"] = Value(counted("ingest.parse_segment_file", "segments"), "traced count")
    values["ingest.edges_declared"] = Value(counted("ingest.parse_segment_file", "edges"), "traced count")
    values["graph.nodes"] = Value(counted("graph.aggregate_segments", "nodes"), "traced count")
    values["graph.edges"] = Value(counted("graph.aggregate_segments", "edges"), "traced count")

    episode_ms = [
        (s["end"] - s["start"]) * 1e3 for s in spans if s["name"] == "metrics.compute_episode_metrics"
    ]
    median_ms = statistics.median(episode_ms) if episode_ms else 0.0
    values["metrics.episode_ms_p50"] = Value(median_ms, f"traced, {len(episode_ms)} episodes")
    p = tail_percentile(len(episode_ms))
    values["metrics.episode_ms_tail"] = (
        Value(percentile(episode_ms, p), f"p{p:g} of {len(episode_ms)} episodes")
        if p is not None
        else Value(median_ms, f"median: {len(episode_ms)} episodes leave no tail with 10 beyond it")
    )
    records = {str(e.key): e for e in data.episodes}
    computed = [s["counts"]["episode"] for s in spans if s["name"] == "metrics.compute_episode_metrics"]
    values["metrics.bfs_sources"] = Value(
        sum(bfs_sources(records[key], run.workload.efficiency_mode) for key in computed),
        f"computed from the generated graphs of {len(computed)} episodes",
    )
    values["metrics.active_nodes"] = Value(counted("metrics.compute_episode_metrics", "active_nodes"), "traced count")
    values["metrics.degenerate_warnings"] = Value(
        counted("metrics.compute_episode_metrics", "warnings"), "traced count"
    )
    calls = sum(1 for s in spans if s["name"] == "stats.permutation_pvalue")
    values["stats.permutation_calls"] = Value(calls, "traced count")
    values["stats.shuffles"] = Value(
        calls * run.workload.permutations, f"computed: {calls} calls x {run.workload.permutations}"
    )
    values["stats.degenerate_columns"] = Value(counted("stats.correlate_all", "degenerate_columns"), "traced count")
    values["report.bytes_out"] = Value(run.report_bytes, "size of the report tree")
    values["report.files_out"] = Value(run.report_files, "files in the report tree")
    values["cli.self_s"] = Value(table.get("cli.main", (0, 0.0, 0.0))[2], "cli.main minus its child spans")
    values["process.wall_s"] = Value(
        statistics.median(s.wall for s in run.samples), f"raw median of {len(run.samples)} untraced runs"
    )
    values["process.cpu_s"] = Value(
        statistics.median(s.cpu for s in run.samples), f"raw median of {len(run.samples)} untraced runs"
    )
    values["process.setup_s"] = Value(
        statistics.median(s.wall for s in run.setup), f"raw median of {len(run.setup)} launches"
    )
    per_span, counting = run.trace_cost.get("per_span_s", 0.0), run.trace_cost.get("counting_s", 0.0)
    values["trace.overhead_s"] = Value(
        len(spans) * per_span + counting,
        f"{len(spans)} spans x {per_span * 1e6:.3f} us per wrapper + {counting:.6f} s counting",
    )
    return values


def environment(args, shape: Shape) -> list[str]:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
        commit = done.stdout.strip() or commit
    return [
        f"python: {platform.python_implementation()} {platform.python_version()}",
        f"nproc: {os.cpu_count()}",
        f"cpu: {cpu}",
        f"commit: {commit}",
        f"workload: {args.workload}, dataset seed: {args.seed}, seconds: {args.seconds}, trace: {args.trace}",
        f"shape: {shape}",
        "loop: closed, 1 client, one charnet process at a time",
    ]


def show(name: str, unit: str, value: Value) -> None:
    number = f"{value.value:.6g}" if isinstance(value.value, float) else str(value.value)
    print(f"  {name} = {number} {unit}  ({value.how})")


def main(argv: list[str], tiny: bool = False) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, default=0, help="dataset seed")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not Path(charnet.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: charnet imported from {charnet.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    shape = workload.tiny if tiny else workload.shape
    print("environment:")
    for line in environment(args, shape):
        print(f"  {line}")
    run, data = measure(workload, args.seed, args.seconds, bool(args.trace), shape)

    print("dataset:")
    for key, number in data.shape_summary().items():
        print(f"  {key}: {number:.6g}")
    print(f"  charnet {' '.join(workload.args)}")
    print("check:")
    print(f"  reference report tree sha256: {run.reference_digest}")
    if run.cells_checked:
        print("  every report cell matches networkx/numpy within 1e-3")
    for note in run.notes:
        print(f"  note: {note}")
    for failure in run.failures:
        print(f"  FAILED {failure}")
    failed_share = run.failed / run.attempted
    print(f"  failed_share = {failed_share:.6g}  ({run.failed} of {run.attempted} runs)")

    e2e = end_to_end(run)
    speed = [s.cal * 1e3 for s in run.samples + run.setup]
    print(f"machine speed: one calibration pass, {describe(speed, 'ms')}")
    print("end-to-end (tracing off; 1 cal = one calibration pass):")
    for metric in END_TO_END:
        show(metric.name, metric.unit, e2e[metric.name])
    result = {metric.name: e2e[metric.name] for metric in END_TO_END}
    units = {metric.name: metric.unit for metric in END_TO_END}

    if args.trace:
        layers = per_layer(run, data)
        print("per-layer (one traced run):")
        for metric in PER_LAYER:
            show(metric.name, metric.unit, layers[metric.name])
        table = self_times(run.spans)
        main_s = layers["cli.main_s"].value
        main_ids = {s["id"] for s in run.spans if s["name"] == "cli.main"}
        direct = sum(s["end"] - s["start"] for s in run.spans if s["parent"] in main_ids)
        print(
            f"  accounting: child spans {direct:.6f} s + cli.self_s"
            f" {layers['cli.self_s'].value:.6f} s = cli.main_s {main_s:.6f} s"
        )
        print("spans (name, calls, total s, self s):")
        for name, (calls, total, own) in sorted(table.items(), key=lambda item: -item[1][1]):
            print(f"  {name:36s} {calls:6d} {total:10.4f} {own:10.4f}")
        result = {metric.name: layers[metric.name] for metric in PER_LAYER}
        units = {metric.name: metric.unit for metric in PER_LAYER}

    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {
                    name: {"value": value.value, "unit": units[name]} for name, value in result.items()
                },
            }
        )
    )
    return 0
