"""Outside-in tracer for one charnet invocation.

Replaces the module attributes that charnet's call path looks up at call
time with timing wrappers, then runs `charnet.cli.main` in this process.
Each call becomes a span (name, start, end, parent, run id) kept in memory;
a few spans also carry counts read off the call's result.  The spans are
written out once, when main returns, with what the tracing itself cost:
the seconds one wrapper adds to a call, timed on a no-op, and the seconds
spent counting.  charnet itself is not modified.

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.json RUN_ID -- validate --segments ...

exits with charnet's own exit code.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from types import SimpleNamespace

from charnet import cli, ingest, metrics, stats


def _row_counts(row) -> dict:
    return {"episode": str(row.key), "active_nodes": row.active_nodes, "warnings": len(row.warnings)}


def _parsed_counts(parsed) -> dict:
    return {"segments": len(parsed.segments), "edges": sum(len(s.edges) for s in parsed.segments)}


def _graph_counts(graph) -> dict:
    return {"nodes": len(graph.nodes), "edges": len(graph.edges)}


def _report_counts(report) -> dict:
    return {"degenerate_columns": sum(1 for r in report.results if r.rho is None)}


# (module, attribute, span name, counter of the call's result)
TRACED = [
    (cli, "main", "cli.main", None),
    (cli, "load_dataset", "ingest.load_dataset", None),
    (cli, "compute_episode_metrics", "metrics.compute_episode_metrics", _row_counts),
    (cli, "correlate_all", "stats.correlate_all", _report_counts),
    *(
        (cli, name, f"report.{name}", None)
        for name in sorted(vars(cli))
        if name.startswith("render_")
    ),
    (ingest, "parse_segment_file", "ingest.parse_segment_file", _parsed_counts),
    (ingest, "parse_ratings_csv", "ingest.parse_ratings_csv", None),
    (ingest, "aggregate_segments", "graph.aggregate_segments", _graph_counts),
    (metrics, "connected_components", "graph.connected_components", None),
    (metrics, "density", "metrics.density", None),
    (metrics, "efficiency_metric", "metrics.efficiency_metric", None),
    (metrics, "transitivity", "metrics.transitivity", None),
    (metrics, "node_strengths", "metrics.node_strengths", None),
    (metrics, "degree_vector", "metrics.degree_vector", None),
    (metrics, "harmonic_vector", "metrics.harmonic_vector", None),
    (metrics, "eigenvector_vector", "metrics.eigenvector_vector", None),
    (metrics, "summarize", "metrics.summarize", None),
    (stats, "permutation_pvalue", "stats.permutation_pvalue", None),
]


class Tracer:
    """Spans of one run, nested by call stack."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._origin = time.perf_counter_ns()
        self.counting_ns = 0

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        original = getattr(module, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = {"id": len(spans), "name": name, "parent": stack[-1] if stack else None}
            spans.append(span)
            stack.append(span["id"])
            span["start"] = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter_ns()
                stack.pop()
            if count is not None:
                counted = time.perf_counter_ns()
                span["counts"] = count(result)
                self.counting_ns += time.perf_counter_ns() - counted
            return result

        setattr(module, attr, traced)

    def dump(self) -> dict:
        return {
            "run": self.run_id,
            "overhead": {"per_span_s": wrapper_cost(), "counting_s": self.counting_ns / 1e9},
            "spans": [
                {
                    **span,
                    "run": self.run_id,
                    "start": (span["start"] - self._origin) / 1e9,
                    "end": (span["end"] - self._origin) / 1e9,
                }
                for span in self.spans
            ],
        }


def wrapper_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one wrapper adds to a call: a traced no-op minus a plain one, best of repeats."""
    probe = SimpleNamespace(noop=lambda: None)
    plain = probe.noop
    Tracer("wrapper-cost").wrap(probe, "noop", "noop")
    traced = probe.noop

    def best(fn) -> float:
        times = []
        for _ in range(repeats):
            start = time.perf_counter_ns()
            for _ in range(calls):
                fn()
            times.append(time.perf_counter_ns() - start)
        return min(times) / calls / 1e9

    return max(0.0, best(traced) - best(plain))


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py SPANS.json RUN_ID -- <charnet arguments>", file=sys.stderr)
        return 2
    spans_file, run_id, charnet_args = argv[0], argv[1], argv[3:]
    tracer = Tracer(run_id)
    for module, attr, name, count in TRACED:
        tracer.wrap(module, attr, name, count)
    code = cli.main(charnet_args)
    with open(spans_file, "w", encoding="utf-8") as fh:
        json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
