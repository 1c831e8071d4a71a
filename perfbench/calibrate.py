"""A fixed pure-Python workload that measures how fast this machine runs now.

Shared machines change speed from minute to minute as their neighbours'
load comes and goes, and charnet's runs slow down with them.  The benchmark
times this workload between consecutive charnet runs and reports each run's
time as a multiple of it, in the unit `cal`, so a slow minute moves both and
largely cancels.  The work mixes what charnet spends its time on: JSON
parsing, dict and set building, breadth-first search.  It uses no charnet
code, so a change to the program under test never changes it.

setup_s must be reported in seconds, so it is converted back from cal with
REFERENCE_S, a fixed scale rather than a measurement of the machine at hand.
"""

from __future__ import annotations

import json
import random
import time
from collections import deque

# The median time of one pass over 30 benchmark runs on a shared 2-vCPU
# Intel Xeon VM under CPython 3.11.7; runs there ranged from 59 to 98 ms.
REFERENCE_S = 0.075


def _document() -> str:
    rng = random.Random(20231017)
    names = [f"Calibration Character {i:03d}" for i in range(150)]
    segments = [
        {
            "index": index,
            "edges": [
                {"a": a, "b": b, "w": round(rng.uniform(1.0, 120.0), 3)}
                for a, b in (rng.sample(names, 2) for _ in range(12))
            ],
        }
        for index in range(300)
    ]
    return json.dumps({"segments": segments}, indent=2)


class Calibration:
    """Times passes of the fixed workload."""

    def __init__(self) -> None:
        self.document = _document()

    def measure(self) -> float:
        start = time.perf_counter()
        doc = json.loads(self.document)
        adjacency: dict[str, set[str]] = {}
        for segment in doc["segments"]:
            for edge in segment["edges"]:
                adjacency.setdefault(edge["a"], set()).add(edge["b"])
                adjacency.setdefault(edge["b"], set()).add(edge["a"])
        total = 0.0
        for source in sorted(adjacency):
            dist = {source: 0}
            queue = deque([source])
            while queue:
                u = queue.popleft()
                for v in adjacency[u]:
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        queue.append(v)
            total += sum(1.0 / d for d in dist.values() if d)
        if total <= 0.0:
            raise RuntimeError("calibration workload did no work")
        return time.perf_counter() - start
