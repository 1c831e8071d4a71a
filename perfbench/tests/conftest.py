"""Import the benchmark's modules and the charnet source tree they measure."""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]
