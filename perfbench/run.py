#!/usr/bin/env python3
"""Entry point of charnet's benchmark; see bench.py for what it measures.

    python3 perfbench/run.py --workload stress --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a checkout: the program under test is always
the `src/charnet` tree next to this directory, never an installed copy.
"""

from __future__ import annotations

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    if not (SRC / "charnet" / "cli.py").is_file():
        print(f"perfbench: no charnet source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench

    return bench.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
