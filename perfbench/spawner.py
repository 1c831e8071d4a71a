"""Starts the benchmark's child processes from a process that stays small.

Linux carries the spawning process's peak RSS across exec into the child's
ru_maxrss.  Children started straight from the benchmark, which holds
numpy, networkx and a dataset, would report its memory as their own, so
the benchmark sends every command here instead.

Reads one JSON request per line on stdin, {"cmd": [...], "stderr": path};
answers each with one JSON line on stdout, {"wall", "cpu", "maxrss_kb",
"exit_code"}.  Exits when stdin closes.  A child still running after the
timeout is killed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time

TIMEOUT_S = 150


def run(cmd: list[str], stderr_path: str) -> dict:
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
        "exit_code": proc.returncode,
    }


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        print(json.dumps(run(request["cmd"], request["stderr"])), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
