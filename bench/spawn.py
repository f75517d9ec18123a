"""Runs the benchmark's job processes and reports each one's own resources.

A child's ru_maxrss also counts the peak RSS of the process that forked it.
run.py holds numpy, the speed gauge and the references, so it does not fork
jobs itself: this small process does, and its own peak stays far below any
job's.

One JSON request per stdin line: {"argv", "timeout"}; jobs inherit this
process's environment and working directory.  One JSON reply per stdout
line: {"rc", "wall", "cpu", "rss_mib", "out", "err"}.  The wall time runs
from spawning the job to reaping it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def run(argv: list[str], timeout: float) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    out = proc.stdout.read()
    reader.join()
    # wait4 gives this child's own peak RSS; RUSAGE_CHILDREN would keep the
    # maximum over every earlier child and hide a later, smaller job
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return {
        "rc": proc.returncode,
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mib": usage.ru_maxrss / 1024.0,  # KiB on Linux
        "out": out.decode(errors="replace"),
        "err": err[0].decode(errors="replace") if err else "",
    }


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(**json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
