"""Peak RSS of a job run in a fresh interpreter, for the memory tests."""

import os
import subprocess
import sys

import waring4

# A child's ru_maxrss also counts the peak RSS of the process that forked
# it, so each job is started from a small interpreter that reaps it with
# wait4 and prints its own peak RSS (KiB on Linux); the job's stdout is
# discarded.
RSS_SPAWNER = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
proc.returncode = os.waitstatus_to_exitcode(status)
print(proc.returncode, usage.ru_maxrss)
"""


def child_peak_rss_mib(*args: str) -> float:
    """Peak RSS in MiB of `python *args`, with the package's source on the path."""
    src = os.path.dirname(os.path.dirname(waring4.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    argv = [sys.executable, "-c", RSS_SPAWNER, sys.executable, *args]
    done = subprocess.run(
        argv, env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120
    )
    rc, kib = map(int, done.stdout.split())
    assert (done.returncode, rc) == (0, 0), done.stderr
    return kib / 1024
