"""Peak RSS of a job run in a fresh interpreter, for the memory tests, and the
modules that importing some modules loads."""

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
# imports the modules named in its arguments and prints every loaded module
MODULE_LISTER = """
import importlib, sys
for name in sys.argv[1:]:
    importlib.import_module(name)
print(*sys.modules)
"""


def _env() -> dict:
    """The caller's environment with the package's source first on the path."""
    src = os.path.dirname(os.path.dirname(waring4.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path)


def child_peak_rss_mib(*args: str) -> float:
    """Peak RSS in MiB of `python *args`, with the package's source on the path."""
    argv = [sys.executable, "-c", RSS_SPAWNER, sys.executable, *args]
    done = subprocess.run(argv, env=_env(), capture_output=True, text=True, timeout=120)
    rc, kib = map(int, done.stdout.split())
    assert (done.returncode, rc) == (0, 0), done.stderr
    return kib / 1024


def child_loaded_modules(*names: str) -> set[str]:
    """sys.modules of a fresh interpreter after it imports `names`."""
    argv = [sys.executable, "-c", MODULE_LISTER, *names]
    done = subprocess.run(argv, env=_env(), capture_output=True, text=True, timeout=120, check=True)
    return set(done.stdout.split())
