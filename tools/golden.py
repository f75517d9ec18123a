"""Byte-identity corpus: the sha256 of every exact output on a fixed set of
runs, with the argv that made it.

    PYTHONPATH=src python3 tools/golden.py            # write tests/golden.json
    PYTHONPATH=src python3 tools/golden.py --check    # recompute every case
    PYTHONPATH=src python3 tools/golden.py --check --threads 4

A case is a CLI run (argv as given to ``waring4``) or a library call
(``mean_value SPEC N J``).  Its output is the exit code, stdout and stderr
of the CLI run, or the value or refusal of the call; the file stores the
sha256 of that text.  Every case runs in this process, in the order of the
file.  --threads T appends ``--threads T`` to every CLI argv; the outputs
must not depend on it.  The cases marked quick are the subset that
tests/test_golden.py recomputes in Tier-1; --check recomputes them all and
exits 1 on any mismatch.

The cases:
  - ``report --format json`` on the report-ladder targets of the benchmark's
    seeds 1 and 2, and ``check-suite`` at seeds 0 and 7;
  - ``local --s 17`` at p = 2, 3, 5, 7, 11 for the three catalog specs at
    m = 10^4 and 10^5;
  - ``count`` for the three specs at s in {1, 2, 3, 16, 17, 40} and
    m in {0, 1, 17, 1000, 12345, 100001, 999500}, and at s = 17,
    m = 999,500 under budgets 1, 10^3, 10^5, 10^7 and 10^9 (refusals);
  - ``mean_value`` j = 1..3 at N = 21..60, j = 1, 2 at N = 100, 999, 3992,
    3996, 4000, j = 3 at N = 90, 120, j = 4 at N = 1 up to each spec's cap
    (24, 16, 10) and one past it, and N = 4001 at j = 1, 2 and 121 at j = 3
    (one past the caps of j = 2 and 3);
  - every other CLI path: ``eval`` on the catalog specs and on explicit
    A,B,C specs, ``series`` at the default Q and at Q = 200, ``integral``,
    ``arcs``, ``report --format csv``, ``local`` with --k-max past the exact
    depth (the float path) and at p = 5003 past the modulus cap, ``count``
    on an explicit spec, and two usage errors (``--m 1x``, no ``--spec``)
    that exit 1.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import sys
import time
from pathlib import Path
from unittest import mock

from waring4 import cli, expsums, figurate
from waring4.errors import BudgetError

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden.json"
SPECS = ("{3,4,3}", "{3,3,5}", "{5,3,3}")
J4_CAP = {"{3,4,3}": 24, "{3,3,5}": 16, "{5,3,3}": 10}


def _ladders(seed: int) -> dict[str, list[int]]:
    """The report-ladder targets of one benchmark seed (bench/workloads.py)."""
    rng = random.Random(seed)
    return {
        "{3,4,3}": [base + rng.randrange(300) for base in (10_000, 30_000, 100_000, 300_000)],
        "{3,3,5}": [100_000 + rng.randrange(300)],
        "{5,3,3}": [100_000 + rng.randrange(300)],
    }


def cases() -> list[tuple[list[str], bool]]:
    """(argv, quick) for every case, in a fixed order."""
    out = []
    for seed in (1, 2):
        for spec, ms in _ladders(seed).items():
            argv = ["report", "--spec", spec, "--s", "17", "--m", ",".join(map(str, ms)), "--format", "json"]
            out.append((argv, seed == 1))
    for seed in (0, 7):
        out.append((["check-suite", "--seed", str(seed)], seed == 0))
    for spec in SPECS:
        for p in (2, 3, 5, 7, 11):
            for m in (10**4, 10**5):
                out.append((["local", "--spec", spec, "--s", "17", "--m", str(m), "--p", str(p)], True))
    for spec in SPECS:
        for s in (1, 2, 3, 16, 17, 40):
            for m in (0, 1, 17, 1000, 12345, 100001, 999500):
                out.append((["count", "--spec", spec, "--s", str(s), "--m", str(m)], s < 40 or m < 999500))
    for budget in (1, 10**3, 10**5, 10**7, 10**9):
        argv = ["count", "--spec", "{3,4,3}", "--s", "17", "--m", "999500", "--budget", str(budget)]
        out.append((argv, True))
    for spec in SPECS:
        for j in (1, 2, 3):
            out += [(["mean_value", spec, str(N), str(j)], j < 3 or N <= 40) for N in range(21, 61)]
        for j in (1, 2):
            out += [(["mean_value", spec, str(N), str(j)], N <= 999) for N in (100, 999, 3992, 3996, 4000)]
        out += [(["mean_value", spec, str(N), "3"], False) for N in (90, 120)]
        out += [(["mean_value", spec, str(N), "4"], N < 10 or N > J4_CAP[spec]) for N in range(1, J4_CAP[spec] + 2)]
        # one past the caps of j = 2 and 3; j = 1 has none
        out += [(["mean_value", spec, str(N), str(j)], True) for j, N in ((1, 4001), (2, 4001), (3, 121))]
    for spec in (*SPECS, "72,84,22", "1,0,0"):
        out.append((["eval", "--spec", spec, "--n", "100"], True))
    for q in ([], ["--Q", "200"]):
        out.append((["series", "--spec", "{3,4,3}", "--s", "17", "--m", "10000", *q], True))
    out.append((["integral", "--s", "17", "--m", "100,1000"], True))
    out.append((["integral", "--s", "5", "--m", "100"], True))
    out.append((["arcs", "--spec", "{3,4,3}", "--m", "10000"], True))
    out.append((["arcs", "--spec", "{5,3,3}", "--s", "20", "--m", "100000000"], True))
    out.append((["report", "--spec", "{3,4,3}", "--s", "17", "--m", "10000,30000", "--format", "csv"], True))
    for p, k_max in ((2, 14), (7, 6)):
        out.append((["local", "--spec", "{3,4,3}", "--s", "17", "--m", "10000", "--p", str(p), "--k-max", str(k_max)], True))
    out.append((["local", "--spec", "{3,4,3}", "--s", "17", "--m", "10000", "--p", "5003"], True))
    out.append((["count", "--spec", "1,0,0", "--s", "3", "--m", "100,1000"], True))
    out.append((["count", "--spec", "{3,4,3}", "--s", "3", "--m", "1x"], True))
    out.append((["count", "--s", "3", "--m", "10"], True))
    return out


def run(argv: list[str], threads: int = 1) -> str:
    """The output text of one case."""
    if argv[0] == "mean_value":
        spec, N, j = figurate.catalog(argv[1]).spec, int(argv[2]), int(argv[3])
        try:
            return f"{expsums.mean_value(spec, N, j)}\n"
        except (BudgetError, ValueError) as exc:
            return f"{type(exc).__name__}: {exc}\n"
    stdout, stderr = io.StringIO(), io.StringIO()
    # argparse wraps its usage text to COLUMNS; pin it so a usage error
    # reads the same in any terminal
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), mock.patch.dict(os.environ, COLUMNS="80"):
        code = cli.main([*argv, "--threads", str(threads)])
    return f"exit {code}\n--- stdout\n{stdout.getvalue()}--- stderr\n{stderr.getvalue()}"


def digest(argv: list[str], threads: int = 1) -> str:
    return hashlib.sha256(run(argv, threads).encode()).hexdigest()


def load() -> list[dict]:
    return json.loads(GOLDEN.read_text())["cases"]


def main(args=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true", help="recompute every case against the file")
    parser.add_argument("--threads", type=int, default=1)
    opts = parser.parse_args(args)
    if not opts.check:
        entries = [{"argv": argv, "quick": quick, "sha256": digest(argv, opts.threads)} for argv, quick in cases()]
        lines = ",\n".join(json.dumps(entry) for entry in entries)
        GOLDEN.write_text(f'{{"cases": [\n{lines}\n]}}\n')
        print(f"wrote {len(entries)} cases to {GOLDEN}")
        return 0
    entries, bad = load(), 0
    start = time.perf_counter()
    for entry in entries:
        if digest(entry["argv"], opts.threads) != entry["sha256"]:
            bad += 1
            print("mismatch:", " ".join(entry["argv"]))
    print(f"{bad} of {len(entries)} cases differ ({time.perf_counter() - start:.1f} s, {opts.threads} threads)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
