"""Per-layer timing of the cyclic self-power kernel, the exact moments, a
single representation count, the Hensel split's singular counts, a
density ladder at large s and the arc quadrature.

Times exactconv.cyclic_self_power at s = 17 on the residue histograms
f(1..q) mod q of every catalog spec, at q = 2^10, 2^11, 2^12, 3^6 and 3^7,
against the packed big-int powering (exactconv._packed_self_power; in a
checkout without it, cyclic_self_power is the packed powering).  Times
expsums.mean_value at j = 4 for every catalog spec at its largest N inside
the j = 4 cap (24, 16 and 10), for {3,4,3} at the benchmark's j = 2 and
j = 3 sizes (N = 3998 and 90) and at the j = 3 cap (N = 120), for
{5,3,3} at j = 3 and N = 60, whose words are hash words, and for the
dense sums of the explicit spec 1,-7,8 at j = 4, N = 24 and j = 3,
N = 120, where most quadruple sums repeat.  Each moment case
runs in REPEATS fresh processes that make one call apiece, because repeats
in one process do not resolve a 15% change there; one more fresh process
gives the call's tracemalloc peak.  The fresh processes read byte code that
one warm-up process wrote to a temporary PYTHONPYCACHEPREFIX, whatever the
caller's PYTHONDONTWRITEBYTECODE says: a process that compiles the package
itself times its calls about 40% slower.  Times exactconv.sparse_power_entry, one exact R_s(m),
for {3,4,3} at s = 16 and 17 and m = 999,500 (the benchmark's count-single
size), also with the tracemalloc peak.  Times the Hensel split's singular
counts (localdensity._singular_class), every class of one level, for
{5,3,3} at p = 5, levels 1..5 and s = 17, and one whole density ladder
(localdensity.local_density_limit) for {3,4,3} at s = 150, m = 12345 and
p = 7; both start from empty density caches on every call.  Times the arc
quadrature, arcs.major_arc_integral plus arcs.minor_arc_integral, for
{3,4,3} at s = 6, m = 3200 (N = 7, the benchmark's circle size), in fresh
processes like the moments, because warm repeats in one process spread
from 19 to 33 ms; the dissection is made before the clock starts.  Every
other case is timed REPEATS times in this process after one untimed call.
Prints one JSON line: machine info and, per case and path, the median and
quartiles in milliseconds.

    PYTHONPATH=src python3 tools/kernel_timing.py
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc

import numpy as np

from waring4 import exactconv, expsums, figurate, localdensity

MODULI = (2**10, 2**11, 2**12, 3**6, 3**7)
S = 17
REPEATS = 9
# mean_value (spec, N, j), spec a catalog symbol or A,B,C: the largest N
# inside the j = 4 cap, per catalog spec, the benchmark's j = 2 and j = 3
# sizes, j = 3 at its cap, j = 3 on hash words, and dense sums at j = 4 and 3
MOMENTS = (
    ("{3,4,3}", 24, 4),
    ("{3,3,5}", 16, 4),
    ("{5,3,3}", 10, 4),
    ("{3,4,3}", 3998, 2),
    ("{3,4,3}", 90, 3),
    ("{3,4,3}", 120, 3),
    ("{5,3,3}", 60, 3),
    ("1,-7,8", 24, 4),
    ("1,-7,8", 120, 3),
)
# one call in a fresh process, after setup: its wall time in ms, or with a
# last argument "peak" its tracemalloc peak in MiB
FRESH_CALL = """
import sys, time, tracemalloc
{setup}
if sys.argv[-1] == "peak":
    tracemalloc.start()
    {call}
    print(round(tracemalloc.get_traced_memory()[1] / 2**20, 2))
else:
    start = time.perf_counter()
    {call}
    print((time.perf_counter() - start) * 1e3)
"""
MOMENT_CALL = FRESH_CALL.format(
    setup="""from waring4 import cli, expsums
spec, N, j = cli.parse_spec(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3])""",
    call="expsums.mean_value(spec, N, j)",
)
ARC_CALL = FRESH_CALL.format(
    setup="""from fractions import Fraction
from waring4 import arcs, figurate
spec, s, m = figurate.catalog(sys.argv[1]).spec, int(sys.argv[2]), int(sys.argv[3])
dissection = arcs.dissect(arcs.choose_N(spec.A, m), Fraction(int(sys.argv[4]), int(sys.argv[5])))""",
    call="arcs.major_arc_integral(spec, s, m, dissection), arcs.minor_arc_integral(spec, s, m, dissection)",
)
# one exact count R_s(m) at the benchmark's count-single size
ENTRY_M = 999_500
ENTRY_S = (16, 17)
# the singular classes of every level of one prime's ladder
SINGULAR = ("{5,3,3}", 5, range(1, 6), 17)
# one whole ladder at large s, where the singular counts dominate
LADDER = ("{3,4,3}", 150, 12_345, 7)
# both arc integrals at the benchmark's circle size: (spec, s, m, delta)
ARCS = ("{3,4,3}", 6, 3200, (73, 372))


def _quartiles(samples: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {"median": round(median, 3), "q1": round(q1, 3), "q3": round(q3, 3), "n": len(samples)}


def _time(fn, args) -> dict:
    samples = []
    fn(*args)
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn(*args)
        samples.append((time.perf_counter() - start) * 1e3)
    return _quartiles(samples)


def _traced_peak_mib(fn, args) -> float:
    """The tracemalloc peak of one call, in MiB."""
    tracemalloc.start()
    try:
        fn(*args)
        return round(tracemalloc.get_traced_memory()[1] / 2**20, 2)
    finally:
        tracemalloc.stop()


def _fresh_env(prefix: str) -> dict:
    """The environment of a fresh process: this checkout first on the path,
    and byte code written to and read from prefix."""
    src = os.path.dirname(os.path.dirname(expsums.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path, PYTHONPYCACHEPREFIX=prefix)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _fresh(env: dict, script: str, *args) -> float:
    """script run with args in a fresh interpreter with env: the number it prints."""
    done = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return float(done.stdout)


def _fresh_row(env: dict, script: str, *args) -> dict:
    """REPEATS fresh timings of script with args, and one fresh tracemalloc peak."""
    samples = [_fresh(env, script, *args, "time") for _ in range(REPEATS)]
    return dict(_quartiles(samples), tracemalloc_peak_mib=_fresh(env, script, *args, "peak"))


def _cold(fn):
    """fn after emptying the density caches, so that every call builds its tables."""

    def call(*args):
        for cached in (localdensity._congruence_profile, localdensity._singular_rows, localdensity._singular_class):
            cached.cache_clear()
        return fn(*args)

    return call


def _singular_level(spec, s: int, p: int, k: int) -> None:
    for u in range(p ** min(k, 2)):
        localdensity._singular_class(spec, s, p, k, u)


def _machine() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def main() -> None:
    packed = getattr(exactconv, "_packed_self_power", exactconv.cyclic_self_power)
    cases = {}
    for spec in figurate.catalog_specs():
        for q in MODULI:
            call = (figurate.residue_counts(spec, q, q), S, q)
            cases[f"{spec.label} q={q}"] = {
                "cyclic_self_power": _time(exactconv.cyclic_self_power, call),
                "packed": _time(packed, call),
            }
    with tempfile.TemporaryDirectory() as prefix:
        env = _fresh_env(prefix)
        _fresh(env, MOMENT_CALL, "{3,4,3}", 1, 1, "time")  # writes the byte code
        moments = {f"{label} N={N} j={j}": _fresh_row(env, MOMENT_CALL, label, N, j) for label, N, j in MOMENTS}
        label, s, m, delta = ARCS
        arc_quadrature = {f"{label} s={s} m={m}": _fresh_row(env, ARC_CALL, label, s, m, *delta)}
    entries = {}
    values = figurate.values_upto(figurate.catalog("{3,4,3}").spec, ENTRY_M)
    for s in ENTRY_S:
        call = (values, s, ENTRY_M)
        entries[f"{{3,4,3}} s={s} m={ENTRY_M}"] = dict(
            _time(exactconv.sparse_power_entry, call),
            tracemalloc_peak_mib=_traced_peak_mib(exactconv.sparse_power_entry, call),
        )
    label, p, ks, s = SINGULAR
    singular = {
        f"{label} p={p} k={k} s={s}": _time(_cold(_singular_level), (figurate.catalog(label).spec, s, p, k))
        for k in ks
    }
    label, s, m, p = LADDER
    ladder = {
        f"{label} s={s} m={m} p={p}": _time(
            _cold(localdensity.local_density_limit), (figurate.catalog(label).spec, s, m, p)
        )
    }
    print(
        json.dumps(
            {
                "machine": _machine(),
                "s": S,
                "unit": "ms",
                "cases": cases,
                "mean_value": moments,
                "sparse_power_entry": entries,
                "singular_class": singular,
                "local_density_limit": ladder,
                "arc_quadrature": arc_quadrature,
            }
        )
    )


if __name__ == "__main__":
    main()
