"""Per-layer timing of the cyclic self-power kernel.

Times exactconv.cyclic_self_power at s = 17 on the residue histograms
f(1..q) mod q of every catalog spec, at q = 2^10, 2^11, 2^12, 3^6 and 3^7,
against the packed big-int powering (exactconv._packed_self_power; in a
checkout without it, cyclic_self_power is the packed powering).  Each case
is timed REPEATS times after one untimed call.  Prints one JSON line:
machine info and, per case and path, the median and quartiles in
milliseconds.

    PYTHONPATH=src python3 tools/kernel_timing.py
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import time

import numpy as np

from waring4 import exactconv, figurate

MODULI = (2**10, 2**11, 2**12, 3**6, 3**7)
S = 17
REPEATS = 9


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
    print(json.dumps({"machine": _machine(), "s": S, "unit": "ms", "cases": cases}))


if __name__ == "__main__":
    main()
