"""One benchmark job in a fresh interpreter.

    child.py [--trace] cli ARGS...    waring4.cli.main(ARGS), output on stdout
    child.py [--trace] lib NAME JSON  one library job, JSON result on stdout
    child.py import MODULE...         cold start: import the modules, print "ready"

Untraced CLI jobs do not come here: they run ``python -m waring4.cli`` as a
user does.  With --trace the job's spans go to stderr as one line starting
with TRACE_TAG.
"""

from __future__ import annotations

import importlib
import json
import sys
from fractions import Fraction

TRACE_TAG = "BENCH-TRACE "


def mean_value_job(spec: str, N: int, j: int) -> dict:
    from waring4 import expsums, figurate

    return {"value": str(expsums.mean_value(figurate.catalog(spec).spec, N, j))}


def circle_job(spec: str, s: int, m: int, delta: list[int]) -> dict:
    from waring4 import arcs, figurate, repcount

    f = figurate.catalog(spec).spec
    d = arcs.dissect(arcs.choose_N(f.A, m), Fraction(*delta))
    major, major_err = arcs.major_arc_integral(f, s, m, d)
    minor, minor_err = arcs.minor_arc_integral(f, s, m, d)
    return {
        "N": d.N,
        "arcs": len(d.arcs),
        "R": str(repcount.count_representations(f, s, m)),
        "major": [major.real, major.imag],
        "major_err": major_err,
        "minor": [minor.real, minor.imag],
        "minor_err": minor_err,
    }


# job name -> (function, modules it imports)
LIB_JOBS = {
    "mean_value": (mean_value_job, ("waring4.figurate", "waring4.expsums")),
    "circle": (circle_job, ("waring4.figurate", "waring4.arcs", "waring4.repcount")),
}


def main(argv: list[str]) -> int:
    trace = argv[:1] == ["--trace"]
    if trace:
        argv = argv[1:]
    kind, rest = argv[0], argv[1:]
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        idx = tracer.open("cli.import")
    if kind == "cli":
        modules = ["waring4.cli"]
    elif kind == "lib":
        modules = LIB_JOBS[rest[0]][1]
    else:
        modules = rest
    for name in modules:
        importlib.import_module(name)
    if tracer is not None:
        tracer.close(idx)
        tracing.install(tracer)
    if kind == "import":
        print("ready")
        return 0
    if kind == "cli":
        import waring4.cli

        rc = waring4.cli.main(rest)
    elif kind == "lib":
        result = LIB_JOBS[rest[0]][0](**json.loads(rest[1]))
        print(json.dumps(result, sort_keys=True))
        rc = 0
    else:
        raise SystemExit(f"unknown job kind {kind!r}")
    sys.stdout.flush()
    if tracer is not None:
        dump = tracer.dump()
        dump["counters"].update(tracing.cache_counters())
        sys.stderr.write(TRACE_TAG + json.dumps(dump) + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
