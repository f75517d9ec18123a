"""Outside-in spans around waring4's public functions.

install() replaces module attributes with timing wrappers, including the
names other modules bind with ``from .x import y`` (arcs.count_representations,
localdensity.cyclic_self_power, ...), so the program's source stays untouched.
Each span records name, start, end and parent; a layer's self time is its
duration minus the time its child spans cover.  Counters are taken from the
arguments and results at the same boundaries.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from types import FunctionType

TRACED = (
    "cli.emit_report",
    "repcount.count_representations",
    "repcount.count_profile",
    "exactconv.sparse_power_profile",
    "exactconv.cyclic_self_power",
    "localdensity.local_density_limit",
    "singularseries.euler_product",
    "singularseries.truncated_series",
    "expsums.v_of_q",
    "expsums.mean_value",
    "arcs.dissect",
    "arcs.major_arc_integral",
    "arcs.minor_arc_integral",
    "quadrature.integrate",
)

MIB = float(1 << 20)


def _width_bytes(bound: int) -> int:
    """Block width the packed big-int kernels use for coefficients <= bound."""
    return max(bound, 1).bit_length() // 8 + 1


class Tracer:
    """Spans and counters of one process, kept in memory until dump()."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)
        self.arc_N = 0

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters), "peaks": dict(self.peaks)}

    # hooks at the span boundary: the span's label and N before the call,
    # counters and computed sizes from the arguments and result after it

    def before(self, name: str, args: dict) -> str:
        if name == "expsums.mean_value":
            return f"{name}.j{args['j']}"
        if name in ("arcs.major_arc_integral", "arcs.minor_arc_integral"):
            self.arc_N = args["dissection"].N
        return name

    def after(self, name: str, args: dict, result) -> None:
        c = self.counters
        c[f"{name}.calls"] += 1
        if name == "repcount.count_profile":
            c["repcount.block_ops"] += args["s"] * (args["m_max"] + 1) * max(_nvalues(args), 1)
        elif name == "exactconv.sparse_power_profile":
            vals = {int(v) for v in args["values"] if int(v) <= args["m_max"]}
            self._peak("exactconv.sparse_power_profile.mib", (args["m_max"] + 1) * _width_bytes(len(vals) ** args["s"]))
        elif name == "localdensity.local_density_limit":
            c["localdensity.levels"] += len(result.levels)
        elif name == "arcs.dissect":
            c["arcs.arcs"] += len(result.arcs)
        elif name == "quadrature.integrate":
            c["quadrature.panels"] += args["panels"]
            # 12 Gauss nodes per panel times N values, complex128
            self._peak("quadrature.points.mib", 12 * args["panels"] * self.arc_N * 16)

    def _peak(self, name: str, size_bytes: int) -> None:
        self.peaks[name] = max(self.peaks[name], size_bytes / MIB)


def _nvalues(args: dict) -> int:
    """len(values_upto(spec, m_max)): the factor in the program's budget estimate."""
    spec, m_max = args["spec"], args["m_max"]
    n = 0
    while spec.value(n + 1) <= m_max:
        n += 1
    return n


def _wrap(fn, name: str, tracer: Tracer):
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        label = tracer.before(name, bound.arguments)
        idx = tracer.open(label)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        tracer.after(name, bound.arguments, result)
        return result

    return traced


def install(tracer: Tracer) -> None:
    """Wrap every binding of a TRACED function in the loaded waring4 modules."""
    wrappers: dict[int, object] = {}
    for modname, mod in list(sys.modules.items()):
        if not modname.startswith("waring4.") or mod is None:
            continue
        for attr, obj in list(vars(mod).items()):
            if not isinstance(obj, FunctionType):
                continue
            name = f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__name__}"
            if name in TRACED:
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = _wrap(obj, name, tracer)
                setattr(mod, attr, wrappers[id(obj)])


def cache_counters() -> dict[str, int]:
    """Hits and misses of the congruence-profile cache, if the program has it."""
    mod = sys.modules.get("waring4.localdensity")
    cached = getattr(mod, "_congruence_profile", None)
    if cached is None or not hasattr(cached, "cache_info"):
        return {}
    info = cached.cache_info()
    return {"localdensity.congruence_cache.hits": info.hits, "localdensity.congruence_cache.misses": info.misses}


def total_times(spans: list[list]) -> dict[str, float]:
    """Total duration per span name, not counting a span inside one of its own name."""
    out: dict[str, float] = defaultdict(float)
    for name, start, end, parent in spans:
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            out[name] += end - start
    return dict(out)


def self_times(spans: list[list]) -> dict[str, float]:
    """Total self time per span name: duration minus direct children's durations."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _parent) in enumerate(spans):
        out[name] += (end - start) - child[i]
    return dict(out)


def layer_metrics(dumps: list[dict | None], job_wall: float, names) -> dict[str, float]:
    """Per-layer figures of one traced pass, from its jobs' dumps.

    NAME.s is the total time of span NAME and NAME.mib the largest computed
    array size, both summed or maximised over the jobs; any other name is a
    counter summed over the jobs.  trace.coverage is the share of the jobs'
    wall time inside any span.  A layer a job never reached reads 0.
    """
    totals: dict[str, float] = defaultdict(float)
    counters: dict[str, float] = defaultdict(float)
    peaks: dict[str, float] = defaultdict(float)
    covered = 0.0
    for dump in filter(None, dumps):
        for name, t in total_times(dump["spans"]).items():
            totals[name] += t
        covered += sum(self_times(dump["spans"]).values())
        for name, v in dump["counters"].items():
            counters[name] += v
        for name, v in dump["peaks"].items():
            peaks[name] = max(peaks[name], v)
    out = {}
    for name in names:
        if name == "trace.coverage":
            out[name] = 100.0 * covered / job_wall
        elif name.endswith(".s"):
            out[name] = totals[name[: -len(".s")]]
        elif name.endswith(".mib"):
            out[name] = peaks[name]
        else:
            out[name] = counters[name]
    return out
