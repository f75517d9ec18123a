"""waring4 benchmark: one workload, timed from fresh processes, outputs checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from src/.
The run times cold starts (setup_s), repeats whole passes over the workload's
jobs for about S seconds, then checks every output against the
independent references in reference.py.  The last line of stdout is one JSON
object with correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.  The line before it
records the machine, the inputs, the quartiles and every pass.

On a shared virtual machine the host's speed drifts by 20-50% over tens of
seconds.  The end-to-end times are therefore rescaled to a reference speed:
SpeedGauge times four fixed kernels that do not use the program before the
cold starts, before every job and at the end, and wall_s, cpu_s and setup_s
are the measured medians divided by the run's mean slow-down.  The details
line keeps the measured times and the slow-down.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tracing
import workloads
from child import TRACE_TAG

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
METRICS = json.loads((ROOT / "BENCHMARK.json").read_text())
CHILD = str(HERE / "child.py")
SETUP_PROBES = 7
# jobs still running this long after the start are killed and count as
# failed, so that a run always ends within 180 s
DEADLINE_S = 150.0
# end-to-end times reported at the reference speed of SpeedGauge
RESCALED = ("wall_s", "cpu_s", "setup_s")


class SpeedGauge:
    """The host's current slow-down, from fixed kernels that do not use the
    program: a pure-Python loop, a big-int product, a numpy sort and big-int
    shift-adds on 10 MB operands."""

    # median kernel times on a 2-core Intel Xeon VM, Python 3.11.7, numpy 2.4.6
    REFERENCE_S = (0.035, 0.050, 0.035, 0.045)

    def __init__(self) -> None:
        self._big = (1 << 300_000) // 7 + 12345
        self._wide = (1 << 80_000_000) - 12345
        self._keys = np.random.default_rng(0).integers(0, 1 << 40, 400_000)
        self.ratios: list[float] = []

    def _loop(self) -> None:
        x = 0
        for i in range(400_000):
            x += i * i

    def _product(self) -> None:
        for _ in range(2):
            _ = self._big * (self._big + 1)

    def _sort(self) -> None:
        for _ in range(8):
            np.sort(self._keys)

    def _shift_add(self) -> None:
        acc = 0
        for v in range(3):
            acc += self._wide << (64 * v)

    def sample(self) -> None:
        kernels = (self._loop, self._product, self._sort, self._shift_add)
        for kernel, ref in zip(kernels, self.REFERENCE_S):
            t0 = time.perf_counter()
            kernel()
            self.ratios.append((time.perf_counter() - t0) / ref)

    def factor(self) -> float:
        """Mean slow-down over every sample of the run; above 1 is slower."""
        return statistics.mean(self.ratios)


@dataclass
class Job:
    """One finished job process: exit code, output, times and its own peak RSS."""

    rc: int
    wall: float
    cpu: float
    rss_mib: float
    out: str
    err: str

    def trace(self) -> dict | None:
        lines = [ln for ln in self.err.splitlines() if ln.startswith(TRACE_TAG)]
        return json.loads(lines[-1][len(TRACE_TAG) :]) if lines else None


class Spawner:
    """The small process (spawn.py) that starts every job, so that no job's
    peak RSS includes this process's numpy arrays."""

    def __init__(self, env: dict) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawn.py")], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=env, cwd=ROOT, text=True,
        )

    def run(self, argv: list[str], deadline: float) -> Job:
        """Run one job; it is killed if it is still running at the deadline."""
        request = {"argv": argv, "timeout": max(0.0, deadline - time.perf_counter())}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("the job spawner exited")
        return Job(**json.loads(reply))

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait()
        self._proc.stdout.close()


def job_argv(job: tuple, traced: bool) -> list[str]:
    kind, *rest = job
    if kind == "cli" and not traced:
        return [sys.executable, "-m", "waring4.cli", *rest[0]]
    flag = ["--trace"] if traced else []
    if kind == "cli":
        return [sys.executable, CHILD, *flag, "cli", *rest[0]]
    if kind == "lib":
        return [sys.executable, CHILD, *flag, "lib", rest[0], json.dumps(rest[1], sort_keys=True)]
    return [sys.executable, CHILD, "import", *rest[0]]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), str(HERE), env.get("PYTHONPATH")]))
    env.pop("WARING4_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_pass(plan: workloads.Plan, spawner: Spawner, deadline: float, gauge: SpeedGauge, traced: bool, layers: list[str]) -> dict:
    jobs = []
    for job in plan.jobs:
        gauge.sample()
        jobs.append(spawner.run(job_argv(job, traced), deadline))
    record = {
        "traced": traced,
        "wall_s": sum(j.wall for j in jobs),
        "cpu_s": sum(j.cpu for j in jobs),
        "peak_rss_mib": max(j.rss_mib for j in jobs),
        "jobs": jobs,
    }
    if traced:
        record["layers"] = tracing.layer_metrics([j.trace() for j in jobs], sum(j.wall for j in jobs), layers)
    return record


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    except OSError:
        pass
    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "waring4" / "cli.py").is_file():
        print(f"error: no waring4 sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2

    build, check = workloads.WORKLOADS[args.workload]
    plan = build(args.seed)
    reported = METRICS["per_layer" if args.trace else "end_to_end"]
    layers = [m["name"] for m in reported if m["name"] != "trace.overhead_s"]

    deadline = time.perf_counter() + DEADLINE_S
    gauge = SpeedGauge()
    spawner = Spawner(child_env())
    try:
        gauge.sample()
        setup = [] if args.trace else [spawner.run(job_argv(plan.probe, False), deadline) for _ in range(SETUP_PROBES)]
        passes = []
        start = time.perf_counter()
        # whole passes until the run is nearest to --seconds long; a traced
        # run alternates untraced and traced passes, for the overhead
        while len(passes) < (2 if args.trace else 1) or (time.perf_counter() - start) * (1 + 0.5 / len(passes)) <= args.seconds:
            passes.append(run_pass(plan, spawner, deadline, gauge, bool(args.trace) and len(passes) % 2 == 1, layers))
        gauge.sample()
    finally:
        spawner.close()
    slowdown = gauge.factor()

    failures: list[str] = []
    attempted = len(setup) + sum(len(p["jobs"]) for p in passes)
    failed_jobs = [j for j in setup if j.rc != 0]
    for j in setup:
        if j.rc == 0:
            failures += workloads.check_probe(plan, j.out)
    first_outputs = None
    for record in passes:
        outs = []
        for job in record["jobs"]:
            ok = job.rc == 0 and (not record["traced"] or job.trace() is not None)
            if not ok:
                failed_jobs.append(job)
            outs.append(job.out if ok else None)
        if first_outputs is None and None not in outs:
            first_outputs = outs
        elif first_outputs is not None and any(o not in (None, r) for o, r in zip(outs, first_outputs)):
            failures.append("outputs differ between passes")
    if first_outputs is not None:
        try:
            failures += check(plan, first_outputs)
        except (ValueError, KeyError, IndexError, TypeError) as exc:  # malformed output
            failures.append(f"unreadable output: {exc!r}")
    for job in failed_jobs:
        print(f"job failed (exit {job.rc}): {job.err[-2000:]}", file=sys.stderr)
    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)

    untraced = [p for p in passes if not p["traced"]]
    summary = {k: quartiles([p[k] for p in untraced]) for k in ("wall_s", "cpu_s", "peak_rss_mib")}
    ok_setup = [j for j in setup if j.rc == 0]
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        summary |= {k: quartiles([p["layers"][k] for p in traced]) for k in layers}
        overhead = statistics.median(p["wall_s"] for p in traced) - summary["wall_s"]["median"]
        summary["trace.overhead_s"] = quartiles([overhead])
    elif ok_setup:
        summary["setup_s"] = quartiles([j.wall for j in ok_setup])
    else:
        print("error: every cold-start probe failed", file=sys.stderr)
        return 1
    metrics = {}
    for m in reported:
        value = summary[m["name"]]["median"]
        if not args.trace and m["name"] in RESCALED:
            value /= slowdown
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "inputs": plan.inputs,
        "slowdown": slowdown,
        "measured": summary,
        "passes": [
            {k: p[k] for k in ("traced", "wall_s", "cpu_s", "peak_rss_mib")}
            | {"job_wall_s": [j.wall for j in p["jobs"]]}
            for p in passes
        ],
        "attempted": attempted,
        "failed": len(failed_jobs),
    }
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failed_jobs), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
