"""The four workloads: inputs made from the seed, the jobs of one pass, the
cold-start probe, and the check of one pass's outputs against references.

A job is ("cli", args) for ``waring4 ARGS`` or ("lib", name, params) for a
library call run by child.py.  Every job runs in a fresh process with
--threads 1.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

import checks
import reference

S = 17
PRIME_LIMIT = 50
CLI_PROBE = ("cli", ["eval", "--spec", "{3,4,3}", "--n", "1"])


@dataclass(frozen=True)
class Plan:
    jobs: list[tuple]
    probe: tuple
    inputs: dict


def _report_job(spec: str, ms: list[int]) -> tuple:
    m_arg = ",".join(map(str, ms))
    return ("cli", ["report", "--spec", spec, "--s", str(S), "--m", m_arg, "--format", "json", "--threads", "1"])


def report_ladder(seed: int) -> Plan:
    """{3,4,3} at four ladder targets, {3,3,5} and {5,3,3} at one, then
    check-suite.  Offsets below 300 keep every target between the same two
    figurate values, so the work does not depend on the seed."""
    rng = random.Random(seed)
    ladders = {
        "{3,4,3}": [base + rng.randrange(300) for base in (10_000, 30_000, 100_000, 300_000)],
        "{3,3,5}": [100_000 + rng.randrange(300)],
        "{5,3,3}": [100_000 + rng.randrange(300)],
    }
    jobs = [_report_job(spec, ms) for spec, ms in ladders.items()]
    jobs.append(("cli", ["check-suite", "--seed", str(seed), "--threads", "1"]))
    return Plan(jobs, CLI_PROBE, {"ladders": ladders})


def count_single(seed: int) -> Plan:
    """One long linear power: R_17(m) for {3,4,3} with m just below 10^6."""
    m = 1_000_000 - random.Random(seed).randrange(1000)
    jobs = [("cli", ["count", "--spec", "{3,4,3}", "--s", str(S), "--m", str(m), "--threads", "1"])]
    return Plan(jobs, CLI_PROBE, {"m": m})


def moments(seed: int) -> Plan:
    """mean_value on {3,4,3}: j = 1, 2 at N just below the j = 2 cap of
    4000 (the seed moves the work by under 0.4%), j = 3 at N = 90 and j = 4
    at N = 24, fixed because one step of N there moves the work by percents."""
    n2 = 4000 - random.Random(seed).randrange(8)
    sizes = [(1, n2), (2, n2), (3, 90), (4, 24)]
    jobs = [("lib", "mean_value", {"spec": "{3,4,3}", "N": N, "j": j}) for j, N in sizes]
    return Plan(jobs, ("import", ["waring4.figurate", "waring4.expsums"]), {"sizes": sizes})


CIRCLE_WINDOW = range(2800, 3201)  # choose_N(72, m) = 7 throughout
DELTA = [73, 372]


def circle(seed: int) -> Plan:
    """dissect, both arc integrals and the exact count for s = 3..6 at a
    target m with R_s(m) > 0, drawn from a window of equal N."""
    rng = random.Random(seed)
    abc = reference.CATALOG["{3,4,3}"]
    vals = reference.values_upto(abc, CIRCLE_WINDOW[-1])
    targets = {}
    for s in range(3, 7):
        counts = reference.counts_crt(vals, s, CIRCLE_WINDOW)
        targets[s] = rng.choice([m for m in CIRCLE_WINDOW if counts[m] > 0])
    jobs = [("lib", "circle", {"spec": "{3,4,3}", "s": s, "m": m, "delta": DELTA}) for s, m in targets.items()]
    return Plan(jobs, ("import", ["waring4.figurate", "waring4.arcs", "waring4.repcount"]), {"targets": targets})


# ------------------------------------------------------------------ checks


def check_probe(plan: Plan, out: str) -> list[str]:
    if plan.probe[0] == "cli":
        ok = out.splitlines()[-1:] == ["1"]
    else:
        ok = out.strip() == "ready"
    return [] if ok else [f"cold-start probe printed {out[-200:]!r}"]


def check_report_ladder(plan: Plan, outputs: list[str]) -> list[str]:
    fails = []
    ladders = plan.inputs["ladders"]
    for (spec, ms), out in zip(ladders.items(), outputs):
        abc = reference.CATALOG[spec]
        reports = json.loads(out)["reports"]
        if [r["m"] for r in reports] != ms or any(r["s"] != S or r["spec"] != spec for r in reports):
            fails.append(f"report {spec}: wrong targets or labels")
            continue
        expected = reference.counts_crt(reference.values_upto(abc, max(ms)), S, ms)
        reported = {r["m"]: int(r["exact"]) for r in reports}
        fails += checks.check_counts(reported, expected, f"report {spec}")
        for r in reports:
            ref = reference.euler_factors(abc, S, r["m"], PRIME_LIMIT)
            series = r["series"]
            fails += checks.check_euler(series["per_prime"], ref, series["euler_estimate"], f"report {spec} m={r['m']}")
    suite = outputs[len(ladders)].strip().splitlines()
    if not suite or not suite[-1].startswith("suite: pass"):
        fails.append(f"check-suite ended with {suite[-1:]!r}")
    return fails


def check_count_single(plan: Plan, outputs: list[str]) -> list[str]:
    m = plan.inputs["m"]
    abc = reference.CATALOG["{3,4,3}"]
    expected = reference.counts_crt(reference.values_upto(abc, m), S, [m])
    return checks.check_counts({m: int(outputs[0].splitlines()[-1])}, expected, "count {3,4,3}")


def check_moments(plan: Plan, outputs: list[str]) -> list[str]:
    fails = []
    abc = reference.CATALOG["{3,4,3}"]
    for (j, N), out in zip(plan.inputs["sizes"], outputs):
        got = int(json.loads(out)["value"])
        fails += checks.check_equal(got, reference.mean_value(abc, N, j), f"mean_value j={j} N={N}")
        if j == 1:
            fails += checks.check_equal(got, N, f"mean_value j=1 N={N} (distinct values)")
    return fails


def check_circle(plan: Plan, outputs: list[str]) -> list[str]:
    fails = []
    abc = reference.CATALOG["{3,4,3}"]
    for (s, m), out in zip(plan.inputs["targets"].items(), outputs):
        expected = reference.counts_crt(reference.values_upto(abc, m), s, [m])[m]
        fails += checks.check_circle(json.loads(out), expected, f"circle s={s} m={m}")
    return fails


# name -> (plan builder, pass checker)
WORKLOADS = {
    "report-ladder": (report_ladder, check_report_ladder),
    "count-single": (count_single, check_count_single),
    "moments": (moments, check_moments),
    "circle": (circle, check_circle),
}
