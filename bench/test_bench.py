"""Tests of the benchmark's own references, checks and tracing.

    python -m pytest bench -q

The references are compared with brute-force enumeration at tiny sizes; the
negative controls show that each check fails on a wrong output.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import checks
import reference
import run
import tracing
from child import TRACE_TAG

ROOT = Path(__file__).resolve().parent.parent
SPECS = sorted(reference.CATALOG.items())


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n in bases:
        return True
    if any(n % p == 0 for p in bases):
        return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _tuple_sums(values, s):
    return Counter(sum(t) for t in itertools.product(values, repeat=s))


def test_crt_primes():
    assert _is_prime(reference.P1) and _is_prime(reference.P2)
    assert reference.P2 < reference.P1 < 1 << 58


@pytest.mark.parametrize("symbol,abc", SPECS)
def test_values_match_the_binomial_definition(symbol, abc):
    A, B, C = abc
    for n in range(1, 30):
        poly24 = A * n**4 + (4 * B - 6 * A) * n**3 + (11 * A - 12 * B + 12 * C) * n**2 + (-6 * A + 8 * B - 12 * C + 24) * n
        assert 24 * reference.value(abc, n) == poly24
    assert reference.value(abc, 1) == 1


@pytest.mark.parametrize("symbol,abc", SPECS)
@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_counts_crt_matches_enumeration(symbol, abc, s):
    m_max = 4000
    vals = reference.values_upto(abc, m_max)
    brute = _tuple_sums(vals, s)
    assert reference.counts_crt(vals, s, range(m_max + 1)) == {m: brute.get(m, 0) for m in range(m_max + 1)}


def test_counts_crt_exceeds_each_prime():
    # (x + x^2)^64: the middle coefficient C(64, 32) is above both primes
    got = reference.counts_crt([1, 2], 64, [96, 100, 128])
    assert got == {96: math.comb(64, 32), 100: math.comb(64, 36), 128: 1}
    assert got[96] > reference.P1


def test_top_level():
    assert [reference.top_level(p) for p in (2, 3, 5, 7, 47, 71)] == [12, 7, 5, 4, 2, 1]


@pytest.mark.parametrize("symbol,abc", SPECS)
@pytest.mark.parametrize("q,s,m", [(4, 3, 0), (8, 3, 5), (9, 3, 2), (5, 4, 1), (7, 3, 3)])
def test_density_dft_matches_enumeration(symbol, abc, q, s, m):
    residues = [reference.value(abc, n) % q for n in range(1, q + 1)]
    count = sum(1 for t in itertools.product(residues, repeat=s) if (sum(t) - m) % q == 0)
    assert reference.density_dft(abc, s, m, q) == pytest.approx(count / q ** (s - 1), rel=1e-12)


@pytest.mark.parametrize("j,N", [(1, 6), (2, 9), (3, 4), (4, 2)])
def test_mean_value_matches_enumeration(j, N):
    abc = reference.CATALOG["{3,4,3}"]
    vals = [reference.value(abc, n) for n in range(1, N + 1)]
    sums = _tuple_sums(vals, 2 ** (j - 1))
    assert reference.mean_value(abc, N, j) == sum(c * c for c in sums.values())


def test_mean_value_j4_matches_j3_route():
    # j = 4 by FFT against a direct square of the dense octuple counts
    abc = reference.CATALOG["{3,4,3}"]
    vals = [reference.value(abc, n) for n in range(1, 4)]
    c4 = _tuple_sums(vals, 4)
    c8 = Counter()
    for a, ca in c4.items():
        for b, cb in c4.items():
            c8[a + b] += ca * cb
    assert reference.mean_value(abc, 3, 4) == sum(c * c for c in c8.values())


# ----------------------------------------------------------- negative controls


def test_count_off_by_one_fails():
    expected = {100: 7, 200: 0}
    assert checks.check_counts(dict(expected), expected, "t") == []
    assert checks.check_counts({100: 8, 200: 0}, expected, "t")
    assert checks.check_counts({100: 7}, expected, "t")


def test_perturbed_euler_factor_fails():
    abc = reference.CATALOG["{3,4,3}"]
    ref = reference.euler_factors(abc, 17, 1000, 13)
    product = math.prod(v for _, v in ref)
    assert checks.check_euler(ref, ref, product, "t") == []
    bumped = [(p, v * (1 + 1e-7) if p == 5 else v) for p, v in ref]
    assert checks.check_euler(bumped, ref, product, "t")
    negative = [(p, -v if p == 2 else v) for p, v in ref]
    assert checks.check_euler(negative, ref, product, "t")
    assert checks.check_euler(ref, ref, product * (1 + 1e-6), "t")
    assert checks.check_euler(ref[1:], ref, product, "t")


def test_broken_circle_identity_fails():
    good = {"R": "120", "major": [30.25, 0.0], "minor": [89.75, 1e-13], "major_err": 1e-12, "minor_err": 1e-12}
    assert checks.check_circle(good, 120, "t") == []
    assert checks.check_circle(dict(good, minor=[88.75, 0.0]), 120, "t")
    assert checks.check_circle(dict(good, minor=[89.75 + 1e-4, 0.0]), 120, "t")
    assert checks.check_circle(dict(good, minor=[89.75, 1e-3]), 120, "t")
    assert checks.check_circle(dict(good, R="121"), 120, "t")


# ---------------------------------------------------------------------- tracing


def test_self_and_total_times():
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["b", 5.0, 6.0, 0], ["b", 5.5, 5.75, 3]]
    assert tracing.self_times(spans) == pytest.approx({"a": 6.0, "b": 3.0, "c": 1.0})
    assert tracing.total_times(spans) == pytest.approx({"a": 10.0, "b": 4.0, "c": 1.0})


def test_traced_child_wraps_from_imported_names():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]))
    args = ["report", "--spec", "{3,4,3}", "--s", "17", "--m", "17", "--prime-limit", "5", "--format", "json"]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "child.py"), "--trace", "cli", *args],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120, check=True,
    )
    plain = subprocess.run(
        [sys.executable, "-m", "waring4.cli", *args], capture_output=True, text=True, env=env, cwd=ROOT, timeout=120, check=True
    )
    assert proc.stdout == plain.stdout  # tracing does not change the output
    dump = json.loads(next(ln for ln in proc.stderr.splitlines() if ln.startswith(TRACE_TAG))[len(TRACE_TAG) :])
    names = {span[0] for span in dump["spans"]}
    # reached only through arcs' and localdensity's own bindings
    assert {"repcount.count_representations", "exactconv.cyclic_self_power", "arcs.major_arc_integral"} <= names
    by_index = dump["spans"]
    for name, start, end, parent in by_index:
        assert end >= start
        if parent >= 0:
            assert by_index[parent][1] <= start and end <= by_index[parent][2]
    assert dump["counters"]["localdensity.congruence_cache.misses"] == dump["counters"]["exactconv.cyclic_self_power.calls"]
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    metrics = tracing.layer_metrics([dump], 1e9, [n for n in names if n != "trace.overhead_s"])
    assert metrics["localdensity.levels"] > 0 and metrics["quadrature.panels"] > 0
    assert metrics["exactconv.cyclic_self_power.s"] > 0 and metrics["expsums.mean_value.j2.s"] == 0
    assert 0 < metrics["trace.coverage"] < 100


def test_job_peak_rss_excludes_the_benchmark_process():
    # a child's ru_maxrss counts the peak RSS of the process that forked it,
    # so jobs are started by the small spawner process
    ballast = bytearray(150 << 20)
    ballast[:: 4096] = b"\1" * len(ballast[:: 4096])
    spawner = run.Spawner(dict(os.environ))
    try:
        job = spawner.run([sys.executable, "-c", "print('ok')"], deadline=time.perf_counter() + 60)
    finally:
        spawner.close()
    assert (job.rc, job.out) == (0, "ok\n")
    assert job.rss_mib < 100 and job.wall > 0
