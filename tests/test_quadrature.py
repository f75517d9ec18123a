"""Panel sizing from the integrand's bandwidth: the returned bound holds."""

import cmath
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waring4 import arcs, figurate, quadrature, singularintegral
from waring4.errors import BudgetError

EPS = np.finfo(float).eps


def frequency_counts(vals: list[int], s: int, m: int) -> Counter:
    """k -> number of s-tuples of vals with sum - m = k: the coefficients of
    S(alpha)^s e(-alpha m) = sum_k c_k e(k alpha)."""
    counts = Counter({-m: 1})
    for _ in range(s):
        nxt: Counter = Counter()
        for k, w in counts.items():
            for v in vals:
                nxt[k + v] += w
        counts = nxt
    return counts


def integral_e(k: int, lo: float, hi: float) -> complex:
    """Integral of e(k x) over [lo, hi], in closed form."""
    if k == 0:
        return complex(hi - lo)
    return (cmath.exp(2j * math.pi * (k * hi % 1.0)) - cmath.exp(2j * math.pi * (k * lo % 1.0))) / (
        2j * math.pi * k
    )


def exact_arc_integrals(counts: Counter, d: arcs.ArcDissection) -> tuple[complex, complex]:
    """(major, minor) integrals of sum_k c_k e(k alpha) term by term."""
    hw = float(d.N) ** (float(d.delta) - 4.0)
    major = sum(
        w * cmath.exp(2j * math.pi * (k * arc.a % arc.q) / arc.q) * integral_e(k, -hw, hw)
        for arc in d.arcs
        for k, w in counts.items()
    )
    gaps, prev = [], 0.0
    for c in sorted(float(arc.center) for arc in d.arcs):
        if c - hw > prev + hw:
            gaps.append((prev + hw, c - hw))
        prev = c
    minor = sum(w * integral_e(k, lo, hi) for lo, hi in gaps for k, w in counts.items())
    return complex(major), complex(minor)


@st.composite
def arc_cases(draw):
    spec = figurate.FigurateSpec(draw(st.integers(1, 40)), draw(st.integers(-40, 40)), draw(st.integers(-40, 40)))
    N = draw(st.integers(2, 7))
    s = draw(st.integers(1, 4))
    vals = figurate.values(spec, N)
    m = draw(st.integers(min(0, s * min(vals)), s * max(vals) + 10))
    delta = draw(st.sampled_from([Fraction(73, 372), Fraction(9, 10)]))
    rel_tol = draw(st.sampled_from([1e-4, 1e-7]))
    return spec, N, s, m, delta, rel_tol


@settings(max_examples=120, deadline=None)
@given(arc_cases())
def test_arc_integrals_stay_within_their_bound(case):
    """Values of f may be negative or non-monotone; both the arcs (one at
    delta = 73/372, ten with q <= 5 at delta = 9/10 and N = 7) and the gaps
    between them are covered.  Rounding allowance: 64 eps N^s (1 + s max|f| + |m|),
    the size of the phase errors 2 pi eps |k x| that S^s accumulates; the
    worst seen over 300 random cases was 0.2 eps N^s (1 + s max|f| + |m|)."""
    spec, N, s, m, delta, rel_tol = case
    d = arcs.dissect(N, delta)
    vals = figurate.values(spec, N)
    allowance = 64 * EPS * float(N) ** s * (1 + s * max(abs(v) for v in vals) + abs(m))
    exact_major, exact_minor = exact_arc_integrals(frequency_counts(vals, s, m), d)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arcs, "REL_TOL", rel_tol)
        major, major_bound = arcs.major_arc_integral(spec, s, m, d)
        minor, minor_bound = arcs.minor_arc_integral(spec, s, m, d)
    assert abs(major - exact_major) <= major_bound + allowance
    assert abs(minor - exact_minor) <= minor_bound + allowance
    assert major_bound + minor_bound <= 2 * rel_tol * float(N) ** s


def bandwidth_log_sup(K: int, log_terms: float):
    """The arcs' bound: exp(log_terms) unimodular terms e(k x), |k| <= K."""
    return lambda h, u: log_terms + 2.0 * math.pi * K * h * math.sinh(u)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(1e-6, 1.0),
    st.integers(1, 10**5),
    st.integers(0, 40),
    st.floats(1e-14, 1e-2),
)
def test_size_panels_is_smallest_within_tolerance(length, K, s, rel):
    log_sup = bandwidth_log_sup(K, s * math.log(7))
    tol = rel * 7.0**s
    panels, bound = quadrature.size_panels(length, log_sup, tol)
    assert 0.0 < bound <= tol
    assert math.log(bound) == pytest.approx(quadrature._log_error_bound(length, log_sup, panels))
    if panels > 1:
        # one panel fewer misses the tolerance
        assert quadrature._log_error_bound(length, log_sup, panels - 1) > math.log(tol)


def test_size_panels_cap_constant_integrand_and_bad_input():
    with pytest.raises(BudgetError):
        quadrature.size_panels(1.0, bandwidth_log_sup(10**7, 0.0), 1e-12)
    # a bound that does not grow off the real line: an entire, bounded integrand
    assert quadrature.size_panels(0.5, lambda h, u: 3.0, 1e-12) == (1, 0.0)
    with pytest.raises(ValueError):
        quadrature.size_panels(0.0, bandwidth_log_sup(5, 3.0), 1e-12)
    with pytest.raises(ValueError):
        quadrature.size_panels(0.5, bandwidth_log_sup(5, 3.0), 0.0)


def test_integrate_blocks_do_not_change_bits():
    """Evaluating in blocks of panels gives the bits of one whole pass."""
    fv = np.array([1.0, 20.0, 100.0, 500.0, 1200.0])

    def fn(mid, offsets):
        x = mid[:, None] + offsets[None, :]
        return np.exp(2j * np.pi * ((fv * x[..., None]) % 1.0)).sum(axis=2) ** 3

    panels = 2 * quadrature._BLOCK_PANELS + 17
    h = (0.9 - 0.1) / (2 * panels)
    mid = 0.1 + (2 * np.arange(panels) + 1) * h
    whole = (fn(mid, h * quadrature._NODES) * quadrature._WEIGHTS).sum(axis=1).sum() * h
    assert quadrature.integrate(fn, 0.1, 0.9, panels) == complex(whole)


def test_nodes_and_weights_are_leggauss_12():
    nodes, weights = np.polynomial.legendre.leggauss(12)
    assert quadrature._NODES.tobytes() == nodes.tobytes()
    assert quadrature._WEIGHTS.tobytes() == weights.tobytes()


def test_minor_arc_memory_stays_within_a_block():
    """{3,4,3} at s = 6, m = 3200 (N = 7, one arc): 18540 panels in one gap.
    Blocks of 512 panels peak near 0.95 MiB, blocks of 4096 at 4.9 MiB."""
    spec = figurate.catalog("{3,4,3}").spec
    d = arcs.dissect(arcs.choose_N(spec.A, 3200), Fraction(73, 372))
    assert d.N == 7
    tracemalloc.start()
    try:
        arcs.minor_arc_integral(spec, 6, 3200, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


def _no_evaluation(*args):
    raise AssertionError("the integrand was evaluated")


def test_minor_arc_refused_before_evaluation(monkeypatch):
    """s = 17, m = 3e5 needs 2.8e6 panels, past the cap: refused before any
    point matrix is made."""
    spec = figurate.catalog("{3,4,3}").spec
    m = 300_000
    d = arcs.dissect(arcs.choose_N(spec.A, m), arcs.optimal_delta(17))
    monkeypatch.setattr(arcs, "integrate", _no_evaluation)
    with pytest.raises(BudgetError):
        arcs.minor_arc_integral(spec, 17, m, d)


def test_v_theta_past_the_cap_is_refused_before_evaluation(monkeypatch):
    monkeypatch.setattr(singularintegral, "integrate", _no_evaluation)
    # 6.9e5 phase turns need more than 2^20 proven panels
    with pytest.raises(BudgetError):
        singularintegral.v_theta(72, 40, 0.09)
    # v(theta) at 2.09e6 phase turns: the approximation chain refuses at once
    with pytest.raises(BudgetError):
        arcs.approx_chain_check(figurate.catalog("{5,3,3}").spec, 7, 3, 1e-5, 200)
