"""Major/minor arc dissection and the full asymptotic comparison.

The unit period (N^(d-4), 1 + N^(d-4)] splits into major arcs — intervals of
halfwidth N^(d-4) around rationals a/q with q <= N^d — and the minor-arc
complement.  Because R_{f,s}(m) equals the integral of S_f(alpha)^s e(-alpha m)
over any unit period, the exact count splits the same way, which is what the
comparison report assembles.

All dissection inequalities (q <= N^d, disjointness, N^(3d-4) < 1/2) are
decided in exact integer arithmetic on powers, never through floating point.

The report functions import expsums, singularintegral, singularseries and
weylbounds when called, so that the dissection and the arc integrals load
none of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import TYPE_CHECKING

import numpy as np

from .errors import BudgetError
from .figurate import FigurateSpec, residues, values
from .quadrature import integrate, size_panels
from .repcount import DEFAULT_OP_BUDGET, count_representations

if TYPE_CHECKING:
    from .singularseries import SeriesEstimate
    from .weylbounds import BoundCheckReport

FALLBACK_DELTA = Fraction(73, 372)
REL_TOL = 1e-12


def integer_fourth_root(x: int) -> int:
    """floor(x^(1/4)) exactly."""
    if x < 0:
        raise ValueError("argument must be >= 0")
    r = isqrt(isqrt(x))
    if not (r**4 <= x < (r + 1) ** 4):
        raise AssertionError("fourth-root bracketing failed")
    return r


def choose_N(A: int, m: int) -> int:
    """ceil((24m/A)^(1/4)) + 1 in pure integer arithmetic."""
    if m < 1:
        raise ValueError("target must be >= 1")
    if A < 1:
        raise ValueError("leading coefficient must be >= 1")
    r = integer_fourth_root(24 * m // A)
    while A * r**4 < 24 * m:
        r += 1
    while r > 1 and A * (r - 1) ** 4 >= 24 * m:
        r -= 1
    return r + 1


def optimal_delta(s: int) -> Fraction:
    """The dissection exponent 73/(219 + 9s); below 1/5 once s >= 17."""
    if s < 9:
        raise ValueError("delta selection applies for s >= 9")
    return Fraction(73, 219 + 9 * s)


def dissection_delta(s: int) -> Fraction:
    """The exponent the reports dissect with: optimal_delta(s) from s = 9 on,
    FALLBACK_DELTA below."""
    return optimal_delta(s) if s >= 9 else FALLBACK_DELTA


def _halfwidth(N: int, delta: Fraction) -> float:
    """N^(delta - 4), the major-arc halfwidth."""
    return float(N) ** (float(delta) - 4.0)


def _error_scale(N: int, s: int) -> float:
    """REL_TOL relative to N^s, the trivial bound on |S_f|^s (at least REL_TOL)."""
    return REL_TOL * max(1.0, float(N) ** s)


@dataclass(frozen=True)
class MajorArc:
    q: int
    a: int
    center: Fraction


@dataclass(frozen=True)
class ArcDissection:
    N: int
    delta: Fraction
    P: float
    halfwidth: float
    arcs: tuple[MajorArc, ...]


def dissect(N: int, delta) -> ArcDissection:
    """All arcs (q, a), gcd(a, q) = 1, 1 <= a <= q <= N^delta.

    Requires N^(3 delta - 4) < 1/2, which already forces pairwise disjointness;
    both facts are nevertheless verified exactly via integer powers.
    """
    delta = Fraction(delta)
    if not (0 < delta < 1):
        raise ValueError("delta must lie in (0, 1)")
    num, den = delta.numerator, delta.denominator
    if N < 2 or 2**den >= N ** (4 * den - 3 * num):
        raise ValueError("dissection requires N^(3*delta-4) < 1/2")
    Npow = N**num
    qmax = 1
    while (qmax + 1) ** den <= Npow:
        qmax += 1
    # disjointness: 2qq' < N^(4-delta) for all q, q' <= qmax, exactly
    if (2 * qmax * qmax) ** den >= N ** (4 * den - num):
        raise ArithmeticError("arc disjointness failed the exact power check")
    arcs = tuple(
        MajorArc(q, a, Fraction(a, q))
        for q in range(1, qmax + 1)
        for a in range(1, q + 1)
        if gcd(a, q) == 1
    )
    return ArcDissection(N, delta, float(N) ** float(delta), _halfwidth(N, delta), arcs)


def _arc_integrand(spec, s, m, q, a, fv):
    """Integrand (mid, offsets) -> S_f(a/q + theta)^s e(-(a/q + theta) m) at
    theta = mid[:, None] + offsets[None, :] (the contract of
    quadrature.integrate), where fv holds f(1..N) as floats.

    Each phase separates: e(f(n) (a/q + mid + x)) = e(a f(n)/q + f(n) mid)
    e(f(n) x), so one exponential per (mid, n) and one per (n, offset) give
    every term, and S is accumulated over n in a fixed order with elementwise
    products, whose bits do not depend on a BLAS build or its threads.  The
    rational part of each phase is exact modular arithmetic on
    r = f(n) mod q, so a * r < q^2 never wraps; only the theta part goes
    through floating point.  At q = 1 the rational part vanishes and theta
    is alpha itself, which is how the minor gaps are integrated.
    """
    rat = ((a * residues(spec, len(fv), q)) % q) / q
    rat_m = ((a * m) % q) / q

    def fn(mid: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        # rows[n, p] = e(a f(n)/q + f(n) mid_p), cols[n, j] = e(f(n) offsets_j)
        ph = (fv[:, None] * mid[None, :]) % 1.0
        if q > 1:  # at q = 1 the rational part is 0, and (0 + ph) % 1 is ph
            ph = (rat[:, None] + ph) % 1.0
        rows = np.exp(2j * np.pi * ph)
        cols = np.exp(2j * np.pi * ((fv[:, None] * offsets[None, :]) % 1.0))
        S = np.zeros((len(mid), len(offsets)), dtype=complex)
        term = np.empty_like(S)
        for n in range(len(fv)):
            np.multiply(rows[n, :, None], cols[n], out=term)
            S += term
        row_m = np.exp(-2j * np.pi * ((rat_m + (m * mid) % 1.0) % 1.0))
        col_m = np.exp(-2j * np.pi * ((m * offsets) % 1.0))
        return S**s * row_m[:, None] * col_m

    return fn


def _integrate_pieces(
    spec: FigurateSpec,
    s: int,
    m: int,
    N: int,
    pieces: list[tuple[int, int, float, float]],
) -> tuple[complex, float]:
    """Sum over pieces (q, a, lo, hi) of the Gauss-Legendre quadrature of
    theta -> S_f(a/q + theta)^s e(-(a/q + theta) m) over (lo, hi).

    The tolerance REL_TOL * max(1, N^s) is shared equally among the pieces.
    Each piece takes the panel count quadrature.size_panels derives from the
    piece's length and the integrand's bound on a panel's Bernstein ellipse
    E_(e^u): the integrand is a sum of at most N^s unimodular terms e(k x)
    with integer |k| <= K (the bandwidth), and |e(k x)| <= e^(2 pi K h sinh u)
    where |Im x| <= h sinh u, so log_sup(h, u) = s log N + 2 pi K h sinh u.
    Every piece is sized before any evaluation, so a panel count above
    quadrature.PANEL_CAP is refused with BudgetError first.  The pieces
    are integrated and summed in piece order.  Returns (value, sum of the
    proven truncation bounds), rounding excluded.
    """
    if s < 1:
        raise ValueError("exponent must be >= 1")
    fvals = values(spec, N)
    # the bandwidth: largest |k| among the frequencies k = f(n_1) + ... + f(n_s) - m
    K = max(abs(s * min(fvals) - m), abs(s * max(fvals) - m))
    abs_tol = _error_scale(N, s) / max(1, len(pieces))
    log_terms = s * math.log(N)

    def log_sup(h: float, u: float) -> float:
        return log_terms + 2.0 * math.pi * K * h * math.sinh(u)

    sized = [(q, a, lo, hi, *size_panels(hi - lo, log_sup, abs_tol)) for q, a, lo, hi in pieces]
    fv = np.array(fvals, dtype=float)
    results = [
        integrate(_arc_integrand(spec, s, m, q, a, fv), lo, hi, panels)
        for q, a, lo, hi, panels, _bound in sized
    ]
    return complex(sum(results)), math.fsum(piece[5] for piece in sized)


def major_arc_integral(
    spec: FigurateSpec,
    s: int,
    m: int,
    dissection: ArcDissection,
) -> tuple[complex, float]:
    """Sum over arcs of the quadrature of S_f(alpha)^s e(-alpha m) over
    |alpha - a/q| < halfwidth.

    Returns (value, sum of the proven truncation bounds); _integrate_pieces
    states the tolerance and the BudgetError refusal.
    """
    hw = dissection.halfwidth
    arcs = [(arc.q, arc.a, -hw, hw) for arc in dissection.arcs]
    return _integrate_pieces(spec, s, m, dissection.N, arcs)


def minor_arc_integral(
    spec: FigurateSpec,
    s: int,
    m: int,
    dissection: ArcDissection,
) -> tuple[complex, float]:
    """Quadrature over the complement of the major arcs in one unit period.

    The period is (hw, 1 + hw]; with centers sorted (and the arc at 1 wrapping
    to cover the period ends) the minor set is the union of the open gaps
    between consecutive arcs, each integrated as a q = 1 piece.  Returns
    (value, sum of the proven truncation bounds) as major_arc_integral does.
    """
    hw = dissection.halfwidth
    centers = sorted(float(arc.center) for arc in dissection.arcs)
    if not centers or centers[-1] != 1.0:
        raise ValueError("dissection must include the arc centered at 1")
    gaps = []
    prev = 0.0
    for c in centers:
        lo, hi = prev + hw, c - hw
        if hi > lo:
            gaps.append((1, 1, lo, hi))
        prev = c
    return _integrate_pieces(spec, s, m, dissection.N, gaps)


def approx_chain_check(
    spec: FigurateSpec,
    q: int,
    a: int,
    theta: float,
    N: int,
) -> BoundCheckReport:
    """Major-arc approximation chain:

        |S_f(a/q + theta) - (V(q,a)/(24q)) * integral_1^N e(A theta t^4/24) dt|
            <= 24q + 1 + (2A + 8|B|) q pi |theta| N^4 + ((3A + 2|B|)/3) pi N^delta,

    plus the partial-sum step |M(t) - (V(q,a)/(24q)) t| <= 24q at sampled t.
    The literal hypothesis N >= 6A + 4|B| is far above desk scale for the
    catalog, and interesting theta often sit outside the nominal arc
    halfwidth N^(delta-4), delta = FALLBACK_DELTA; both conditions are
    flagged in the context rather than refused.  Only |theta| > 1/2 (outside
    the fundamental domain) is an error.
    """
    from .expsums import complete_sum_V, partial_sum_M
    from .singularintegral import v_theta
    from .weylbounds import REL_SLACK, BoundCheckReport

    if q < 1 or not (1 <= a <= q) or gcd(a, q) != 1:
        raise ValueError("need 1 <= a <= q with gcd(a, q) = 1")
    if abs(theta) > 0.5:
        raise ValueError("theta must lie in [-1/2, 1/2]")
    theta_within_arc = abs(theta) <= _halfwidth(N, FALLBACK_DELTA)
    A, B = spec.A, spec.B
    V = complete_sum_V(spec, q, a)
    ratio = V / (24.0 * q)
    # S_f(a/q + theta) is the arc integrand at s = 1, m = 0
    fv = np.array(values(spec, N), dtype=float)
    fn = _arc_integrand(spec, 1, 0, q, a, fv)
    S = complex(fn(np.array([theta]), np.zeros(1))[0, 0])
    v = v_theta(A, N, theta)
    lhs = abs(S - ratio * v)
    rhs = (
        24.0 * q
        + 1.0
        + (2.0 * A + 8.0 * abs(B)) * q * math.pi * abs(theta) * N**4
        + (3.0 * A + 2.0 * abs(B)) / 3.0 * math.pi * float(N) ** float(FALLBACK_DELTA)
    )
    m_ok = True
    for t in sorted({1, N // 4, N // 2, (3 * N) // 4, N} - {0}):
        Mt = partial_sum_M(spec, q, a, t)
        if abs(Mt - ratio * t) > 24.0 * q * (1.0 + REL_SLACK):
            m_ok = False
    hypothesis_met = N >= 6 * A + 4 * abs(B)
    holds = bool(lhs <= rhs * (1.0 + REL_SLACK)) and m_ok
    ctx = (
        f"q={q} a={a} theta={theta} N={N} M-steps-ok={m_ok} "
        f"hypothesis_met={hypothesis_met} theta_within_arc={theta_within_arc}"
    )
    return BoundCheckReport(lhs, rhs, holds, ctx)


def minor_bound_check(
    A: int, s: int, N: int, delta, residual: float
) -> BoundCheckReport:
    """One-sided minor-arc bound:

        |residual| <= 10^6 11^(s-16) A^((s-16)/8) (log N)^((s-16)/8)
                      * N^(s - 4 - delta(s-16)/8 + s/log log N).

    Compared in log space (the right side overflows a double at modest s).
    The underlying theorem assumes s >= 17; below that the report still
    evaluates both sides but records that the hypothesis is unmet, and
    `holds` reflects the comparison only when the hypothesis applies.
    """
    from .weylbounds import REL_SLACK, BoundCheckReport

    if N < 3:
        raise ValueError("bound needs N >= 3 (log log N must be positive)")
    d = float(Fraction(delta))
    lnN = math.log(N)
    llN = math.log(lnN)
    log_rhs = (
        math.log(1e6)
        + (s - 16) * math.log(11.0)
        + (s - 16) / 8.0 * math.log(A)
        + (s - 16) / 8.0 * llN
        + (s - 4.0 - d * (s - 16) / 8.0 + s / llN) * lnN
    )
    lhs = abs(residual)
    hypothesis_met = s >= 17
    comparison = lhs == 0.0 or math.log(lhs) <= log_rhs + REL_SLACK * abs(log_rhs)
    holds = bool(comparison) if hypothesis_met else True
    rhs = math.exp(log_rhs) if log_rhs < 700.0 else math.inf
    ctx = (
        f"log_rhs={log_rhs!r} hypothesis_met={hypothesis_met}"
        + ("" if hypothesis_met else " (s < 17: hypothesis-unmet, checked one-sided)")
    )
    return BoundCheckReport(lhs, rhs, holds, ctx)


@dataclass(frozen=True)
class ComparisonReport:
    m: int
    s: int
    spec_label: str
    exact_count: int | None
    major_value: float | None
    main_term: float
    minor_residual: float | None
    series: SeriesEstimate
    ratio: float
    bound_checks: tuple[BoundCheckReport, ...]


def asymptotic_report(
    spec: FigurateSpec,
    s: int,
    m: int,
    prime_limit: int = 50,
    count_budget: int = DEFAULT_OP_BUDGET,
) -> ComparisonReport:
    """Exact count vs circle-method prediction at one (s, m).

    minor_residual is exact_count - major_value: the counting integral over a
    unit period splits exactly into major + minor, so the residual IS the
    minor-arc integral up to quadrature error.  Component failures (budget
    refusals) leave the corresponding fields None; the report is still built.
    The dissection exponent is dissection_delta(s) and the quadrature
    tolerance REL_TOL.
    """
    from .singularintegral import MainTermParams, main_term
    from .singularseries import euler_product
    from .weylbounds import BoundCheckReport

    delta = dissection_delta(s)
    N = choose_N(spec.A, m)
    dissection = dissect(N, delta)
    series = euler_product(spec, s, m, prime_limit=prime_limit)
    main = main_term(MainTermParams(spec.A, s, m, series.euler_estimate))
    exact: int | None
    try:
        exact = count_representations(spec, s, m, budget=count_budget)
    except BudgetError:
        exact = None
    major: float | None
    checks: list[BoundCheckReport] = []
    try:
        value, err = major_arc_integral(spec, s, m, dissection)
        major = value.real
        tol = max(err, _error_scale(N, s))
        checks.append(
            BoundCheckReport(
                abs(value.imag),
                tol,
                abs(value.imag) <= tol,
                "imaginary part of the major-arc total vs quadrature error",
            )
        )
    except (BudgetError, ArithmeticError):
        major = None
    residual = None
    if exact is not None and major is not None:
        residual = float(exact - major)
        checks.append(minor_bound_check(spec.A, s, N, delta, residual))
    ratio = float("nan")
    if exact is not None and main > 0.0:
        ratio = exact / main
    return ComparisonReport(
        m=m,
        s=s,
        spec_label=spec.label or f"A={spec.A},B={spec.B},C={spec.C}",
        exact_count=exact,
        major_value=major,
        main_term=main,
        minor_residual=residual,
        series=series,
        ratio=ratio,
        bound_checks=tuple(checks),
    )
