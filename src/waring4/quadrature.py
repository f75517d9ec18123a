"""Composite Gauss-Legendre quadrature for smooth (oscillatory) integrands.

The arc integrands are trigonometric polynomials: sums of `terms`
unimodular multiples of e(k x) with integer |k| <= K (the bandwidth).  On a
panel of width w such a sum is bounded on the Bernstein ellipse E_rho of the
panel by terms * exp(pi K w (rho - 1/rho) / 2), and the n-point Gauss rule on
[-1, 1], exact through degree 2n - 1, errs by at most
(64/15) M rho^(2 - 2n) / (rho^2 - 1) for an integrand bounded by M on E_rho
(Trefethen, Approximation Theory and Approximation Practice, Thm 19.3, which
counts n + 1 points).  Summed over P panels of an interval of length L:

    E(P) = (L/2) (64/15) terms min_{rho > 1} exp(pi K (L/P) (rho - 1/rho) / 2)
                                             rho^(2 - 2n) / (rho^2 - 1).

size_panels returns the smallest P with E(P) <= abs_tol together with E(P),
so one pass of the fixed rule carries a proven truncation bound; the bound
excludes floating-point rounding.  integrate_adaptive keeps doubling
refinement for integrands of unknown bandwidth (v(theta)).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BudgetError

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(12)
PANEL_CAP = 1 << 20
# panels evaluated per call of fn, so memory stays flat however many panels
_BLOCK_PANELS = 4096
# with rho = e^u: rho^(2 - 2n) / (rho^2 - 1) = exp(-(2n - 1) u) / (2 sinh u)
_DECAY = 2 * len(_NODES) - 1


def integrate(fn, a: float, b: float, panels: int) -> complex:
    """Fixed composite rule on `panels` equal panels of halfwidth
    h = (b - a) / (2 panels), panel p centred at a + (2p + 1) h.

    fn(mid, offsets) must return the integrand at mid[:, None] + offsets[None, :]
    as a (len(mid), len(offsets)) array, where offsets = h * _NODES is the same
    for every panel; an integrand whose phases separate over that sum can then
    exponentiate once per panel and once per node instead of once per point.
    """
    h = (b - a) / (2 * panels)
    offsets = h * _NODES
    sums = np.empty(panels, dtype=complex)
    for lo in range(0, panels, _BLOCK_PANELS):
        hi = min(panels, lo + _BLOCK_PANELS)
        mid = a + (2 * np.arange(lo, hi) + 1) * h
        vals = np.asarray(fn(mid, offsets))
        sums[lo:hi] = (vals * _WEIGHTS).sum(axis=1)
    return complex(sums.sum() * h)


def _log_2sinh(u: float) -> float:
    return u + math.log(-math.expm1(-2.0 * u))


def _increasing_root(f, df) -> float:
    """The root u > 0 of a strictly increasing f that runs from -inf to +inf;
    bracketed Newton, falling back to bisection outside the bracket.  The
    bracket stays inside [1e-300, 512], where sinh and cosh are finite."""
    lo = hi = 1.0
    while lo > 1e-300 and f(lo) > 0.0:
        lo *= 0.5
    while hi < 512.0 and f(hi) < 0.0:
        hi *= 2.0
    u = 0.5 * (lo + hi)
    for _ in range(100):
        fu = f(u)
        if fu > 0.0:
            hi = u
        else:
            lo = u
        nxt = u - fu / df(u)
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - u) <= 1e-14 * u:
            break
        u = nxt
    return u


def _log_excess(a: float) -> float:
    """min over u > 0 of a sinh(u) - (2n - 1) u - log(2 sinh u), for a > 0.

    The function is convex in u; its stationary point solves the increasing
    equation a cosh(u) = 2n - 1 + coth(u).  Any u gives a valid bound, so
    rounding in the root only loosens it.
    """
    u = _increasing_root(
        lambda u: a * math.cosh(u) - _DECAY - 1.0 / math.tanh(u),
        lambda u: a * math.sinh(u) + 1.0 / math.sinh(u) ** 2,
    )
    return a * math.sinh(u) - _DECAY * u - _log_2sinh(u)


def _log_head(length: float, log_terms: float) -> float:
    """log((L/2) (64/15) terms), the factor of E(P) that P does not change."""
    return math.log(0.5 * length * 64.0 / 15.0) + log_terms


def _log_error_bound(length: float, bandwidth: int, log_terms: float, panels: int) -> float:
    """log E(P) for the sum described in size_panels."""
    return _log_head(length, log_terms) + _log_excess(math.pi * abs(bandwidth) * length / panels)


def size_panels(
    length: float,
    bandwidth: int,
    log_terms: float,
    abs_tol: float,
) -> tuple[int, float]:
    """Smallest panel count P with E(P) <= abs_tol, and E(P).

    For a sum of exp(log_terms) unimodular terms e(k x), |k| <= bandwidth,
    over an interval of the given length.  Raises BudgetError when P would
    exceed PANEL_CAP, before anything is evaluated.  Works in log space:
    E(P) overflows a double at small P.
    """
    if not (length > 0.0 and abs_tol > 0.0):
        raise ValueError("need a positive length and tolerance")
    if bandwidth == 0:
        return 1, 0.0  # a constant: every rule is exact
    # E(P) <= tol  <=>  a = pi K L / P <= max_u (T + (2n-1) u + log 2 sinh u) / sinh u
    # with T = log tol - log((L/2)(64/15) terms); at the maximiser u*, which
    # solves an increasing equation, the ratio is ((2n-1) tanh u* + 1) / sinh u*.
    log_tol = math.log(abs_tol)
    T = log_tol - _log_head(length, log_terms)
    u = _increasing_root(
        lambda u: T + _DECAY * (u - math.tanh(u)) + _log_2sinh(u) - 1.0,
        lambda u: _DECAY * math.tanh(u) ** 2 + 1.0 / math.tanh(u),
    )
    a_max = (_DECAY * math.tanh(u) + 1.0) / math.sinh(u)
    panels = max(1, math.ceil(math.pi * abs(bandwidth) * length / a_max))
    while True:
        if panels > PANEL_CAP:
            raise BudgetError(
                f"quadrature needs more than {PANEL_CAP} panels for tolerance {abs_tol:g}"
            )
        log_err = _log_error_bound(length, bandwidth, log_terms, panels)
        if log_err <= log_tol:  # rounding in u* can leave P one short
            return panels, math.exp(log_err)
        panels += 1


def integrate_adaptive(
    fn,
    a: float,
    b: float,
    abs_tol: float,
    base_panels: int = 1,
) -> tuple[complex, float, int]:
    """Doubling refinement; returns (value, error_estimate, panels_used).

    The error estimate is the difference between the last two refinements,
    the standard proxy for rules whose error shrinks much faster than the
    panel count grows.  A base panel count above PANEL_CAP is refused with
    BudgetError before fn is evaluated.
    """
    panels = max(1, base_panels)
    if panels > PANEL_CAP:
        raise BudgetError(
            f"quadrature needs more than {PANEL_CAP} panels to start"
        )
    prev = integrate(fn, a, b, panels)
    while 2 * panels <= PANEL_CAP:
        panels *= 2
        cur = integrate(fn, a, b, panels)
        err = abs(cur - prev)
        if err <= abs_tol:
            return cur, err, panels
        prev = cur
    raise ArithmeticError(
        f"quadrature did not reach tolerance {abs_tol:g} within {PANEL_CAP} panels"
    )
