"""Composite Gauss-Legendre quadrature with a proven panel count.

Theorem (Trefethen, Approximation Theory and Approximation Practice,
Thm 19.3, which counts n + 1 points): if g is analytic in the Bernstein
ellipse E_rho of [-1, 1] and bounded there by M, the n-point Gauss rule
errs by at most (64/15) M rho^(2 - 2n) / (rho^2 - 1).  With rho = e^u the
last factor is exp(-(2n - 1) u) / (2 sinh u).  An interval of length L cut
into P panels of halfwidth h = L / (2P) maps each panel onto [-1, 1] with
Jacobian h, so the composite rule errs by at most

    E(P) = min over u > 0 of (L/2) (64/15) exp(log_sup(h, u) - (2n - 1) u) / (2 sinh u),

where the caller's log_sup(h, u) bounds log max |integrand| on the image
t0 + h E_(e^u) of every panel, and increases with h; E(P) then decreases
with P.  Any u gives a valid bound, so the minimum is taken by a
golden-section search over log u, and rounding in its argument only
loosens the bound.  size_panels returns the least P with E(P) <= abs_tol
together with E(P), so one pass of the fixed rule carries a proven
truncation bound; the bound excludes floating-point rounding.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BudgetError

# numpy.polynomial.legendre.leggauss(12), written out so that no caller
# imports numpy.polynomial
_NODES = np.array([
    -0.9815606342467192, -0.9041172563704748, -0.7699026741943047, -0.5873179542866175,
    -0.3678314989981802, -0.1252334085114689, 0.1252334085114689, 0.3678314989981802,
    0.5873179542866175, 0.7699026741943047, 0.9041172563704748, 0.9815606342467192,
])
_WEIGHTS = np.array([
    0.04717533638651141, 0.10693932599531907, 0.16007832854334642, 0.20316742672306573,
    0.2334925365383546, 0.2491470458134027, 0.2491470458134027, 0.2334925365383546,
    0.20316742672306573, 0.16007832854334642, 0.10693932599531907, 0.04717533638651141,
])
PANEL_CAP = 1 << 20
# panels evaluated per call of fn: a (panels x 12) complex block is then
# 96 KiB, under glibc's 128 KiB mmap threshold and resident in L2
_BLOCK_PANELS = 512
# with rho = e^u: rho^(2 - 2n) / (rho^2 - 1) = exp(-(2n - 1) u) / (2 sinh u)
_DECAY = 2 * len(_NODES) - 1
# the search bracket for log u: sinh, cosh and every term stay finite on it
_LOG_U = (math.log(1e-8), math.log(60.0))
_GOLDEN_STEPS = 50
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


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


def _log_error_bound(length: float, log_sup, panels: int) -> float:
    """log E(P) at P = panels, minimised over u by golden section on log u."""
    h = length / (2 * panels)

    def excess(x: float) -> float:
        u = math.exp(x)
        # log(2 sinh u) = u + log(1 - e^(-2u))
        return log_sup(h, u) - (_DECAY + 1) * u - math.log(-math.expm1(-2.0 * u))

    lo, hi = _LOG_U
    x1 = hi - _INV_PHI * (hi - lo)
    x2 = lo + _INV_PHI * (hi - lo)
    g1, g2 = excess(x1), excess(x2)
    for _ in range(_GOLDEN_STEPS):
        if g1 <= g2:
            hi, x2, g2 = x2, x1, g1
            x1 = hi - _INV_PHI * (hi - lo)
            g1 = excess(x1)
        else:
            lo, x1, g1 = x1, x2, g2
            x2 = lo + _INV_PHI * (hi - lo)
            g2 = excess(x2)
    return math.log(0.5 * length * 64.0 / 15.0) + min(g1, g2)


def size_panels(length: float, log_sup, abs_tol: float) -> tuple[int, float]:
    """Least panel count P with E(P) <= abs_tol, and E(P).

    log_sup(h, u) is the caller's bound on log max |integrand| over the
    Bernstein ellipse E_(e^u) of every panel of halfwidth h, increasing in
    h.  P is found by bisection in log P on [1, PANEL_CAP]; when E(PANEL_CAP)
    exceeds abs_tol, BudgetError is raised, before anything is evaluated.
    Works in log space: E(P) overflows a double at small P.
    """
    if not (length > 0.0 and abs_tol > 0.0):
        raise ValueError("need a positive length and tolerance")
    log_tol = math.log(abs_tol)
    log_err = _log_error_bound(length, log_sup, PANEL_CAP)
    if log_err > log_tol:
        raise BudgetError(
            f"quadrature needs more than {PANEL_CAP} panels for tolerance {abs_tol:g}"
        )
    # E(lo) > tol (lo = 0 stands for "no panels") and E(hi) <= tol; the
    # geometric midpoint tries P = 1 first and takes about log2(20 P) steps
    lo, hi = 0, PANEL_CAP
    while hi - lo > 1:
        mid = max(lo + 1, math.isqrt(lo * hi))
        log_mid = _log_error_bound(length, log_sup, mid)
        if log_mid <= log_tol:
            hi, log_err = mid, log_mid
        else:
            lo = mid
    return hi, math.exp(log_err)
