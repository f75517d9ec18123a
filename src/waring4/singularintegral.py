"""The singular integral: v(theta), its arithmetic surrogate v1, the exact
convolution J_1(m, s), and the Gamma-function main term.

J_1(m, s) = 4^(-s) * sum over compositions n_1 + ... + n_s = m of
(n_1 ... n_s)^(-3/4); it approximates Gamma(5/4)^s / Gamma(s/4) * m^(s/4 - 1)
with error at most m^((s-1)/4 - 1), and that comparison is exposed as a
checkable report rather than assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError
from .expsums import fsum_complex
from .quadrature import integrate, size_panels
from .weylbounds import BoundCheckReport, bound_report

J1_OP_BUDGET = 3_000_000_000
GAMMA_5_4 = math.gamma(1.25)


def v_theta(A: int, N: int, theta: float) -> complex:
    """integral from 1 to N of e(c t^4) dt with c = A*theta/24, |theta| <= 1/2.

    One Gauss-Legendre pass whose panel count quadrature.size_panels proves
    enough for absolute tolerance 1e-9*N; one above quadrature.PANEL_CAP is
    refused with BudgetError before any evaluation.  The bound it is given:

    Lemma.  For real t0, h > 0 and z in the Bernstein ellipse E_(e^u),
    |Im((t0 + h z)^4)| <= 4 (|t0| + h cosh u)^3 h sinh u.
    Proof.  Write z = x + iy.  (t0 + h x)^4 is real, so Im((t0 + h z)^4) is
    the imaginary part of the integral of 4 (t0 + h x + i h tau)^3 i h dtau
    over tau from 0 to y, at most 4 h |y| max |t0 + h (x + i tau)|^3.  On
    that segment |x + i tau| <= |z| <= cosh u, and |y| <= sinh u: the
    semi-axes of E_(e^u).

    Since |e(c w)| = exp(-2 pi c Im w) and every panel centre t0 of [1, N]
    lies in [1 + h, N - h], the integrand is bounded on each panel's
    ellipse by exp(8 pi |c| (N + h (cosh u - 1))^3 h sinh u), which
    increases with h.
    """
    if abs(theta) > 0.5:
        raise ValueError("theta must lie in [-1/2, 1/2]")
    if N < 1:
        raise ValueError("upper limit must be >= 1")
    if N == 1:
        return 0.0 + 0.0j
    c = A * theta / 24.0

    def log_sup(h: float, u: float) -> float:
        return 8.0 * math.pi * abs(c) * (N + h * (math.cosh(u) - 1.0)) ** 3 * h * math.sinh(u)

    def fn(mid: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        t = mid[:, None] + offsets[None, :]
        return np.exp(2j * np.pi * ((c * t**4) % 1.0))

    panels, _bound = size_panels(N - 1.0, log_sup, 1e-9 * N)
    return integrate(fn, 1.0, float(N), panels)


def v1_theta(N0: int, theta: float) -> complex:
    """(1/4) * sum_{1 <= n <= N0} n^(-3/4) e(theta*n), |theta| <= 1/2.

    Each chunk of terms is laid out as rows of C = 4096: with
    n = start + r C + j, e(theta n) = e(theta (start + r C)) e(theta j), so a
    chunk takes one exponential per row and one per column instead of one
    per term.
    """
    if abs(theta) > 0.5:
        raise ValueError("theta must lie in [-1/2, 1/2]")
    if N0 < 1:
        raise ValueError("length must be >= 1")
    C = 4096
    cols = np.exp(2j * np.pi * ((theta * np.arange(C, dtype=float)) % 1.0))
    parts: list[complex] = []
    chunk = 4_000_000
    for start in range(1, N0 + 1, chunk):
        length = min(chunk, N0 - start + 1)
        rows = -(-length // C)
        weights = np.zeros(rows * C)
        weights[:length] = np.arange(start, start + length, dtype=float) ** -0.75
        heads = start + C * np.arange(rows, dtype=float)
        row_phase = np.exp(2j * np.pi * ((theta * heads) % 1.0))
        row_sums = (weights.reshape(rows, C) * cols).sum(axis=1)
        terms = row_sums * row_phase
        parts.append(complex(terms.real.sum(), terms.imag.sum()))
    return 0.25 * fsum_complex(parts)


def j1_exact(s: int, m: int) -> float:
    """4^(-s) * sum over n_1 + ... + n_s = m, n_i >= 1, of prod n_i^(-3/4).

    Zero when m < s (no compositions); computed by s-fold truncated
    convolution otherwise.
    """
    if s < 1:
        raise ValueError("number of parts must be >= 1")
    if m < 0:
        raise ValueError("target must be >= 0")
    if m < s:
        return 0.0
    if s * m * m > J1_OP_BUDGET:
        raise BudgetError("convolution budget exceeded for j1_exact")
    length = m - s + 1
    base = 0.25 * np.arange(1, length + 1, dtype=float) ** -0.75
    acc = base.copy()
    for _ in range(s - 1):
        acc = np.convolve(acc, base)[:length]
    return float(acc[length - 1])


@dataclass(frozen=True)
class MainTermParams:
    A: int
    s: int
    m: int
    series_value: float

    def __post_init__(self):
        if self.s < 2:
            raise ValueError("main term needs s >= 2")
        if self.m < 1:
            raise ValueError("main term needs m >= 1")


def main_term(params: MainTermParams) -> float:
    """(24/A)^(s/4) * series * Gamma(5/4)^s / Gamma(s/4) * m^(s/4 - 1).

    math.gamma carries ~15 significant digits here (validated in the test
    suite against Gamma(1/2) = sqrt(pi) and the factorials), comfortably
    beyond the 12 digits the formula is specified to need.
    """
    if not math.isfinite(params.series_value):
        raise ValueError("series value must be finite")
    A, s, m = params.A, params.s, params.m
    return (
        (24.0 / A) ** (s / 4.0)
        * params.series_value
        * GAMMA_5_4**s
        / math.gamma(s / 4.0)
        * float(m) ** (s / 4.0 - 1.0)
    )


def hyp2f1_series(a: float, b: float, c: float, x: float) -> float:
    """Gauss series for 2F1(a, b; c; x), |x| < 1, terms to 1e-16 relative."""
    if abs(x) >= 1.0:
        raise ValueError("series form needs |x| < 1")
    term = 1.0
    total = 1.0
    for k in range(200):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1)) * x
        total += term
        if abs(term) <= 1e-16 * abs(total):
            return total
    raise ArithmeticError("hypergeometric series did not converge")


def beta_approx_check(alpha: float, beta: float, m: int) -> BoundCheckReport:
    """Beta-sum vs Gamma-product approximation:

        |sum_{n=1}^{m-1} n^(beta-1) (m-n)^(alpha-1)
            - m^(beta+alpha-1) Gamma(beta)Gamma(alpha)/Gamma(beta+alpha)|
        <= (2/beta) m^(alpha-1) 2F1(beta, 1-alpha; 1+beta; 1/m),

    which simplifies to 12 m^(alpha-1) at beta = 1/4 (the reported rhs then).
    """
    if not (0.0 < beta < 1.0):
        raise ValueError("beta must lie in (0, 1)")
    if alpha < beta:
        raise ValueError("alpha must be >= beta")
    if m < 2:
        raise ValueError("m must be >= 2")
    sum_term = math.fsum(
        n ** (beta - 1.0) * (m - n) ** (alpha - 1.0) for n in range(1, m)
    )
    gamma_term = (
        float(m) ** (beta + alpha - 1.0)
        * math.gamma(beta)
        * math.gamma(alpha)
        / math.gamma(beta + alpha)
    )
    lhs = abs(sum_term - gamma_term)
    f1 = hyp2f1_series(beta, 1.0 - alpha, 1.0 + beta, 1.0 / m)
    rhs_general = (2.0 / beta) * float(m) ** (alpha - 1.0) * f1
    rhs = 12.0 * float(m) ** (alpha - 1.0) if beta == 0.25 else rhs_general
    return bound_report(
        lhs, rhs, f"alpha={alpha} beta={beta} m={m} general_rhs={rhs_general!r}"
    )


def j1_bound_check(s: int, m: int) -> BoundCheckReport:
    """|J_1(m,s) - Gamma(5/4)^s Gamma(s/4)^(-1) m^(s/4-1)| <= m^((s-1)/4 - 1)."""
    if s < 2:
        raise ValueError("bound needs s >= 2")
    if m < s:
        raise ValueError("Gamma comparison applies for m >= s")
    j1 = j1_exact(s, m)
    gamma_term = GAMMA_5_4**s / math.gamma(s / 4.0) * float(m) ** (s / 4.0 - 1.0)
    lhs = abs(j1 - gamma_term)
    rhs = float(m) ** ((s - 1) / 4.0 - 1.0)
    return bound_report(lhs, rhs, f"s={s} m={m} J1={j1!r}")
