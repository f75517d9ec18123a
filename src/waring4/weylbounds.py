"""Inequality checkers for quartic exponential sums.

Each check_* function evaluates both sides of a classical inequality on
concrete inputs and returns a BoundCheckReport; nothing is asserted here.
A report holds when lhs <= rhs * (1 + 1e-9), the slack covering floating
roundoff on genuinely tight cases.

Conventions: e(x) = exp(2*pi*i*x); ||x|| is the distance from x to the
nearest integer (exact when x is a Fraction, ties give 1/2); a quartic phase
psi(x) = a1*x + a2*x^2 + a3*x^3 + a4*x^4 has no constant term.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

from .errors import BudgetError

TWO_PI = 2.0 * math.pi
REL_SLACK = 1e-9
# entries (2X-1)^(j-1) * X of the differencing check's inner-term matrix
WEYL_CAP = 1 << 22


@dataclass(frozen=True)
class QuarticPhase:
    a1: float
    a2: float
    a3: float
    a4: float

    @property
    def coeffs(self) -> tuple[float, float, float, float, float]:
        """Dense coefficients (c0..c4) with zero constant term."""
        return (0.0, self.a1, self.a2, self.a3, self.a4)


@dataclass(frozen=True)
class BoundCheckReport:
    lhs: float
    rhs: float
    holds: bool
    context: str = ""


def bound_report(lhs: float, rhs: float, context: str = "") -> BoundCheckReport:
    holds = bool(lhs <= rhs * (1.0 + REL_SLACK)) or math.isinf(rhs)
    return BoundCheckReport(float(lhs), float(rhs), holds, context)


def nearest_int_distance(x) -> float:
    """||x||, exact for Fraction input (ties return exactly 1/2)."""
    if isinstance(x, Fraction):
        frac = x - math.floor(x)
        return float(min(frac, 1 - frac))
    frac = x - math.floor(x)
    return min(frac, 1.0 - frac)


def _polyval(coeffs, x):
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def forward_difference(coeffs, shifts, x) -> float:
    """j-fold forward difference of the polynomial at x.

    coeffs are dense (c0, c1, ...) for psi(t) = sum c_i t^i; shifts is the
    tuple (h_1, ..., h_j).  Defined recursively on the last shift:
    D_j(x) = D_{j-1}(x + h_j) - D_{j-1}(x).
    """
    if not shifts:
        return _polyval(coeffs, x)
    head, last = shifts[:-1], shifts[-1]
    return forward_difference(coeffs, head, x + last) - forward_difference(
        coeffs, head, x
    )


def _phase_table(phase: QuarticPhase, X: int) -> np.ndarray:
    """e(psi(x)) for x = 1..X."""
    x = np.arange(1, X + 1, dtype=float)
    ps = ((phase.a4 * x + phase.a3) * x + phase.a2) * x * x + phase.a1 * x
    return np.exp(2j * np.pi * (ps % 1.0))


def check_weyl_differencing(phase: QuarticPhase, X: int, j: int) -> BoundCheckReport:
    """Weyl-differencing inequality

        |F|^(2^j) <= (2X)^(2^j - j - 1) *
                     sum over |h_1|,..,|h_j| < X  sum over x in T_j(h)
                     of e(D_j(psi(x); h)),

    where F = sum_{x<=X} e(psi(x)).  Squaring the inner sum over T_{j-1}(h)
    and collecting its terms by h_j = x - y gives the double sum as

        sum over |h_1|,..,|h_{j-1}| < X of
            |sum over x in T_{j-1}(h) of e(D_{j-1}(psi(x); h))|^2,

    which is how it is evaluated, so the right-hand side is real and
    nonnegative.  Raises BudgetError, before any array is made, when the
    (2X-1)^(j-1) x X matrix of inner terms exceeds WEYL_CAP entries.
    """
    if X < 1:
        raise ValueError("range must be >= 1")
    if j not in (1, 2, 3):
        raise ValueError("differencing depth must be 1, 2, or 3")
    rows = (2 * X - 1) ** (j - 1)
    if rows * X > WEYL_CAP:
        raise BudgetError(
            f"differencing check needs {rows * X} inner terms, more than {WEYL_CAP}"
        )
    table = _phase_table(phase, X)
    lhs = abs(table.sum()) ** (2**j)

    # e(D_{j-1}(psi(x); h)) = prod over subsets S of e(psi(x + sum_S h))^(+-1),
    # each factor taken from the table rather than by differencing the raw
    # polynomial values (whose cancellation would cost ~10 digits).  Zeros
    # padded around the table drop every x outside T_{j-1}(h): those x send
    # some x + sum_S h outside 1..X.
    pad = np.zeros((j - 1) * (X - 1), dtype=complex)
    padded = np.concatenate([pad, table, pad])
    xs = np.arange(len(pad), len(pad) + X)
    hs = np.arange(-(X - 1), X)
    shifts = [g.ravel() for g in np.meshgrid(*[hs] * (j - 1), indexing="ij")]
    inner = np.ones((rows, X), dtype=complex)
    for picks in itertools.product((False, True), repeat=j - 1):
        offset = sum((h for h, p in zip(shifts, picks) if p), np.zeros(rows, dtype=np.int64))
        factor = padded[offset[:, None] + xs]
        inner *= factor if (j - 1 - sum(picks)) % 2 == 0 else np.conj(factor)
    total = float(np.sum(np.abs(inner.sum(axis=1)) ** 2))

    rhs = (2.0 * X) ** (2**j - j - 1) * total
    ctx = f"j={j} X={X} phase=({phase.a1},{phase.a2},{phase.a3},{phase.a4})"
    return bound_report(lhs, rhs, ctx)


def check_geometric_sum(alpha, X: int, Y: int) -> BoundCheckReport:
    """|sum_{X < x <= X+Y} e(alpha x)| <= min(Y + 1, 1/(2*||alpha||))."""
    if Y < 0:
        raise ValueError("segment length must be >= 0")
    dist = nearest_int_distance(Fraction(alpha) if not isinstance(alpha, Fraction) else alpha)
    a = float(alpha)
    total = 0.0 + 0.0j
    for x in range(X + 1, X + Y + 1):
        total += cmath.exp(TWO_PI * 1j * ((a * x) % 1.0))
    rhs = (Y + 1.0) if dist == 0.0 else min(Y + 1.0, 0.5 / dist)
    return bound_report(abs(total), rhs, f"alpha={alpha} X={X} Y={Y}")


def check_reciprocal_sum(
    alpha, beta, X: int, Y: float, a: int, q: int, eta: float
) -> BoundCheckReport:
    """sum_{x<=X} min(Y, 1/||alpha x + beta||)
       <= 8 X Y eta (1/q + 1/Y + 1/X + q/(XY)) log q,

    for q > 100, gcd(a, q) = 1, |alpha - a/q| <= eta/q^2.  Preconditions are
    enforced, not silently accepted.
    """
    if q <= 100:
        raise ValueError("modulus must exceed 100")
    if gcd(a, q) != 1:
        raise ValueError("a and q must be coprime")
    if X < 1 or Y <= 0 or eta <= 0:
        raise ValueError("ranges must be positive")
    approx_err = float(abs(Fraction(alpha) - Fraction(a, q)))
    if approx_err > eta / q**2 * (1 + REL_SLACK):
        raise ValueError("alpha is not within eta/q^2 of a/q")
    af, bf = float(alpha), float(beta)
    lhs = 0.0
    for x in range(1, X + 1):
        d = nearest_int_distance(af * x + bf)
        lhs += Y if d == 0.0 else min(Y, 1.0 / d)
    rhs = 8.0 * X * Y * eta * (1.0 / q + 1.0 / Y + 1.0 / X + q / (X * Y)) * math.log(q)
    return bound_report(lhs, rhs, f"X={X} Y={Y} q={q} eta={eta}")


def divisor_count(n: int) -> int:
    """d(n) by trial division."""
    if n < 1:
        raise ValueError("argument must be >= 1")
    count = 1
    rem = n
    p = 2
    while p * p <= rem:
        if rem % p == 0:
            e = 0
            while rem % p == 0:
                rem //= p
                e += 1
            count *= e + 1
        p += 1 if p == 2 else 2
    if rem > 1:
        count *= 2
    return count


def divisor_count_sieve(limit: int) -> np.ndarray:
    """d(n) for 0 <= n <= limit (entry 0 unused).

    Each divisor pair (i, n/i) with i <= n/i is counted once from its smaller
    member: i adds 2 at every multiple n >= i^2, and 1 back at n = i^2, where
    the pair is one divisor.
    """
    d = np.zeros(limit + 1, dtype=np.int64)
    for i in range(1, math.isqrt(limit) + 1):
        d[i * i :: i] += 2
        d[i * i] -= 1
    return d


def divisor_bound_check(n: int) -> BoundCheckReport:
    """d(n) <= n^(1.0661 / log log n) for n >= 21."""
    if n < 21:
        raise ValueError("bound needs n >= 21 (log log n must exceed 1)")
    lhs = float(divisor_count(n))
    rhs = n ** (1.0661 / math.log(math.log(n)))
    return bound_report(lhs, rhs, f"n={n}")


def check_F_alpha_bound(
    phase: QuarticPhase, X: int, a: int, q: int, eta: float
) -> BoundCheckReport:
    """|sum_{x<=X} e(psi(x))|
       <= 2 X^(7/8) + 5 eta^(1/8) X^(1 + 3.1983/(4 log(3 log X)))
          * (1/q + 1/X + q/X^4)^(1/8) * (log q)^(1/8),

    for q > 100, gcd(a, q) = 1, |a4 - a/q| <= eta/q^2, X >= 21.  The bound
    depends only on the leading coefficient's rational approximation; the
    lower coefficients may be arbitrary.
    """
    if q <= 100:
        raise ValueError("modulus must exceed 100")
    if gcd(a, q) != 1:
        raise ValueError("a and q must be coprime")
    if X < 21:
        raise ValueError("range must satisfy X >= 21")
    if eta <= 0:
        raise ValueError("eta must be positive")
    if abs(phase.a4 - a / q) > eta / q**2 * (1 + REL_SLACK):
        raise ValueError("leading coefficient is not within eta/q^2 of a/q")
    lhs = abs(_phase_table(phase, X).sum())
    rhs = 2.0 * X ** (7.0 / 8.0) + 5.0 * eta ** 0.125 * X ** (
        1.0 + 3.1983 / (4.0 * math.log(3.0 * math.log(X)))
    ) * (1.0 / q + 1.0 / X + q / X**4) ** 0.125 * math.log(q) ** 0.125
    return bound_report(lhs, rhs, f"X={X} a/q={a}/{q} eta={eta}")
