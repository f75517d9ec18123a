"""Singular series for figurate Waring problems.

S(m, Q) = sum_{q <= Q} V(q) truncates the singular series; the same quantity
has an Euler-product form over local densities T_m(p).  Both routes are
implemented and cross-checked.  The infinite tail is controlled by a bound
whose log is computed here; at desk scale the bound is never small enough to
certify positivity rigorously — the verdict field says exactly how far the
computation gets.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetError
from .expsums import fsum_complex, v_of_q
from .figurate import FigurateSpec
from .localdensity import count_congruence, exact_depth, is_prime, local_density_limit
from .weylbounds import BoundCheckReport, bound_report

IMAG_TOLERANCE = 1e-8
# the relative gap between the q-series and the Euler product that still
# counts as agreement in the positivity verdict
AGREEMENT = 0.10
# each V(q) scans 24q residues, one FFT of length q and a loop over the q
# classes a, so the series costs about 12 Q^2 steps; Q = 1000 takes about 2 s
MAX_SERIES_Q = 1000


@dataclass(frozen=True)
class SeriesEstimate:
    truncated: float
    Q: int
    imag_residue: float = 0.0
    euler_estimate: float = float("nan")
    per_prime: tuple[tuple[int, float], ...] = ()
    tail_log: float = float("nan")
    positivity: str = "indeterminate"

    def __post_init__(self):
        if abs(self.imag_residue) > IMAG_TOLERANCE * (1.0 + abs(self.truncated)):
            raise ValueError(
                "series truncation has a non-negligible imaginary residue"
            )
        if self.positivity not in ("certified-heuristic", "indeterminate"):
            raise ValueError("unknown positivity verdict")


def truncated_series(spec: FigurateSpec, s: int, m: int, Q: int) -> SeriesEstimate:
    """sum_{q <= Q} V(q), accumulated in ascending q.

    Each V(q) is itself real up to rounding (terms at a and q-a conjugate),
    so the real part is returned and the imaginary residue recorded.  Q above
    MAX_SERIES_Q is refused with BudgetError before any V(q) is computed.
    """
    if Q < 1:
        raise ValueError("truncation point must be >= 1")
    if Q > MAX_SERIES_Q:
        raise BudgetError(f"series truncation is capped at Q = {MAX_SERIES_Q}, got {Q}")
    total = fsum_complex(v_of_q(spec, q, s, m) for q in range(1, Q + 1))
    return SeriesEstimate(truncated=total.real, Q=Q, imag_residue=abs(total.imag))


def divisor_sum_identity_check(
    spec: FigurateSpec, s: int, m: int, q: int
) -> BoundCheckReport:
    """sum_{d | q} V(d) = q^(1-s) 24^(-s) M_m(24q, q).

    The right side counts congruence solutions exactly; the left side sums
    float V-values, so the check asks for agreement within 1e-8.
    """
    if q < 1 or q > 30:
        raise ValueError("identity check is sized for 1 <= q <= 30")
    divisors = [d for d in range(1, q + 1) if q % d == 0]
    vsum = fsum_complex(v_of_q(spec, d, s, m) for d in divisors)
    count = count_congruence(spec, s, m, 24 * q, q)
    exact = float(Fraction(count, q ** (s - 1) * 24**s))
    lhs = abs(complex(vsum.real - exact, vsum.imag))
    return bound_report(lhs, 1e-8, f"q={q} V-sum={vsum.real!r} scaled-count={exact!r}")


def euler_product(
    spec: FigurateSpec,
    s: int,
    m: int,
    prime_limit: int = 50,
) -> SeriesEstimate:
    """prod_{p <= prime_limit} T_m(p) with a dual-route positivity verdict.

    Each factor is a stabilized local-density estimate: the top level of
    the prime's exact ladder, with the level below it for the stabilization
    verdict, and no lower level is computed.  The verdict is
    "certified-heuristic" only when there is a factor, every factor is
    positive and stabilized AND the truncated q-series at Q = prime_limit
    agrees with the product to AGREEMENT relative; anything less is
    "indeterminate".  The tail-bound log is attached for s >= 17 so the
    reader can see why the heuristic label cannot be upgraded at desk scale.
    The series is taken first, so a prime_limit above MAX_SERIES_Q is refused
    before any density is computed.
    """
    if s < 17:
        warnings.warn(
            "Euler product outside the proven convergence regime (s < 17)",
            stacklevel=2,
        )
    series = truncated_series(spec, s, m, prime_limit)
    product = 1.0
    per_prime = []
    all_good = prime_limit >= 2  # an empty product certifies nothing
    for p in range(2, prime_limit + 1):
        if not is_prime(p):
            continue
        k_max = exact_depth(p)
        report = local_density_limit(spec, s, m, p, k_max, k_min=max(1, k_max - 1))
        per_prime.append((p, report.estimate))
        product *= report.estimate
        if not (report.stabilized and report.estimate > 0.0):
            all_good = False
    agrees = (
        product > 0.0
        and abs(series.truncated - product) <= AGREEMENT * abs(product)
    )
    verdict = "certified-heuristic" if (all_good and agrees) else "indeterminate"
    tail = tail_bound_log(spec.A, s, prime_limit) if s >= 17 else float("nan")
    return SeriesEstimate(
        truncated=series.truncated,
        Q=prime_limit,
        imag_residue=series.imag_residue,
        euler_estimate=product,
        per_prime=tuple(per_prime),
        tail_log=tail,
        positivity=verdict,
    )


def tail_bound_log(A: int, s: int, Q) -> float:
    """log of the series tail bound (52 A^(1/4))^s / ((9s/73 - 2) Q^(9s/73 - 2)).

    Kept in log space: the numerator alone overflows a double for s = 17 and
    A in the catalog.  Strictly decreasing in Q; positive exponent requires
    s >= 17 (at s = 17 the exponent is 7/73, about 0.0959).
    """
    if s < 17:
        raise ValueError("tail bound requires s >= 17")
    if Q < 1:
        raise ValueError("truncation point must be >= 1")
    exponent = 9.0 * s / 73.0 - 2.0
    return (
        s * math.log(52.0 * A**0.25)
        - math.log(exponent)
        - exponent * math.log(Q)
    )


@dataclass(frozen=True)
class LowerBoundRecord:
    """Symbolic record of the positivity lower bound 2^(z^2/(146-9s)) *
    exp((12 tau + 1.03 z)(1 - s)) with z = (2 e^(s e^932) + 1)^(73/(9s-21)).

    z is astronomically large (log log z is around 935), so neither z nor the
    bound is ever evaluated as a float; only the nested log is numeric.  For
    the catalog polynomials the tau term is dropped (tau = 0 form).
    """

    A: int
    s: int
    tau: int
    loglog_z: float
    z_expr: str
    bound_expr: str


def lower_bound_record(A: int, s: int, tau: int) -> LowerBoundRecord:
    if s < 17:
        raise ValueError("lower bound record requires s >= 17")
    if tau < 0:
        raise ValueError("derivative valuation must be >= 0")
    # log log z = 932 + log s + log(73/(9s-21)) up to additive corrections of
    # size exp(-932), far below double resolution
    loglog_z = 932.0 + math.log(s) + math.log(73.0 / (9 * s - 21))
    z_expr = f"(2*exp({s}*exp(932)) + 1)^(73/{9 * s - 21})"
    if tau == 0:
        bound_expr = f"2^(z^2/(146-{9 * s})) * exp(1.03*z*(1-{s}))"
    else:
        bound_expr = f"2^(z^2/(146-{9 * s})) * exp((12*{tau} + 1.03*z)*(1-{s}))"
    return LowerBoundRecord(A, s, tau, loglog_z, z_expr, bound_expr)
