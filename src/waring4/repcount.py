"""Exact representation counts for figurate values.

R_s(m) is the number of ordered s-tuples (n_1, ..., n_s), all n_i >= 1, with
f(n_1) + ... + f(n_s) = m.  Counts are plain Python integers (arbitrary
precision); the workhorse is a truncated power of the value polynomial made
of shift-add passes on numpy arrays, each in an unsigned dtype that holds the
pass's coefficient bound (32-bit digit rows past 2**64), so no wraparound can
occur.  A single count is read from the two half powers, never from a full
profile.

count_profile_via_dft is an independent floating cross-check: with more sample
points than the degree of S(alpha)^s, the inverse transform recovers every
count exactly up to floating rounding, which is checked against a 0.4
residue guard before rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetError
from .exactconv import sparse_power_entry, sparse_power_profile
from .figurate import FigurateSpec, values_upto

DEFAULT_OP_BUDGET = 2_000_000_000
DFT_DEGREE_LIMIT = 1 << 20
DFT_COUNT_LIMIT = 1 << 53  # every integer below this is a float


@dataclass(frozen=True)
class CountVector:
    """Counts R_s(m) for m = 0, 1, ..., len(counts)-1."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(c < 0 for c in self.counts):
            raise ValueError("counts must be nonnegative")

    def entry(self, m: int) -> int:
        if 0 <= m < len(self.counts):
            return self.counts[m]
        return 0


def _check_budget(s: int, m_max: int, vals: list[int], budget: int) -> None:
    """Refuse a count whose shift-add work, s * (m_max + 1) * len(vals) block
    operations, exceeds budget."""
    if s * (m_max + 1) * max(len(vals), 1) > budget:
        raise BudgetError(
            f"profile needs ~{s * (m_max + 1) * len(vals)} block operations, "
            f"budget is {budget}"
        )


def count_profile(spec: FigurateSpec, s: int, m_max: int) -> CountVector:
    """Exact counts R_s(m) for all 0 <= m <= m_max, refused past
    DEFAULT_OP_BUDGET block operations."""
    if s < 0:
        raise ValueError("order must be >= 0")
    if m_max < 0:
        raise ValueError("bound must be >= 0")
    vals = values_upto(spec, m_max)
    _check_budget(s, m_max, vals, DEFAULT_OP_BUDGET)
    counts = sparse_power_profile(vals, s, m_max)
    return CountVector(tuple(counts))


def count_representations(
    spec: FigurateSpec,
    s: int,
    m: int,
    budget: int = DEFAULT_OP_BUDGET,
) -> int:
    """Exact R_s(m), as one dot product of the two half powers of the
    value polynomial; the full profile is never formed."""
    if m < 0:
        raise ValueError("target must be >= 0")
    if s < 0:
        raise ValueError("order must be >= 0")
    vals = values_upto(spec, m)
    _check_budget(s, m, vals, budget)
    return sparse_power_entry(vals, s, m)


def _dft_profile(values: list[int], s: int, m_max: int) -> list[int]:
    """Counts via one real FFT; exact after rounding when the sample count
    exceeds the polynomial degree s * max(values)."""
    degree = s * max(values, default=0)
    size = 1
    while size <= max(degree, m_max, 1):
        size *= 2
    x = np.zeros(size)
    for v in values:
        x[v] = 1.0
    spectrum = np.fft.rfft(x) ** s
    approx = np.fft.irfft(spectrum, size)[: m_max + 1]
    rounded = np.rint(approx)
    residue = float(np.max(np.abs(approx - rounded))) if len(approx) else 0.0
    if residue >= 0.4:
        raise ArithmeticError(
            f"transform residue {residue:.3f} too large to round safely"
        )
    return [int(c) for c in rounded]


def count_profile_via_dft(spec: FigurateSpec, s: int, m_max: int) -> CountVector:
    """Floating cross-check of count_profile; exact on its guarded range."""
    if s < 1:
        raise ValueError("order must be >= 1")
    if m_max < 0:
        raise ValueError("bound must be >= 0")
    vals = values_upto(spec, m_max)
    degree = s * max(vals, default=0)
    if degree > DFT_DEGREE_LIMIT:
        raise BudgetError(
            f"transform degree {degree} exceeds guard {DFT_DEGREE_LIMIT}"
        )
    # a count at or above 2^53 rounds to a nearby float that the residue
    # guard cannot tell from an integer, so bound every count first
    if len(vals) ** s >= DFT_COUNT_LIMIT:
        raise BudgetError(
            f"counts up to {len(vals)}^{s} exceed the exact float range 2^53"
        )
    return CountVector(tuple(_dft_profile(vals, s, m_max)))

