"""Degree-4 figurate polynomials in the binomial basis.

A spec (A, B, C) encodes the counting polynomial

    f(n) = A*C(n,4) + B*C(n,3) + C*C(n,2) + n

with integer A >= 1, B, C.  Every such f is integer valued, and f(0) = 0,
f(1) = 1 by construction.  The three regular 4-polytope families are shipped
as a catalog keyed by Schlaefli symbol.

Because the binomial basis has denominator 24, exact modular work goes
through 24*f(n) (poly24, scaled24), which is a plain integer polynomial

    24*f(n) = A*n^4 + (4B-6A)*n^3 + (11A-12B+12C)*n^2 + (-6A+8B-12C+24)*n.

The derivative also clears denominators at 12:

    12*f'(t) = 2A*t^3 + (6B-9A)*t^2 + (11A-12B+12C)*t + (-3A+4B-6C+12).

Value tables (values, values_upto), residues f(n) mod q (residues) and
their histogram (residue_counts) are built here and nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import BudgetError


@dataclass(frozen=True)
class FigurateSpec:
    """Coefficients of a degree-4 figurate polynomial in the binomial basis."""

    A: int
    B: int
    C: int
    label: str = ""

    def __post_init__(self) -> None:
        for name in ("A", "B", "C"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeError(f"{name} must be an integer")
        if self.A <= 0:
            raise ValueError("leading coefficient A must be >= 1")

    @property
    def poly24(self) -> tuple[int, int, int, int]:
        """Coefficients (c4, c3, c2, c1) of 24*f(n) = c4 n^4 + ... + c1 n."""
        A, B, C = self.A, self.B, self.C
        return (A, 4 * B - 6 * A, 11 * A - 12 * B + 12 * C, -6 * A + 8 * B - 12 * C + 24)

    @property
    def deriv12(self) -> tuple[int, int, int, int]:
        """Coefficients (d3, d2, d1, d0) of 12*f'(t)."""
        A, B, C = self.A, self.B, self.C
        return (2 * A, 6 * B - 9 * A, 11 * A - 12 * B + 12 * C, -3 * A + 4 * B - 6 * C + 12)

    def value(self, n: int) -> int:
        """Exact f(n) for integer n >= 0."""
        if n < 0:
            raise ValueError("index must be >= 0")
        return self.A * comb(n, 4) + self.B * comb(n, 3) + self.C * comb(n, 2) + n

    def scaled24(self, n: int) -> int:
        """Exact 24*f(n), evaluated through the integer coefficient form."""
        if n < 0:
            raise ValueError("index must be >= 0")
        c4, c3, c2, c1 = self.poly24
        return (((c4 * n + c3) * n + c2) * n + c1) * n

    def real_value(self, t: float) -> float:
        """f(t) for real t (float evaluation of the quartic)."""
        c4, c3, c2, c1 = self.poly24
        return (((c4 * t + c3) * t + c2) * t + c1) * t / 24.0

    def derivative(self, t: float) -> float:
        """f'(t) for real t."""
        d3, d2, d1, d0 = self.deriv12
        return (((d3 * t + d2) * t + d1) * t + d0) / 12.0

    def deriv12_at(self, y: int) -> int:
        """Exact integer 12*f'(y); used for p-adic valuation work."""
        d3, d2, d1, d0 = self.deriv12
        return ((d3 * y + d2) * y + d1) * y + d0


@dataclass(frozen=True)
class CatalogEntry:
    symbol: str
    spec: FigurateSpec


_CATALOG = {
    "{3,4,3}": (72, 84, 22),
    "{3,3,5}": (580, 590, 118),
    "{5,3,3}": (3132, 3186, 598),
}


def catalog(symbol: str) -> CatalogEntry:
    """Catalog entry for a regular 4-polytope Schlaefli symbol."""
    try:
        A, B, C = _CATALOG[symbol]
    except KeyError:
        known = ", ".join(sorted(_CATALOG))
        raise ValueError(f"unknown symbol {symbol!r}; catalog has {known}") from None
    return CatalogEntry(symbol, FigurateSpec(A, B, C, label=symbol))


def catalog_specs() -> list[FigurateSpec]:
    """All catalog specs, in fixed symbol order."""
    return [catalog(sym).spec for sym in sorted(_CATALOG)]


def values(spec: FigurateSpec, N: int) -> list[int]:
    """Exact f(1), ..., f(N) as Python ints."""
    if N < 0:
        raise ValueError("length must be >= 0")
    return [spec.value(n) for n in range(1, N + 1)]


def values_upto(spec: FigurateSpec, m: int) -> list[int]:
    """All values f(n) <= m for n >= 1, ascending.

    Linear scan with a strict-increase check at every step, so the result is
    trustworthy even for adversarial coefficient choices.
    """
    if m < 0:
        raise ValueError("bound must be >= 0")
    out: list[int] = []
    n, prev = 1, 0
    while True:
        v = spec.value(n)
        if v <= prev:
            raise ValueError(f"values not increasing at n={n}")
        if v > m:
            break
        out.append(v)
        n, prev = n + 1, v
    return out


def residues(spec: FigurateSpec, count: int, q: int) -> np.ndarray:
    """f(n) mod q for n = 1..count, as an int64 array.

    f mod q = (24 f mod 24q) / 24 holds because 24 f has integer
    coefficients.  24 f(n) mod 24q depends only on n mod 24q and is
    evaluated by Horner's rule in int64, which stays exact while
    (24q)^2 < 2^63; a modulus 24q >= 2^31 raises BudgetError before any
    array is made.
    """
    if q < 1:
        raise ValueError("modulus must be >= 1")
    modulus = 24 * q
    if modulus >= 1 << 31:
        raise BudgetError("modulus too large for the vectorized residue scan")
    n = np.arange(1, count + 1, dtype=np.int64) % modulus
    acc = np.full_like(n, spec.poly24[0] % modulus)
    for coeff in spec.poly24[1:]:
        acc = (acc * n + coeff % modulus) % modulus
    return (acc * n % modulus) // 24


def residue_counts(spec: FigurateSpec, t: int, q: int) -> list[int]:
    """Histogram of f(n) mod q over 1 <= n <= t, as exact Python ints.

    f(n) mod q has period T = q * (8 if 2 | q) * (3 if 3 | q) in n, a divisor
    of 24q.  Proof: P = 24 f is an integer polynomial, so P(n + k) = P(n)
    mod k for every k.  Write q = 2^a 3^b r with gcd(r, 6) = 1 and use the
    Chinese remainder theorem:
      - mod r, 24 is invertible, so f(n) = 24^(-1) P(n) has period r;
      - mod 2^a (a >= 1), 8 f(n) = 3^(-1) P(n) mod 2^(a+3) fixes f(n) mod
        2^a, so 2^(a+3) is a period;
      - mod 3^b (b >= 1), 3 f(n) = 8^(-1) P(n) mod 3^(b+1) fixes f(n) mod
        3^b, so 3^(b+1) is a period.
    T is the least common multiple of the three.  So one period is scanned at
    most: the range is full periods plus a prefix, and the two histograms are
    combined in Python ints, which stay exact for any t.
    """
    if t < 0:
        raise ValueError("length must be >= 0")
    period = q * (8 if q % 2 == 0 else 1) * (3 if q % 3 == 0 else 1)
    res = residues(spec, min(t, period), q)
    full, rem = divmod(t, period)
    whole = np.bincount(res, minlength=q).tolist()
    prefix = np.bincount(res[:rem], minlength=q).tolist()
    return [full * c + pc for c, pc in zip(whole, prefix)]
