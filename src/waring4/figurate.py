"""Degree-4 figurate polynomials in the binomial basis.

A spec (A, B, C) encodes the counting polynomial

    f(n) = A*C(n,4) + B*C(n,3) + C*C(n,2) + n

with integer A >= 1, B, C.  Every such f is integer valued, and f(0) = 0,
f(1) = 1 by construction.  The three regular 4-polytope families are shipped
as a catalog keyed by Schlaefli symbol.

Because the binomial basis has denominator 24, exact modular work goes
through scaled24(n) = 24*f(n), which is a plain integer polynomial

    24*f(n) = A*n^4 + (4B-6A)*n^3 + (11A-12B+12C)*n^2 + (-6A+8B-12C+24)*n.

The derivative also clears denominators at 12:

    12*f'(t) = 2A*t^3 + (6B-9A)*t^2 + (11A-12B+12C)*t + (-3A+4B-6C+12).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb


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


def make_spec(A: int, B: int, C: int, label: str = "") -> FigurateSpec:
    """Build a spec from binomial-basis coefficients; A <= 0 is rejected."""
    return FigurateSpec(A, B, C, label)


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


def max_index(spec: FigurateSpec, m: int) -> int:
    """Largest n >= 0 with f(n) <= m, assuming f increases on positive integers.

    Doubling scan followed by bisection; a decrease seen at any probed point
    raises ValueError (possible for adversarial B, C).
    """
    if m < 0:
        raise ValueError("bound must be >= 0")
    if spec.value(1) > m:
        return 0
    lo, prev = 1, spec.value(1)
    hi = 2
    while True:
        v = spec.value(hi)
        if v <= prev:
            raise ValueError(f"values not increasing near n={hi}")
        if v > m:
            break
        lo, prev = hi, v
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if spec.value(mid) <= m:
            lo = mid
        else:
            hi = mid
    if not (spec.value(lo) <= m < spec.value(lo + 1)):
        raise ValueError("values not increasing across the bisection bracket")
    return lo
