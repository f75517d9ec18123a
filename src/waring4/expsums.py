"""Exponential sums over figurate values.

e(x) denotes exp(2*pi*i*x) throughout.  The three sums of interest:

* weyl_sum:       S_N(alpha) = sum_{n=1}^{N} e(alpha * f(n))
* partial_sum_M:  M_t(a/q)   = sum_{n=1}^{t} e((a/q) * f(n))
* complete_sum_V: V(q, a)    = sum_{n=1}^{24q} e((a/q) * f(n))

Rational phases are computed exactly: the histogram of f(n) mod q comes from
figurate.residue_counts, which reduces the integer polynomial 24*f(n) mod 24q
and divides by 24, so no precision is lost no matter how large f(n) grows.
Arbitrary real alpha goes through the exact integer ratio of the float, which
keeps alpha * f(n) mod 1 correct to one rounding even when f(n) has 60-bit
magnitude.

M and V are both read off root_sums, sum_r c[r] * e(a*r/q) for every a at
once, which is one conjugated FFT of the histogram c; the float path of the
local densities reads it too.  Sums of complex terms go through fsum_complex,
which is correctly rounded and so does not depend on the order of the terms.

mean_value(spec, N, j) is the exact number of solutions of

    f(u_1)+...+f(u_h) = f(v_1)+...+f(v_h),  h = 2^(j-1),  1 <= u_i, v_i <= N,

i.e. the 2^j-th power moment of |S_N| integrated over the circle: the sum of
the squared counts of the h-fold sums.  Those counts come from grouping, in
exact int64 arithmetic, never from Monte Carlo.  The values are shifted by
their midpoint, so the h-fold sums use both signs of int64, and grouped into
distinct values with counts.  Each pass then turns the distinct k-fold sums
with their counts into the 2k-fold ones, in one sort of signed packed
(sum, weight) keys walked BLOCK keys at a time; the last pass squares each
block's group counts as it goes instead of storing them.  j = 4 shifts the
values by their minimum, builds the septuple-sum counts by the shift-add
passes of exactconv, and forms the octuple-sum counts BLOCK entries at a
time, squaring each block as it is made.  No table of the final sums is
stored.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import fsum, gcd

import numpy as np

from .errors import BudgetError
from .exactconv import _truncated_powers
from .figurate import FigurateSpec, residue_counts, values

TWO_PI = 2.0 * cmath.pi
# entries of a moment's last pass unpacked, grouped or summed at a time
BLOCK = 1 << 16


def fsum_complex(parts) -> complex:
    """Correctly rounded sum of complex numbers, independent of their order."""
    parts = list(parts)
    return complex(fsum(z.real for z in parts), fsum(z.imag for z in parts))


def root_sums(counts) -> np.ndarray:
    """sum_r counts[r] * e(a*r/q) for a = 0..q-1, q = len(counts).

    The counts are real, so this is the conjugate of one FFT of them.
    """
    return np.conj(np.fft.fft(np.asarray(counts, dtype=float)))


@lru_cache(maxsize=4096)
def _complete_sum_table(spec: FigurateSpec, q: int) -> tuple[complex, ...]:
    """V(q, a) for a = 0..q-1: the root sums of one full period's histogram."""
    return tuple(root_sums(residue_counts(spec, 24 * q, q)).tolist())


def weyl_sum(spec: FigurateSpec, N: int, alpha: float) -> complex:
    """S_N(alpha) = sum_{n<=N} e(alpha * f(n)).

    alpha is taken at face value as an exact rational (floats are dyadic
    rationals), and alpha * f(n) is reduced mod 1 in integer arithmetic
    before any rounding happens.
    """
    if N < 0:
        raise ValueError("length must be >= 0")
    frac = Fraction(alpha)
    num, den = frac.numerator, frac.denominator
    return fsum_complex(
        cmath.exp(TWO_PI * 1j * (((num * fn) % den) / den)) for fn in values(spec, N)
    )


def partial_sum_M(spec: FigurateSpec, q: int, a: int, t: int) -> complex:
    """M_t(a/q) = sum_{n<=t} e((a/q) * f(n)), a root sum of f(1..t) mod q."""
    if q < 1:
        raise ValueError("denominator must be >= 1")
    return complex(root_sums(residue_counts(spec, t, q))[a % q])


def complete_sum_V(spec: FigurateSpec, q: int, a: int) -> complex:
    """V(q, a) = sum over one full period n = 1..24q of e((a/q) * f(n))."""
    if q < 1:
        raise ValueError("denominator must be >= 1")
    return _complete_sum_table(spec, q)[a % q]


def v_of_q(spec: FigurateSpec, q: int, s: int, m: int) -> complex:
    """Normalized complete-sum term

        V_q = sum_{a mod q, gcd(a,q)=1} (V(q,a)/(24q))^s * e(-a*m/q).

    These are the multiplicative building blocks of the singular series.
    """
    if q < 1:
        raise ValueError("denominator must be >= 1")
    if s < 1:
        raise ValueError("order must be >= 1")
    table = _complete_sum_table(spec, q)
    scale = 1.0 / (24.0 * q)
    parts = []
    for a in range(1, q + 1):
        if gcd(a, q) != 1:
            continue
        va = table[a % q] * scale
        parts.append(va**s * cmath.exp(-TWO_PI * 1j * ((a * m) % q) / q))
    return fsum_complex(parts)


def _shifted_values(spec: FigurateSpec, N: int, j: int) -> np.ndarray:
    """f(1..N) minus their midpoint (their minimum at j = 4), as int64.

    The moment does not change under the shift, because both sides of
    sum f(u_i) = sum f(v_i) have h = 2^(j-1) terms.  Every h-fold sum of the
    shifted values is below 2^63 in absolute value, or BudgetError is
    raised.  j = 4 uses the shifted values as exponents of a power series,
    so it shifts by the minimum.
    """
    vals = values(spec, N)
    lo, hi = min(vals), max(vals)
    shift = lo if j == 4 else lo + (hi - lo) // 2
    if (hi - shift) << (j - 1) >= 1 << 63:
        raise BudgetError("values spread too wide for 64-bit moment computation")
    return np.array([v - shift for v in vals], dtype=np.int64)


def _sum_of_squares_int64(arr: np.ndarray) -> int:
    """Exact sum of squares of nonnegative int64 entries < 2**37."""
    if len(arr) == 0:
        return 0
    mx = int(arr.max())
    if mx < 1 << 31 and mx * int(arr.sum()) < 1 << 62:
        return int(np.dot(arr, arr))
    if mx >= 1 << 37 or len(arr) >= 1 << 24:
        raise BudgetError("moment too large for the split accumulator")
    hi = arr >> 19
    lo = arr & ((1 << 19) - 1)
    s_hh = int(np.dot(hi, hi))
    s_hl = int(np.dot(hi, lo))
    s_ll = int(np.dot(lo, lo))
    return (s_hh << 38) + (s_hl << 20) + s_ll


def _pair_groups(vals: np.ndarray, wts: np.ndarray):
    """Distinct sums vals[i] + vals[k] over ordered pairs (i, k), ascending,
    each with its summed weight wts[i] * wts[k], yielded as (sums, weights)
    arrays of at most BLOCK + 1 groups each.

    vals must be nonempty, distinct and ascending, and wts >= 1, both int64;
    every pair sum must fit int64, and every group's weight sum is at most
    sum(wts)^2, which must stay below 2^63.  Only the upper triangle i <= k
    is enumerated, a pair with i < k counting twice, so every weight is at
    most 2 * max(wts)^2, which has b bits.  When 2 * max|vals| << b fits
    below 2^63, each pair becomes one signed int64 key sum << b | weight,
    written row by row into one array, and one in-place sort brings equal
    sums together.  Otherwise sums and weights stay apart and are ordered by
    an argsort of the sums.  Either way the sorted pairs are then walked
    BLOCK at a time: a block is unpacked, each run of equal sums is totalled
    by a cumsum read at the run ends, and the run still open at the block
    edge is carried into the next block.  No other array of the size of the
    pair list is made.
    """
    n = len(vals)
    top = int(wts.max())
    bits = (2 * top * top).bit_length()
    packed = (2 * max(-int(vals[0]), int(vals[-1]))) << bits < 1 << 63
    size = n * (n + 1) // 2
    keys = np.empty(size, dtype=np.int64)
    weights = None if packed else np.empty(size, dtype=np.int64)
    row_w = np.empty(n, dtype=np.int64)
    pos = 0
    for i in range(n):
        end = pos + n - i
        w = row_w[: n - i]
        np.multiply(wts[i:], 2 * wts[i], out=w)
        w[0] = wts[i] * wts[i]
        row = keys[pos:end]
        np.add(vals[i:], vals[i], out=row)
        if packed:
            row <<= bits
            row |= w
        else:
            weights[pos:end] = w
        pos = end
    if packed:
        keys.sort()
    else:
        order = np.argsort(keys)
        keys, weights = keys[order], weights[order]
    mask = (1 << bits) - 1
    # the open run: its sum and its weight so far
    run_sum = run_w = np.empty(0, dtype=np.int64)
    for lo in range(0, size, BLOCK):
        block = keys[lo : lo + BLOCK]
        if packed:
            sums, w = block >> bits, block & mask
        else:
            sums, w = block, weights[lo : lo + BLOCK]
        sums = np.concatenate((run_sum, sums))
        w = np.concatenate((run_w, w))
        ends = np.flatnonzero(sums[1:] != sums[:-1])  # last entry of each closed run
        cum = np.cumsum(w)
        closed = cum[ends]
        yield sums[ends], np.diff(closed, prepend=0)
        run_sum = sums[-1:]
        run_w = cum[-1:] - (closed[-1] if len(closed) else 0)
    yield run_sum, run_w


def _pair_sums(vals: np.ndarray, wts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All the groups of _pair_groups as one (sums, weights) pair of arrays."""
    sums, weights = zip(*_pair_groups(vals, wts))
    return np.concatenate(sums), np.concatenate(weights)


_DENSE_REFUSAL = (
    "sixteenth moment needs a dense table of 8*(max f - min f) entries; "
    "this spec exceeds the memory budget at the requested N"
)


def mean_value(spec: FigurateSpec, N: int, j: int) -> int:
    """Exact 2^j-th moment: solutions of sum f(u_i) = sum f(v_i), h = 2^(j-1)
    terms per side, 1 <= u_i, v_i <= N."""
    if j not in (1, 2, 3, 4):
        raise ValueError("moment index j must be in 1..4")
    if N < 0:
        raise ValueError("length must be >= 0")
    if N == 0:
        return 0
    if j == 2 and N > 4000:
        raise BudgetError("fourth moment is limited to N <= 4000")
    if j == 3 and N > 120:
        raise BudgetError("eighth moment is limited to N <= 120")
    if j == 4 and N > 24:
        raise BudgetError(_DENSE_REFUSAL)

    fv = _shifted_values(spec, N, j)
    if j < 4:
        # h-fold sums with their counts, doubling h on every pass; the last
        # pass is squared group block by group block
        vals, cnts = np.unique(fv, return_counts=True)
        if j == 1:
            return _sum_of_squares_int64(cnts)
        for _ in range(j - 2):
            vals, cnts = _pair_sums(vals, cnts)
        return sum(_sum_of_squares_int64(w) for _, w in _pair_groups(vals, cnts))
    # j == 4: the septuple-sum counts c7 by shift-add passes, then the
    # octuple-sum counts c8[k] = sum_v c7[k - v] BLOCK entries at a time,
    # squared as they are formed.  Every c8 entry is at most N^8 <= 24^8
    # < 2^37, and a degree-4 f takes a value at most 4 times, so c7 is at
    # most 4 * 24^6 < 2^32: one row of at most u4
    top = int(fv.max())
    if 8 * top > 12_000_000:
        raise BudgetError(_DENSE_REFUSAL)
    shifts = fv.tolist()
    power, _ = _truncated_powers(shifts, {7}, 7 * top + 1)[7]
    c7 = power[0]
    total = 0
    for lo in range(0, 8 * top + 1, BLOCK):
        hi = min(lo + BLOCK, 8 * top + 1)
        block = np.zeros(hi - lo, dtype=np.int64)
        for v in shifts:
            a, b = max(lo - v, 0), min(hi - v, len(c7))
            if a < b:
                block[a + v - lo : b + v - lo] += c7[a:b]
        total += _sum_of_squares_int64(block)
    return total
