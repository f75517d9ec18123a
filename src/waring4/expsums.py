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
exact integer arithmetic, never from Monte Carlo.  The values are shifted by
their midpoint, so the h-fold sums use both signs of int64, and grouped into
distinct values with counts.  Each pass then turns the distinct k-fold sums
with their counts into the 2k-fold ones, enumerated in increasing order one
window of sums at a time (_pair_windows, the one walk every pass shares): a
window's pairs are packed relative to its lower edge as (sum, weight) keys,
uint32 when (hi - lo) << b <= 2^32 for b-bit weights and int64 otherwise,
sorted and totalled, and no run of equal sums crosses a window edge, so
nothing is carried and only one window of keys is held.  The last pass
squares each window's group weights as it goes instead of storing them
(_squared_pair_total).  At j = 2, a window whose keys need int64 sorts a
32-bit multiplicative hash of each sum instead; the sum of the squared pair
weights is closed form, and since equal sums hash alike, only keys whose
word repeats are grouped by their exact sums, so the total stays exact.
At j = 3 most sums repeat, so every window is grouped by its exact keys.
j = 4 shifts the values by their minimum and keeps the quadruple-sum
counts sparse (two passes).  One rising sweep over the octuple sums then
works BLOCK entries at a time: the quintuple-sum counts of a block are the
sparse quadruple counts scattered at every value, the sextuple and septuple
counts are shift-adds from the level below (exactconv._shift_add), each
level held only as a u4 rolling window of top + BLOCK entries (top the
largest shifted value), and the octuple-sum counts, u4 while max(c4) * N^4
< 2^32 bounds them and int64 past that, are squared as they are made (by
_sum_of_squares_int64, eight times faster here than the digit-plane dot of
exactconv.sparse_power_entry).  No table of the final sums is stored.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import fsum, gcd

import numpy as np

from .errors import BudgetError
from .exactconv import _shift_add
from .figurate import FigurateSpec, residue_counts, values

TWO_PI = 2.0 * cmath.pi
# a moment's passes work on about this many entries at a time: windows of
# at most about 2 * BLOCK pair keys, and blocks of the j = 4 sweep
BLOCK = 1 << 16
# a window's pair keys are uint32 when (hi - lo) << bits is at most this
KEY32_SPAN = 1 << 32
# Knuth's multiplicative hash of a sum: the top 32 bits of its product with
# this odd constant mod 2^64, 2^64 divided by the golden ratio
HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)
# the j = 4 octuple block accumulates in u4 while max(c4) * N^4 is below this
OCTUPLE_U4_LIMIT = 1 << 32
# _sum_of_squares_int64 widens an array narrower than int64 this many
# entries at a time
SQUARE_CHUNK = 1 << 13


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
    """Exact sum of squares of nonnegative integer entries < 2**37, in int64
    arithmetic: one dot when max * sum < 2**62, else a 19-bit split.  An
    array narrower than int64 (the j = 4 octuple block in u4) is widened
    SQUARE_CHUNK entries at a time, so no int64 copy of it is made whole."""
    if len(arr) == 0:
        return 0
    mx = int(arr.max())
    split = mx >= 1 << 31 or mx * int(arr.sum()) >= 1 << 62
    if split and (mx >= 1 << 37 or len(arr) >= 1 << 24):
        raise BudgetError("moment too large for the split accumulator")
    step = len(arr) if arr.dtype == np.int64 else SQUARE_CHUNK
    total = 0
    for a in range(0, len(arr), step):
        part = arr[a : a + step].astype(np.int64, copy=False)
        if not split:
            total += int(np.dot(part, part))
            continue
        hi = part >> 19
        lo = part & ((1 << 19) - 1)
        total += (int(np.dot(hi, hi)) << 38) + (int(np.dot(hi, lo)) << 20) + int(np.dot(lo, lo))
    return total


def _weight_bits(wts: np.ndarray) -> int:
    """b, the bits of the widest pair weight 2 * max(wts)^2; b > 62 raises
    BudgetError, as such a weight leaves no room in an int64 key."""
    top = int(wts.max())
    bits = (2 * top * top).bit_length()
    if bits > 62:
        raise BudgetError("pair weights too wide to pack beside their sums")
    return bits


def _pair_windows(vals: np.ndarray, bits: int):
    """The one walk of the pair sums vals[i] + vals[k], i <= k, in windows of
    ascending sums: yields (lo, hi, start, counts, diag, diag_stop) per
    window [lo, hi), where row i gives out its columns start[i] ..
    start[i] + counts[i] - 1 and the diagonal its sums 2 * vals[diag ..
    diag_stop - 1].  Windows split the sum range, so no run of equal sums
    crosses an edge.

    As in Bernstein's enumeration of p(a) + q(b), the state is O(len(vals)):
    row i keeps its first column k > i not yet given out, and a window takes
    each row's columns up to one searchsorted of hi - vals.  A window's span
    is at most 2^(62 - bits), so (sum - lo) << bits stays below 2^62; it aims
    at BLOCK keys from the last window's density and shrinks until it holds
    at most 2 * BLOCK, unless one sum has more pairs.  The next window starts
    at the next sum that occurs.
    """
    n = len(vals)
    cap = 1 << (62 - bits)
    wide = 1 << 63
    twice = 2 * vals  # the diagonal sums, ascending
    last = int(twice[-1])
    start = np.arange(1, n + 1)  # row i's first column k > i not yet given out
    diag = 0  # the first diagonal sum not yet given out
    lo, span = int(twice[0]), cap
    while True:
        while True:
            hi = min(lo + span, last + 1)
            # hi - v leaves int64 only where it also lies past every value,
            # so v is clipped to where it fits
            reach = hi - vals.clip(max(hi - wide + 1, -wide), min(hi + wide, wide - 1))
            stop = np.maximum(np.searchsorted(vals, reach), start)
            diag_stop = int(np.searchsorted(twice, hi))
            counts = stop - start
            size = int(counts.sum()) + diag_stop - diag
            if size <= 2 * BLOCK or span == 1:
                break
            span = max(1, span * BLOCK // size)
        yield lo, hi, start, counts, diag, diag_stop
        if hi > last:
            return
        start, diag = stop, diag_stop
        rows = np.flatnonzero(start < n)
        lo = int(twice[diag])
        if len(rows):
            lo = min(lo, int((vals[rows] + vals[start[rows]]).min()))
        span = min(cap, max(1, span * BLOCK // size))


def _ragged_cols(start: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Columns start[i] .. start[i] + counts[i] - 1 of every row, as one
    ragged arange."""
    cols = np.repeat(start - (np.cumsum(counts) - counts), counts)
    cols += np.arange(len(cols))
    return cols


def _window_keys(vals: np.ndarray, wts: np.ndarray, bits: int, window) -> np.ndarray:
    """A window's pairs as unsorted int64 keys (sum - lo) << bits | weight,
    the upper triangle's pairs first, then the diagonal's; as uint32 keys
    when (hi - lo) << bits <= KEY32_SPAN, which bounds every key below 2^32.

    A key is the row's part (vals[i] - lo) << bits plus the column's part
    vals[k] << bits plus the weight, formed in unsigned arithmetic mod 2^32
    or 2^64: the true key is below the modulus, so it is what the wrapped
    sum leaves."""
    lo, hi, start, counts, diag, diag_stop = window
    dtype = np.uint32 if (hi - lo) << bits <= KEY32_SPAN else np.uint64
    v, w, base = vals.astype(dtype), wts.astype(dtype), np.int64(lo).astype(dtype)
    row = (v - base) << bits
    cols = _ragged_cols(start, counts)
    pairs = len(cols)
    keys = np.empty(pairs + diag_stop - diag, dtype=dtype)
    off, on = keys[:pairs], keys[pairs:]
    np.add(np.repeat(row, counts), (v << bits)[cols], out=off)
    off |= np.repeat(2 * w, counts) * w[cols]
    np.add(row[diag:diag_stop], v[diag:diag_stop] << bits, out=on)
    on |= w[diag:diag_stop] * w[diag:diag_stop]
    return keys if dtype == np.uint32 else keys.view(np.int64)


def _key_groups(keys: np.ndarray, bits: int, lo: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorts a window's keys in place and returns its distinct sums and
    their summed weights, both int64."""
    keys.sort()
    sums = keys >> bits
    new_run = np.empty(len(keys), dtype=bool)
    new_run[0] = True
    np.not_equal(sums[1:], sums[:-1], out=new_run[1:])
    first = np.flatnonzero(new_run)
    keys &= (1 << bits) - 1
    return sums[first].astype(np.int64) + lo, np.add.reduceat(keys, first, dtype=np.int64)


def _pair_groups(vals: np.ndarray, wts: np.ndarray):
    """Distinct sums vals[i] + vals[k] over ordered pairs (i, k), ascending,
    each with its summed weight wts[i] * wts[k], yielded as (sums, weights)
    int64 arrays one window of _pair_windows at a time.

    vals must be nonempty, distinct and ascending, and wts >= 1, both int64;
    every pair sum must fit int64, and every group's weight sum is at most
    sum(wts)^2, which must stay below 2^63.  Only the upper triangle i <= k
    is enumerated, a pair with i < k counting twice, so every weight is at
    most 2 * max(wts)^2, which has b bits; b > 62 raises BudgetError.  A
    window's keys (_window_keys) are sorted, and add.reduceat totals each
    run of equal sums; nothing is carried between windows, and only one
    window of keys is held.
    """
    bits = _weight_bits(wts)
    for window in _pair_windows(vals, bits):
        yield _key_groups(_window_keys(vals, wts, bits, window), bits, window[0])


def _pair_sums(vals: np.ndarray, wts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All the groups of _pair_groups as one (sums, weights) pair of arrays."""
    sums, weights = zip(*_pair_groups(vals, wts))
    return np.concatenate(sums), np.concatenate(weights)


def _squared_pair_total(vals: np.ndarray, wts: np.ndarray, hashed: bool) -> int:
    """sum W^2 over the groups of _pair_groups(vals, wts), W a group's
    weight, one window at a time, storing no group.

    Unless hashed (mean_value hashes at j = 2, where equal sums are rare,
    and not at j = 3, where a sum of four values comes from three
    pairings), and for any window whose keys fit uint32, a window is
    grouped exactly, as in _pair_groups.  Any other window sorts a 32-bit
    word of each pair sum instead, Knuth's multiplicative hash (TAOCP
    vol. 3, 6.4): the top 32 bits of sum * HASH_MULTIPLIER mod 2^64, which
    for a pair is the sum of the two values' products.  With w_k the
    weights of the window's keys,

        sum_g W_g^2 = sum_k w_k^2 + sum_g (W_g^2 - sum_{k in g} w_k^2).

    The first term is closed form, 4 sum_i w_i^2 (C[stop_i] - C[start_i])
    over the rows plus sum w_d^4 over the diagonal, C the prefix sums of
    wts^2.  A group of one key adds nothing to the second, and equal sums
    give equal words, so every group of two or more keys lies among the
    keys whose word repeats; only those are packed as exact int64 keys and
    grouped.  The hash decides how many keys are resolved exactly, never
    the total.  C fits int64, as sum(wts^2) <= sum(wts)^2 < 2^63, and the
    closed form is at most 5 sum(wts^2)^2; past 2^63 every window is
    grouped by its keys.
    """
    bits = _weight_bits(wts)
    sq = wts * wts
    prefix = np.concatenate(([0], np.cumsum(sq)))
    hashed = hashed and 5 * int(prefix[-1]) ** 2 < 1 << 63
    products = vals.astype(np.uint64) * HASH_MULTIPLIER
    total = 0
    for window in _pair_windows(vals, bits):
        lo, hi, start, counts, diag, diag_stop = window
        if not hashed or (hi - lo) << bits <= KEY32_SPAN:
            total += _sum_of_squares_int64(_key_groups(_window_keys(vals, wts, bits, window), bits, lo)[1])
            continue
        cols = _ragged_cols(start, counts)
        pairs = len(cols)
        words = np.empty(pairs + diag_stop - diag, dtype=np.uint32)
        sums = np.repeat(products, counts)
        sums += products[cols]
        np.right_shift(sums, 32, out=words[:pairs], casting="unsafe")
        np.right_shift(2 * products[diag:diag_stop], 32, out=words[pairs:], casting="unsafe")
        ordered = np.sort(words)
        repeated = ordered[1:][ordered[1:] == ordered[:-1]]
        stop = start + counts
        total += 4 * int(np.dot(sq, prefix[stop] - prefix[start]))
        total += int(np.dot(sq[diag:diag_stop], sq[diag:diag_stop]))
        if len(repeated) == 0:
            continue
        at = np.flatnonzero(np.isin(words, repeated))
        off, on = at[at < pairs], at[at >= pairs] - pairs + diag
        rows = np.searchsorted(np.cumsum(counts) - counts, off, side="right") - 1
        cols = cols[off]
        keys = np.concatenate((vals[rows] + vals[cols], 2 * vals[on])) - lo
        keys <<= bits
        weights = np.concatenate((2 * wts[rows] * wts[cols], sq[on]))
        keys |= weights
        groups = _key_groups(keys, bits, lo)[1]
        total += _sum_of_squares_int64(groups) - _sum_of_squares_int64(weights)
    return total


_DENSE_REFUSAL = "sixteenth moment is limited to N <= 24 and 8*(max f - min f) <= 12000000"


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
        # pass is squared window by window
        vals, cnts = np.unique(fv, return_counts=True)
        if j == 1:
            return _sum_of_squares_int64(cnts)
        for _ in range(j - 2):
            vals, cnts = _pair_sums(vals, cnts)
        return _squared_pair_total(vals, cnts, j == 2)
    # j == 4: the quadruple-sum counts c4 stay sparse (_pair_sums twice);
    # one rising sweep over the octuple sums forms, per BLOCK entries, c5 by
    # scattering c4 at every shift, c6 and c7 from the rolling windows of
    # the level below, and c8, squared as it is formed.  Every c8 entry is
    # at most N^8 <= 24^8 < 2^37, and a degree-4 f takes a value at most 4
    # times, so c7 is at most 4 * 24^6 < 2^32 and fits u4, as does every
    # partial sum before it.  c8(n) = sum_m c4(m) c4(n - m) is at most
    # max(c4) * sum(c4) = max(c4) * N^4 (1.6e7 at {3,4,3}, N = 24), so the
    # octuple block and its partial sums fit u4 below OCTUPLE_U4_LIMIT, and
    # int64 from there.  Level e is zero past x^(e * top), so its blocks
    # past there are neither made nor read
    top = int(fv.max())
    if 8 * top > 12_000_000:
        raise BudgetError(_DENSE_REFUSAL)
    sums, cnts = np.unique(fv, return_counts=True)
    for _ in range(2):
        sums, cnts = _pair_sums(sums, cnts)
    wide = int(cnts.max()) * N**4 >= OCTUPLE_U4_LIMIT
    octuple = np.empty(BLOCK, dtype=np.int64 if wide else np.uint32)
    cnts = cnts.astype(np.uint32)
    shifts = fv.tolist()
    # a block reads the level below back to top entries under its own lower
    # edge; at this length, a multiple of BLOCK, a block write never wraps
    size = -(-(top + BLOCK) // BLOCK) * BLOCK
    rings = np.zeros((3, size), dtype=np.uint32)  # levels 5, 6 and 7
    total = 0
    for lo in range(0, 8 * top + 1, BLOCK):
        hi = min(lo + BLOCK, 8 * top + 1)
        at = lo % size
        if lo <= 5 * top:
            # the quadruple sums are distinct, so a fancy-index add needs no
            # add.at within one shift
            block = rings[0, at : at + hi - lo]
            block[:] = 0
            starts = np.searchsorted(sums, lo - fv).tolist()
            stops = np.searchsorted(sums, hi - fv).tolist()
            for v, a, b in zip(shifts, starts, stops):
                if a < b:
                    block[sums[a:b] + (v - lo)] += cnts[a:b]
        for e in (6, 7):
            if lo <= e * top:
                block = rings[e - 5, at : at + hi - lo]
                block[:] = 0
                _shift_add(block, lo, rings[e - 6], shifts, (e - 1) * top + 1)
        block = octuple[: hi - lo]
        block[:] = 0
        _shift_add(block, lo, rings[2], shifts, 7 * top + 1)
        total += _sum_of_squares_int64(block)
    return total
