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
their midpoint, so the h-fold sums use both signs of int64.
j = 2 groups the values into distinct ones with counts and walks their pair
sums in increasing order one window at a time (_pair_windows); no run of
equal sums crosses a window edge, so nothing is carried and only one
window is held.  _squared_pair_total sorts a 32-bit multiplicative hash of
each of a window's sums: the sum of the squared pair weights is closed
form, and since equal sums hash alike, only the pairs whose word repeats
are grouped by their exact sums, so the total stays exact.
j = 3 makes one pass over the 4-multisets a <= b <= c <= d of indices
(_eighth_moment), C(N+3, 4) of them against N^4 ordered quadruples: each
stands for its 24, 12, 6, 4 or 1 orderings, the sum of their squares is
closed form, and the same identity leaves only the multisets whose 31-bit
word repeats to be grouped by their exact sums.  A word is a residue mod
WORD_PRIME, so a multiset's is the sum of those of its two index pairs;
the words are taken in ranges of about 2 * BLOCK multisets, and each range
is one slice of pair words per index pair, so every multiset is
enumerated once.
j = 4 shifts the values by their minimum and keeps the quadruple-sum
counts sparse: one np.unique of the N^4 ordered quadruple sums, at most
331,776 under the N <= 24 cap.  One rising sweep over the octuple sums then
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
from math import comb, fsum, gcd

import numpy as np

from .errors import BudgetError
from .exactconv import _shift_add
from .figurate import FigurateSpec, residue_counts, values

TWO_PI = 2.0 * cmath.pi
# a moment's passes work on about this many entries at a time: windows of
# at most about 2 * BLOCK pairs (j = 2), parts of about 2 * BLOCK multisets
# (j = 3), and blocks of the j = 4 sweep
BLOCK = 1 << 16
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
    at BLOCK pairs from the last window's density and shrinks until it holds
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


def _squared_pair_total(vals: np.ndarray, wts: np.ndarray) -> int:
    """sum W_s^2 over the pair sums s = vals[i] + vals[k], W_s the total of
    wts[i] * wts[k] over the ordered pairs (i, k) with that sum, one window
    of _pair_windows at a time, storing no group.

    vals must be nonempty, distinct and ascending, and wts >= 1, both int64,
    with every pair sum inside int64 and 5 * sum(wts^2)^2 < 2^63.
    mean_value meets this: its weights are the multiplicities of the values
    of a quartic, which takes a value at most 4 times, so sum(wts^2) <=
    4 * sum(wts) = 4N <= 16000 under the j = 2 cap N <= 4000.

    A window sorts a 32-bit word of each pair sum, Knuth's multiplicative
    hash (TAOCP vol. 3, 6.4): the top 32 bits of sum * HASH_MULTIPLIER mod
    2^64, which for a pair is the sum of the two values' products.  Only
    the upper triangle i <= k is enumerated, a pair with i < k weighing
    2 * wts[i] * wts[k].  With w_k the weights of the window's pairs,

        sum_g W_g^2 = sum_k w_k^2 + sum_g (W_g^2 - sum_{k in g} w_k^2).

    The first term is closed form, 4 sum_i w_i^2 (C[stop_i] - C[start_i])
    over the rows plus sum w_d^4 over the diagonal, C the prefix sums of
    wts^2; it is at most 5 sum(wts^2)^2, so the precondition keeps it in
    int64.  A group of one pair adds nothing to the second, and equal sums
    give equal words, so every group of two or more pairs lies among the
    pairs whose word repeats; only those are packed as exact int64 keys
    (sum - lo) << b | weight, b the bits of the widest weight 2 max(wts)^2,
    sorted, and totalled per run of equal sums.  The hash decides how many
    pairs are resolved exactly, never the total.
    """
    bits = (2 * int(wts.max()) ** 2).bit_length()
    sq = wts * wts
    prefix = np.concatenate(([0], np.cumsum(sq)))
    products = vals.astype(np.uint64) * HASH_MULTIPLIER
    total = 0
    for lo, hi, start, counts, diag, diag_stop in _pair_windows(vals, bits):
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
        keys.sort()
        offsets = keys >> bits
        first = np.flatnonzero(np.concatenate(([True], offsets[1:] != offsets[:-1])))
        keys &= (1 << bits) - 1
        total += _sum_of_squares_int64(np.add.reduceat(keys, first)) - _sum_of_squares_int64(weights)
    return total


# the orderings 4!/prod(mult!) of a 4-multiset a <= b <= c <= d of indices,
# indexed by (a == b) + 2 * (b == c) + 4 * (c == d)
_ORDERINGS = np.array([24, 12, 12, 4, 12, 6, 4, 1], dtype=np.uint8)
# the eighth moment's words are residues mod this prime, 2^31 - 1, so the
# sum of two of them fits uint32
WORD_PRIME = (1 << 31) - 1


def _multiset_sums(vals: np.ndarray, first: np.ndarray, second: np.ndarray, row: np.ndarray, pair: np.ndarray):
    """The sums and orderings (_ORDERINGS) of the 4-multisets a <= b <= c
    <= d of indices made of a row (a, b) = (first[row], second[row]) and
    a pair (c, d) = (first[pair], second[pair])."""
    a, b, c, d = first[row], second[row], first[pair], second[pair]
    return vals[a] + vals[b] + vals[c] + vals[d], _ORDERINGS[(a == b) + 2 * (b == c) + 4 * (c == d)]


def _group_excess(sums: np.ndarray, weights: np.ndarray, words: np.ndarray) -> int:
    """sum_g (W_g^2 - sum_{k in g} w_k^2) over the groups g of equal sums,
    w_k the weights and W_g their total in the group.  The sums come
    ordered by their words, which equal sums share, so every group is one
    run unless two sums share a word; only then are the sums sorted."""
    if len(sums) == 0:
        return 0
    new_run = sums[1:] != sums[:-1]
    if np.any(new_run & (words[1:] == words[:-1])):
        order = np.argsort(sums)
        sums, weights = sums[order], weights[order]
        new_run = sums[1:] != sums[:-1]
    totals = np.add.reduceat(weights, np.flatnonzero(np.concatenate(([True], new_run))), dtype=np.int64)
    return _sum_of_squares_int64(totals) - _sum_of_squares_int64(weights)


def _eighth_moment(vals: np.ndarray) -> int:
    """sum c4(s)^2 over the quadruple sums s of vals, c4(s) the ordered
    quadruples (u_1..u_4) of indices with vals[u_1] + .. + vals[u_4] = s.

    Each 4-multiset M of indices gives one sum, counted once per ordering
    (w_M, by _ORDERINGS), so with W_g the total weight of a group of
    multisets of equal sum,

        sum_s c4(s)^2 = sum_M w_M^2 + sum_g (W_g^2 - sum_{M in g} w_M^2).

    The first term is closed form over the equality patterns:
    576 C(n,4) + 144 n C(n-1,2) + 36 C(n,2) + 16 n(n-1) + n.  A group of
    one multiset adds nothing to the second, and equal sums give equal
    words, so only the multisets whose word repeats are grouped by their
    exact int64 sums.  A multiset's word is its sum's offset from
    4 * min(vals) times HASH_MULTIPLIER, mod WORD_PRIME: a bijection of
    the sums while 4 * (max - min) < WORD_PRIME, a hash past that.

    A multiset is a row, an index pair (a, b) with a <= b, and a pair
    (c, d) with b <= c <= d; its word is the sum of theirs mod WORD_PRIME.
    The pairs with c >= b form segment b, sorted by word.  The words are
    split into ranges, parts of about 2 * BLOCK multisets each, so the
    pairs that a row meets in a part have words in a cyclic range, one
    slice of its segment held twice over; a searchsorted per part edge
    finds every row's slice.  A part packs each multiset's word above its
    position in the part as a uint64 key, sorts its keys and groups the
    multisets of each repeated word.  Equal sums share a word, so no group
    crosses a part, and every multiset is enumerated once.
    """
    n = len(vals)
    p = WORD_PRIME
    first, second = np.triu_indices(n)  # the index pairs, rows and pairs alike
    # the offsets from the least value are below 2^62, their residues and
    # the multiplier below 2^31, so no product leaves int64
    res = (vals - vals.min()) % p * (int(HASH_MULTIPLIER) % p) % p
    word = (res[first] + res[second]) % p
    # segment b: the pairs with c >= b, ascending by word; edges holds its
    # words shifted by b * p, all segments in one ascending array, and
    # twice its words twice over from 2 * begin[b], so a slice's position
    # in edges plus begin[b] is its position in twice
    order = np.argsort(word)
    segment, at = np.nonzero(first[order] >= np.arange(n)[:, None])
    pairs = order[at].astype(np.int32)
    del at
    size = np.bincount(segment, minlength=n)
    begin = np.cumsum(size) - size
    edges = word[pairs] + segment * p
    del segment
    word32 = word.astype(np.uint32)
    twice = np.concatenate([s for s in np.split(word32[pairs], begin[1:]) for _ in range(2)])
    # a row (a, b) reads segment b
    base, shift, size = second * p, begin[second], size[second]
    total = 576 * comb(n, 4) + 144 * n * comb(n - 1, 2) + 36 * comb(n, 2) + 16 * n * (n - 1) + n
    parts = -(-comb(n + 3, 4) // (2 * BLOCK))
    # a row's part edge e is where its pair words reach (e - w) mod p,
    # counted from its first pair word -w mod p, which edge 0 finds
    low = -word % p
    lo = np.searchsorted(edges, base + low) + shift
    for edge in range(1, parts + 1):
        high = low + edge * p // parts
        wraps = high >= p
        hi = np.searchsorted(edges, base + high - p * wraps) + shift + size * wraps
        counts = hi - lo
        keys = np.empty(int(counts.sum()), dtype="<u8")
        halves = keys.view("<u4")
        words = halves[1::2]
        sums = twice[_ragged_cols(lo, counts)]
        sums += np.repeat(word32, counts)
        np.minimum(sums, sums - np.uint32(p), out=words)
        del sums
        halves[::2] = np.arange(len(keys), dtype=np.uint32)
        keys.sort()
        repeated = np.zeros(len(keys), dtype=bool)
        np.equal(words[1:], words[:-1], out=repeated[1:])
        repeated[:-1] |= repeated[1:]
        # a repeated key's position in the part gives its row, and its
        # offset in the row its pair
        at = halves[::2][repeated].astype(np.int64)
        row = np.repeat(np.arange(len(counts), dtype=np.int32), counts)[at]
        at += lo[row] - (np.cumsum(counts) - counts)[row] - 2 * shift[row]
        pair = pairs[shift[row] + at % size[row]]
        total += _group_excess(*_multiset_sums(vals, first, second, row, pair), words[repeated])
        lo = hi
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
    if j == 3:
        return _eighth_moment(fv)
    if j < 3:
        # the distinct values with their counts; j = 2 squares the counts of
        # their pair sums window by window
        vals, cnts = np.unique(fv, return_counts=True)
        if j == 1:
            return _sum_of_squares_int64(cnts)
        return _squared_pair_total(vals, cnts)
    # j == 4: the quadruple-sum counts c4 stay sparse, one np.unique of the
    # N^4 ordered quadruple sums; one rising sweep over the octuple sums
    # forms, per BLOCK entries, c5 by scattering c4 at every shift, c6 and
    # c7 from the rolling windows of the level below, and c8, squared as it
    # is formed.  Every c8 entry is at most N^8 <= 24^8 < 2^37, and a
    # degree-4 f takes a value at most 4 times, so c7 is at most
    # 4 * 24^6 < 2^32 and fits u4, as does every partial sum before it.
    # c8(n) = sum_m c4(m) c4(n - m) is at most max(c4) * sum(c4) =
    # max(c4) * N^4 (1.6e7 at {3,4,3}, N = 24), so the octuple block and its
    # partial sums fit u4 below OCTUPLE_U4_LIMIT, and int64 from there.
    # Level e is zero past x^(e * top), so its blocks past there are neither
    # made nor read
    top = int(fv.max())
    if 8 * top > 12_000_000:
        raise BudgetError(_DENSE_REFUSAL)
    pairs = np.add.outer(fv, fv)
    sums, cnts = np.unique(np.add.outer(pairs, pairs), return_counts=True)
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
