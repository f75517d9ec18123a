"""Exact integer convolution kernels.

Cyclic products (congruence counts) pack a nonnegative sequence into one
Python int with a fixed block width, so that big-int multiplication performs
the full convolution in C.  Each product is one cyclic_multiply, packed at a
width sized from an upper bound on every coefficient it can hold, which
guarantees no carry ever crosses a block boundary.

Truncated linear powers of a sparse 0/1 polynomial (representation counts)
are shift-add passes on numpy arrays: each pass adds in place into an
unsigned array whose dtype holds that pass's coefficient bound, so it never
wraps, and reads only the live prefix of the previous power, the entries
up to its degree; coefficients past 2**64 are held as 32-bit digits with
one carry sweep per pass.  A single entry is read as an int64 dot of byte
planes.  All results are exact.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Iterable, Sequence

import numpy as np

# rows of the two byte-plane matrices multiplied per int64 chunk
DOT_ROWS = 1 << 16
# a byte-plane dot over more rows than this could exceed an int64
MAX_DOT_ROWS = ((1 << 63) - 1) // 255**2
# a linear power past 2**64 holds each coefficient as digits of this many bits
DIGIT_BITS = 32
DIGIT_MASK = (1 << DIGIT_BITS) - 1


def _width_for(bound: int) -> int:
    """Block width in bytes so that any value <= bound fits strictly."""
    if bound < 0:
        raise ValueError("coefficient bound must be >= 0")
    return max(bound, 1).bit_length() // 8 + 1


def pack(seq: Sequence[int], width: int) -> int:
    return int.from_bytes(b"".join(int(v).to_bytes(width, "little") for v in seq), "little")


def unpack(packed: int, width: int, count: int) -> list[int]:
    data = packed.to_bytes(count * width, "little")
    return [
        int.from_bytes(data[i : i + width], "little")
        for i in range(0, count * width, width)
    ]


def _widen(packed: int, width: int, new_width: int, count: int) -> int:
    """Re-pack count blocks of width bytes at new_width >= width bytes."""
    if new_width == width:
        return packed
    data = packed.to_bytes(count * width, "little")
    buf = bytearray(count * new_width)
    for j in range(width):
        buf[j::new_width] = data[j::width]
    return int.from_bytes(buf, "little")


# a nonnegative length-q vector packed into one int at width bytes per
# block, with an upper bound on its entries and its exact sum
PackedVector = namedtuple("PackedVector", "packed width bound total")

# the unit of cyclic convolution, 1 at index 0, at any length
UNIT = PackedVector(1, 1, 1, 1)


def packed_vector(vec: Sequence[int]) -> PackedVector:
    """vec packed at the width of its largest entry."""
    top = max(vec)
    width = _width_for(top)
    return PackedVector(pack(vec, width), width, top, sum(vec))


def cyclic_multiply(x: PackedVector, y: PackedVector, q: int) -> PackedVector:
    """The cyclic convolution over Z_q of two packed length-q vectors.

    Every entry of x*y is at most max(x) * sum(y), because
    (x*y)[r] = sum_i x[r - i] * y[i] and each x[r - i] <= max(x); by
    symmetry it is also at most max(y) * sum(x), and sum(x*y) =
    sum(x) * sum(y).  The smaller bound sizes the width; both operands are
    widened to it (never narrowed) and multiplied as big ints.  The linear
    product has 2q - 1 blocks, each a sum of nonnegative terms of the
    matching cyclic coefficient, so each is within the bound: the fold back
    to length q is one mask, one shift and one add, and no carry crosses a
    block.  A product with UNIT returns the other operand unchanged.
    """
    if x is UNIT or y is UNIT:
        return y if x is UNIT else x
    bound = min(x.bound * y.total, y.bound * x.total)
    w = max(_width_for(bound), x.width, y.width)
    a = _widen(x.packed, x.width, w, q)
    b = a if y is x else _widen(y.packed, y.width, w, q)
    prod = a * b
    shift = 8 * w * q
    return PackedVector((prod & ((1 << shift) - 1)) + (prod >> shift), w, bound, x.total * y.total)


def cyclic_self_power(
    vec: Sequence[int], s: int, q: int
) -> tuple[list[int], list[int]]:
    """The halves A = vec^(s//2), B = vec^(s - s//2) of the s-fold cyclic
    self-convolution of vec over Z_q, exact.

    Entry r of the s-th power is sum_i A[i] * B[(r - i) % q], so a caller
    that needs few entries never forms the widest multiply.

    Entries must be nonnegative.  Left-to-right binary powering, each step
    one cyclic_multiply; by its bound, the e-th power (e >= 1) has entries at
    most max(vec) * sum(vec)**(e-1), which sizes the block width of the step
    that forms it.
    """
    if q < 1:
        raise ValueError("modulus must be >= 1")
    if len(vec) != q:
        raise ValueError("vector length must equal the modulus")
    if s < 0:
        raise ValueError("power must be >= 0")
    if any(v < 0 for v in vec):
        raise ValueError("entries must be nonnegative")
    base = packed_vector(vec)

    def power(e):
        if e == 0:
            return UNIT
        result = base
        for bit in bin(e)[3:]:
            result = cyclic_multiply(result, result, q)
            if bit == "1":
                result = cyclic_multiply(result, base, q)
        return result

    half = power(s // 2)
    other = cyclic_multiply(half, base, q) if s % 2 else half
    return unpack(half.packed, half.width, q), unpack(other.packed, other.width, q)


def _exponents(values: Iterable[int], s: int, m_max: int) -> list[int]:
    """The distinct exponents <= m_max, ascending, after checking the arguments."""
    vals = sorted(set(int(v) for v in values))
    if any(v < 0 for v in vals):
        raise ValueError("exponents must be >= 0")
    if s < 0:
        raise ValueError("power must be >= 0")
    if m_max < 0:
        raise ValueError("truncation bound must be >= 0")
    return [v for v in vals if v <= m_max]


def _power_array(bound: int, count: int) -> np.ndarray:
    """Zeroed storage for count coefficients, each at most bound.

    Below 2**64 it is one row of the narrowest little-endian unsigned dtype
    that holds bound.  From 2**64 on, each coefficient is held as rows of
    32-bit digits, low digit first, in uint64, so that a digit can take
    fewer than 2**32 further digits before a carry sweep.
    """
    for dtype in ("<u1", "<u2", "<u4", "<u8"):
        if bound <= np.iinfo(dtype).max:
            return np.zeros((1, count), dtype)
    return np.zeros((-(-bound.bit_length() // DIGIT_BITS), count), "<u8")


def _truncated_powers(
    vals: list[int], keep: set[int], count: int
) -> dict[int, tuple[np.ndarray, int]]:
    """(array, bound) of (sum_v x^v)^e truncated to its first count
    coefficients, for every e in keep; the array is laid out by _power_array.
    Every value must be below count, and a value may repeat.

    Step e is one shift-add pass over the values on step e - 1.  Its
    coefficient at x^k counts ordered e-tuples of values summing to k; the
    last term is fixed by the others, up to the multiplicity of its value
    (1 when the values are distinct), so the count is at most
    bound = len(vals)**(e - 1) * multiplicity.  Every partial sum of the
    pass is at most the final coefficient, so the array _power_array makes
    for that bound never wraps: the early steps add narrow rows.  Step e - 1
    is zero past x^((e - 1) * max(vals)), so the pass adds only that live
    prefix of it.  Past 2**64, each of the len(vals) adds puts a digit
    below 2**32 on every digit, which fits in uint64 while len(vals) < 2**32
    (the values are held in memory), until the one carry sweep that ends
    the pass.  Memory stays at O(count * width).
    """
    multiplicity = max(Counter(vals).values(), default=1)
    top = max(vals, default=0)
    cur = np.zeros((1, count), "<u1")
    cur[0, 0] = 1  # the zeroth power
    kept = {0: (cur, 1)} if 0 in keep else {}
    for e in range(1, max(keep) + 1):
        bound = len(vals) ** (e - 1) * multiplicity
        out = _power_array(bound, count)
        # a one-row uint64 coefficient can pass 2**32: split it into digits
        if len(out) > 1 and cur.dtype.itemsize == 8 and len(cur) == 1:
            cur = np.concatenate((cur & DIGIT_MASK, cur >> DIGIT_BITS))
        live = (e - 1) * top + 1
        for v in vals:
            n = min(live, count - v)
            out[: len(cur), v : v + n] += cur[:, :n]
        for r in range(len(out) - 1):  # the carry sweep, low digit first
            out[r + 1] += out[r] >> DIGIT_BITS
            out[r] &= DIGIT_MASK
        cur = out
        if e in keep:
            kept[e] = cur, bound
    return kept


def _byte_rows(power: np.ndarray, bound: int) -> np.ndarray:
    """The (count, width) little-endian byte matrix of a _power_array
    layout, trimmed to the _width_for(bound) low byte planes."""
    # after the carry sweep every digit is below 2**32
    dtype = "<u4" if len(power) > 1 else power.dtype
    return np.ascontiguousarray(power.T, dtype).view(np.uint8)[:, : _width_for(bound)]


def sparse_power_profile(values: Iterable[int], s: int, m_max: int) -> list[int]:
    """Coefficients of (sum_v x^v)^s up to x^m_max, exact.

    values are distinct nonnegative integers (x-exponents).  s shift-add
    passes, each truncated above m_max and held at the width of its own
    bound (see _truncated_powers).
    """
    vals = _exponents(values, s, m_max)
    power, bound = _truncated_powers(vals, {s}, m_max + 1)[s]
    if len(power) == 1:
        return power[0].tolist()
    rows = _byte_rows(power, bound)
    data, width = rows.tobytes(), rows.shape[1]
    return [int.from_bytes(data[i : i + width], "little") for i in range(0, len(data), width)]


def _reversed_dot(rows_a: np.ndarray, rows_b: np.ndarray) -> int:
    """sum_k a[k] * b[count - 1 - k] for two (count, width) byte matrices.

    Byte plane i of a and plane j of b contribute 256**(i + j) times their
    int64 dot, taken DOT_ROWS rows at a time so that no int64 copy of a
    whole matrix is made.
    """
    count, wa = rows_a.shape
    wb = rows_b.shape[1]
    rows_b = rows_b[::-1]  # row k holds b[count - 1 - k]
    planes = np.zeros((wa, wb), np.int64)
    for lo in range(0, count, DOT_ROWS):
        # one contiguous int64 row per byte plane, so each dot runs unit-stride
        chunk_a = rows_a[lo : lo + DOT_ROWS].T.astype(np.int64, order="C")
        chunk_b = rows_b[lo : lo + DOT_ROWS].T.astype(np.int64, order="C")
        planes += np.inner(chunk_a, chunk_b)
    return sum(
        int(planes[i, j]) << (8 * (i + j)) for i in range(wa) for j in range(wb)
    )


def sparse_power_entry(values: Iterable[int], s: int, m: int) -> int:
    """The coefficient of x^m in (sum_v x^v)^s, exact.

    The s-th power is never formed: one shift-add run of s - s//2 passes
    (see _truncated_powers) keeps the halves A = step s//2 and
    B = step s - s//2, both truncated above x^m, and the entry is
    sum_k A[k] * B[m - k], read from their byte planes by _reversed_dot.

    Guard: every byte-plane partial sum is at most (m + 1) * 255**2, which
    stays below 2**63 while m + 1 <= MAX_DOT_ROWS; a larger m raises
    OverflowError.
    """
    vals = _exponents(values, s, m)
    if m + 1 > MAX_DOT_ROWS:
        raise OverflowError(f"target {m} is past the int64 guard of the entry dot")
    half = s // 2
    steps = _truncated_powers(vals, {half, s - half}, m + 1)
    return _reversed_dot(_byte_rows(*steps[half]), _byte_rows(*steps[s - half]))
