"""Exact integer sequence convolution via block-packed big integers.

Nonnegative integer sequences are packed into one Python int with a fixed
block width, so that big-int multiplication performs the full convolution in
C.  Each product is packed at a width sized from an upper bound on every
coefficient it can hold, which guarantees no carry ever crosses a block
boundary.  All results are exact.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence


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


def cyclic_self_power(
    vec: Sequence[int], s: int, q: int
) -> tuple[list[int], list[int]]:
    """The halves A = vec^(s//2), B = vec^(s - s//2) of the s-fold cyclic
    self-convolution of vec over Z_q, exact.

    Entry r of the s-th power is sum_i A[i] * B[(r - i) % q], so a caller
    that needs few entries never forms the widest multiply.

    Entries must be nonnegative.  Left-to-right binary powering; the e-th
    power's coefficients are bounded by sum(vec)**e, which sizes the block
    width of the step that forms it.  The linear product of two length-q
    packings has 2q - 1 blocks, each at most the matching cyclic coefficient,
    so the fold back to length q is one mask, one shift and one add on the
    packed int, and no carry crosses a block.
    """
    if q < 1:
        raise ValueError("modulus must be >= 1")
    if len(vec) != q:
        raise ValueError("vector length must equal the modulus")
    if s < 0:
        raise ValueError("power must be >= 0")
    if any(v < 0 for v in vec):
        raise ValueError("entries must be nonnegative")
    total = sum(vec)
    # a power is (packed int, block width, exponent)
    w = _width_for(total)
    base = (pack(vec, w), w, 1)

    def times(x, y):
        e = x[2] + y[2]
        w = _width_for(total**e)
        a = _widen(x[0], x[1], w, q)
        b = a if y is x else _widen(y[0], y[1], w, q)
        prod = a * b
        shift = 8 * w * q
        return (prod & ((1 << shift) - 1)) + (prod >> shift), w, e

    def power(e):
        if e == 0:
            return 1, 1, 0  # the unit vector at 0
        result = base
        for bit in bin(e)[3:]:
            result = times(result, result)
            if bit == "1":
                result = times(result, base)
        return result

    half = power(s // 2)
    other = times(half, base) if s % 2 else half
    return unpack(half[0], half[1], q), unpack(other[0], other[1], q)


def sparse_power_profile(values: Iterable[int], s: int, m_max: int) -> list[int]:
    """Coefficients of (sum_v x^v)^s up to x^m_max, exact.

    values are distinct nonnegative integers (x-exponents).  Each powering
    step shifts and adds the running polynomial once per value, then truncates
    above m_max, so memory stays at O(m_max * width).  Coefficients are
    counts of ordered tuples and are bounded by len(values)**s, which sizes
    the block width.
    """
    vals = sorted(set(int(v) for v in values))
    if any(v < 0 for v in vals):
        raise ValueError("exponents must be >= 0")
    if s < 0:
        raise ValueError("power must be >= 0")
    if m_max < 0:
        raise ValueError("truncation bound must be >= 0")
    vals = [v for v in vals if v <= m_max]
    out = [0] * (m_max + 1)
    if s == 0:
        out[0] = 1
        return out
    if not vals:
        return out
    w = _width_for(len(vals) ** s)
    bits = 8 * w
    mask = (1 << (bits * (m_max + 1))) - 1
    cur = 1
    for _ in range(s):
        acc = 0
        for v in vals:
            acc += cur << (bits * v)
        cur = acc & mask
    return unpack(cur, w, m_max + 1)
