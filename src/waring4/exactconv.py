"""Exact integer convolution kernels.

Cyclic products (congruence counts) pack a nonnegative sequence into one
Python int with a fixed block width, so that big-int multiplication performs
the full convolution in C.  Each product is one cyclic_multiply, packed at a
width sized from an upper bound on every coefficient it can hold, which
guarantees no carry ever crosses a block boundary.

The s-fold cyclic self-power of a residue histogram (cyclic_self_power)
takes an exact number-theoretic transform when q is 3-smooth, q = 2^a 3^b,
which is every level of the p = 2 and 3 density ladders, and every entry
fits an int64; any other vector takes the packed powering.  The transform
works in the fields F_P for primes P = 1 mod q, which hold roots of unity
of order q (Pollard, "The fast Fourier transform in a finite field",
Math. Comp. 25, 1971): one forward transform, pointwise s-th powers, and
the inverse, which is the same transform read at -k and divided by q; the
entries are rebuilt from their residues by Chinese remaindering in
Garner's mixed-radix form (Garner, "The residue number system", IRE Trans.
EC-8, 1959).  This is exact because
  - every entry of the s-th power is at most max(vec) * sum(vec)**(s-1)
    (cyclic_multiply's bound), and the primes are the least number whose
    product exceeds that bound, so an entry equals its residue mod the
    product;
  - every prime is below PRIME_CAP = isqrt(2**63 - 1), so a product of two
    residues, and a butterfly's signed sum of up to four reduced terms, fit
    an int64.
The primes (is_prime, the package's one primality test), their roots and
the twiddle table are found anew on each call, as a density ladder
transforms each q once.

Truncated linear powers of a sparse 0/1 polynomial (representation counts)
are shift-add passes on numpy arrays: each pass adds in place into an
unsigned array whose dtype holds len(values) times the previous pass's
maximum, so it never wraps, and reads only the live prefix of the previous
power; coefficients past 2**64 are 32-bit digits with one carry sweep per
pass.  A single entry dots two half powers DOT_ROWS entries at a time, one
int64 dot per pair of 23-bit digit planes; for odd s each DOT_ROWS block of
the upper half is made as it is dotted.  _shift_add is the package's one
shift-add (the j = 4 moment reads rolling windows through it, and adds its
octuple block in u4 while max(c4) * N^4 < 2**32 bounds it); the moments
keep their own sum of squares, an int64 dot or a 19-bit split of entries
below 2**37, eight times faster on their blocks than the planes.  All
results are exact.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from collections.abc import Iterable, Sequence

import numpy as np

from .errors import BudgetError

# entries of the two half powers dotted per chunk of a single entry
DOT_ROWS = 1 << 16
# the most rows one entry dots, m + 1, each a half-power entry: 1.4 * 10**14,
# past any memory; sparse_power_entry refuses more with OverflowError
MAX_DOT_ROWS = ((1 << 63) - 1) // 255**2
# the entry dot splits coefficients into digit planes of this many bits, so
# a chunk's int64 partial sum is at most DOT_ROWS * (2**23 - 1)**2 < 2**63
PLANE_BITS = 23
# a linear power past 2**64 holds each coefficient as digits of this many bits
DIGIT_BITS = 32
DIGIT_MASK = (1 << DIGIT_BITS) - 1
# every transform prime P is below isqrt(2**63 - 1), so a product of two
# residues mod P fits an int64
PRIME_CAP = 3_037_000_499
# Miller-Rabin to the first twelve prime bases is exact below this bound,
# the least strong pseudoprime to all of them (Sorenson and Webster,
# "Strong pseudoprimes to twelve prime bases", Math. Comp. 86, 2017)
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
PRIME_TEST_LIMIT = 318_665_857_834_031_151_167_461


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


def cyclic_self_power(vec: Sequence[int], s: int, q: int) -> list[int]:
    """The s-fold cyclic self-convolution of vec over Z_q, exact: entry r is
    the sum of vec[i_1] * ... * vec[i_s] over i_1 + ... + i_s = r mod q.

    Entries must be nonnegative.  By cyclic_multiply's bound, the s-th power
    (s >= 1) has entries at most max(vec) * sum(vec)**(s-1); the 0-th power
    is the unit vector.

    Dispatch: a 3-smooth q (q = 2^a 3^b, every level of the p = 2 and 3
    density ladders) with every entry below 2**63 takes the number-theoretic
    transform (_transform_self_power); any other vector takes the packed
    powering (_packed_self_power), which is exact for any entries.  Both
    return the same exact power.  The transform works mod the least n
    primes P = 1 mod q, P < PRIME_CAP, whose product exceeds that bound:
    every entry lies in [0, bound], so it equals its residue mod the
    product, which Garner's mixed-radix form rebuilds from the n residues
    (Chinese remainder theorem).  As P < isqrt(2**63 - 1), a product of two
    residues fits an int64, so numpy's int64 arithmetic reduces every step
    exactly.
    """
    if q < 1:
        raise ValueError("modulus must be >= 1")
    if len(vec) != q:
        raise ValueError("vector length must equal the modulus")
    if s < 0:
        raise ValueError("power must be >= 0")
    if min(vec) < 0:
        raise ValueError("entries must be nonnegative")
    if _radices(q) is None or max(vec) >= 1 << 63:
        return _packed_self_power(vec, s, q)
    return _transform_self_power(vec, s, q)


def _packed_self_power(vec: Sequence[int], s: int, q: int) -> list[int]:
    """cyclic_self_power by left-to-right binary powering from UNIT, each
    step one cyclic_multiply, whose bound sizes the block width of the step."""
    base = packed_vector(vec)
    power = UNIT
    for bit in bin(s)[2:]:
        power = cyclic_multiply(power, power, q)
        if bit == "1":
            power = cyclic_multiply(power, base, q)
    return unpack(power.packed, power.width, q)


def _radices(q: int) -> list[int] | None:
    """The prime factors of q, with multiplicity, when q is 3-smooth (all
    2s and 3s); None otherwise."""
    radices = []
    for r in (3, 2):
        while q % r == 0:
            q //= r
            radices.append(r)
    return radices if q == 1 else None


def is_prime(n: int) -> bool:
    """Whether n is prime, by Miller-Rabin to the bases 2, 3, 5, ..., 37:
    exact for every n below PRIME_TEST_LIMIT, the least strong pseudoprime
    to all twelve bases.  n from PRIME_TEST_LIMIT on raises BudgetError."""
    if n >= PRIME_TEST_LIMIT:
        raise BudgetError(f"primality is decided only below {PRIME_TEST_LIMIT}")
    if n < 2:
        return False
    for a in PRIME_BASES:
        if n % a == 0:
            return n == a
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in PRIME_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes(q: int, bound: int) -> tuple[int, ...]:
    """The fewest of the largest primes P < PRIME_CAP with P = 1 mod q,
    descending, whose product exceeds bound (at least one).

    The search steps down from PRIME_CAP by q on every call: a workload
    transforms each q once, so nothing is kept between calls.
    """
    found: list[int] = []
    product, P = 1, (PRIME_CAP - 2) // q * q + 1
    while product <= max(bound, 1):
        while not is_prime(P):
            P -= q
            if P < 2:
                raise OverflowError(f"the transform primes for modulus {q} cannot exceed {bound}")
        found.append(P)
        product *= P
        P -= q
    return tuple(found)


def _root_of_order(q: int, P: int) -> int:
    """The first w = c^((P-1)/q) mod P, c = 2, 3, ..., of order exactly q:
    its order divides q, and equals q when w^(q/r) != 1 for each prime r | q."""
    # F_P^* is cyclic and q | P - 1, so some c gives order q
    for c in itertools.count(2):
        w = pow(c, (P - 1) // q, P)
        if all(pow(w, q // r, P) != 1 for r in set(_radices(q))):
            return w


# one transform's moduli as an (n, 1, 1) int64 column, its stages, q^-1 mod
# each prime, and Garner's inverses P_j^-1 mod P_i
_Plan = namedtuple("_Plan", "primes moduli stages q_inv garner")


def _plan(q: int, primes: tuple[int, ...]) -> _Plan:
    """The length-q transform over the fields F_P, P in primes, each P = 1 mod q.

    A stage of radix r takes length L to rL.  It holds the twiddles
    w_rL^(jk) for 1 <= j < r and k < L, as (n, L, 1) arrays, and the cube
    root w_3 as an (n, 1, 1) array (radix 3 only); w_rL = w^(q/(rL)) for
    the root w of order q.  Every twiddle is a gather from the table of
    w^k, k < q, made by doubling.  The inverse transform reads the same
    stages at -k mod q (_transform_self_power).
    """
    moduli = np.array(primes, np.int64)[:, None, None]
    roots = [_root_of_order(q, P) for P in primes]
    powers = np.ones((len(primes), 1), np.int64)
    while powers.shape[1] < q:
        step = [pow(w, powers.shape[1], P) for w, P in zip(roots, primes)]
        powers = np.concatenate((powers, powers * np.array(step)[:, None] % moduli[:, 0]), 1)

    stages, L = [], 1
    for r in _radices(q):
        k = np.arange(L)
        twiddles = [powers[:, j * (q // (r * L)) * k % q, None] for j in range(1, r)]
        w3 = powers[:, q // 3, None, None] if r == 3 else None
        stages.append((r, twiddles, w3))
        L *= r
    q_inv = np.array([pow(q, -1, P) for P in primes], np.int64)[:, None]
    garner = [[pow(Pj, -1, Pi) for Pj in primes[:i]] for i, Pi in enumerate(primes)]
    return _Plan(primes, moduli, stages, q_inv, garner)


def _transform(x: np.ndarray, moduli: np.ndarray, stages) -> np.ndarray:
    """The length-q transform X[k] = sum_m x[m] w^(km) of each row of x,
    (n, q) residues mod the n moduli, in natural order.

    Decimation in time without reordering: X[k, c], of shape (L, q/L), is
    the length-L transform of the subsequence x[c + (q/L) m].  A radix-r
    stage takes column blocks Y_j (j < r, width S = q/(rL)) to
    X'[k + Ll] = sum_j w_rL^(jk) Y_j[k] w_r^(jl).  Every product is of two
    residues below P < PRIME_CAP, so below 2**63, and is reduced at once;
    a butterfly output is a signed sum of at most four reduced terms, each
    of them below 3P in magnitude.  Radix 3 uses w_3^2 = -1 - w_3, so it
    takes two products by w_3.
    """
    X = x[:, None]
    for r, twiddles, w3 in stages:
        S = X.shape[-1] // r
        T = [X[..., :S]] + [X[..., j * S : (j + 1) * S] * t % moduli for j, t in enumerate(twiddles, 1)]
        if r == 2:
            blocks = (T[0] + T[1], T[0] - T[1])
        else:
            u, v = T[1] * w3 % moduli, T[2] * w3 % moduli
            blocks = (T[0] + T[1] + T[2], T[0] + u - T[2] - v, T[0] - T[1] - u + v)
        X = np.concatenate(blocks, 1) % moduli
    return X[:, :, 0]


def _transform_self_power(vec: Sequence[int], s: int, q: int) -> list[int]:
    """cyclic_self_power for a 3-smooth q through the transform over F_P for
    the least n primes P = 1 mod q whose product exceeds the bound
    max(vec) * sum(vec)**(s-1) (1 at s = 0, the unit vector); every entry
    of vec must be below 2**63.  One forward transform X, pointwise s-th
    powers, and the inverse, the forward transform X' of X read at -j:
    q^-1 X'[-j mod q] = x[j], as sum_k w^(k(m - j)) is q at m = j and 0
    otherwise.  Garner's mixed-radix digits give each entry mod the product,
    which is the entry itself.
    """
    plan = _plan(q, _primes(q, max(vec) * sum(vec) ** (s - 1) if s else 1))
    P = plan.moduli[:, 0]
    x = np.array(vec, np.int64) % P
    h = _transform(x, plan.moduli, plan.stages)
    powered = np.ones_like(h)
    for bit in bin(s)[2:]:
        powered = powered * powered % P
        if bit == "1":
            powered = powered * h % P
    powered = powered * plan.q_inv % P  # the inverse transform's 1/q
    residues = _transform(powered, plan.moduli, plan.stages)[:, -np.arange(q) % q]
    digits = []  # Garner: entry = d_0 + P_0 (d_1 + P_1 (d_2 + ...)), d_i < P_i
    for i, Pi in enumerate(plan.primes):
        d = residues[i]
        for dj, inv in zip(digits, plan.garner[i]):
            d = (d - dj % Pi) * inv % Pi
        digits.append(d)
    # two digits at a time, d_i + P_i d_i+1 < P_i P_i+1 < 2**63, then Horner in Python ints
    n = len(plan.primes)
    pair_moduli = [math.prod(plan.primes[i : i + 2]) for i in range(0, n, 2)]
    pairs = [digits[i] + plan.primes[i] * digits[i + 1] if i + 1 < n else digits[i] for i in range(0, n, 2)]
    entries = pairs[-1].astype(object)
    for modulus, pair in zip(pair_moduli[-2::-1], pairs[-2::-1]):
        entries = entries * modulus + pair
    return entries.tolist()


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
    """Zeroed storage for count coefficients, each at most bound: below 2**64
    one row of the narrowest little-endian unsigned dtype that holds bound;
    from 2**64 on, rows of 32-bit digits, low digit first, in uint64, so a
    digit can take fewer than 2**32 further digits before a carry sweep."""
    for dtype in ("<u1", "<u2", "<u4", "<u8"):
        if bound <= np.iinfo(dtype).max:
            return np.zeros((1, count), dtype)
    return np.zeros((-(-bound.bit_length() // DIGIT_BITS), count), "<u8")


def _shift_add(
    block: np.ndarray, lo: int, src: np.ndarray, shifts: Iterable[int], live: int | None = None
) -> None:
    """block[..., k - lo] += c[k - v] for every v in shifts, over the
    entries lo <= k < lo + block.shape[-1] of the last axis, where c[i] is
    src[..., i % src.shape[-1]] for 0 <= i < live and zero elsewhere.
    live defaults to the length of src: no read wraps.  A rolling window
    passes its level's live length; a read that wraps splits into two
    slices, so the block must be no longer than src."""
    size = src.shape[-1]
    live = size if live is None else live
    hi = lo + block.shape[-1]
    for v in shifts:
        a, b = max(lo - v, 0), min(hi - v, live)
        if a < b:
            at, k = a % size, a + v - lo
            cut = min(b - a, size - at)
            block[..., k : k + cut] += src[..., at : at + cut]
            if cut < b - a:
                block[..., k + cut : b + v - lo] += src[..., : b - a - cut]


def _top(power: np.ndarray) -> int:
    """An upper bound on every coefficient of a _power_array layout: its
    maximum for one row; for 32-bit digit rows, (max of the top row + 1) *
    2**(32 * (rows - 1)), as every lower digit is below 2**32."""
    top = int(power[-1].max())
    return top if len(power) == 1 else (top + 1) << (DIGIT_BITS * (len(power) - 1))


def _next_step(prev: np.ndarray, vals: list[int], bound: int, lo: int, count: int) -> np.ndarray:
    """Entries lo .. lo + count - 1 of (sum_v x^v) * prev, each at most bound,
    laid out by _power_array: one shift-add pass of prev, the live prefix of
    the previous step, and the carry sweep.  prev must have no more rows
    than the result (split it with _split_digits first)."""
    out = _power_array(bound, count)
    _shift_add(out[: len(prev)], lo, prev, vals)
    for r in range(len(out) - 1):  # the carry sweep, low digit first
        out[r + 1] += out[r] >> DIGIT_BITS
        out[r] &= DIGIT_MASK
    return out


def _split_digits(power: np.ndarray, bound: int) -> np.ndarray:
    """power as 32-bit digit rows when it is one uint64 row and the next
    step's bound needs digits (2**64 and past); power itself otherwise."""
    if bound >> 64 and len(power) == 1 and power.dtype.itemsize == 8:
        return np.concatenate((power & DIGIT_MASK, power >> DIGIT_BITS))
    return power


def _truncated_powers(
    vals: list[int], keep: set[int], count: int
) -> dict[int, tuple[np.ndarray, int]]:
    """(array, bound) of (sum_v x^v)^e truncated to its first count
    coefficients, for every e in keep; the array is laid out by _power_array.
    Every value must be below count, and a value may repeat.

    Step e is one shift-add pass over the values on step e - 1 (_next_step).
    Its coefficient c_e[k] = sum_v c_(e-1)[k - v] is a sum of len(vals)
    terms, one per value and repeat, each at most M, the bound _top reads
    from step e - 1; so bound = len(vals) * M holds it.  Every partial sum
    of the pass is at most the final coefficient, so the array _power_array
    makes for that bound never wraps; at the 24 values of {3,4,3} below
    10**6, steps 3-4 are u1, 5-6 u2 and 7-9 u4.  Step e - 1 is zero past
    x^((e - 1) * max(vals)), so the pass adds, and _top reads, only that
    live prefix.  Past 2**64, each of the len(vals) adds puts a digit below
    2**32 on every digit, which fits in uint64 while len(vals) < 2**32, until
    the one carry sweep that ends the pass.  Memory is O(count * width).
    """
    top = max(vals, default=0)
    cur = np.zeros((1, count), "<u1")
    cur[0, 0] = 1  # the zeroth power
    kept = {0: (cur, 1)} if 0 in keep else {}
    for e in range(1, max(keep) + 1):
        prev = cur[:, : (e - 1) * top + 1]
        bound = len(vals) * _top(prev)
        cur = _next_step(_split_digits(prev, bound), vals, bound, 0, count)
        if e in keep:
            kept[e] = cur, bound
    return kept


def sparse_power_profile(values: Iterable[int], s: int, m_max: int) -> list[int]:
    """Coefficients of (sum_v x^v)^s up to x^m_max, exact, for nonnegative
    x-exponents values: s shift-add passes (see _truncated_powers)."""
    vals = _exponents(values, s, m_max)
    power = _truncated_powers(vals, {s}, m_max + 1)[s][0]
    if len(power) == 1:
        return power[0].tolist()
    # after the carry sweep every digit is below 2**32
    data, width = np.ascontiguousarray(power.T, "<u4").tobytes(), 4 * len(power)
    return [int.from_bytes(data[i : i + width], "little") for i in range(0, len(data), width)]


def _planes(power: np.ndarray, bound: int) -> np.ndarray:
    """The (d, count) int64 matrix of the PLANE_BITS-bit digit planes, low
    first, of a _power_array layout whose coefficients are at most bound;
    d = ceil(bound.bit_length() / PLANE_BITS), at least 1.  A plane spans
    at most two 32-bit digit rows."""
    d = max(-(-bound.bit_length() // PLANE_BITS), 1)
    if d == 1:
        return power[:1].astype(np.int64)
    step = 64 if len(power) == 1 else DIGIT_BITS
    wide = power.astype(np.uint64)
    planes = np.empty((d, power.shape[1]), np.int64)
    for j in range(d):
        r, t = divmod(PLANE_BITS * j, step)
        high = wide[r + 1] << (step - t) if r + 1 < len(wide) else 0
        planes[j] = (wide[r] >> t | high) & ((1 << PLANE_BITS) - 1)
    return planes


def sparse_power_entry(values: Iterable[int], s: int, m: int) -> int:
    """The coefficient of x^m in (sum_v x^v)^s, exact.

    The s-th power is never formed.  One shift-add run of s//2 passes (see
    _truncated_powers) keeps the lower half A = step s//2, truncated above
    x^m, and the entry is sum_k A[k] * B[m - k] for the upper half
    B = step s - s//2, taken DOT_ROWS entries k at a time: A[lo .. hi - 1]
    and B[m + 1 - hi .. m - lo] reversed are split into 23-bit digit planes
    (_planes), each pair of planes is one int64 dot, at most
    DOT_ROWS * (2**23 - 1)**2 < 2**63, and the chunks add as Python ints.
    At {3,4,3}, s = 17, m near 10**6, both halves are below 2**23: one dot
    per chunk.  For even s, B is A.  For odd s, B is never held whole: each
    block of it is one pass over A's live prefix (_next_step), at the bound
    len(values) * max(A), made as its chunk is dotted.  m + 1 rows past
    MAX_DOT_ROWS, more than a half power can hold, raise OverflowError.
    """
    vals = _exponents(values, s, m)
    if m + 1 > MAX_DOT_ROWS:
        raise OverflowError(f"target {m} needs half powers of more than {MAX_DOT_ROWS} entries")
    half = s // 2
    power = _truncated_powers(vals, {half}, m + 1)[half][0]
    top = _top(power)
    if s > 2 * half:
        upper = len(vals) * top
        prev = _split_digits(power, upper)[:, : half * max(vals, default=0) + 1]
    total = 0
    for lo in range(0, m + 1, DOT_ROWS):
        hi = min(lo + DOT_ROWS, m + 1)
        if s > 2 * half:
            block, bound = _next_step(prev, vals, upper, m + 1 - hi, hi - lo), upper
        else:
            block, bound = power[:, m + 1 - hi : m + 1 - lo], top
        # plane i of A and plane j of B weigh 2**(PLANE_BITS * (i + j))
        planes = np.inner(_planes(power[:, lo:hi], top), _planes(block[:, ::-1], bound))
        total += sum(int(planes[i, j]) << (PLANE_BITS * (i + j)) for i, j in np.ndindex(planes.shape))
    return total
