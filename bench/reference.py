"""Independent references for the benchmark's output checks.

Nothing here imports waring4: every reference is written from the
definitions, with methods that differ from the program's, so that a fault in
the program cannot also hide in the reference.

* Counts R_s(m): a numpy shift-add profile modulo two primes below 2^58,
  joined by the Chinese remainder theorem.  Exact because every count is at
  most len(values)^s < P1 * P2.
* Euler factors rho_k(p) = p^(k(1-s)) M_m(p^k): a floating DFT of the
  residue histogram of f(n) mod p^k over 1 <= n <= p^k.
* Mean values (number of solutions of f(u_1)+..+f(u_h) = f(v_1)+..+f(v_h),
  h = 2^(j-1)): sort-based counts over unordered pairs for j = 2, 3 and a
  dense bincount plus FFT convolution for j = 4.
"""

from __future__ import annotations

import math
from math import comb

import numpy as np

# the two largest primes below 2^58; sums of fewer than 64 residues fit uint64
P1 = (1 << 58) - 27
P2 = (1 << 58) - 57

CATALOG = {
    "{3,4,3}": (72, 84, 22),
    "{3,3,5}": (580, 590, 118),
    "{5,3,3}": (3132, 3186, 598),
}

# the program's exact congruence path stops at this modulus; its density
# ladder therefore ends at the largest k with p^k <= EXACT_MODULUS_CAP
EXACT_MODULUS_CAP = 5000


def value(abc: tuple[int, int, int], n: int) -> int:
    """f(n) = A C(n,4) + B C(n,3) + C C(n,2) + n."""
    A, B, C = abc
    return A * comb(n, 4) + B * comb(n, 3) + C * comb(n, 2) + n


def values_upto(abc: tuple[int, int, int], m: int) -> list[int]:
    """f(n) <= m for n >= 1; the catalog polynomials increase from n = 1."""
    out = []
    n = 1
    while (v := value(abc, n)) <= m:
        if out and v <= out[-1]:
            raise ValueError("values must increase")
        out.append(v)
        n += 1
    return out


def _profile_mod(values: list[int], s: int, m_max: int, p: int) -> np.ndarray:
    """Coefficients of (sum_v x^v)^s mod p up to x^m_max."""
    if len(values) >= 64 or p >= 1 << 58:
        raise ValueError("uint64 accumulation needs < 64 values and p < 2^58")
    cur = np.zeros(m_max + 1, dtype=np.uint64)
    cur[0] = 1
    for _ in range(s):
        acc = np.zeros_like(cur)
        for v in values:
            if v <= m_max:
                acc[v:] += cur[: m_max + 1 - v]
        cur = acc % np.uint64(p)
    return cur


def counts_crt(values: list[int], s: int, targets) -> dict[int, int]:
    """Exact R_s(m) for each m in targets, by two modular profiles and CRT."""
    targets = sorted(set(targets))
    m_max = targets[-1]
    if len(values) ** s >= P1 * P2:
        raise ValueError("counts could exceed the CRT modulus")
    r1 = _profile_mod(values, s, m_max, P1)
    r2 = _profile_mod(values, s, m_max, P2)
    inv = pow(P1, -1, P2)
    out = {}
    for m in targets:
        a, b = int(r1[m]), int(r2[m])
        out[m] = a + P1 * (((b - a) * inv) % P2)
    return out


def top_level(p: int) -> int:
    """Largest k >= 1 with p^k <= EXACT_MODULUS_CAP (at least 1)."""
    k = 1
    while p ** (k + 1) <= EXACT_MODULUS_CAP:
        k += 1
    return k


def density_dft(abc: tuple[int, int, int], s: int, m: int, q: int) -> float:
    """q^(1-s) M_m(q, q) as sum_t (H(t)/q)^s e(-tm/q), H the histogram DFT."""
    hist = np.zeros(q)
    for n in range(1, q + 1):
        hist[value(abc, n) % q] += 1.0
    # ifft(hist)[t] = (1/q) sum_r hist[r] e(tr/q)
    w = np.fft.ifft(hist)
    t = np.arange(q, dtype=np.int64)
    phase = np.exp(-2j * np.pi * ((t * (m % q)) % q) / q)
    return math.fsum((w**s * phase).real)


def primes_upto(n: int) -> list[int]:
    return [p for p in range(2, n + 1) if all(p % d for d in range(2, math.isqrt(p) + 1))]


def euler_factors(abc, s: int, m: int, prime_limit: int) -> list[tuple[int, float]]:
    """(p, rho_k(p)) at the program's top ladder level for every p <= prime_limit."""
    return [(p, density_dft(abc, s, m, p ** top_level(p))) for p in primes_upto(prime_limit)]


def _sorted_run_counts(keys: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct keys (ascending) and the summed weight of each."""
    order = np.argsort(keys, kind="stable")
    k = keys[order]
    w = weights[order]
    starts = np.flatnonzero(np.r_[True, k[1:] != k[:-1]])
    return k[starts], np.add.reduceat(w, starts)


def _pair_classes(vals: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ordered-pair sum counts from weighted classes, enumerating unordered pairs."""
    i, j = np.triu_indices(len(vals))
    weights = counts[i] * counts[j] * np.where(i == j, 1, 2)
    return _sorted_run_counts(vals[i] + vals[j], weights.astype(np.int64))


def _sum_squares(counts: np.ndarray) -> int:
    """Exact sum of squares of nonnegative int64 counts, in int64-safe chunks."""
    counts = counts[counts > 0]
    if not len(counts):
        return 0
    top = int(counts.max())
    chunk = max(1, (1 << 62) // (top * top))
    return sum(int(np.dot(counts[i : i + chunk], counts[i : i + chunk])) for i in range(0, len(counts), chunk))


def mean_value(abc: tuple[int, int, int], N: int, j: int) -> int:
    """Solutions of sum_{i<=h} f(u_i) = sum_{i<=h} f(v_i), h = 2^(j-1), 1 <= u, v <= N."""
    vals = np.array([value(abc, n) for n in range(1, N + 1)], dtype=np.int64)
    if np.any(vals[1:] <= vals[:-1]):
        raise ValueError("values must increase")
    if j == 1:
        return N
    ones = np.ones(N, dtype=np.int64)
    if j == 2:
        return _sum_squares(_pair_classes(vals, ones)[1])
    if j == 3:
        v2, c2 = _pair_classes(vals, ones)
        return _sum_squares(_pair_classes(v2, c2)[1])
    if j == 4:
        return _octuple_moment(vals)
    raise ValueError("j must be in 1..4")


def _octuple_moment(vals: np.ndarray) -> int:
    """sum_k c8(k)^2 with c4 a dense bincount over all ordered quadruples and
    c8 = c4 * c4 by a real FFT whose rounding is guarded."""
    a, b, c, d = np.meshgrid(vals, vals, vals, vals, indexing="ij", sparse=True)
    c4 = np.bincount((a + b + c + d).ravel()).astype(np.float64)
    size = 1 << (2 * len(c4)).bit_length()
    spectrum = np.fft.rfft(c4, size)
    approx = np.fft.irfft(spectrum * spectrum, size)[: 2 * len(c4) - 1]
    # rounding error of an FFT convolution is O(eps log(size) |c4|_2^2)
    norm2 = float(np.dot(c4, c4))
    if 64 * size.bit_length() * norm2 * np.finfo(float).eps >= 0.25:
        raise ArithmeticError("FFT convolution is too large to round safely")
    c8 = np.rint(approx)
    if float(np.max(np.abs(approx - c8))) >= 0.25:
        raise ArithmeticError("FFT convolution residue too large")
    return _sum_squares(c8.astype(np.int64))
