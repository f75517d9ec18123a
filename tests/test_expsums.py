"""Exponential sums: complete sums, partial sums, multiplicativity, mean values."""

import cmath
import math
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from waring4 import expsums, figurate
from waring4.errors import BudgetError

F1 = figurate.catalog("{3,4,3}").spec
F2 = figurate.catalog("{3,3,5}").spec
F3 = figurate.catalog("{5,3,3}").spec


def naive_complete_sum(spec, q, a):
    # reduce a*f(n) mod q in exact integers; a float product would drift once
    # f(n) reaches ~1e10
    return sum(
        cmath.exp(2j * cmath.pi * ((a * spec.value(n)) % q) / q)
        for n in range(1, 24 * q + 1)
    )


def test_complete_sum_matches_naive():
    for sp in (F1, F2):
        # 64, 81 and 97 are FFT lengths that are a power of 2, of 3 and a prime
        for q in (1, 2, 3, 4, 5, 7, 9, 12, 64, 81, 97):
            for a in range(1, q + 1):
                got = expsums.complete_sum_V(sp, q, a)
                want = naive_complete_sum(sp, q, a)
                assert abs(got - want) < 1e-7 * q


def test_complete_sum_trivial_character():
    # a = q makes every phase 1, so the full period sums to 24q
    for q in (1, 2, 5, 11):
        assert expsums.complete_sum_V(F1, q, q) == pytest.approx(24 * q)


def test_partial_sum_prefix_consistency():
    rng = random.Random(11)
    for _ in range(25):
        q = rng.randrange(1, 13)
        a = rng.randrange(1, q + 1)
        t = rng.randrange(0, 80)
        got = expsums.partial_sum_M(F1, q, a, t)
        want = sum(
            cmath.exp(2j * cmath.pi * ((a * F1.value(n)) % q) / q)
            for n in range(1, t + 1)
        )
        assert abs(got - want) < 1e-10


def test_partial_sum_full_period_is_complete_sum():
    for q in (2, 3, 7):
        for a in range(1, q):
            assert abs(
                expsums.partial_sum_M(F1, q, a, 24 * q) - expsums.complete_sum_V(F1, q, a)
            ) < 1e-10


def test_weyl_sum_conjugate_symmetry_and_periodicity():
    rng = random.Random(12)
    for _ in range(20):
        # dyadic alpha with 21 fractional bits, so alpha + 1.0 is still exact
        alpha = rng.randrange(-(2**20), 2**20) / 2.0**21
        N = rng.randrange(1, 120)
        s_pos = expsums.weyl_sum(F1, N, alpha)
        s_neg = expsums.weyl_sum(F1, N, -alpha)
        assert abs(s_neg - s_pos.conjugate()) < 1e-12
        s_shift = expsums.weyl_sum(F1, N, alpha + 1.0)
        assert abs(s_shift - s_pos) < 1e-12


def test_weyl_sum_at_zero():
    assert expsums.weyl_sum(F1, 37, 0.0) == pytest.approx(37.0)


def test_v_of_q_against_naive_expansion():
    for q in (1, 2, 3, 4, 5, 7, 12):
        got = expsums.v_of_q(F1, q, 5, 3)
        want = 0j
        for a in range(1, q + 1):
            if math.gcd(a, q) != 1:
                continue
            V = naive_complete_sum(F1, q, a)
            want += (V / (24 * q)) ** 5 * cmath.exp(-2j * cmath.pi * a * 3 / q)
        assert abs(got - want) < 1e-7


def test_v_of_q_multiplicative():
    rng = random.Random(13)
    for sp in (F1, F3):
        pairs = set()
        while len(pairs) < 12:
            q = rng.randrange(2, 16)
            r = rng.randrange(2, 16)
            if math.gcd(q, r) == 1:
                pairs.add((q, r))
        for q, r in sorted(pairs):
            for s in (5, 17):
                lhs = expsums.v_of_q(sp, q * r, s, 3)
                rhs = expsums.v_of_q(sp, q, s, 3) * expsums.v_of_q(sp, r, s, 3)
                assert abs(lhs - rhs) <= 1e-8


def test_complete_sum_shifted_multiplicativity():
    """V(qr, ar+bq) = V(q,a) V(r,b) / 24 for pairwise-coprime data."""
    for q in range(2, 13):
        for r in range(2, 13):
            if math.gcd(q, r) != 1:
                continue
            for a in range(1, q):
                if math.gcd(a, q) != 1:
                    continue
                for b in range(1, r):
                    if math.gcd(b, r) != 1:
                        continue
                    lhs = expsums.complete_sum_V(F1, q * r, (a * r + b * q) % (q * r))
                    rhs = expsums.complete_sum_V(F1, q, a) * expsums.complete_sum_V(
                        F1, r, b
                    ) / 24.0
                    assert abs(lhs - rhs) <= 1e-8 * q * r


def test_abel_summation_identity():
    """S(a/q + theta) reconstructed from partial sums M(t).

    M is a step function, so the integral term telescopes exactly:
    S = M(N) e(theta f(N)) - sum_{n<N} M(n) (e(theta f(n+1)) - e(theta f(n))).
    The 1e-5 tolerance absorbs the float splitting of alpha into a/q + theta.
    """
    for (q, a, theta, N) in ((3, 1, 1e-5, 200), (7, 2, -3e-6, 150), (1, 1, 2e-4, 50)):
        alpha = a / q + theta
        S = expsums.weyl_sum(F1, N, alpha)
        acc = 0j
        for n in range(1, N):
            Mn = expsums.partial_sum_M(F1, q, a, n)
            e_next = cmath.exp(2j * cmath.pi * ((theta * F1.value(n + 1)) % 1.0))
            e_here = cmath.exp(2j * cmath.pi * ((theta * F1.value(n)) % 1.0))
            acc += Mn * (e_next - e_here)
        MN = expsums.partial_sum_M(F1, q, a, N)
        recon = MN * cmath.exp(2j * cmath.pi * ((theta * F1.value(N)) % 1.0)) - acc
        assert abs(S - recon) < 1e-5


def pair_counter(spec, N):
    vals = [spec.value(n) for n in range(1, N + 1)]
    return Counter(a + b for a in vals for b in vals)


def test_mean_value_j1_counts_collisions():
    for sp in (F1, F2, F3):
        for N in (1, 2, 5, 21, 40, 60):
            assert expsums.mean_value(sp, N, 1) == N


def test_mean_value_j2_matches_pair_oracle():
    for sp in (F1, F2):
        for N in (3, 10, 21, 40):
            c = pair_counter(sp, N)
            want = sum(v * v for v in c.values())
            assert expsums.mean_value(sp, N, 2) == want


def test_mean_value_j3_matches_dict_oracle():
    for N in (3, 8, 15, 24):
        vals = [F1.value(n) for n in range(1, N + 1)]
        pair = Counter(a + b for a in vals for b in vals)
        quad = Counter()
        for x, cx in pair.items():
            for y, cy in pair.items():
                quad[x + y] += cx * cy
        want = sum(v * v for v in quad.values())
        assert expsums.mean_value(F1, N, 3) == want


def sum_counter(vals, h):
    """Counts of every h-fold ordered sum of vals, one summand at a time."""
    acc = Counter({0: 1})
    for _ in range(h):
        new = Counter()
        for t, c in acc.items():
            for v in vals:
                new[t + v] += c
        acc = new
    return acc


def test_mean_value_j4_matches_dict_oracle():
    # (3, -4, 1) has negative, non-monotone values: 1, 3, 2, -3, -10, -14, -7, 22
    cases = [(F1, N) for N in (2, 4, 6, 8)] + [(figurate.make_spec(3, -4, 1), 8)]
    for sp, N in cases:
        vals = [sp.value(n) for n in range(1, N + 1)]
        want = sum(v * v for v in sum_counter(vals, 8).values())
        assert expsums.mean_value(sp, N, 4) == want


@settings(max_examples=120, deadline=None)
@given(
    st.integers(1, 20),
    st.integers(-40, 40),
    st.integers(-40, 40),
    st.integers(1, 6),
    st.integers(1, 4),
)
# values 1, 2, 2^58 + 3, 2^60 + 5: pair sums too wide for a packed key
@example(1, 1 << 58, 0, 4, 2)
@example(1, 1 << 58, 0, 4, 3)
@example(1, 1 << 58, 0, 4, 4)
@example(3, -4, 1, 6, 3)
def test_mean_value_matches_tuple_oracle(A, B, C, N, j):
    spec = figurate.make_spec(A, B, C)
    vals = [spec.value(n) for n in range(1, N + 1)]
    spread = max(vals) - min(vals)
    # j <= 3 shifts by the midpoint, j = 4 by the minimum
    reach = spread if j == 4 else spread - spread // 2
    if reach << (j - 1) >= 1 << 63 or (j == 4 and 8 * spread > 12_000_000):
        with pytest.raises(BudgetError):
            expsums.mean_value(spec, N, j)
        return
    want = sum(c * c for c in sum_counter(vals, 2 ** (j - 1)).values())
    assert expsums.mean_value(spec, N, j) == want


@pytest.mark.parametrize(
    "vals, wts",
    [
        ([0], [1]),
        ([0, 3, 5, 8], [1, 1, 1, 1]),
        ([0, 1, 2, 7], [3, 1, 4, 1]),
        # 2 * max(vals) << b passes 2^63: grouped by argsort
        ([0, 5, 1 << 57, (1 << 58) + 3], [1, 4, 2, 1]),
        ([0, 2, 1 << 61, (1 << 62) - 1], [1, 1, 1, 1]),
        # midpoint-shifted values: signed packed keys, then a signed argsort
        ([-7, -2, 0, 5], [2, 1, 3, 1]),
        ([-(1 << 61), -3, 1], [1, 2, 1]),
        # sum 8 is five keys of the upper triangle, (0, 8) .. (4, 4)
        (list(range(9)), [1, 2, 1, 3, 1, 1, 2, 1, 4]),
    ],
)
def test_pair_sums_match_counter(monkeypatch, vals, wts):
    want = Counter()
    for x, cx in zip(vals, wts):
        for y, cy in zip(vals, wts):
            want[x + y] += cx * cy
    # short blocks split runs of equal sums across block edges
    for block in (1, 2, 3, 5, expsums.BLOCK):
        monkeypatch.setattr(expsums, "BLOCK", block)
        got_v, got_w = expsums._pair_sums(np.array(vals, dtype=np.int64), np.array(wts, dtype=np.int64))
        assert got_v.tolist() == sorted(want)
        assert got_w.tolist() == [want[v] for v in sorted(want)]


WIDE = figurate.make_spec(1, 1 << 58, 0)  # pair sums too wide for a packed key


@pytest.mark.parametrize("block", [1, 2, 3, 5])
def test_mean_value_block_edges_match_tuple_oracle(monkeypatch, block):
    # blocks this short put edges inside runs of equal pair sums, packed and
    # argsorted (WIDE), and split the octuple-sum range of j = 4 many times
    monkeypatch.setattr(expsums, "BLOCK", block)
    cases = [
        (F1, 6, 2),
        (F1, 5, 3),
        (F1, 4, 4),
        (figurate.make_spec(3, -4, 1), 8, 2),
        (figurate.make_spec(3, -4, 1), 6, 3),
        (figurate.make_spec(3, -4, 1), 8, 4),
        (WIDE, 4, 2),  # argsort fallback
        (WIDE, 4, 3),
    ]
    for spec, N, j in cases:
        vals = [spec.value(n) for n in range(1, N + 1)]
        want = sum(c * c for c in sum_counter(vals, 2 ** (j - 1)).values())
        assert expsums.mean_value(spec, N, j) == want, (spec, N, j)


@pytest.mark.parametrize("N, j, cap_mib", [(3996, 2, 96), (90, 3, 96), (24, 4, 64)])
def test_mean_value_peak_memory(N, j, cap_mib):
    # the last pass is streamed: no array of its groups (j = 2, 3) or of the
    # octuple-sum counts (j = 4) is held, only the sorted pair keys or the
    # septuple-sum rows
    tracemalloc.start()
    try:
        expsums.mean_value(F1, N, j)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < cap_mib << 20


def test_mean_value_refuses_sums_past_int64():
    # quadruple sums of these values span more than 2^64; the unshifted int64
    # sums wrapped and the eighth moment read 2718 instead of 2716.  The pair
    # sums span 1.17 * 2^63: they fit int64 only once shifted by the midpoint
    spec = figurate.make_spec(3, 2305843009213693961, -768614336404564661)
    vals = [spec.value(n) for n in range(1, 5)]
    assert sum(c * c for c in sum_counter(vals, 4).values()) == 2716
    assert expsums.mean_value(spec, 4, 1) == sum(c * c for c in sum_counter(vals, 1).values())
    assert sum(c * c for c in sum_counter(vals, 2).values()) == 28
    assert expsums.mean_value(spec, 4, 2) == 28
    with pytest.raises(BudgetError):
        expsums.mean_value(spec, 4, 3)


@pytest.mark.parametrize(
    "vals",
    [
        [],
        [0, 1, 5],
        [(1 << 31) - 1],  # largest entry of the plain int64 dot
        [(1 << 31) - 1] * 2,  # max * sum passes 2^62: split
        [1 << 31, 3, 0],
        [(1 << 37) - 1, 1 << 36, 12345],  # largest entry of the split
    ],
)
def test_sum_of_squares_int64_matches_python(vals):
    assert expsums._sum_of_squares_int64(np.array(vals, dtype=np.int64)) == sum(v * v for v in vals)


def test_sum_of_squares_int64_refuses_past_the_split():
    with pytest.raises(BudgetError):
        expsums._sum_of_squares_int64(np.array([1 << 37], dtype=np.int64))
    # 2^24 entries, as a broadcast view that allocates none of them
    with pytest.raises(BudgetError):
        expsums._sum_of_squares_int64(np.broadcast_to(np.int64(1 << 31), (1 << 24,)))


def test_mean_value_frozen_large_cases():
    assert expsums.mean_value(F1, 60, 3) == 301028340
    assert expsums.mean_value(F1, 24, 4) == 9249280679332584


def test_mean_value_rejects_bad_order():
    with pytest.raises(ValueError):
        expsums.mean_value(F1, 10, 0)
    with pytest.raises(ValueError):
        expsums.mean_value(F1, 10, 5)
