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

from fresh_process import child_peak_rss_mib

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
    cases = [(F1, N) for N in (2, 4, 6, 8)] + [(figurate.FigurateSpec(3, -4, 1), 8)]
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
# values 1, 2, 2^58 + 3, 2^60 + 5: pair sums so far apart that the window
# span reaches its cap of 2^(62 - b)
@example(1, 1 << 58, 0, 4, 2)
@example(1, 1 << 58, 0, 4, 3)
@example(1, 1 << 58, 0, 4, 4)
@example(3, -4, 1, 6, 3)
def test_mean_value_matches_tuple_oracle(A, B, C, N, j):
    spec = figurate.FigurateSpec(A, B, C)
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


def weighted_pair_sums(vals, wts):
    """Counter of every ordered pair sum x + y, each weighted wx * wy."""
    want = Counter()
    for x, cx in zip(vals, wts):
        for y, cy in zip(vals, wts):
            want[x + y] += cx * cy
    return want


@pytest.mark.parametrize(
    "vals, wts",
    [
        ([0], [1]),
        ([0, 3, 5, 8], [1, 1, 1, 1]),
        ([0, 1, 2, 7], [3, 1, 4, 1]),
        # pair sums spread wider than the window span's cap of 2^(62 - b),
        # which binds at the full BLOCK, with wide gaps for windows to jump
        ([0, 5, 1 << 57, (1 << 58) + 3], [1, 4, 2, 1]),
        ([0, 2, 1 << 61, (1 << 62) - 1], [1, 1, 1, 1]),
        # midpoint-shifted values: sums of both signs, packed relative to lo
        ([-7, -2, 0, 5], [2, 1, 3, 1]),
        ([-(1 << 61), -3, 1], [1, 2, 1]),
        # sum 8 is five keys of the upper triangle, (0, 8) .. (4, 4)
        (list(range(9)), [1, 2, 1, 3, 1, 1, 2, 1, 4]),
        # sums from -2^63 to 2^63 - 2: hi - v leaves int64 on both sides and
        # is clipped
        ([-(1 << 62), 0, (1 << 62) - 1], [1, 1, 1]),
        ([-(1 << 62), 1 << 61, (1 << 62) - 1], [1, 1, 1]),
        # the widest weight that packs: b = 62, one sum per window
        ([0, 1, 5], [1518500249, 1, 2]),
        # 25 terms in arithmetic progression: sum 72 = 3 * 24 is 13 keys,
        # (0, 72) .. (36, 36), more than 2 * BLOCK at the short blocks
        (list(range(0, 75, 3)), [1] * 25),
    ],
)
def test_pair_sums_match_counter(monkeypatch, vals, wts):
    want = weighted_pair_sums(vals, wts)
    vals, wts = np.array(vals, dtype=np.int64), np.array(wts, dtype=np.int64)
    # short blocks make windows of a few keys, and a sum with more pairs than
    # 2 * BLOCK fills a window alone
    for block in (1, 2, 3, 5, expsums.BLOCK):
        monkeypatch.setattr(expsums, "BLOCK", block)
        # strictly ascending within and across blocks: no sum is split
        flat = [v for sums, _ in expsums._pair_groups(vals, wts) for v in sums.tolist()]
        assert flat == sorted(set(flat))
        got_v, got_w = expsums._pair_sums(vals, wts)
        assert got_v.tolist() == sorted(want)
        assert got_w.tolist() == [want[v] for v in sorted(want)]


def test_pair_groups_refuses_weights_too_wide_to_pack():
    # 2 * 1518500250^2 >= 2^62, so a pair weight needs b = 63 bits.
    # mean_value never gets here: its pair weights are at most N^2 <= 14400
    with pytest.raises(BudgetError):
        next(expsums._pair_groups(np.array([0, 1], dtype=np.int64), np.array([1518500250, 1], dtype=np.int64)))


@pytest.mark.parametrize(
    "vals, wts, block, span",
    [
        # window [1, 3) at b = 31: (hi - lo) << b is 2^32, the widest span of
        # uint32 keys
        ([0, 1, 2], [30000, 1, 1], 2, 1 << 32),
        # window [2, 3) at b = 32: every key is its weight, the sum shifted out
        ([0, 1], [40000, 1], 1, 1 << 32),
        # one window [0, 2^30 + 1) at b = 2: one sum past it, int64 keys
        ([0, 1, 1 << 29], [1, 1, 1], 3, (1 << 32) + 4),
    ],
)
def test_pair_groups_at_the_key_dtype_switch(monkeypatch, vals, wts, block, span):
    want = weighted_pair_sums(vals, wts)
    seen = []
    window_keys = expsums._window_keys

    def spy(v, w, bits, window):
        keys = window_keys(v, w, bits, window)
        seen.append(((window[1] - window[0]) << bits, keys.dtype))
        return keys

    monkeypatch.setattr(expsums, "BLOCK", block)
    monkeypatch.setattr(expsums, "_window_keys", spy)
    got_v, got_w = expsums._pair_sums(np.array(vals, dtype=np.int64), np.array(wts, dtype=np.int64))
    assert (span, np.dtype(np.uint32 if span <= 1 << 32 else np.int64)) in seen
    assert got_v.tolist() == sorted(want)
    assert got_w.tolist() == [want[v] for v in sorted(want)]


WIDE = figurate.FigurateSpec(1, 1 << 58, 0)  # values 1, 2, 2^58 + 3, 2^60 + 5


@pytest.mark.parametrize("hashed", [1, 0])
@pytest.mark.parametrize("multiplier", [0, int(expsums.HASH_MULTIPLIER)])
@pytest.mark.parametrize("block", [1, 2, 3, 5, expsums.BLOCK])
def test_hashed_pass_matches_tuple_oracle(monkeypatch, block, multiplier, hashed):
    # a zero multiplier hashes every sum to word 0, the worst case: every key
    # of a window repeats its word, and every repeated word is resolved; with
    # the default one only equal sums and chance collisions do.
    # KEY32_SPAN = 0 sends every window of a hashed last pass to the hash,
    # where by default only WIDE's go; mean_value hashes at j = 2 only.  The
    # last pass alone is then run on the route hashed names, 1 hashing every
    # window and 0 grouping every window by its int64 keys
    monkeypatch.setattr(expsums, "BLOCK", block)
    monkeypatch.setattr(expsums, "HASH_MULTIPLIER", np.uint64(multiplier))
    monkeypatch.setattr(expsums, "KEY32_SPAN", 0)
    three = figurate.FigurateSpec(3, -4, 1)
    cases = [(F1, 10, 2), (F1, 6, 3), (three, 8, 2), (three, 6, 3), (WIDE, 4, 2), (WIDE, 4, 3)]
    for spec, N, j in cases:
        vals = [spec.value(n) for n in range(1, N + 1)]
        want = sum(c * c for c in sum_counter(vals, 2 ** (j - 1)).values())
        assert expsums.mean_value(spec, N, j) == want, (spec, N, j)
        last, wts = np.unique(expsums._shifted_values(spec, N, j), return_counts=True)
        if j == 3:
            last, wts = expsums._pair_sums(last, wts)
        with monkeypatch.context() as m:
            if hashed:  # no window is grouped by its exact keys
                m.setattr(expsums, "_window_keys", None)
            assert expsums._squared_pair_total(last, wts, hashed) == want, (spec, N, j)


def test_eighth_moment_groups_int64_windows_by_their_keys(monkeypatch):
    # {5,3,3} at N = 28 has one last-pass window whose keys need int64; at
    # j = 3 it is grouped by its exact keys, which sort in place, and never
    # hashed, which alone calls np.sort
    vals = figurate.values(F3, 28)
    pairs = weighted_pair_sums(vals, [1] * len(vals))
    want = sum(c * c for c in weighted_pair_sums(list(pairs), list(pairs.values())).values())
    seen = []
    window_keys = expsums._window_keys

    def keys_spy(v, w, bits, window):
        keys = window_keys(v, w, bits, window)
        seen.append(keys.dtype)
        return keys

    def sort_spy(*args, **kwargs):
        raise AssertionError("np.sort called: an eighth-moment window was hashed")

    with monkeypatch.context() as m:
        m.setattr(expsums, "_window_keys", keys_spy)
        m.setattr(np, "sort", sort_spy)
        got = expsums.mean_value(F3, 28, 3)
    assert got == want
    assert np.dtype(np.int64) in seen


def test_squared_pair_total_past_its_closed_form(monkeypatch):
    # sum(wts^2) = 2^34 + 29: 5 * sum(wts^2)^2 passes 2^63, so the closed
    # form of the hashed pass could wrap, and the wide windows are grouped
    # by their int64 keys instead
    vals, wts = [0, 3, 1 << 40], [1 << 17, 5, 2]
    want = weighted_pair_sums(vals, wts)
    seen = []
    window_keys = expsums._window_keys

    def spy(v, w, bits, window):
        seen.append((window[1] - window[0]) << bits > expsums.KEY32_SPAN)
        return window_keys(v, w, bits, window)

    monkeypatch.setattr(expsums, "_window_keys", spy)
    got = expsums._squared_pair_total(np.array(vals, dtype=np.int64), np.array(wts, dtype=np.int64), True)
    assert got == sum(c * c for c in want.values())
    assert any(seen)


@pytest.mark.parametrize("block", [1, 2, 3, 5])
def test_mean_value_block_edges_match_tuple_oracle(monkeypatch, block):
    # blocks this short cut the pair sums into windows of a few keys, so
    # runs of equal sums meet window edges, and they split the in-place
    # passes and the octuple-sum range of j = 4 many times
    monkeypatch.setattr(expsums, "BLOCK", block)
    cases = [
        (F1, 6, 2),
        (F1, 5, 3),
        (F1, 4, 4),
        (figurate.FigurateSpec(3, -4, 1), 8, 2),
        (figurate.FigurateSpec(3, -4, 1), 6, 3),
        (figurate.FigurateSpec(3, -4, 1), 8, 4),
        (WIDE, 4, 2),  # pair sums 2^58 apart: windows jump the gaps
        (WIDE, 4, 3),  # at BLOCK = 5 the span reaches its cap of 2^58
    ]
    if block == 5:
        # values 1 .. 22276: each j = 4 pass spans thousands of blocks, most
        # of them zero.  With one numpy add per block and value this case
        # takes 1.5 s here and 15 s at BLOCK = 1, where the cases above
        # already give every entry its own block
        cases.append((F2, 6, 4))
    for spec, N, j in cases:
        vals = [spec.value(n) for n in range(1, N + 1)]
        want = sum(c * c for c in sum_counter(vals, 2 ** (j - 1)).values())
        assert expsums.mean_value(spec, N, j) == want, (spec, N, j)


def meet_in_the_middle(quad):
    """The sixteenth moment from the quadruple-sum counts: the octuple-sum
    counts as products of pairs of them, squared and summed."""
    octo = Counter()
    for x, cx in quad.items():
        for y, cy in quad.items():
            octo[x + y] += cx * cy
    return sum(c * c for c in octo.values())


@pytest.mark.parametrize("spec, N", [(F2, 8), (F3, 7)])
def test_mean_value_j4_matches_meet_in_the_middle_oracle(spec, N):
    # at the default BLOCK: the largest shifted value (76951, 233694) passes
    # BLOCK, so the sweep's rolling windows wrap several times
    vals = [spec.value(n) for n in range(1, N + 1)]
    assert max(vals) - min(vals) > expsums.BLOCK
    assert expsums.mean_value(spec, N, 4) == meet_in_the_middle(sum_counter(vals, 4))


@pytest.mark.parametrize("wide", [False, True])
@pytest.mark.parametrize("spec, N", [(F2, 8), (F3, 7)])
def test_octuple_block_widens_to_int64_at_its_bound(monkeypatch, spec, N, wide):
    # every octuple-sum count is at most max(c4) * N^4: a limit at that bound
    # makes the block int64, one above it keeps it u4
    vals = [spec.value(n) for n in range(1, N + 1)]
    quad = sum_counter(vals, 4)
    monkeypatch.setattr(expsums, "OCTUPLE_U4_LIMIT", max(quad.values()) * N**4 + (0 if wide else 1))
    dtypes = set()
    squares = expsums._sum_of_squares_int64

    def spy(arr):
        dtypes.add(arr.dtype)
        return squares(arr)

    monkeypatch.setattr(expsums, "_sum_of_squares_int64", spy)
    assert expsums.mean_value(spec, N, 4) == meet_in_the_middle(quad)
    assert dtypes == {np.dtype(np.int64 if wide else np.uint32)}


def test_sixteenth_moment_holds_only_rolling_windows():
    # three u4 windows of 2^20 entries each, 12 MiB at {3,4,3}, N = 24, and
    # sparse quadruple-sum counts; a u4 table of all 7 * top + 1 septuple-sum
    # counts alone is 26 MiB
    tracemalloc.start()
    try:
        expsums.mean_value(F1, 24, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20


@pytest.mark.parametrize("N, j, cap_mib", [(3996, 2, 16), (90, 3, 16), (24, 4, 32)])
def test_mean_value_peak_memory(N, j, cap_mib):
    # the last pass is streamed: no array of its groups or pair keys (j = 2,
    # 3) or of the octuple-sum counts (j = 4) is held, only one window of
    # keys or the three rolling windows of the j = 4 sweep
    tracemalloc.start()
    try:
        expsums.mean_value(F1, N, j)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < cap_mib << 20


RSS_JOB = """
import sys
import numpy
from waring4 import expsums, figurate
if len(sys.argv) > 1:
    expsums.mean_value(figurate.catalog("{3,4,3}").spec, int(sys.argv[1]), int(sys.argv[2]))
"""


def test_mean_value_peak_rss_in_a_fresh_process():
    # the benchmark's peak_rss_mib, per job: a baseline child that imports
    # only numpy and expsums, then the j = 4 and j = 2 jobs above it.  The
    # j = 4 job's three u4 rings of 2^20 entries are 12 MiB of its 13
    baseline = child_peak_rss_mib("-c", RSS_JOB)
    for N, j in ((24, 4), (3996, 2)):
        assert child_peak_rss_mib("-c", RSS_JOB, str(N), str(j)) - baseline < 16, (N, j)


@pytest.mark.parametrize("spec, N", [(F1, 25), (F2, 17), (F3, 11)])
def test_sixteenth_moment_refusal_states_its_limits(spec, N):
    # {3,4,3} passes N <= 24; {3,3,5} and {5,3,3} pass the value spread first
    with pytest.raises(BudgetError) as info:
        expsums.mean_value(spec, N, 4)
    assert str(info.value) == (
        "sixteenth moment is limited to N <= 24 and 8*(max f - min f) <= 12000000"
    )


def test_mean_value_refuses_sums_past_int64():
    # quadruple sums of these values span more than 2^64; the unshifted int64
    # sums wrapped and the eighth moment read 2718 instead of 2716.  The pair
    # sums span 1.17 * 2^63: they fit int64 only once shifted by the midpoint
    spec = figurate.FigurateSpec(3, 2305843009213693961, -768614336404564661)
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


@pytest.mark.parametrize("top", [1 << 16, (1 << 32) - 1])
def test_sum_of_squares_int64_widens_u4_in_chunks(top):
    # u4 entries as the octuple block holds them, over three chunks: small
    # ones take the one dot per chunk, ones up to 2^32 - 1 the split
    rng = random.Random(top)
    vals = [rng.randrange(top + 1) for _ in range(2 * expsums.SQUARE_CHUNK + 3)] + [top]
    assert expsums._sum_of_squares_int64(np.array(vals, dtype=np.uint32)) == sum(v * v for v in vals)


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
