"""Exact kernels against naive loops: packed big-int cyclic powers, the
number-theoretic transform against both (its primes, roots and prime count
at the product boundaries), numpy truncated sparse powers and
their single entries, and block widths, dtypes and 32-bit digit rows at
their boundaries."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from waring4 import exactconv, figurate, localdensity
from waring4.errors import BudgetError


def naive_cyclic_power(vec, s, q):
    out = [1] + [0] * (q - 1)
    for _ in range(s):
        nxt = [0] * q
        for i, a in enumerate(out):
            for j, b in enumerate(vec):
                nxt[(i + j) % q] += a * b
        out = nxt
    return out


def naive_sparse_power(values, s, m_max):
    out = [0] * (m_max + 1)
    for combo in itertools.product(sorted(set(values)), repeat=s):
        if sum(combo) <= m_max:
            out[sum(combo)] += 1
    return out


@st.composite
def cyclic_cases(draw):
    q = draw(st.integers(1, 7))
    vec = draw(st.lists(st.integers(0, 300), min_size=q, max_size=q))
    return vec, draw(st.integers(0, 6)), q


@settings(max_examples=150, deadline=None)
@given(cyclic_cases())
@example(([5], 0, 1))
@example(([5], 1, 1))
@example(([5], 2, 1))
@example(([0, 0, 0], 3, 3))
@example(([3, 1, 4], 0, 3))
@example(([3, 1, 4], 1, 3))
@example(([3, 1, 4], 2, 3))
def test_cyclic_self_power_matches_naive(case):
    vec, s, q = case
    assert exactconv.cyclic_self_power(vec, s, q) == naive_cyclic_power(vec, s, q)


@pytest.mark.parametrize(
    "total,s",
    [(256, 1), (256, 2), (16, 2), (16, 4), (16, 6), (4, 4), (4, 8), (2, 8), (2, 16)],
)
@pytest.mark.parametrize("q", [1, 2, 5])
def test_cyclic_power_at_a_width_boundary(total, s, q):
    # all mass on one residue: the single nonzero entry of every power is
    # exactly total**e, and 256**k needs one byte more than 256**k - 1; each
    # case puts the full power, and a powering step before it, on a boundary
    # q = 1 and 2 take the transform, so the packed powering is run too
    vec = [0] * q
    vec[q - 1] = total
    for power in (exactconv.cyclic_self_power, exactconv._packed_self_power):
        got = power(vec, s, q)
        assert got == naive_cyclic_power(vec, s, q)
        assert max(got) == total**s and (total**s).bit_length() % 8 == 1


def test_cyclic_power_one_below_a_width_boundary():
    # sum 255 keeps every power's entries below 256**s: the narrow width
    for q in (1, 3):
        vec = [0] * q
        vec[0] = 255
        for s in range(7):
            for power in (exactconv.cyclic_self_power, exactconv._packed_self_power):
                assert power(vec, s, q) == naive_cyclic_power(vec, s, q)


def test_cyclic_self_power_rejects_bad_input():
    with pytest.raises(ValueError):
        exactconv.cyclic_self_power([1, 2], 2, 3)
    with pytest.raises(ValueError):
        exactconv.cyclic_self_power([1], -1, 1)
    with pytest.raises(ValueError):
        exactconv.cyclic_self_power([], 1, 0)
    with pytest.raises(ValueError):
        exactconv.cyclic_self_power([1, -1], 2, 2)


THREE_SMOOTH = [q for q in range(1, 73) if exactconv._radices(q) is not None]
LADDER_MODULI = [2**k for k in range(1, 13)] + [3**k for k in range(1, 8)]


@pytest.mark.parametrize("q", LADDER_MODULI)
def test_transform_matches_packed_powering_on_the_ladders(q):
    # every p = 2, 3 density level of the three catalog specs
    for spec in figurate.catalog_specs():
        vec = figurate.residue_counts(spec, q, q)
        for s in (0, 1, 2, 17):
            assert exactconv.cyclic_self_power(vec, s, q) == exactconv._packed_self_power(vec, s, q)


@st.composite
def three_smooth_cases(draw):
    q = draw(st.sampled_from(THREE_SMOOTH))
    vec = draw(st.lists(st.integers(0, 2**70), min_size=q, max_size=q))
    return vec, draw(st.integers(0, 8)), q


@settings(max_examples=60, deadline=None)
@given(three_smooth_cases())
@example(([2**70] * 72, 8, 72))
@example(([0] * 71 + [2**63], 3, 72))
@example(([2**63 - 1, 2**63], 1, 2))
@example(([2**63 - 1] * 6, 4, 6))
@example(([7], 5, 1))
def test_transform_with_wide_entries_matches_naive(case):
    # a 3-smooth q with an entry from 2**63 on takes the packed powering;
    # entries up to 2**63 - 1 take the transform
    vec, s, q = case
    assert exactconv.cyclic_self_power(vec, s, q) == naive_cyclic_power(vec, s, q)


@pytest.mark.parametrize("vec,s,q", [([2**63], 3, 1), ([0] * 71 + [2**63], 3, 72), ([2**70, 5, 0], 4, 3)])
def test_int64_overflowing_entries_never_reach_the_transform(vec, s, q, monkeypatch):
    def refuse(*args):
        raise AssertionError("an entry past int64 reached the transform")

    monkeypatch.setattr(exactconv, "_transform_self_power", refuse)
    assert exactconv.cyclic_self_power(vec, s, q) == naive_cyclic_power(vec, s, q)


@pytest.mark.parametrize("q", [6, 8])
def test_count_congruence_past_int64_histogram(q):
    # t = 2^70 + 5 puts about 2^70 / q >= 2^63 on each histogram entry, so
    # the 3-smooth q takes the packed powering, not the transform
    spec, s, t, m = figurate.catalog("{3,4,3}").spec, 3, 2**70 + 5, 11
    period = 24 * q
    full, rem = divmod(t, period)
    hist = [0] * q
    for n in range(1, period + 1):
        hist[spec.value(n) % q] += full + (n <= rem)
    assert min(v for v in hist if v) >= 2**63
    want = naive_cyclic_power(hist, s, q)[m % q]
    localdensity._congruence_profile.cache_clear()
    assert localdensity.count_congruence(spec, s, m, t, q) == want


def _first_primes_product(q, n):
    # each prime is below 2**32, so this bound takes more than n of them
    return math.prod(exactconv._primes(q, 2 ** (32 * n))[:n])


@pytest.mark.parametrize("q", [1, 4, 12, 27])
@pytest.mark.parametrize("n,e", [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (4, 3), (5, 4)])
def test_prime_count_is_exact_at_the_product_of_primes(q, n, e):
    # all mass c on one residue: the e-th power's one nonzero entry is c^e,
    # which is the bound max * sum**(e - 1) itself.  c^e just below the
    # product of the first n primes needs exactly n of them, and (c + 1)^e
    # just above it n + 1; with one prime fewer, c^e would wrap
    product = _first_primes_product(q, n)
    c = round(product ** (1 / e))
    while c**e >= product:
        c -= 1
    while (c + 1) ** e < product:
        c += 1
    for top, count in ((c, n), (c + 1, n + 1)):
        assert len(exactconv._primes(q, top**e)) == count
        assert _first_primes_product(q, count - 1) <= top**e < _first_primes_product(q, count)
        vec = [0] * q
        vec[q // 2] = top
        got = exactconv.cyclic_self_power(vec, e, q)
        assert got == naive_cyclic_power(vec, e, q)
        assert max(got) == top**e


def _multiplicative_order(w, P):
    k, x = 1, w
    while x != 1:
        x, k = x * w % P, k + 1
    return k


def trial_division(n):
    """Whether n is prime, by trial division: an oracle apart from the kernel's test."""
    return n == 2 or (n > 2 and n % 2 == 1 and all(n % d for d in range(3, math.isqrt(n) + 1, 2)))


def strong_probable_prime(n, a):
    """Whether odd n > 2 passes Miller-Rabin's round to the base a."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2**i, n) == n - 1 for i in range(1, r))


@pytest.mark.parametrize("q", LADDER_MODULI + [1, 6, 72, 4608])
def test_transform_primes_and_roots(q):
    # the primes of the deepest plan any ladder level takes at s = 17
    assert exactconv.PRIME_CAP**2 < 2**63 <= (exactconv.PRIME_CAP + 1) ** 2
    assert exactconv.PRIME_CAP < exactconv.PRIME_TEST_LIMIT  # the twelve bases are exact there
    primes = exactconv._primes(q, q * q**16)
    assert list(primes) == sorted(set(primes), reverse=True)
    for P in primes:
        assert trial_division(P)
        assert (P - 1) % q == 0 and P < exactconv.PRIME_CAP
        assert _multiplicative_order(exactconv._root_of_order(q, P), P) == q


def test_miller_rabin_agrees_with_trial_division():
    window = range(3_037_000_000 - 3000, 3_037_000_000)
    assert [n for n in window if exactconv.is_prime(n)] == [n for n in window if trial_division(n)]
    small = range(-2, 2000)
    assert [n for n in small if exactconv.is_prime(n)] == [n for n in small if trial_division(n)]


def test_is_prime_past_the_least_pseudoprime_to_four_bases():
    # 3,215,031,751 = 151 * 751 * 28351 is the least strong pseudoprime to
    # the bases 2, 3, 5, 7: those four alone would call it prime
    psp = 3_215_031_751
    assert psp == 151 * 751 * 28351
    assert all(strong_probable_prime(psp, a) for a in (2, 3, 5, 7))
    assert not exactconv.is_prime(psp)
    window = range(psp - 2000, psp)
    assert [n for n in window if exactconv.is_prime(n)] == [n for n in window if trial_division(n)]


def test_is_prime_refuses_from_its_limit():
    # the limit is the least strong pseudoprime to all twelve bases
    limit = exactconv.PRIME_TEST_LIMIT
    assert limit == 399_165_290_221 * 798_330_580_441
    assert all(strong_probable_prime(limit, a) for a in exactconv.PRIME_BASES)
    assert not exactconv.is_prime(limit - 1)
    assert exactconv.is_prime(2**61 - 1) and not exactconv.is_prime(2**67 - 1)
    for n in (limit, limit + 2, 2**89 - 1):
        with pytest.raises(BudgetError, match="primality"):
            exactconv.is_prime(n)


@pytest.mark.parametrize("q", [1, 2, 3, 6, 16, 18, 27, 72])
def test_transform_matches_the_naive_sum(q):
    # X[k] = sum_m x[m] w^(km) mod P, and the same stages read at -k undo
    # it up to q
    plan = exactconv._plan(q, exactconv._primes(q, 2**64))
    rows = [[(m * 2654435761 + 17 * i) % P for m in range(q)] for i, P in enumerate(plan.primes)]
    x = np.array(rows, np.int64)
    got = exactconv._transform(x, plan.moduli, plan.stages)
    for i, P in enumerate(plan.primes):
        w = exactconv._root_of_order(q, P)
        want = [sum(v * pow(w, k * m, P) for m, v in enumerate(rows[i])) % P for k in range(q)]
        assert got[i].tolist() == want
    back = exactconv._transform(got, plan.moduli, plan.stages)[:, -np.arange(q) % q]
    assert (back * plan.q_inv % plan.moduli[:, 0] == x).all()


def naive_cyclic_product(x, y, q):
    return [sum(x[i] * y[(r - i) % q] for i in range(q)) for r in range(q)]


@st.composite
def cyclic_pairs(draw):
    q = draw(st.integers(1, 7))
    x = draw(st.lists(st.integers(0, 2**70), min_size=q, max_size=q))
    y = draw(st.lists(st.integers(0, 300), min_size=q, max_size=q))
    return x, y, q


@settings(max_examples=150, deadline=None)
@given(cyclic_pairs())
@example(([0, 0], [0, 0], 2))
@example(([2**64 - 1], [1], 1))
@example(([255, 0, 0], [1, 1, 1], 3))
def test_cyclic_multiply_matches_naive_within_its_bound(case):
    x, y, q = case
    px, py = exactconv.packed_vector(x), exactconv.packed_vector(y)
    want = naive_cyclic_product(x, y, q)
    for a, b in ((px, py), (py, px)):
        got = exactconv.cyclic_multiply(a, b, q)
        assert exactconv.unpack(got.packed, got.width, q) == want
        # every entry is at most max(x) * sum(y) and max(y) * sum(x)
        assert got.bound == min(max(x) * sum(y), max(y) * sum(x)) >= max(want)
        assert got.total == sum(want)
    square = exactconv.cyclic_multiply(px, px, q)
    assert exactconv.unpack(square.packed, square.width, q) == naive_cyclic_product(x, x, q)
    unit = exactconv.cyclic_multiply(exactconv.UNIT, py, q)
    assert exactconv.unpack(unit.packed, unit.width, q) == y


@st.composite
def congruence_cases(draw):
    A = draw(st.integers(1, 30))
    B = draw(st.integers(-30, 30))
    C = draw(st.integers(-30, 30))
    s = draw(st.integers(1, 4))
    t = draw(st.integers(1, 6))
    q = draw(st.integers(1, 9))
    m = draw(st.integers(-20, 40))
    return figurate.FigurateSpec(A, B, C), s, m, t, q


@settings(max_examples=80, deadline=None)
@given(congruence_cases())
@example((figurate.FigurateSpec(3, 4, 3), 1, 0, 1, 1))
@example((figurate.FigurateSpec(3, 4, 3), 2, 7, 5, 8))
@example((figurate.FigurateSpec(3, 3, 5), 3, 2, 6, 9))
def test_count_congruence_split_entry_matches_enumeration(case):
    spec, s, m, t, q = case
    residues = [spec.value(n) % q for n in range(1, t + 1)]
    want = sum(
        1 for combo in itertools.product(residues, repeat=s) if (sum(combo) - m) % q == 0
    )
    assert localdensity.count_congruence(spec, s, m, t, q) == want


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(0, 25), max_size=6),
    st.integers(0, 6),
    st.integers(0, 30),
)
@example([], 0, 0)
@example([], 2, 5)
@example([0], 3, 0)
@example([1, 2], 1, 4)
@example([1, 2], 2, 4)
def test_sparse_power_profile_matches_naive(values, s, m_max):
    assert exactconv.sparse_power_profile(values, s, m_max) == naive_sparse_power(
        values, s, m_max
    )


def test_sparse_power_profile_at_a_width_boundary():
    # n values at s = 2 size the blocks from the bound n**(2 - 1) = n, just
    # past one (two) bytes, and the coefficient of x^(n - 1) reaches it
    # exactly: the square of 1 + x + ... + x^(n - 1) has min(k, 2n - 2 - k) + 1
    # at x^k
    values = list(range(256))
    want = naive_sparse_power(values, 2, 510)
    assert want == [min(k, 510 - k) + 1 for k in range(511)]
    assert exactconv.sparse_power_profile(values, 2, 510) == want
    n = 2**16
    want = list(range(1, n + 1))
    assert exactconv.sparse_power_profile(range(n), 2, n - 1) == want


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(0, 12), min_size=1, max_size=5),
    st.integers(1, 5),
    st.integers(0, 4),
)
@example([0], 3, 0)
@example([4], 3, 0)  # one value: x^12 is the only nonzero coefficient
@example([1, 5], 4, 0)
@example([2, 3, 11], 5, 4)
def test_sparse_power_past_the_live_prefix(values, s, extra):
    # m_max >= s * max(values): every pass reads the whole live prefix of
    # step e - 1, its (e - 1) * max(values) + 1 low entries, up to its last
    # nonzero entry at x^((e - 1) * max(values)); one entry short drops it
    m_max = s * max(values) + extra
    want = naive_sparse_power(values, s, m_max)
    assert exactconv.sparse_power_profile(values, s, m_max) == want
    for m in range(m_max + 1):
        assert exactconv.sparse_power_entry(values, s, m) == want[m]


def dense_shift_add(c, lo, length, shifts):
    """Entries lo .. lo + length - 1 of sum_v x^v * c for the dense rows c."""
    out = np.zeros((len(c), length), np.int64)
    for k in range(lo, lo + length):
        for v in shifts:
            if 0 <= k - v < c.shape[1]:
                out[:, k - lo] += c[:, k - v]
    return out


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("size, length", [(8, 8), (8, 3), (7, 1), (12, 5)])
def test_shift_add_from_a_rolling_window_matches_a_dense_oracle(rows, size, length):
    # c[i] sits at window[:, i % size] for the entries a block reads, i from
    # lo - spread to lo + length - 1, and is zero from live on; every other
    # slot holds a large decoy, so a read outside the window or past live
    # shows.  lo runs over every block offset lo % size three times round
    rng = np.random.default_rng(100 * size + 10 * length + rows)
    spread = size - length
    shifts = sorted({0, spread, *rng.integers(0, spread + 1, 3).tolist()})
    for lo in range(3 * size):
        for live in sorted({0, max(lo - spread + 1, 0), lo, lo + length // 2, lo + length, lo + 2 * size}):
            c = rng.integers(1, 1 << 20, (rows, live))
            window = rng.integers(1 << 40, 1 << 41, (rows, size))
            for i in range(max(lo - spread, 0), min(lo + length, live)):
                window[:, i % size] = c[:, i]
            block = rng.integers(0, 1 << 20, (rows, length))
            want = block + dense_shift_add(c, lo, length, shifts)
            # one row goes in as 1-D arrays, as the j = 4 moment passes it
            exactconv._shift_add(block if rows > 1 else block[0], lo, window if rows > 1 else window[0], shifts, live)
            assert (block == want).all(), (lo, live)


def test_truncated_powers_with_repeated_values():
    # a value taken 300 times puts 300 on x^3 at step 1, past a u1 row, and
    # 300^2 on x^6 at step 2; len(vals) in the bound counts every repeat
    steps = exactconv._truncated_powers([3] * 300 + [1], {1, 2}, 7)
    assert steps[1][0][0].tolist() == [0, 1, 0, 300, 0, 0, 0]
    assert steps[2][0][0].tolist() == [0, 0, 1, 0, 600, 0, 90000]


def naive_steps(vals, count, e_max):
    """Steps 0 .. e_max of (sum_v x^v)^e truncated to count coefficients,
    as Python ints; a repeated value counts once per repeat."""
    weights = sorted(Counter(vals).items())
    steps = [[1] + [0] * (count - 1)]
    for _ in range(e_max):
        nxt = [0] * count
        for k, c in enumerate(steps[-1]):
            for v, w in weights:
                if c and k + v < count:
                    nxt[k + v] += c * w
        steps.append(nxt)
    return steps


def layout_values(power):
    """The coefficients of a _power_array layout (one row, or 32-bit digit
    rows, low digit first) as Python ints."""
    return [sum(int(d) << (32 * r) for r, d in enumerate(column)) for column in power.T]


def narrowest_layout(bound):
    """(dtype, rows) of the narrowest unsigned row that holds bound, or of
    the 32-bit digit rows in uint64 from 2**64 on."""
    for dtype in (np.uint8, np.uint16, np.uint32, np.uint64):
        if bound < 2 ** (8 * np.dtype(dtype).itemsize):
            return np.dtype(dtype), 1
    return np.dtype(np.uint64), -(-bound.bit_length() // 32)


def step_bound(vals, prev, prev_rows):
    """len(vals) times the bound on a step whose coefficients are prev: its
    maximum in one row; with digit rows, (max of the top digit + 1) times
    the weight of that digit."""
    top = max(prev)
    if prev_rows > 1:
        shift = 32 * (prev_rows - 1)
        top = ((top >> shift) + 1) << shift
    return len(vals) * top


@st.composite
def multiset_cases(draw):
    distinct = draw(st.lists(st.integers(0, 12), min_size=1, max_size=4, unique=True))
    vals = [v for v in distinct for _ in range(draw(st.integers(1, 40)))]
    count = draw(st.integers(max(vals) + 1, 40))
    return vals, count, draw(st.integers(1, 14))


@settings(max_examples=80, deadline=None)
@given(multiset_cases())
@example(([0] * 16, 2, 17))  # every step is 16**e at x^0: tight, into digit rows
@example(([0] * 40 + [1] * 40 + [5], 12, 14))
@example((list(range(13)), 40, 14))
def test_every_step_is_within_its_bound_at_the_narrowest_layout(case):
    # step e's bound is len(vals) times the bound on step e - 1 read from its
    # data, and its layout is the narrowest that holds that bound
    vals, count, s = case
    steps = exactconv._truncated_powers(vals, set(range(s + 1)), count)
    naive = naive_steps(vals, count, s)
    for e in range(1, s + 1):
        power, bound = steps[e]
        got = layout_values(power)
        assert got == naive[e]
        assert bound == step_bound(vals, naive[e - 1], len(steps[e - 1][0]))
        assert max(got) <= bound
        assert (power.dtype, len(power)) == narrowest_layout(bound)


# value lists and truncations searched for step bounds len(vals) * M that
# land exactly on 2**8, 2**16, 2**32 and 2**64: step 2 of 16 (256) distinct
# values from 0 peaks at 16 (256); step 1 of 256 values at 1; a value taken
# 16 times makes step e exactly 16**e at x^0, so its bound is reached
LANDING_SEARCH = [
    (list(range(16)), 32, 4),
    (list(range(256)), 512, 3),
    ([0] * 16, 2, 16),
    ([0] * 4 + [1] * 4, 3, 4),
]


def test_step_bounds_landing_on_a_width_boundary():
    layouts = {2**8: ("<u2", 1), 2**16: ("<u4", 1), 2**32: ("<u8", 1), 2**64: ("<u8", 3)}
    landed, tight = set(), set()
    for vals, count, e_max in LANDING_SEARCH:
        steps = exactconv._truncated_powers(vals, set(range(e_max + 1)), count)
        naive = naive_steps(vals, count, e_max)
        for e in range(1, e_max + 1):
            power, bound = steps[e]
            assert bound == len(vals) * max(naive[e - 1])
            if bound in layouts:
                landed.add(bound)
                assert (power.dtype, len(power)) == (np.dtype(layouts[bound][0]), layouts[bound][1])
                assert layout_values(power) == naive[e]
                if max(naive[e]) == bound:
                    tight.add(bound)
    assert landed == tight == set(layouts)


@pytest.mark.parametrize("s", [3, 5, 6, 7])
def test_sparse_power_entry_where_a_half_bound_lands_on_2_16(s):
    # 256 distinct values: step 2 peaks at 256, at x^255, so step 3's bound
    # is 256 * 256 = 2**16 and step 3 is u4; it is the lower half at s = 6
    # and 7 and the upper half, made block by block, at s = 5
    values = list(range(256))
    top = s * 255
    assert exactconv._truncated_powers(values, {3}, top + 1)[3][1] == 2**16
    profile = exactconv.sparse_power_profile(values, s, top)
    assert sum(profile) == 256**s
    for m in sorted({0, 255, 256, top // 2, top - 1, top}):
        assert exactconv.sparse_power_entry(values, s, m) == profile[m]


@pytest.mark.parametrize(
    "label, r17, r16",
    [
        ("{3,4,3}", 3174212669355000, 162638115123120),
        ("{3,3,5}", 749530782000, 228702474000),
        ("{5,3,3}", 0, 1210809600),
    ],
)
def test_counts_frozen_at_the_single_count_size(label, r17, r16):
    # R_17 and R_16 at m = 999,500, the benchmark's count-single size, as read
    # by two modular shift-add profiles joined by the Chinese remainder theorem
    values = figurate.values_upto(figurate.catalog(label).spec, 999_500)
    assert exactconv.sparse_power_entry(values, 17, 999_500) == r17
    assert exactconv.sparse_power_entry(values, 16, 999_500) == r16


def dp_sparse_power(values, s, m_max):
    """Repeated truncated convolution of plain lists; for sizes where tuple
    enumeration is too slow."""
    out = [1] + [0] * m_max
    for _ in range(s):
        nxt = [0] * (m_max + 1)
        for i, c in enumerate(out):
            if c:
                for v in set(values):
                    if i + v <= m_max:
                        nxt[i + v] += c
        out = nxt
    return out


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, 25), max_size=6),
    st.integers(0, 6),
    st.integers(0, 30),
)
@example([], 0, 0)
@example([], 0, 4)
@example([], 1, 0)
@example([], 2, 5)
@example([3, 7], 0, 0)
@example([3, 7], 1, 0)
@example([3, 7], 2, 0)
@example([3, 7], 1, 2)  # m below the smallest value
@example([3, 7], 2, 2)
@example([0], 3, 0)
@example([1, 2], 1, 4)
@example([1, 2], 2, 4)
@example([0, 5, 5, 30], 2, 10)
def test_sparse_power_entry_matches_naive(values, s, m):
    want = naive_sparse_power(values, s, m)[m]
    assert exactconv.sparse_power_entry(values, s, m) == want
    assert exactconv.sparse_power_profile(values, s, m)[m] == want


# value sets whose step bounds, len(values) times the previous step's
# maximum, land on a width boundary, found as LANDING_SEARCH's are: 256
# values from 0 put steps 1 and 2 on 2**8 and step 3 on 2**16; step 2 of 16
# values peaks at 16 where 16 ordered pairs share a sum, as at the centre of
# range(16), of the 4 x 4 grid i + 8j and of the subset sums of 1, 3, 9, 27
# (no base-3 carry), so step 3's bound is 2**8
HALF_WIDTH_VALUES = {
    "16": list(range(16)),
    "256": list(range(256)),
    "grid": sorted(i + 8 * j for i in range(4) for j in range(4)),
    "cube": sorted(a + 3 * b + 9 * c + 27 * d for a, b, c, d in itertools.product(range(2), repeat=4)),
}


@pytest.mark.parametrize(
    "name,s",
    # the halves of 16 values at s = 9, 17 and 33 sit past step 3, and the
    # s = 33 profile's coefficients pass 2**64
    [("16", 3), ("16", 4), ("16", 5), ("16", 6), ("16", 7),
     ("grid", 7), ("grid", 8), ("grid", 9), ("grid", 10), ("grid", 11),
     ("cube", 15), ("cube", 16), ("cube", 17), ("cube", 18), ("cube", 19),
     ("256", 1), ("256", 2), ("256", 3), ("256", 4), ("256", 5),
     ("16", 9), ("16", 17), ("16", 33)],
)
def test_sparse_power_entry_at_a_half_width_boundary(name, s):
    values = HALF_WIDTH_VALUES[name]
    top = s * max(values)
    want = dp_sparse_power(values, s, top)
    # a half, e = s // 2 or s - s // 2, or the step after it has the bound
    # _truncated_powers gives it on a width boundary
    steps = exactconv._truncated_powers(values, set(range(1, s - s // 2 + 2)), top + 1)
    assert {bound for _, bound in steps.values()} & {2**8, 2**16, 2**32, 2**64}
    for m in sorted({0, 1, top // 2, top - 1, top}):
        assert exactconv.sparse_power_entry(values, s, m) == want[m]
    assert exactconv.sparse_power_profile(values, s, top) == want


def test_sparse_power_entry_past_int64():
    # the central coefficient of (1 + x + ... + x^15)^18 is above 2**63, so
    # the digit-plane partial sums must recombine as Python ints
    values, s = list(range(16)), 18
    m = s * 15 // 2
    want = dp_sparse_power(values, s, m)[m]
    assert want >= 2**63
    assert exactconv.sparse_power_entry(values, s, m) == want


def test_sparse_power_entry_over_several_dot_chunks():
    # more than DOT_ROWS coefficients, so the dot runs over several chunks
    values = [1, 7, 500, 40_000, 90_000]
    m = exactconv.DOT_ROWS + 12_345
    for s in (2, 3):
        want = dp_sparse_power(values, s - 1, m)
        got = exactconv.sparse_power_entry(values, s, m)
        assert got == sum(want[m - v] for v in values if v <= m)
        assert got == exactconv.sparse_power_profile(values, s, m)[m]


def test_sparse_power_entry_multi_digit_upper_half_over_several_blocks():
    # odd s: the upper half B = step 12 is made DOT_ROWS entries at a time.
    # Its bound, 64 times A's maximum, passes 2**64 and needs 32-bit digit
    # rows, and the lower half A = step 11 (one uint64 row) is split into
    # digits first.  m + 1 is not a multiple of DOT_ROWS, so the last block
    # is short.  The value
    # m - 372 pairs A's entries past the first block with B's first entries,
    # which pass 2**64, and A's first entries with B's last block
    m = exactconv.DOT_ROWS + 12_345
    values, s = list(range(63)) + [m - 372], 23
    assert len(values) ** (s // 2) >= 2**64 > len(values) ** (s // 2 - 1)
    assert (m + 1) % exactconv.DOT_ROWS and m + 1 > exactconv.DOT_ROWS
    assert max(exactconv.sparse_power_profile(values, s - s // 2, m)) >= 2**64
    got = exactconv.sparse_power_entry(values, s, m)
    assert got == exactconv.sparse_power_profile(values, s, m)[m]
    below = exactconv.sparse_power_profile(values, s - 1, m)
    assert got == sum(below[m - v] for v in values)


def test_sparse_power_entry_rejects_bad_input():
    with pytest.raises(ValueError):
        exactconv.sparse_power_entry([-1, 2], 2, 5)
    with pytest.raises(ValueError):
        exactconv.sparse_power_entry([1], -1, 5)
    with pytest.raises(ValueError):
        exactconv.sparse_power_entry([1], 2, -1)
    # past MAX_DOT_ROWS; refused before any work
    with pytest.raises(OverflowError):
        exactconv.sparse_power_entry([1], 1, exactconv.MAX_DOT_ROWS)


@given(st.lists(st.integers(0, 2**40), max_size=20), st.integers(0, 3))
def test_pack_unpack_round_trip(seq, extra):
    width = exactconv._width_for(max(seq, default=0)) + extra
    assert exactconv.unpack(exactconv.pack(seq, width), width, len(seq)) == seq
