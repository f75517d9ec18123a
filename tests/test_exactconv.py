"""Exact kernels against naive loops: packed big-int cyclic powers and split
entries, numpy truncated sparse powers and their single entries, and block
widths, dtypes and 32-bit digit rows at their boundaries."""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from waring4 import exactconv, figurate, localdensity


def naive_cyclic_power(vec, s, q):
    out = [1] + [0] * (q - 1)
    for _ in range(s):
        nxt = [0] * q
        for i, a in enumerate(out):
            for j, b in enumerate(vec):
                nxt[(i + j) % q] += a * b
        out = nxt
    return out


def power_from_halves(vec, s, q):
    A, B = exactconv.cyclic_self_power(vec, s, q)
    return [sum(A[i] * B[(r - i) % q] for i in range(q)) for r in range(q)]


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
    A, B = exactconv.cyclic_self_power(vec, s, q)
    assert A == naive_cyclic_power(vec, s // 2, q)
    assert B == naive_cyclic_power(vec, s - s // 2, q)
    assert power_from_halves(vec, s, q) == naive_cyclic_power(vec, s, q)


@pytest.mark.parametrize(
    "total,s",
    [(256, 1), (256, 2), (16, 2), (16, 4), (16, 6), (4, 4), (4, 8), (2, 8), (2, 16)],
)
@pytest.mark.parametrize("q", [1, 2, 5])
def test_cyclic_power_at_a_width_boundary(total, s, q):
    # all mass on one residue: the single nonzero entry of every power is
    # exactly total**e, and 256**k needs one byte more than 256**k - 1; each
    # case puts the full power, and a half or a step before it, on a boundary
    vec = [0] * q
    vec[q - 1] = total
    A, B = exactconv.cyclic_self_power(vec, s, q)
    assert A == naive_cyclic_power(vec, s // 2, q)
    assert B == naive_cyclic_power(vec, s - s // 2, q)
    got = power_from_halves(vec, s, q)
    assert got == naive_cyclic_power(vec, s, q)
    assert max(got) == total**s and (total**s).bit_length() % 8 == 1


def test_cyclic_power_one_below_a_width_boundary():
    # sum 255 keeps every power's entries below 256**s: the narrow width
    for q in (1, 3):
        vec = [0] * q
        vec[0] = 255
        for s in range(7):
            A, B = exactconv.cyclic_self_power(vec, s, q)
            assert A == naive_cyclic_power(vec, s // 2, q)
            assert B == naive_cyclic_power(vec, s - s // 2, q)


def test_cyclic_self_power_rejects_bad_input():
    with pytest.raises(ValueError):
        exactconv.cyclic_self_power([1, 2], 2, 3)
    with pytest.raises(ValueError):
        exactconv.cyclic_self_power([1], -1, 1)
    with pytest.raises(ValueError):
        exactconv.cyclic_self_power([], 1, 0)
    with pytest.raises(ValueError):
        exactconv.cyclic_self_power([1, -1], 2, 2)


@st.composite
def congruence_cases(draw):
    A = draw(st.integers(1, 30))
    B = draw(st.integers(-30, 30))
    C = draw(st.integers(-30, 30))
    s = draw(st.integers(1, 4))
    t = draw(st.integers(1, 6))
    q = draw(st.integers(1, 9))
    m = draw(st.integers(-20, 40))
    return figurate.make_spec(A, B, C), s, m, t, q


@settings(max_examples=80, deadline=None)
@given(congruence_cases())
@example((figurate.make_spec(3, 4, 3), 1, 0, 1, 1))
@example((figurate.make_spec(3, 4, 3), 2, 7, 5, 8))
@example((figurate.make_spec(3, 3, 5), 3, 2, 6, 9))
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


def test_truncated_powers_with_repeated_values():
    # a value taken 300 times puts 300 on x^3 at step 1, past a u1 row, and
    # 300^2 on x^6 at step 2; the bound carries the multiplicity
    steps = exactconv._truncated_powers([3] * 300 + [1], {1, 2}, 7)
    assert steps[1][0][0].tolist() == [0, 1, 0, 300, 0, 0, 0]
    assert steps[2][0][0].tolist() == [0, 0, 1, 0, 600, 0, 90000]


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


@pytest.mark.parametrize(
    "n,s",
    # step e is held at the bound len(values)**(e - 1); each case has a half,
    # e = s // 2 or s - s // 2, whose bound is 256 (16**2, 4**4, 2**8,
    # 256**1) or whose next step's bound is.  16 values at s = 9, 17 and 33
    # put a half and the full profile on the bounds 2**16, 2**32 and 2**64,
    # where the dtype widens or the digit rows start; the s = 33 profile's
    # coefficients pass 2**64
    [(16, 3), (16, 4), (16, 5), (16, 6), (16, 7),
     (4, 7), (4, 8), (4, 9), (4, 10), (4, 11),
     (2, 15), (2, 16), (2, 17), (2, 18), (2, 19),
     (256, 1), (256, 2), (256, 3), (256, 4), (256, 5),
     (16, 9), (16, 17), (16, 33)],
)
def test_sparse_power_entry_at_a_half_width_boundary(n, s):
    values = list(range(n))
    top = s * (n - 1)
    want = dp_sparse_power(values, s, top)
    boundaries = {2**8, 2**16, 2**32, 2**64}
    assert any(
        {n ** max(e - 1, 0), n**e} & boundaries for e in (s // 2, s - s // 2)
    )
    for m in sorted({0, 1, top // 2, top - 1, top}):
        assert exactconv.sparse_power_entry(values, s, m) == want[m]
    assert exactconv.sparse_power_profile(values, s, top) == want


def test_sparse_power_entry_past_int64():
    # the central coefficient of (1 + x + ... + x^15)^18 is above 2**63, so
    # the byte-plane partial sums must recombine as Python ints
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


def test_sparse_power_entry_rejects_bad_input():
    with pytest.raises(ValueError):
        exactconv.sparse_power_entry([-1, 2], 2, 5)
    with pytest.raises(ValueError):
        exactconv.sparse_power_entry([1], -1, 5)
    with pytest.raises(ValueError):
        exactconv.sparse_power_entry([1], 2, -1)
    # past the int64 guard of the byte-plane dot; refused before any work
    with pytest.raises(OverflowError):
        exactconv.sparse_power_entry([1], 1, exactconv.MAX_DOT_ROWS)


@given(st.lists(st.integers(0, 2**40), max_size=20), st.integers(0, 3))
def test_pack_unpack_round_trip(seq, extra):
    width = exactconv._width_for(max(seq, default=0)) + extra
    assert exactconv.unpack(exactconv.pack(seq, width), width, len(seq)) == seq
