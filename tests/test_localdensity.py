"""Congruence counts, p-adic densities, Hensel lifting, valuations."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waring4 import exactconv, figurate, localdensity
from waring4.errors import BudgetError
from waring4.singularseries import MAX_SERIES_Q

F1 = figurate.catalog("{3,4,3}").spec
F2 = figurate.catalog("{3,3,5}").spec
F3 = figurate.catalog("{5,3,3}").spec


def test_is_prime_small_table():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(-3, 50):
        assert localdensity.is_prime(n) == (n in primes)
    assert localdensity.is_prime(101)
    assert not localdensity.is_prime(1001)  # 7 * 11 * 13


def _direct_counts(spec, t, q):
    """Histogram of f(n) mod q over 1 <= n <= t by a direct scan; past 10^4,
    full periods of 24q times one period's Counter plus the prefix's."""
    full, rem = divmod(t, 24 * q) if t > 10**4 else (0, t)
    period = Counter(spec.value(n) % q for n in range(1, 24 * q + 1))
    prefix = Counter(spec.value(n) % q for n in range(1, rem + 1))
    return [full * period[r] + prefix[r] for r in range(q)]


def test_residue_counts_matches_direct_scan():
    rng = random.Random(31)
    for sp in (F1, F2, F3):
        for _ in range(12):
            q = rng.randrange(1, 30)
            period = 24 * q
            drawn = rng.randrange(1, period + 60)  # crosses the period boundary
            for t in (drawn, period - 1, period, period + 1, 3 * period + 5, 2**70 + 5):
                counts = figurate.residue_counts(sp, t, q)
                assert len(counts) == q and sum(counts) == t
                assert counts == _direct_counts(sp, t, q)


def test_count_congruence_rejects_bad_args():
    with pytest.raises(ValueError):
        localdensity.count_congruence(F1, 2, 0, 0, 5)
    with pytest.raises(ValueError):
        localdensity.count_congruence(F1, 2, 0, 10, 0)


def test_count_congruence_modulus_one():
    for s in (1, 2, 3):
        assert localdensity.count_congruence(F1, s, 0, 7, 1) == 7**s


def test_count_congruence_even_split():
    # f(n) for the {3,4,3} polynomial has parity n mod 2, so over a span of 48
    # the residues mod 2 split evenly and every target m gets exactly half
    for s in (1, 2, 4):
        for m in (0, 1):
            assert localdensity.count_congruence(F1, s, m, 48, 2) == 48**s // 2


def test_count_congruence_matches_nested_loops():
    for (sp, s, m, t, q) in [
        (F1, 2, 0, 5, 5),
        (F1, 3, 2, 7, 4),
        (F2, 2, 1, 9, 6),
        (F3, 2, 3, 11, 7),
    ]:
        vals = [sp.value(n) % q for n in range(1, t + 1)]
        want = 0
        stack = [(0, 0)]
        while stack:
            depth, acc = stack.pop()
            if depth == s:
                want += acc % q == m % q
                continue
            for v in vals:
                stack.append((depth + 1, acc + v))
        assert localdensity.count_congruence(sp, s, m, t, q) == want


def test_count_congruence_budget():
    with pytest.raises(BudgetError):
        localdensity.count_congruence(F1, 2, 0, 5001, 5001)


def test_exact_tables_refuse_a_huge_s_before_making_anything():
    # s = 10^18 would need about 10^19 bits per entry: each call is refused
    # from s and t alone, so it returns at once
    huge = 10**18
    calls = [
        lambda: localdensity.count_congruence(F1, huge, 5, 4096, 4096),
        lambda: localdensity.count_congruence(F1, huge, 5, 4999, 4999),
        lambda: localdensity.nonsingular_count(F1, huge, 5, 7),
        lambda: localdensity._singular_class(F1, huge, 7, 4, 0),
        lambda: localdensity.local_density_limit(F1, huge, 5, 7),
    ]
    for call in calls:
        with pytest.raises(BudgetError, match="capped at 4096-bit entries"):
            call()


def test_table_bit_cap_edges():
    cap = localdensity.TABLE_BITS_CAP
    # 2^4095 has 4096 bits and passes; 2^4096 does not
    assert localdensity.count_congruence(F1, cap - 1, 1, 2, 2) > 0
    with pytest.raises(BudgetError):
        localdensity.count_congruence(F1, cap, 1, 2, 2)
    # s = 300 passes at every exact modulus (5000^300 has 3687 bits)
    localdensity._check_table_bits(300, localdensity.EXACT_MODULUS_CAP)
    # one residue: every table entry is 0 or 1 at any s
    assert localdensity.count_congruence(F1, 10**18, 0, 1, 1) == 1


def test_density_limit_refuses_a_prime_exactly_where_its_first_level_is_refused():
    edge = localdensity.FLOAT_PERIOD_CAP // 24
    below = next(p for p in range(edge, 1, -1) if localdensity.is_prime(p))
    above = next(p for p in range(edge + 1, 2 * edge) if localdensity.is_prime(p))
    assert below > localdensity.EXACT_MODULUS_CAP  # level 1 of both takes the float path
    assert localdensity.local_density_limit(F1, 17, 5, below).levels[0][0] == 1
    for p in (above, above + 1):  # a composite is refused on the budget too
        with pytest.raises(BudgetError):
            localdensity.local_density_limit(F1, 17, 5, p)
        with pytest.raises(BudgetError):
            localdensity.local_density(F1, 17, 5, p, 1)


def test_congruence_cache_holds_a_prime_walk_at_the_series_cap():
    # a report reads every prime up to its prime limit once per m; ladders
    # from level 1 at the cap need 185 tables (a report's top-two-level walk
    # 170), and once they are cached a second m computes none of them again
    primes = [p for p in range(2, MAX_SERIES_Q + 1) if localdensity.is_prime(p)]
    cache = localdensity._congruence_profile
    cache.cache_clear()
    for p in primes:
        localdensity.local_density_limit(F1, 17, 10100, p)
    misses = cache.cache_info().misses
    assert misses > 128
    for p in primes:
        localdensity.local_density_limit(F1, 17, 30100, p)
    assert cache.cache_info().misses == misses


def test_scaling_identity_holds_for_integer_coefficient_specs():
    for sp in (F1, F3):
        for q in range(1, 21):
            for s in (1, 2, 5, 17):
                rep = localdensity.scaling_identity_check(sp, s, q % 7, q)
                assert rep.holds, (q, s, rep.context)


def test_scaling_identity_fails_exactly_at_multiples_of_three():
    """The {3,3,5} polynomial has 24f with a non-unit content at 3, and the
    period-24q identity genuinely breaks at every modulus divisible by 3."""
    bad = [
        q
        for q in range(1, 21)
        if not localdensity.scaling_identity_check(F2, 2, 1, q).holds
    ]
    assert bad == [3, 6, 9, 12, 15, 18]


def test_scaling_identity_frozen_counterexample():
    rep = localdensity.scaling_identity_check(F2, 5, 3, 12)
    assert not rep.holds
    assert "164433494016" in rep.context and "164396335104" in rep.context


def test_scaling_identity_large_order():
    assert localdensity.scaling_identity_check(F1, 17, 5, 7).holds
    with pytest.raises(ValueError):
        localdensity.scaling_identity_check(F1, 18, 0, 5)
    with pytest.raises(ValueError):
        localdensity.scaling_identity_check(F1, 2, 0, 31)


def test_nonsingular_count_matches_nested_loops():
    p, s, m = 5, 2, 0
    vals = {n: F1.value(n) % p for n in range(1, p + 1)}
    good_first = [
        n
        for n in range(1, p + 1)
        if vals[n] % p != 0 and F1.deriv12_at(n) % p != 0
    ]
    want = sum(
        1
        for n1 in good_first
        for n2 in range(1, p + 1)
        if (vals[n1] + vals[n2]) % p == m
    )
    assert localdensity.nonsingular_count(F1, s, m, p) == want


def test_nonsingular_count_single_summand():
    p = 7
    got = localdensity.nonsingular_count(F1, 1, F1.value(3) % p, p)
    brute = sum(
        1
        for n in range(1, p + 1)
        if F1.value(n) % p == F1.value(3) % p
        and F1.value(n) % p != 0
        and F1.deriv12_at(n) % p != 0
    )
    assert got == brute
    with pytest.raises(ValueError):
        localdensity.nonsingular_count(F1, 2, 0, 6)


def _enumerated_nonsingular(spec, s, p):
    """nonsingular_count for every m mod p, by enumerating the s-tuples."""
    vals = [spec.value(n) % p for n in range(1, p + 1)]
    counts = [0] * p
    for tup in itertools.product(range(p), repeat=s):
        if vals[tup[0]] != 0 and spec.deriv12_at(tup[0] + 1) % p != 0:
            counts[sum(vals[i] for i in tup) % p] += 1
    return counts


def _assert_nonsingular_every_residue(spec):
    for p in (5, 7, 11):
        for s in (1, 2, 3):
            got = [localdensity.nonsingular_count(spec, s, m, p) for m in range(p)]
            assert got == _enumerated_nonsingular(spec, s, p), (p, s)


@pytest.mark.parametrize("spec", [F1, F2, F3], ids=["343", "335", "533"])
def test_nonsingular_count_every_residue(spec):
    _assert_nonsingular_every_residue(spec)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 60), st.integers(-60, 60), st.integers(-60, 60))
def test_nonsingular_count_every_residue_drawn_spec(A, B, C):
    _assert_nonsingular_every_residue(figurate.FigurateSpec(A, B, C))


def test_local_density_level_zero_and_exact_path():
    assert localdensity.local_density(F1, 5, 3, 2, 0) == 1.0
    # rho_1 at p=2: counts over a single period of length 2
    c = localdensity.count_congruence(F1, 5, 3, 2, 2)
    assert localdensity.local_density(F1, 5, 3, 2, 1) == pytest.approx(c / 2**4)


def test_local_density_float_path_agrees_with_exact():
    from waring4.localdensity import _density_float

    for (s, m, p, k) in [(5, 0, 3, 4), (3, 2, 2, 7), (17, 3, 5, 3)]:
        exact = localdensity.local_density(F1, s, m, p, k)
        alt = _density_float(F1, s, m, p**k)
        assert alt == pytest.approx(exact, abs=1e-9)


def test_local_density_limit_stabilizes_past_twice_tau():
    # tau = 2 at p = 2 for the {3,4,3} polynomial, so levels from 2*tau+1 on
    # are all equal; here they are exactly 51/64
    rep = localdensity.local_density_limit(F1, 17, 3, 2)
    tail = [v for k, v in rep.levels if k >= 5]
    assert tail and all(v == tail[0] for v in tail)
    assert tail[0] == 51 / 64
    assert rep.stabilized and rep.estimate == 51 / 64
    assert rep.bound_value == 2.0 ** (5 * (1 - 17))
    assert rep.bound_holds


def test_local_density_limit_odd_primes():
    for p in (3, 5, 7):
        rep = localdensity.local_density_limit(F1, 17, 1, p)
        assert rep.stabilized
        assert rep.bound_value == float(p) ** (1 - 17)
        assert rep.bound_holds
    with pytest.raises(ValueError):
        localdensity.local_density_limit(F1, 17, 1, 4)


def test_local_density_limit_allows_a_local_obstruction():
    # the {3,4,3} values are 0 or 1 mod 4, so a sum of two is never 3 mod 4:
    # every level from k = 2 on is 0, a genuine limit of 0
    rep = localdensity.local_density_limit(F1, 2, 3, 2)
    assert rep.levels[0] == (1, 1.0)
    assert all(v == 0.0 for k, v in rep.levels[1:])
    assert rep.stabilized and rep.estimate == 0.0
    assert not rep.bound_holds


def _direct_profile(spec, s, q):
    """M_r(q, q) for every r mod q, from the direct kernel's cached table."""
    return list(localdensity._congruence_profile(spec, s, q, q))


@st.composite
def split_cases(draw):
    spec = figurate.FigurateSpec(draw(st.integers(1, 60)), draw(st.integers(-60, 60)), draw(st.integers(-60, 60)))
    p = draw(st.sampled_from([5, 7, 11, 13]))
    k = draw(st.integers(2, 3))
    s = draw(st.integers(1, 17))
    ms = draw(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=4))
    return spec, p, k, s, ms


@settings(max_examples=150, deadline=None)
@given(split_cases())
def test_hensel_split_matches_the_direct_kernel(case):
    spec, p, k, s, ms = case
    q = p**k
    for m in ms:
        direct = localdensity.count_congruence(spec, s, m, q, q)
        assert localdensity._hensel_count(spec, s, m, p, k) == direct
        assert localdensity.local_density(spec, s, m, p, k) == float(Fraction(direct, q ** (s - 1)))


def _direct_singular_profile(spec, s, p, k):
    """N_r(p^k) for every r mod p^k: the s-fold self-power of the histogram
    of f(n) mod p^k over the singular n (p | f'(n)) in 1..p^k."""
    q = p**k
    hist = [0] * q
    for n, fn in enumerate(figurate.residues(spec, q, q).tolist(), 1):
        if spec.deriv12_at(n) % p == 0:
            hist[fn] += 1
    return exactconv.cyclic_self_power(hist, s, q)


@st.composite
def class_cases(draw):
    spec = figurate.FigurateSpec(draw(st.integers(1, 60)), draw(st.integers(-60, 60)), draw(st.integers(-60, 60)))
    return spec, draw(st.sampled_from([5, 7, 11, 13])), draw(st.integers(1, 3)), draw(st.integers(1, 5))


@settings(max_examples=100, deadline=None)
@given(class_cases())
def test_singular_classes_join_to_the_direct_tables(case):
    # the classes u mod p^min(k, 2), joined, are the singular table N over
    # every residue; with it the split gives the direct kernel's M at every r
    spec, p, k, s = case
    q, pd = p**k, p ** min(k, 2)
    joined = [None] * q
    for u in range(pd):
        joined[u::pd] = localdensity._singular_class(spec, s, p, k, u)
    assert joined == _direct_singular_profile(spec, s, p, k)
    level_one = [localdensity._singular_class(spec, s, p, 1, u)[0] for u in range(p)]
    direct_one, direct = _direct_profile(spec, s, p), _direct_profile(spec, s, q)
    lift = p ** ((k - 1) * (s - 1))
    assert [lift * (direct_one[r % p] - level_one[r % p]) + joined[r] for r in range(q)] == direct


def test_s_100_ladder_frozen_at_every_level():
    # computed before the per-class tables: every level of the float ladder,
    # and each exact M_m(7^k) mod 2^61 - 1 and its bit length, where level 1
    # is the direct kernel's and levels 2..4 the split's
    rep = localdensity.local_density_limit(F1, 100, 12345, 7)
    assert rep.levels == ((1, 1.0), (2, 1.0), (3, 1.0), (4, 1.0))
    assert rep.stabilized and rep.estimate == 1.0
    counts = [localdensity.count_congruence(F1, 100, 12345, 7, 7)]
    counts += [localdensity._hensel_count(F1, 100, 12345, 7, k) for k in (2, 3, 4)]
    assert [(c % (2**61 - 1), c.bit_length()) for c in counts] == [
        (797355338241490394, 278),
        (642712491572319212, 556),
        (603104018858558581, 834),
        (187255220306027501, 1112),
    ]


@pytest.mark.parametrize("k_max,k_min", [(3, 0), (3, 4), (None, 5)])
def test_local_density_limit_rejects_k_min_outside_the_ladder(k_max, k_min):
    with pytest.raises(ValueError, match="k_min"):
        localdensity.local_density_limit(F1, 17, 1, 7, k_max=k_max, k_min=k_min)


def test_local_density_limit_from_k_min_lists_only_the_top_levels():
    full = localdensity.local_density_limit(F1, 17, 100032, 5)
    top = localdensity.local_density_limit(F1, 17, 100032, 5, k_min=4)
    assert localdensity.exact_depth(5) == 5
    assert top.levels == full.levels[3:]
    assert (top.stabilized, top.estimate, top.bound_holds) == (full.stabilized, full.estimate, full.bound_holds)


@pytest.mark.parametrize(
    "spec,p,roots,repeated",
    [
        (F2, 5, [1], None),  # p | A
        (F2, 29, [6, 13], None),  # p | A
        (F3, 29, [3, 8], None),  # p | A
        (F2, 13, [], None),  # no singular class
        (F2, 17, [], None),  # no singular class
        (F3, 5, [1, 3, 4], None),  # three singular classes
        (F1, 7, [0, 2, 6], None),
        (F1, 13, [0, 6, 8], None),
        (figurate.FigurateSpec(1, -10, -8), 5, [1, 3], 3),  # a double root
        (figurate.FigurateSpec(1, -7, -7), 5, [1], 1),  # a triple root
    ],
)
def test_hensel_split_every_residue(spec, p, roots, repeated):
    assert [r for r in range(p) if spec.deriv12_at(r) % p == 0] == roots
    if repeated is not None:  # (12 f')' vanishes there too
        d3, d2, d1, _ = spec.deriv12
        assert ((3 * d3 * repeated + 2 * d2) * repeated + d1) % p == 0
    for k in (2, 3) if p**3 <= 400 else (2,):
        q = p**k
        for s in (1, 2, 17):
            want = _direct_profile(spec, s, q)
            assert [localdensity._hensel_count(spec, s, r, p, k) for r in range(q)] == want


@pytest.mark.parametrize("spec", [F1, F2, F3], ids=["343", "335", "533"])
def test_p_at_least_5_ladders_pinned_to_the_direct_kernel(spec):
    for m in (10**4, 3 * 10**4, 10**5, 3 * 10**5):
        for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
            rep = localdensity.local_density_limit(spec, 17, m, p)
            direct = [
                (k, float(Fraction(localdensity.count_congruence(spec, 17, m, p**k, p**k), p ** (16 * k))))
                for k, _ in rep.levels
            ]
            assert rep.levels == tuple(direct)


@pytest.mark.parametrize("k_max", [0, -1])
def test_local_density_limit_rejects_k_max_below_one(k_max):
    with pytest.raises(ValueError):
        localdensity.local_density_limit(F1, 17, 1, 2, k_max=k_max)


def _valuation_scan(spec, p, stop):
    """min of v_p(f'(y)) over 1 <= y <= stop, skipping f'(y) = 0."""
    v12 = 2 if p == 2 else (1 if p == 3 else 0)
    best = None
    for y in range(1, stop + 1):
        d = spec.deriv12_at(y)
        if d == 0:
            continue
        v = 0
        while d % p == 0:
            d //= p
            v += 1
        if best is None or v - v12 < best:
            best = v - v12
    return best


def test_valuation_tau_frozen_values():
    assert [localdensity.valuation_tau(F1, p) for p in (2, 3, 5, 7)] == [2, 0, 0, 0]
    assert [localdensity.valuation_tau(F3, p) for p in (2, 3, 5)] == [0, 0, 0]
    # the {3,3,5} derivative has a factor 1/3 surviving at p = 3: 12 f' is
    # divisible by 12 but not 36 at the minimizing class, so the valuation
    # of f' itself is negative
    assert localdensity.valuation_tau(F2, 3) == -1
    with pytest.raises(ValueError):
        localdensity.valuation_tau(F1, 9)


def test_valuation_tau_matches_brute_scan():
    for (sp, p) in [(F1, 2), (F1, 3), (F2, 3), (F3, 5)]:
        assert localdensity.valuation_tau(sp, p) == _valuation_scan(sp, p, 10_000)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 10**4),
    st.integers(-(10**4), 10**4),
    st.integers(-(10**4), 10**4),
    st.sampled_from([p for p in range(5, 98) if exactconv.is_prime(p)]),
)
def test_valuation_tau_matches_a_scan_past_three(A, B, C, p):
    # at p >= 5 every v_p(f'(y)) is >= 0, so a minimum of 0 on the first
    # p^2 points is the minimum over the whole range max(p^3, 24p)
    spec = figurate.FigurateSpec(A, B, C)
    assert localdensity.valuation_tau(spec, p) == _valuation_scan(spec, p, p * p)


def test_valuation_tau_scans_nothing_past_three(monkeypatch):
    def scan(*args):
        raise AssertionError("valuation_tau scanned at p >= 5")

    monkeypatch.setattr(localdensity, "_derivative_valuation", scan)
    assert [localdensity.valuation_tau(sp, 211) for sp in (F1, F2, F3)] == [0, 0, 0]


def test_exact_depth_is_the_largest_power_under_the_cap():
    cap = localdensity.EXACT_MODULUS_CAP
    for p in range(2, cap + 1):
        if exactconv.is_prime(p):
            k = localdensity.exact_depth(p)
            assert p**k <= cap < p ** (k + 1)
    for p in (5003, 5009, 10007, 1_000_003):
        assert localdensity.exact_depth(p) == 1


def test_hensel_lift_frozen_enumeration():
    lifts = localdensity.hensel_lift(F1, 1, 1, 2, 5, 2)
    assert lifts == [1, 17, 33, 49]
    # lemma shape: exactly p^tau lifts, all congruent mod p^(j+1-tau)
    assert len(lifts) == 2**2
    assert len({b % 2 ** (5 + 1 - 2) for b in lifts}) == 1
    # direct re-check against mod-64 enumeration
    brute = sorted(
        b for b in range(0, 64) if b % 8 == 1 and (F1.value(b) - 1) % 64 == 0
    )
    assert lifts == brute


def test_hensel_lift_rejects_bad_data():
    with pytest.raises(ValueError):
        localdensity.hensel_lift(F1, 1, 1, 2, 4, 2)  # j < 2*tau + 1
    with pytest.raises(ValueError):
        localdensity.hensel_lift(F1, 2, 1, 2, 5, 2)  # f(a) != c at level j
    with pytest.raises(ValueError):
        localdensity.hensel_lift(F1, 1, 1, 2, 5, 1)  # wrong tau
    with pytest.raises(ValueError):
        localdensity.hensel_lift(F1, 1, 1, 4, 5, 2)  # composite p


def test_cauchy_davenport_random_sets():
    rng = random.Random(32)
    q = 31
    for _ in range(500):
        A = {rng.randrange(q) for _ in range(rng.randrange(1, 10))}
        B = {0} | {rng.randrange(1, q) for _ in range(rng.randrange(0, 8))}
        rep = localdensity.cauchy_davenport_check(A, B, q)
        assert rep.holds, (sorted(A), sorted(B), rep.lhs, rep.rhs)


def test_cauchy_davenport_preconditions():
    with pytest.raises(ValueError):
        localdensity.cauchy_davenport_check({1, 2}, {0, 3}, 30)  # composite q
    with pytest.raises(ValueError):
        localdensity.cauchy_davenport_check({1}, {1, 2}, 31)  # 0 missing from B
    with pytest.raises(ValueError):
        localdensity.cauchy_davenport_check(set(), {0}, 31)
