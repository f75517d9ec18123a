"""Exact representation counting: convolution tables, DFT cross-check, budgets."""

import itertools
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from waring4 import figurate, repcount
from waring4.errors import BudgetError

F1 = figurate.catalog("{3,4,3}").spec
F2 = figurate.catalog("{3,3,5}").spec
F3 = figurate.catalog("{5,3,3}").spec


def dict_dp_profile(spec, s, limit):
    """Independent oracle: dictionary-based polynomial powering."""
    vals = [spec.value(n) for n in range(1, len(figurate.values_upto(spec, limit)) + 1)]
    acc = {0: 1}
    for _ in range(s):
        new = {}
        for total, ways in acc.items():
            for v in vals:
                t = total + v
                if t <= limit:
                    new[t] = new.get(t, 0) + ways
        acc = new
    return [acc.get(m, 0) for m in range(limit + 1)]


def test_values_upto():
    assert repcount.values_upto(F1, 2000) == [1, 24, 153, 544, 1425]
    assert repcount.values_upto(F1, 0) == []


def test_profile_matches_dict_oracle():
    for sp in (F1, F2, F3):
        for s in (1, 2, 3):
            prof = repcount.count_profile(sp, s, 1200)
            oracle = dict_dp_profile(sp, s, 1200)
            assert list(prof.counts) == oracle[: len(prof.counts)]
            assert all(c == 0 for c in oracle[len(prof.counts):])


def test_profile_matches_nested_loops():
    vals = list(repcount.values_upto(F1, 600))
    brute = [0] * 601
    for a in vals:
        for b in vals:
            if a + b <= 600:
                brute[a + b] += 1
    prof = repcount.count_profile(F1, 2, 600)
    for m in range(601):
        got = prof.counts[m] if m < len(prof.counts) else 0
        assert got == brute[m]


def test_dft_profile_equals_exact_profile():
    for sp in (F1, F2, F3):
        for s in (1, 2, 3):
            exact = repcount.count_profile(sp, s, 2000)
            dft = repcount.count_profile_via_dft(sp, s, 2000)
            assert exact.counts == dft.counts


def test_single_count_equals_profile_entry():
    rng = random.Random(7)
    for _ in range(40):
        s = rng.randrange(1, 4)
        m = rng.randrange(1, 1500)
        prof = repcount.count_profile(F1, s, m)
        want = prof.counts[m] if m < len(prof.counts) else 0
        assert repcount.count_representations(F1, s, m) == want


def test_unit_representation():
    # m = s is reachable only by the all-ones tuple
    for sp in (F1, F2, F3):
        for s in range(1, 18):
            assert repcount.count_representations(sp, s, s) == 1


def test_frozen_large_counts():
    assert repcount.count_representations(F1, 17, 10**4) == 0
    assert repcount.count_representations(F1, 17, 3 * 10**5) == 149937624236400


def test_dft_entry_matches_exact_on_spot_checks():
    for (s, m) in ((2, 577), (3, 1000), (2, 25)):
        assert repcount.count_profile_via_dft(F1, s, m).entry(m) == repcount.count_representations(
            F1, s, m
        )


def test_budget_refusal():
    with pytest.raises(BudgetError):
        repcount.count_representations(F1, 17, 10**9, budget=10**4)
    with pytest.raises(BudgetError):
        repcount.count_profile_via_dft(F1, 2, 10**9)


def test_dft_refuses_counts_beyond_float_range():
    # within the degree guard, but counts reach len(vals)**40 >> 2^53, where
    # floats round to neighbours the 0.4 residue guard cannot detect
    spec = figurate.FigurateSpec(1, 0, 0)
    assert 40 * max(repcount.values_upto(spec, 26213)) <= repcount.DFT_DEGREE_LIMIT
    with pytest.raises(BudgetError):
        repcount.count_profile_via_dft(spec, 40, 26213)


def test_zero_below_minimum():
    # the smallest value of an s-fold sum is s
    for s in (1, 2, 5):
        for m in range(1, s):
            assert repcount.count_representations(F1, s, m) == 0


def test_count_vector_mass():
    """Total profile mass equals the number of s-tuples whose value sum stays
    under the limit, counted directly from the value list."""
    import itertools

    for s in (1, 2, 3):
        limit = 3000
        vals = repcount.values_upto(F1, limit)
        want = sum(
            1 for t in itertools.product(vals, repeat=s) if sum(t) <= limit
        )
        prof = repcount.count_profile(F1, s, limit)
        assert sum(prof.counts) == want


@st.composite
def small_valid_specs(draw):
    """Specs with A >= 1 and small B, C whose values increase (checked up to
    n = 40, past every value the tests below reach)."""
    spec = figurate.FigurateSpec(
        draw(st.integers(1, 20)), draw(st.integers(-6, 12)), draw(st.integers(0, 12))
    )
    assume(all(spec.value(n + 1) > spec.value(n) for n in range(40)))
    return spec


def brute_force_profile(spec, s, limit):
    """Counts of ordered s-tuples of indices n >= 1, by enumeration; f(n) >= n
    for an increasing f with f(1) = 1, so indices above limit never count."""
    vals = [spec.value(n) for n in range(1, limit + 1) if spec.value(n) <= limit]
    out = [0] * (limit + 1)
    for combo in itertools.product(vals, repeat=s):
        if sum(combo) <= limit:
            out[sum(combo)] += 1
    return out


@settings(max_examples=60, deadline=None)
@given(small_valid_specs(), st.integers(0, 4), st.integers(0, 300))
@example(figurate.FigurateSpec(1, 0, 0), 4, 300)
@example(figurate.FigurateSpec(72, 84, 22), 3, 300)
@example(figurate.FigurateSpec(1, 0, 0), 0, 0)
def test_counts_match_brute_force_enumeration(spec, s, limit):
    want = brute_force_profile(spec, s, limit)
    assert list(repcount.count_profile(spec, s, limit).counts) == want
    assert [repcount.count_representations(spec, s, m) for m in range(limit + 1)] == want
