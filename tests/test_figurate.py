"""Exact evaluation of the quartic figurate polynomials and their catalog."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from waring4 import figurate
from waring4.errors import BudgetError


def test_catalog_coefficients():
    e1 = figurate.catalog("{3,4,3}")
    assert (e1.spec.A, e1.spec.B, e1.spec.C) == (72, 84, 22)
    e2 = figurate.catalog("{3,3,5}")
    assert (e2.spec.A, e2.spec.B, e2.spec.C) == (580, 590, 118)
    e3 = figurate.catalog("{5,3,3}")
    assert (e3.spec.A, e3.spec.B, e3.spec.C) == (3132, 3186, 598)


def test_catalog_values():
    f1 = figurate.catalog("{3,4,3}").spec
    assert [f1.value(n) for n in range(7)] == [0, 1, 24, 153, 544, 1425, 3096]
    f2 = figurate.catalog("{3,3,5}").spec
    assert f2.value(2) == 120
    assert f2.value(3) == 947
    f3 = figurate.catalog("{5,3,3}").spec
    assert f3.value(2) == 600
    # every entry starts 0, 1 because the binomial terms vanish at n <= 1
    for sp in figurate.catalog_specs():
        assert sp.value(0) == 0
        assert sp.value(1) == 1


def test_unknown_symbol_rejected():
    with pytest.raises(ValueError):
        figurate.catalog("{4,3,3}")


def test_spec_rejects_nonpositive_leading_coefficient():
    with pytest.raises(ValueError):
        figurate.FigurateSpec(0, 1, 1)
    with pytest.raises(ValueError):
        figurate.FigurateSpec(-4, 1, 1)


def test_spec_rejects_bool_coefficients():
    for args in ((True, 0, 0), (1, False, 0), (1, 0, True)):
        with pytest.raises(TypeError):
            figurate.FigurateSpec(*args)


def test_scaled24_matches_value():
    rng = random.Random(101)
    for _ in range(200):
        sp = figurate.FigurateSpec(
            rng.randrange(1, 4000), rng.randrange(-4000, 4000), rng.randrange(-4000, 4000)
        )
        n = rng.randrange(0, 500)
        assert sp.scaled24(n) == 24 * sp.value(n)


def test_poly24_has_no_constant_term():
    # 24*f(0) = 0, so the quartic through the origin is determined by 4 coefficients
    rng = random.Random(102)
    for _ in range(50):
        sp = figurate.FigurateSpec(rng.randrange(1, 100), rng.randrange(-100, 100), 7)
        assert len(sp.poly24) == 4
        assert sp.scaled24(0) == 0


def test_deriv12_matches_difference_quotient():
    """12*f'(y) should equal the exact derivative of the quartic.

    Cross-checked against the algebraic derivative of the poly24 form:
    d/dn (24 f(n)) = 2 * (12 f'(n)).
    """
    rng = random.Random(103)
    for _ in range(100):
        sp = figurate.FigurateSpec(
            rng.randrange(1, 2000), rng.randrange(-2000, 2000), rng.randrange(-2000, 2000)
        )
        c4, c3, c2, c1 = sp.poly24
        y = rng.randrange(-50, 50)
        poly24_deriv = 4 * c4 * y**3 + 3 * c3 * y**2 + 2 * c2 * y + c1
        assert 2 * sp.deriv12_at(y) == poly24_deriv


def test_first_catalog_derivative_closed_form():
    f1 = figurate.catalog("{3,4,3}").spec
    for y in range(-10, 20):
        assert f1.deriv12_at(y) == 48 * y * (3 * y * y - 3 * y + 1)
    assert f1.derivative(1.0) == pytest.approx(4.0)
    assert f1.derivative(2.0) == pytest.approx(56.0)


def test_real_value_agrees_with_exact_at_integers():
    for sp in figurate.catalog_specs():
        for n in range(0, 30):
            assert sp.real_value(float(n)) == pytest.approx(sp.value(n), rel=1e-12)


def test_max_index():
    f1 = figurate.catalog("{3,4,3}").spec
    assert len(figurate.values_upto(f1, 2000)) == 5
    assert len(figurate.values_upto(f1, 1)) == 1
    rng = random.Random(104)
    for sp in figurate.catalog_specs():
        for _ in range(50):
            m = rng.randrange(1, 10**9)
            k = len(figurate.values_upto(sp, m))
            assert sp.value(k) <= m < sp.value(k + 1)


def test_values_strictly_increasing():
    for sp in figurate.catalog_specs():
        vals = [sp.value(n) for n in range(1, 2001)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 10**4),
    st.integers(-(10**4), 10**4),
    st.integers(-(10**4), 10**4),
    st.integers(1, 60),
)
def test_residues_match_direct_values(A, B, C, q):
    # over one full period of n, against f(n) mod q in Python ints
    spec = figurate.FigurateSpec(A, B, C)
    got = figurate.residues(spec, 24 * q, q)
    assert got.tolist() == [spec.value(n) % q for n in range(1, 24 * q + 1)]


def test_residues_past_one_period():
    for sp in figurate.catalog_specs():
        for q in (1, 7, 60):
            count = 2 * 24 * q + 17
            want = [sp.value(n) % q for n in range(1, count + 1)]
            assert figurate.residues(sp, count, q).tolist() == want


def _full_scan_counts(spec, t, q):
    """The histogram from whole 24q periods plus a prefix, 24q being a period
    of f(n) mod q for every spec."""
    res = [spec.value(n) % q for n in range(1, 24 * q + 1)]
    full, rem = divmod(t, 24 * q)
    counts = [0] * q
    for i, r in enumerate(res):
        counts[r] += full + (i < rem)
    return counts


FIVE_CELL = figurate.FigurateSpec(1, 3, 3)  # C(n+3, 4): period 16 mod 2


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        st.sampled_from(figurate.catalog_specs() + [FIVE_CELL]),
        st.builds(
            figurate.FigurateSpec,
            st.integers(1, 10**4),
            st.integers(-(10**4), 10**4),
            st.integers(-(10**4), 10**4),
        ),
    ),
    st.integers(1, 72),
    st.integers(0, 3),
    st.integers(0, 24 * 72),
)
# {3,3,5} mod 3 has period 9 and the 5-cell mod 2 period 16: dropping the
# 3-adic or the 2-adic factor of the scanned period breaks these
@example(figurate.catalog("{3,3,5}").spec, 3, 2, 31)
@example(FIVE_CELL, 2, 1, 29)
def test_residue_counts_match_the_full_period_scan(spec, q, periods, prefix):
    t = periods * 24 * q + prefix % (24 * q)
    assert figurate.residue_counts(spec, t, q) == _full_scan_counts(spec, t, q)


def test_residues_modulus_guard():
    q = (1 << 31) // 24  # 24q = 2^31 - 8, the largest modulus the scan takes
    for sp in figurate.catalog_specs():
        want = [sp.value(n) % q for n in range(1, 51)]
        assert figurate.residues(sp, 50, q).tolist() == want
    # refused before any array is made: 10^18 entries could not be allocated
    with pytest.raises(BudgetError):
        figurate.residues(figurate.catalog("{3,4,3}").spec, 10**18, q + 1)
    with pytest.raises(ValueError):
        figurate.residues(figurate.catalog("{3,4,3}").spec, 5, 0)
