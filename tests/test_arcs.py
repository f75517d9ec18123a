"""Arc dissection, major/minor decomposition, end-to-end comparison report."""

import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from waring4 import arcs, figurate, repcount
from waring4.errors import BudgetError

from fresh_process import child_loaded_modules

F1 = figurate.catalog("{3,4,3}").spec
F2 = figurate.catalog("{3,3,5}").spec
F3 = figurate.catalog("{5,3,3}").spec


def test_integer_fourth_root():
    rng = random.Random(41)
    for _ in range(300):
        x = rng.randrange(0, 10**18)
        r = arcs.integer_fourth_root(x)
        assert r**4 <= x < (r + 1) ** 4
    for k in (1, 2, 7, 10**4):
        assert arcs.integer_fourth_root(k**4) == k
        assert arcs.integer_fourth_root(k**4 - 1) == k - 1
        assert arcs.integer_fourth_root(k**4 + 1) == k
    with pytest.raises(ValueError):
        arcs.integer_fourth_root(-1)


def test_choose_N_frozen_points():
    assert arcs.choose_N(72, 10**6) == 26
    assert arcs.choose_N(24, 16) == 3
    assert arcs.choose_N(72, 3) == 2


def test_choose_N_bracketing_property():
    rng = random.Random(42)
    for sp in (F1, F2):
        for _ in range(100):
            m = rng.randrange(1, 10**9)
            N = arcs.choose_N(sp.A, m)
            assert sp.A * (N - 1) ** 4 >= 24 * m
            if N > 2:
                assert sp.A * (N - 2) ** 4 < 24 * m
            assert sp.value(N) >= m
    with pytest.raises(ValueError):
        arcs.choose_N(72, 0)


def test_optimal_delta_values():
    assert arcs.optimal_delta(17) == Fraction(73, 372)
    assert arcs.optimal_delta(9) == Fraction(73, 300)
    assert arcs.optimal_delta(25) == Fraction(73, 444)
    deltas = [arcs.optimal_delta(s) for s in range(9, 40)]
    assert deltas == sorted(deltas, reverse=True)
    # drops below 1/5 exactly at the s = 17 threshold
    assert arcs.optimal_delta(16) > Fraction(1, 5)
    assert arcs.optimal_delta(17) < Fraction(1, 5)
    with pytest.raises(ValueError):
        arcs.optimal_delta(8)


def test_dissect_small_N_single_arc():
    d = arcs.dissect(26, Fraction(73, 372))
    assert len(d.arcs) == 1
    assert (d.arcs[0].q, d.arcs[0].a) == (1, 1)
    assert d.arcs[0].center == Fraction(1)


def test_dissect_frozen_large_N():
    d = arcs.dissect(10**6, Fraction(73, 372))
    qs = {arc.q for arc in d.arcs}
    assert max(qs) == 15
    assert len(d.arcs) == 72  # sum of phi(q) for q <= 15
    assert d.P == pytest.approx(15.045941012517122, rel=1e-15)
    for arc in d.arcs:
        assert 1 <= arc.a <= arc.q and math.gcd(arc.a, arc.q) == 1


def test_dissect_disjointness_exact():
    """Adjacent arc centers are farther apart than two halfwidths; verified in
    exact rational/integer arithmetic, no floats."""
    delta = Fraction(73, 372)
    num, den = delta.numerator, delta.denominator
    for N in (100, 3001, 9999):
        d = arcs.dissect(N, delta)
        centers = sorted(arc.center for arc in d.arcs)
        for c1, c2 in zip(centers, centers[1:]):
            gap = c2 - c1
            # gap > 2 * N^((num - 4*den)/den) <=> gap^den * N^(4*den - num) > 2^den
            lhs = Fraction(gap) ** den * N ** (4 * den - num)
            assert lhs > 2**den


def test_dissect_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        arcs.dissect(1, Fraction(73, 372))
    with pytest.raises(ValueError):
        arcs.dissect(100, Fraction(5, 4))


def test_decomposition_reconstructs_exact_count():
    """Major plus minor arc integrals reassemble the exact representation
    count: the counting integral over a unit period is split, not bounded."""
    for (sp, s, m) in [(F1, 2, 25), (F1, 3, 3), (F1, 3, 26), (F1, 3, 179)]:
        N = arcs.choose_N(sp.A, m)
        d = arcs.dissect(N, Fraction(73, 372))
        major, err1 = arcs.major_arc_integral(sp, s, m, d)
        minor, err2 = arcs.minor_arc_integral(sp, s, m, d)
        exact = repcount.count_representations(sp, s, m)
        total = major + minor
        assert abs(total.imag) < 1e-9
        assert total.real == pytest.approx(exact, abs=1e-9 * max(1, exact) + 1e-9)
        assert err1 + err2 < 1e-6


def test_decomposition_over_many_arcs():
    """dissect(7, 9/10) has ten arcs (q <= 5) and ten gaps; major plus minor
    still reassembles the exact count."""
    d = arcs.dissect(7, Fraction(9, 10))
    assert len(d.arcs) == 10 and max(arc.q for arc in d.arcs) == 5
    for s, m in [(2, 2), (2, 25), (2, 177), (2, 600), (3, 3), (3, 26), (3, 178), (3, 3121)]:
        major, err1 = arcs.major_arc_integral(F1, s, m, d)
        minor, err2 = arcs.minor_arc_integral(F1, s, m, d)
        exact = repcount.count_representations(F1, s, m)
        total = major + minor
        assert abs(total.imag) < 1e-9
        assert total.real == pytest.approx(exact, abs=1e-9 * max(1, exact) + 1e-9)
        assert err1 + err2 < 1e-6


def test_approx_chain_trivial_arc():
    rep = arcs.approx_chain_check(F1, 1, 1, 0.0, 40)
    assert rep.holds
    assert rep.lhs == pytest.approx(1.0)  # S(0) = N vs integral N - 1


def test_approx_chain_flags_out_of_range_inputs():
    rep = arcs.approx_chain_check(F1, 2, 1, 1e-6, 120)
    assert rep.holds
    assert "hypothesis_met=False" in rep.context
    assert "theta_within_arc=False" in rep.context
    assert "M-steps-ok=True" in rep.context


def test_rational_phases_do_not_wrap_int64():
    # a * f(n) passes 2^63 for 106 of these n; the phases must still be
    # exactly (a * f(n)) % q, as the Python-int sums below take them
    q, a, N = 1009, 1008, 3000
    fvals = [F3.value(n) for n in range(1, N + 1)]
    assert max(fvals) * a >= 2**63

    def e(r):
        return cmath.exp(2j * cmath.pi * r / q)

    S = sum(e((a * f) % q) for f in fvals)
    V = sum(e((a * F3.value(n)) % q) for n in range(1, 24 * q + 1))
    # at theta = 0 with s = 1, m = 0 the integrand is sum_n e(rational phase)
    fn = arcs._arc_integrand(F3, 1, 0, q, a, np.array(fvals, dtype=float))
    assert complex(fn(np.zeros(1), np.zeros(1))[0, 0]) == pytest.approx(S, abs=1e-9)
    want = abs(S - V / (24 * q) * (N - 1))  # v(0) = N - 1
    assert want == pytest.approx(8.3483, abs=1e-4)
    lhs = arcs.approx_chain_check(F3, q, a, 0.0, N).lhs
    assert lhs == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize(
    "spec, q, a, N, s",
    [(F1, 1, 1, 9, 3), (F2, 3, 2, 8, 4), (F1, 7, 3, 9, 3), (F3, 7, 5, 6, 5), (F3, 1009, 1008, 3000, 2)],
)
def test_arc_integrand_matches_term_by_term_sums(spec, q, a, N, s):
    """The separated phases give S(a/q + theta)^s e(-(a/q + theta) m) at
    theta = mid + offset, summed term by term with exact phases mod 1.  theta
    is drawn up to 500 / f(N), where the floating phases f(n) theta carry
    under 10^-13 absolute error, inside 1e-12 max(1, N^s)."""
    rng = random.Random(q * 1000 + N)
    fvals = [spec.value(n) for n in range(1, N + 1)]
    m = rng.randrange(s * fvals[-1] + 1)
    width = min(0.5, 500.0 / fvals[-1])
    mid = np.array([rng.uniform(-width, width) for _ in range(4)])
    offsets = np.array([rng.uniform(-width, width) / 50 for _ in range(3)])
    got = arcs._arc_integrand(spec, s, m, q, a, np.array(fvals, dtype=float))(mid, offsets)
    assert got.shape == (len(mid), len(offsets))

    def e(x: Fraction) -> complex:
        return cmath.exp(2j * math.pi * float(x % 1))

    tol = 1e-12 * max(1.0, float(N) ** s)
    for i, x in enumerate(mid):
        for j, y in enumerate(offsets):
            theta = Fraction(float(x)) + Fraction(float(y))
            S = sum(e(Fraction(a * f % q, q) + f * theta) for f in fvals)
            want = S**s * e(-Fraction(a * m % q, q) - m * theta)
            assert abs(complex(got[i, j]) - want) <= tol, (i, j)


def test_approx_chain_rejects_bad_fraction():
    with pytest.raises(ValueError):
        arcs.approx_chain_check(F1, 4, 2, 0.0, 40)  # gcd(a, q) != 1
    with pytest.raises(ValueError):
        arcs.approx_chain_check(F1, 2, 1, 0.75, 40)  # theta outside [-1/2, 1/2]


def test_minor_bound_check_large_s():
    rep = arcs.minor_bound_check(72, 17, 26, Fraction(73, 372), 1e6)
    assert rep.holds
    assert rep.rhs == pytest.approx(1.1563904479691398e46, rel=1e-9)
    assert "hypothesis_met=True" in rep.context
    # far enough out the right side overflows a double and is reported as inf,
    # while the log-space comparison still decides the verdict
    big = arcs.minor_bound_check(72, 60, 10**6, Fraction(73, 759), 1e300)
    assert big.holds and math.isinf(big.rhs)


def test_minor_bound_check_small_s_is_one_sided():
    rep = arcs.minor_bound_check(72, 3, 26, Fraction(73, 372), 5.0)
    assert rep.holds
    assert "hypothesis-unmet" in rep.context
    with pytest.raises(ValueError):
        arcs.minor_bound_check(72, 17, 2, Fraction(73, 372), 1.0)


def test_asymptotic_report_small_case():
    with pytest.warns(UserWarning):
        rep = arcs.asymptotic_report(F1, 2, 25, prime_limit=10)
    assert rep.exact_count == 2
    assert rep.spec_label == "{3,4,3}"
    assert rep.major_value is not None
    assert rep.minor_residual == pytest.approx(rep.exact_count - rep.major_value)
    assert rep.bound_checks and rep.bound_checks[0].holds


def test_asymptotic_report_unique_representation():
    rep = arcs.asymptotic_report(F1, 17, 17, prime_limit=10)
    assert rep.exact_count == 1  # seventeen copies of f(1)
    assert rep.main_term > 0.0
    assert rep.ratio == pytest.approx(1.0 / rep.main_term)


def test_asymptotic_report_count_budget_defaults_to_the_cli_budget():
    # R_17(5 * 10^6) needs ~3 * 10^9 block operations, past DEFAULT_OP_BUDGET
    rep = arcs.asymptotic_report(F1, 17, 5_000_000, prime_limit=10)
    assert rep.exact_count is None
    with pytest.raises(BudgetError):
        repcount.count_representations(F1, 17, 5_000_000)


def test_asymptotic_report_budget_refusal_leaves_fields_none():
    rep = arcs.asymptotic_report(F1, 17, 17, prime_limit=10, count_budget=1)
    assert rep.exact_count is None
    assert rep.minor_residual is None
    assert math.isnan(rep.ratio)
    assert rep.main_term > 0.0


REPORT_MODULES = {
    f"waring4.{name}" for name in ("singularseries", "localdensity", "weylbounds", "singularintegral", "expsums")
}


def test_arc_integrals_load_no_report_module():
    """The dissection, the arc integrals and the exact count load none of
    the modules only the reports use; the CLI still loads all of them."""
    loaded = child_loaded_modules("waring4.figurate", "waring4.arcs", "waring4.repcount")
    assert not loaded & (REPORT_MODULES | {"numpy.polynomial"})
    assert REPORT_MODULES <= child_loaded_modules("waring4.cli")
