"""Oscillatory integral v, lattice surrogate v1, exact J_1, main term."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waring4 import figurate, quadrature, singularintegral
from waring4.errors import BudgetError
from waring4.singularintegral import MainTermParams

EPS = np.finfo(float).eps


def test_v_theta_at_zero_is_interval_length():
    for N in (2, 10, 26):
        assert singularintegral.v_theta(24, N, 0.0) == pytest.approx(N - 1.0)
    assert singularintegral.v_theta(24, 1, 0.3) == 0.0


def test_v_theta_against_midpoint_rule():
    got = singularintegral.v_theta(24, 10, 1e-3)
    t = np.linspace(1.0, 10.0, 2_000_001)
    mid = 0.5 * (t[:-1] + t[1:])
    h = t[1] - t[0]
    want = complex((np.exp(2j * np.pi * (1e-3 * mid**4)) * h).sum())
    assert abs(got - want) < 1e-6


def test_v_theta_symmetry_and_size():
    for theta in (1e-4, 3e-3, 0.02):
        v_pos = singularintegral.v_theta(72, 20, theta)
        v_neg = singularintegral.v_theta(72, 20, -theta)
        assert abs(v_neg - v_pos.conjugate()) < 1e-9
        assert abs(v_pos) <= 19.0 + 1e-9


def test_v_theta_domain():
    with pytest.raises(ValueError):
        singularintegral.v_theta(24, 10, 0.6)
    with pytest.raises(ValueError):
        singularintegral.v_theta(24, 0, 0.1)


@settings(max_examples=300, deadline=None)
@given(
    st.floats(1.0, 1e3),
    st.floats(0.0, 10.0, exclude_min=True),
    st.floats(0.0, 6.0, exclude_min=True),
    st.floats(0.0, 2 * math.pi, exclude_max=True),
)
def test_quartic_imaginary_part_on_the_ellipse(t0, h, u, phi):
    """The lemma in v_theta's docstring: for z = x + iy on the Bernstein
    ellipse E_(e^u), |Im((t0 + h z)^4)| <= 4 (t0 + h cosh u)^3 h sinh u.
    Both sides are exact in rationals from the float values of cos, sin,
    cosh and sinh; the slack covers their rounding."""
    ch, sh = Fraction(math.cosh(u)), Fraction(math.sinh(u))
    t0, h = Fraction(t0), Fraction(h)
    re = t0 + h * ch * Fraction(math.cos(phi))
    im = h * sh * Fraction(math.sin(phi))
    lhs = abs(4 * re**3 * im - 4 * re * im**3)
    rhs = 4 * (t0 + h * ch) ** 3 * h * sh
    assert lhs <= rhs * (1 + Fraction(1, 10**12))


# (spec, N) and theta as fractions of the arc halfwidth N^(delta - 4),
# delta = 73/372
ARC_CASES = [
    (figurate.catalog("{3,4,3}").spec, 26),
    (figurate.catalog("{3,4,3}").spec, 50),
    (figurate.catalog("{3,3,5}").spec, 26),
    (figurate.catalog("{5,3,3}").spec, 16),
]
ARC_FRACS = (0.0, 0.31, -0.77, 1.0)
V_CASES = [(72, 20, 0.02), (72, 20, -0.02)] + [
    (sp.A, N, frac * float(N) ** (73.0 / 372.0 - 4.0)) for sp, N in ARC_CASES for frac in ARC_FRACS
]


def test_v_theta_meets_its_tolerance(monkeypatch):
    """One pass at the proven panel count P is within 1e-9 N of the same
    rule at 4P.  Rounding allowance: 64 eps N (1 + |c| N^4), the size of the
    phase errors 2 pi eps |c t^4| summed over [1, N]."""
    passes = []

    def spy(fn, a, b, panels):
        passes.append((fn, a, b, panels))
        return quadrature.integrate(fn, a, b, panels)

    monkeypatch.setattr(singularintegral, "integrate", spy)
    for A, N, theta in V_CASES:
        got = singularintegral.v_theta(A, N, theta)
        fn, a, b, panels = passes.pop()
        fine = quadrature.integrate(fn, a, b, 4 * panels)
        allowance = 64 * EPS * N * (1 + abs(A * theta / 24.0) * N**4)
        assert abs(got - fine) <= 1e-9 * N + allowance, (A, N, theta, panels)


def test_v_theta_past_half_the_cap_in_turns():
    """5.5e5 phase turns: more than 2^19 starting panels, still a value."""
    v = singularintegral.v_theta(72, 40, 0.072)
    assert math.isfinite(v.real) and math.isfinite(v.imag)
    assert abs(v) <= 39.0


def test_v1_theta_single_term():
    for theta in (0.0, 0.17, -0.4):
        want = 0.25 * complex(math.cos(2 * math.pi * theta), math.sin(2 * math.pi * theta))
        assert singularintegral.v1_theta(1, theta) == pytest.approx(want)


def test_v1_theta_zero_phase_partial_sum():
    # (1/4) sum n^(-3/4) tracks N0^(1/4) with bounded offset
    for N0 in (10, 1000, 250_000):
        v = singularintegral.v1_theta(N0, 0.0)
        assert v.imag == 0.0
        assert abs(v.real - N0**0.25) <= 3.0


def test_v1_theta_magnitude_bound():
    """|v1| <= min(2 N0^(1/4), 2 |theta|^(-1/4)) on a phase grid."""
    N0 = 5000
    cap_n = 2.0 * N0**0.25
    for k in range(1, 201):
        theta = k / 401.0
        val = abs(singularintegral.v1_theta(N0, theta))
        assert val <= min(cap_n, 2.0 * theta**-0.25) + 1e-9


def test_v1_theta_domain():
    with pytest.raises(ValueError):
        singularintegral.v1_theta(0, 0.1)
    with pytest.raises(ValueError):
        singularintegral.v1_theta(10, 0.7)


def test_v1_approximates_scaled_v_inside_the_arc():
    """The lattice sum v1 at N0 = A N^4/24 tracks (A/24)^(1/4) v(theta)
    within A N^delta for arc-sized theta, delta = 73/372."""
    delta = 73.0 / 372.0
    for sp, N in ARC_CASES:
        N0 = (sp.A * N**4) // 24
        width = float(N) ** (delta - 4.0)
        for frac in ARC_FRACS:
            theta = frac * width
            lhs = abs(
                singularintegral.v1_theta(N0, theta)
                - (sp.A / 24.0) ** 0.25 * singularintegral.v_theta(sp.A, N, theta)
            )
            assert lhs <= sp.A * float(N) ** delta, (sp.A, N, frac, lhs)


def test_j1_exact_closed_forms():
    assert singularintegral.j1_exact(2, 2) == pytest.approx(1.0 / 16.0, rel=1e-14)
    assert singularintegral.j1_exact(2, 3) == pytest.approx(2.0**0.25 / 16.0, rel=1e-14)
    for s in (1, 2, 5, 17):
        assert singularintegral.j1_exact(s, s) == pytest.approx(4.0**-s, rel=1e-12)
        if s > 1:
            assert singularintegral.j1_exact(s, s - 1) == 0.0
    assert singularintegral.j1_exact(1, 9) == pytest.approx(0.25 * 9.0**-0.75)


def test_j1_exact_matches_brute_force_triple_sum():
    def brute(m):
        total = 0.0
        for n1 in range(1, m - 1):
            for n2 in range(1, m - n1):
                n3 = m - n1 - n2
                if n3 >= 1:
                    total += (n1 * n2 * n3) ** -0.75
        return total / 64.0

    for m in (3, 4, 17, 30):
        assert singularintegral.j1_exact(3, m) == pytest.approx(brute(m), rel=1e-13)


def test_j1_exact_recursion():
    def recur(s, m):
        return sum(
            0.25 * k**-0.75 * singularintegral.j1_exact(s - 1, m - k)
            for k in range(1, m - s + 2)
        )

    for (s, m) in [(2, 77), (2, 500), (3, 200), (4, 101)]:
        assert singularintegral.j1_exact(s, m) == pytest.approx(recur(s, m), rel=1e-12)


def test_j1_exact_budget_and_domain():
    with pytest.raises(BudgetError):
        singularintegral.j1_exact(17, 20_000)
    with pytest.raises(ValueError):
        singularintegral.j1_exact(0, 5)
    with pytest.raises(ValueError):
        singularintegral.j1_exact(2, -1)


def test_main_term_gamma_plumbing():
    # the Gamma evaluations feeding the main term, pinned at exact points
    assert math.gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-15)
    assert math.gamma(5.0) == 24.0
    p = MainTermParams(A=24, s=4, m=7, series_value=1.0)
    # (24/A)=1, Gamma(s/4)=Gamma(1)=1, m^(s/4-1)=1: the value is Gamma(5/4)^4
    assert singularintegral.main_term(p) == pytest.approx(math.gamma(1.25) ** 4, rel=1e-14)


def test_main_term_growth_exponent():
    lo = singularintegral.main_term(MainTermParams(72, 17, 1000, 1.3))
    hi = singularintegral.main_term(MainTermParams(72, 17, 2000, 1.3))
    assert hi / lo == pytest.approx(2.0 ** (17.0 / 4.0 - 1.0), rel=1e-12)


def test_main_term_degenerate_inputs():
    assert singularintegral.main_term(MainTermParams(72, 17, 50, 0.0)) == 0.0
    with pytest.raises(ValueError):
        MainTermParams(72, 1, 50, 1.0)
    with pytest.raises(ValueError):
        MainTermParams(72, 17, 0, 1.0)
    with pytest.raises(ValueError):
        singularintegral.main_term(MainTermParams(72, 17, 50, float("nan")))


def test_hyp2f1_series_closed_forms():
    assert singularintegral.hyp2f1_series(0.3, 0.8, 1.1, 0.0) == 1.0
    for x in (0.05, 0.3, 0.62):
        # 2F1(1,1;2;x) = -log(1-x)/x
        assert singularintegral.hyp2f1_series(1.0, 1.0, 2.0, x) == pytest.approx(
            -math.log1p(-x) / x, rel=1e-13
        )
        # 2F1(a,b;b;x) = (1-x)^(-a)
        assert singularintegral.hyp2f1_series(0.25, 1.75, 1.75, x) == pytest.approx(
            (1.0 - x) ** -0.25, rel=1e-13
        )
    with pytest.raises(ValueError):
        singularintegral.hyp2f1_series(1.0, 1.0, 2.0, 1.0)


def test_beta_approx_quarter_beta_constant():
    rep = singularintegral.beta_approx_check(17.0 / 4.0, 0.25, 100)
    assert rep.holds
    assert rep.rhs == pytest.approx(12.0 * 100.0 ** (13.0 / 4.0), rel=1e-12)
    # the simplified constant truly dominates the hypergeometric route
    assert "general_rhs=25134807.62" in rep.context


def test_beta_approx_other_points():
    assert singularintegral.beta_approx_check(0.25, 0.25, 50).holds
    assert singularintegral.beta_approx_check(1.0, 0.25, 2).holds
    assert singularintegral.beta_approx_check(17.0 / 4.0, 0.25, 2).holds
    assert singularintegral.beta_approx_check(2.0, 0.5, 64).holds


def test_beta_approx_domain():
    with pytest.raises(ValueError):
        singularintegral.beta_approx_check(1.0, 1.5, 10)
    with pytest.raises(ValueError):
        singularintegral.beta_approx_check(0.1, 0.25, 10)
    with pytest.raises(ValueError):
        singularintegral.beta_approx_check(1.0, 0.25, 1)


def test_j1_bound_check_pair_case():
    # s = 2 satisfies the stated Gamma-comparison bound across the board
    assert singularintegral.j1_bound_check(2, 2).holds
    assert singularintegral.j1_bound_check(2, 100).holds
    assert singularintegral.j1_bound_check(2, 400).holds


def test_j1_bound_check_known_failure_region():
    """For s >= 3 the stated error term is too small once m grows: the
    boundary at s = 3 sits between m = 63 and m = 64, and (s, m) = (5, 50)
    is already on the failing side.  Frozen here as observed behavior; the
    acceptance suite carries the full sweep."""
    assert singularintegral.j1_bound_check(3, 63).holds
    assert not singularintegral.j1_bound_check(3, 64).holds
    rep = singularintegral.j1_bound_check(5, 50)
    assert not rep.holds
    assert rep.lhs == pytest.approx(1.59238749, rel=1e-6)
    assert rep.rhs == 1.0


def test_j1_bound_check_domain():
    with pytest.raises(ValueError):
        singularintegral.j1_bound_check(1, 10)
    with pytest.raises(ValueError):
        singularintegral.j1_bound_check(3, 2)
