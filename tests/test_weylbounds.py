"""Phase-sum inequalities: differencing, geometric sums, divisor bounds."""

import cmath
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from waring4 import weylbounds
from waring4.errors import BudgetError
from waring4.weylbounds import QuarticPhase


def test_nearest_int_distance():
    assert weylbounds.nearest_int_distance(Fraction(1, 3)) == pytest.approx(1 / 3)
    assert weylbounds.nearest_int_distance(Fraction(2, 3)) == pytest.approx(1 / 3)
    assert weylbounds.nearest_int_distance(Fraction(7, 2)) == pytest.approx(0.5)
    assert weylbounds.nearest_int_distance(Fraction(-13, 4)) == pytest.approx(0.25)
    assert weylbounds.nearest_int_distance(5.0) == 0.0


def _poly(coeffs, t):
    # coeffs are dense ascending (c0, c1, ...)
    return sum(c * t**k for k, c in enumerate(coeffs))


def test_forward_difference_first_order():
    rng = random.Random(21)
    for _ in range(50):
        cs = tuple(rng.randrange(-9, 10) for _ in range(5))
        h = rng.randrange(1, 7)
        x = rng.randrange(-10, 10)
        want = _poly(cs, x + h) - _poly(cs, x)
        assert weylbounds.forward_difference(cs, (h,), x) == pytest.approx(want)


def test_forward_difference_composition():
    rng = random.Random(22)
    for _ in range(50):
        cs = tuple(rng.randrange(-9, 10) for _ in range(5))
        h1, h2 = rng.randrange(1, 6), rng.randrange(1, 6)
        x = rng.randrange(-8, 8)
        once = weylbounds.forward_difference(cs, (h1,), x + h2)
        base = weylbounds.forward_difference(cs, (h1,), x)
        assert weylbounds.forward_difference(cs, (h1, h2), x) == pytest.approx(
            once - base
        )


def test_forward_difference_kills_low_degrees():
    # differencing drops the degree by one each time, so a cubic vanishes
    # under four differences and a quartic under five
    cubic = (7, -3, 2, 5, 0)
    quartic = (1, 1, 1, 1, 1)
    assert weylbounds.forward_difference(cubic, (2, 3, 1, 4), 9) == pytest.approx(0.0)
    assert weylbounds.forward_difference(quartic, (1, 2, 3, 1, 2), -4) == pytest.approx(
        0.0, abs=1e-6
    )


def test_triple_difference_is_linear_with_known_slope():
    """Differencing a quartic three times leaves a linear function of x whose
    slope is 24 h1 h2 h3 times the leading coefficient."""
    rng = random.Random(23)
    for _ in range(200):
        a4 = rng.uniform(-2, 2)
        coeffs = (0.0, rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2), a4)
        hs = tuple(rng.randrange(1, 9) for _ in range(3))
        x = rng.uniform(-5, 5)
        d_here = weylbounds.forward_difference(coeffs, hs, x)
        d_next = weylbounds.forward_difference(coeffs, hs, x + 1.0)
        slope = d_next - d_here
        want = 24.0 * a4 * hs[0] * hs[1] * hs[2]
        assert abs(slope - want) <= 1e-9 * max(1.0, abs(want))


def test_weyl_differencing_seeded_sweep():
    rng = random.Random(24)
    for _ in range(120):
        phase = QuarticPhase(
            rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)
        )
        X = rng.randrange(2, 41)
        j = rng.choice((1, 2, 3))
        rep = weylbounds.check_weyl_differencing(phase, X, j)
        assert rep.holds, (phase, X, j, rep.lhs, rep.rhs)


def test_weyl_differencing_first_step_is_an_identity():
    # squaring the sum and collecting terms by the shift h gives equality,
    # so the j=1 report should be numerically tight on both sides
    rng = random.Random(29)
    for _ in range(25):
        phase = QuarticPhase(
            rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)
        )
        X = rng.randrange(3, 41)
        rep = weylbounds.check_weyl_differencing(phase, X, 1)
        assert rep.lhs == pytest.approx(rep.rhs, rel=1e-10, abs=1e-10)


def test_weyl_differencing_zero_phase():
    rep = weylbounds.check_weyl_differencing(QuarticPhase(0.0, 0.0, 0.0, 0.0), 10, 1)
    assert rep.lhs == pytest.approx(100.0)
    assert rep.rhs >= 100.0 and rep.holds


def test_weyl_differencing_rational_leading_coefficient():
    # rational a4 makes some inner geometric series degenerate (zero slope)
    for a4 in (0.0, 0.5, 0.25, 1.0):
        for j in (1, 2, 3):
            rep = weylbounds.check_weyl_differencing(
                QuarticPhase(0.3, 0.0, 0.1, a4), 12, j
            )
            assert rep.holds


def _differencing_sum_by_definition(phase, X, j):
    """sum over |h_1|,..,|h_j| < X, x in T_j(h) of e(D_j(psi(x); h)), term by
    term; T_j(h) is the x with x + sum_S h in 1..X for every subset S."""
    total = 0j
    for hs in itertools.product(range(1 - X, X), repeat=j):
        sums = [sum(c) for r in range(j + 1) for c in itertools.combinations(hs, r)]
        for x in range(1, X + 1):
            if all(1 <= x + t <= X for t in sums):
                d = weylbounds.forward_difference(phase.coeffs, hs, x)
                total += cmath.exp(2j * math.pi * (d % 1.0))
    return total


def test_weyl_differencing_matches_the_definition():
    # the check evaluates the double sum as a sum of squared inner sums over
    # T_{j-1}; summed straight from the definition it must agree
    rng = random.Random(30)
    for _ in range(100):
        phase = QuarticPhase(
            rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)
        )
        X = rng.randrange(1, 7)
        for j in (1, 2, 3):
            want = _differencing_sum_by_definition(phase, X, j)
            rep = weylbounds.check_weyl_differencing(phase, X, j)
            got = rep.rhs / (2.0 * X) ** (2**j - j - 1)
            assert abs(got - want) <= 1e-9 * abs(want), (phase, X, j, got, want)


@pytest.mark.parametrize("j, X", [(1, (1 << 22) + 1), (2, 1449), (3, 102)])
def test_weyl_differencing_past_the_cap_is_refused_before_any_array(j, X):
    # X is the first range whose (2X-1)^(j-1) x X inner-term matrix passes the cap
    assert (2 * X - 3) ** (j - 1) * (X - 1) <= weylbounds.WEYL_CAP
    assert (2 * X - 1) ** (j - 1) * X > weylbounds.WEYL_CAP
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError):
            weylbounds.check_weyl_differencing(QuarticPhase(0.1, 0.2, 0.3, 0.4), X, j)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_weyl_differencing_rejects_bad_args():
    with pytest.raises(ValueError):
        weylbounds.check_weyl_differencing(QuarticPhase(0.1, 0.2, 0.3, 0.4), 10, 4)
    with pytest.raises(ValueError):
        weylbounds.check_weyl_differencing(QuarticPhase(0.1, 0.2, 0.3, 0.4), 0, 1)


def test_geometric_sum_bound():
    rng = random.Random(25)
    for _ in range(200):
        alpha = Fraction(rng.randrange(1, 50), rng.randrange(51, 150))
        X = rng.randrange(0, 30)
        Y = rng.randrange(0, 60)
        rep = weylbounds.check_geometric_sum(alpha, X, Y)
        assert rep.holds


def test_geometric_sum_alternating_case():
    rep = weylbounds.check_geometric_sum(Fraction(1, 2), 0, 10)
    assert rep.holds and rep.lhs <= 1.0 + 1e-12
    # an odd segment leaves one surviving term, meeting the bound exactly
    rep = weylbounds.check_geometric_sum(Fraction(1, 2), 0, 11)
    assert rep.holds and rep.lhs == pytest.approx(1.0) and rep.rhs == pytest.approx(1.0)


def test_geometric_sum_integer_alpha_uses_trivial_bound():
    rep = weylbounds.check_geometric_sum(Fraction(0), 0, 10)
    assert rep.holds and rep.lhs == pytest.approx(10.0) and rep.rhs == pytest.approx(11.0)
    rep = weylbounds.check_geometric_sum(Fraction(1, 3), 5, 9)
    assert rep.holds


def test_reciprocal_sum_bound():
    rng = random.Random(26)
    for q in (101, 157, 211):
        for _ in range(20):
            a = rng.randrange(1, q)
            if math.gcd(a, q) != 1:
                continue
            eta = rng.uniform(1.0, 3.0)
            alpha = a / q + rng.uniform(-1, 1) * eta / q**2
            X = rng.randrange(50, 400)
            Y = float(rng.randrange(5, 50))
            rep = weylbounds.check_reciprocal_sum(alpha, 0.37, X, Y, a, q, eta)
            assert rep.holds, (q, a, eta, X, Y, rep.lhs, rep.rhs)


def test_reciprocal_sum_at_exact_rational():
    rep = weylbounds.check_reciprocal_sum(Fraction(37, 101), 0.0, 200, 50.0, 37, 101, 1.0)
    assert rep.holds
    rep = weylbounds.check_reciprocal_sum(45 / 103 + 1 / 103**3, 0.0, 150, 150.0, 45, 103, 1.0)
    assert rep.holds


def test_reciprocal_sum_preconditions():
    with pytest.raises(ValueError):
        weylbounds.check_reciprocal_sum(0.5, 0.0, 10, 5.0, 1, 50, 1.0)  # q too small
    with pytest.raises(ValueError):
        weylbounds.check_reciprocal_sum(0.9, 0.0, 10, 5.0, 1, 101, 1.0)  # alpha far from a/q
    with pytest.raises(ValueError):
        weylbounds.check_reciprocal_sum(4 / 202, 0.0, 10, 5.0, 4, 202, 1.0)  # gcd > 1


def test_divisor_count_against_sieve():
    limit = 10**4
    sieve = weylbounds.divisor_count_sieve(limit)
    rng = random.Random(27)
    for n in [1, 2, 12, 5040, 9999, limit] + [rng.randrange(1, limit) for _ in range(100)]:
        assert sieve[n] == weylbounds.divisor_count(n)
    assert weylbounds.divisor_count(5040) == 60
    assert weylbounds.divisor_count(1) == 1
    with pytest.raises(ValueError):
        weylbounds.divisor_count(0)


def test_divisor_bound_spot_checks():
    for n in (21, 22, 360, 5040, 720720, 999983):
        rep = weylbounds.divisor_bound_check(n)
        assert rep.holds, (n, rep.lhs, rep.rhs)
    rep = weylbounds.divisor_bound_check(1000)
    assert rep.lhs == 16.0 and rep.rhs == pytest.approx(1000 ** (1.0661 / math.log(math.log(1000.0))))
    with pytest.raises(ValueError):
        weylbounds.divisor_bound_check(20)


def test_F_alpha_bound_constructed_instances():
    rng = random.Random(28)
    for q in (101, 149):
        for _ in range(15):
            a = rng.randrange(1, q)
            if math.gcd(a, q) != 1:
                continue
            eta = rng.uniform(1.0, 2.0)
            a4 = a / q + rng.uniform(-0.9, 0.9) * eta / q**2
            phase = QuarticPhase(rng.random(), rng.random(), rng.random(), a4)
            X = rng.randrange(21, 300)
            rep = weylbounds.check_F_alpha_bound(phase, X, a, q, eta)
            assert rep.holds, (q, a, X, rep.lhs, rep.rhs)


def test_F_alpha_bound_preconditions():
    ph = QuarticPhase(0.0, 0.0, 0.0, 1 / 101)
    with pytest.raises(ValueError):
        weylbounds.check_F_alpha_bound(ph, 10, 1, 101, 1.0)  # X too small
    with pytest.raises(ValueError):
        weylbounds.check_F_alpha_bound(ph, 50, 1, 50, 1.0)  # q too small
    with pytest.raises(ValueError):
        weylbounds.check_F_alpha_bound(
            QuarticPhase(0.0, 0.0, 0.0, 0.9), 50, 1, 101, 1.0
        )  # a4 far from a/q


def test_bound_report_slack_semantics():
    assert weylbounds.bound_report(1.0, 1.0).holds
    assert weylbounds.bound_report(1.0, float("inf")).holds
    assert not weylbounds.bound_report(1.0 + 1e-6, 1.0).holds
