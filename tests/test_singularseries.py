"""Truncated singular series, Euler product route, tail-bound bookkeeping."""

import math

import pytest

from waring4 import expsums, figurate, localdensity, singularseries
from waring4.errors import BudgetError

F1 = figurate.catalog("{3,4,3}").spec
F2 = figurate.catalog("{3,3,5}").spec
F3 = figurate.catalog("{5,3,3}").spec


def test_truncated_series_is_the_term_sum():
    for (sp, s, m, Q) in [(F1, 5, 3, 20), (F2, 17, 7, 12), (F3, 5, 0, 15)]:
        est = singularseries.truncated_series(sp, s, m, Q)
        want = math.fsum(expsums.v_of_q(sp, q, s, m).real for q in range(1, Q + 1))
        assert est.truncated == pytest.approx(want, abs=1e-10)
        assert est.Q == Q
        assert est.imag_residue <= 1e-8


def test_truncated_series_first_terms():
    # q = 1 contributes exactly 1; q = 2 contributes nothing for {3,4,3}
    # because its complete sum vanishes at the nontrivial character mod 2
    assert singularseries.truncated_series(F1, 17, 10_000, 1).truncated == 1.0
    assert singularseries.truncated_series(F1, 17, 123, 2).truncated == pytest.approx(
        1.0, abs=1e-12
    )
    assert abs(expsums.complete_sum_V(F1, 2, 1)) < 1e-12
    with pytest.raises(ValueError):
        singularseries.truncated_series(F1, 5, 3, 0)


def test_truncated_series_refuses_q_above_the_cap(monkeypatch):
    def no_terms(*args):
        raise AssertionError("a V(q) was computed before the refusal")

    monkeypatch.setattr(singularseries, "v_of_q", no_terms)
    with pytest.raises(BudgetError):
        singularseries.truncated_series(F1, 17, 3, singularseries.MAX_SERIES_Q + 1)


def test_euler_product_refuses_before_any_density(monkeypatch):
    def no_density(*args):
        raise AssertionError("a density was computed before the refusal")

    monkeypatch.setattr(singularseries, "local_density_limit", no_density)
    with pytest.raises(BudgetError):
        singularseries.euler_product(
            F1, 17, 3, prime_limit=singularseries.MAX_SERIES_Q + 1
        )


# the report-ladder targets of benchmark seed 1
LADDER_TARGETS = [(F1, 10068), (F1, 30291), (F1, 100032), (F1, 300130), (F2, 100060), (F3, 100253)]


@pytest.mark.parametrize("prime_limit", [50, 200])
def test_euler_product_reads_only_the_top_two_levels(prime_limit, monkeypatch):
    def full_ladder(spec, s, m, p, k_max=None, k_min=1):
        return localdensity.local_density_limit(spec, s, m, p, k_max)

    with monkeypatch.context() as patch:
        patch.setattr(singularseries, "local_density_limit", full_ladder)
        want = [singularseries.euler_product(sp, 17, m, prime_limit) for sp, m in LADDER_TARGETS]
    levels, tables = [], []
    density, count = localdensity.local_density, localdensity.count_congruence

    def spy_density(spec, s, m, p, k):
        levels.append((p, k))
        return density(spec, s, m, p, k)

    def spy_count(spec, s, m, t, q):
        tables.append(q)
        return count(spec, s, m, t, q)

    monkeypatch.setattr(localdensity, "local_density", spy_density)
    monkeypatch.setattr(localdensity, "count_congruence", spy_count)
    for (sp, m), full in zip(LADDER_TARGETS, want):
        levels.clear()
        tables.clear()
        est = singularseries.euler_product(sp, 17, m, prime_limit)
        assert (est.per_prime, est.positivity, est.euler_estimate) == (
            full.per_prime,
            full.positivity,
            full.euler_estimate,
        )
        primes = [p for p, _ in est.per_prime]
        top = {p: localdensity.exact_depth(p) for p in primes}
        assert sorted(levels) == sorted((p, k) for p in primes for k in {max(1, top[p] - 1), top[p]})
        # below level k_max - 1 only the level-one table that the split reads
        # at p >= 5: no p = 2 or 3 table below level 11 or 6
        allowed = {p**k for p in primes for k in range(max(1, top[p] - 1), top[p] + 1)}
        assert set(tables) <= allowed | {p for p in primes if p >= 5}


def test_divisor_sum_identity_spot_checks():
    for sp in (F1, F2, F3):
        for q in (1, 2, 3, 4, 6, 8, 9, 12, 30):
            for s in (5, 17):
                rep = singularseries.divisor_sum_identity_check(sp, s, 3, q)
                assert rep.holds, (sp.A, s, q, rep.context)


def test_divisor_sum_identity_range_guard():
    with pytest.raises(ValueError):
        singularseries.divisor_sum_identity_check(F1, 5, 3, 31)
    with pytest.raises(ValueError):
        singularseries.divisor_sum_identity_check(F1, 5, 3, 0)


def test_euler_product_with_no_primes_is_indeterminate():
    # prime_limit = 1 leaves the product empty: 1.0 agrees with the series
    # term V(1) = 1, but no factor was checked, so nothing is certified
    est = singularseries.euler_product(F1, 17, 10_000, prime_limit=1)
    assert est.per_prime == ()
    assert est.euler_estimate == 1.0
    assert est.positivity == "indeterminate"
    # one prime is enough: {3,3,5} is certified from p = 2 on
    one = singularseries.euler_product(F2, 17, 10_000, prime_limit=2)
    assert one.per_prime == ((2, 1.0000152587890625),)
    assert one.positivity == "certified-heuristic"


def test_euler_product_frozen_reference_point():
    est = singularseries.euler_product(F1, 17, 10_000)
    assert est.euler_estimate == pytest.approx(1.4851197827531222, rel=1e-9)
    assert est.truncated == pytest.approx(1.4851098593018417, rel=1e-9)
    assert est.positivity == "certified-heuristic"
    assert est.per_prime[0][0] == 2
    assert est.per_prime[0][1] == pytest.approx(1.484863042831421, rel=1e-9)
    # every later prime factor is a small perturbation of 1
    for p, value in est.per_prime[1:]:
        assert value == pytest.approx(1.0, abs=0.35), p
    assert est.tail_log == pytest.approx(87.31639802012438, rel=1e-9)


@pytest.mark.parametrize(
    "factor, verdict", [(1.09, "certified-heuristic"), (1.11, "indeterminate")]
)
def test_euler_product_agreement_threshold(factor, verdict, monkeypatch):
    """The verdict needs the q-series within AGREEMENT = 10% of the product."""
    product = singularseries.euler_product(F1, 17, 10_000).euler_estimate

    def scaled_series(spec, s, m, Q):
        return singularseries.SeriesEstimate(truncated=product * factor, Q=Q)

    monkeypatch.setattr(singularseries, "truncated_series", scaled_series)
    est = singularseries.euler_product(F1, 17, 10_000)
    assert est.euler_estimate == product
    assert est.truncated == product * factor
    assert est.positivity == verdict


def test_euler_product_warns_below_proven_range():
    with pytest.warns(UserWarning):
        est = singularseries.euler_product(F1, 5, 3, prime_limit=10)
    assert math.isnan(est.tail_log)
    assert est.euler_estimate > 0.0


def test_tail_bound_log_formula():
    A, s, Q = 72, 17, 50
    exponent = 9.0 * s / 73.0 - 2.0
    want = s * math.log(52.0 * A**0.25) - math.log(exponent) - exponent * math.log(Q)
    assert singularseries.tail_bound_log(A, s, Q) == pytest.approx(want, rel=1e-12)
    assert singularseries.tail_bound_log(A, s, Q) == pytest.approx(87.31639802012438)


def test_tail_bound_log_monotone_in_truncation():
    vals = [singularseries.tail_bound_log(72, 17, Q) for Q in (1, 10, 100, 10**6)]
    assert vals == sorted(vals, reverse=True)
    # even at an absurd truncation point the log-bound stays enormous: the
    # tail estimate is never small enough to certify positivity numerically
    assert singularseries.tail_bound_log(72, 17, 10**9) > 80.0


def test_tail_bound_log_domain():
    with pytest.raises(ValueError):
        singularseries.tail_bound_log(72, 16, 50)
    with pytest.raises(ValueError):
        singularseries.tail_bound_log(72, 17, 0)


def test_lower_bound_record_fields():
    rec = singularseries.lower_bound_record(72, 17, 0)
    assert rec.loglog_z == pytest.approx(
        932.0 + math.log(17) + math.log(73.0 / (9 * 17 - 21))
    )
    assert "73/132" in rec.z_expr
    assert "12*" not in rec.bound_expr  # tau = 0 drops the valuation term
    rec2 = singularseries.lower_bound_record(72, 17, 2)
    assert "12*2" in rec2.bound_expr


def test_lower_bound_record_domain():
    with pytest.raises(ValueError):
        singularseries.lower_bound_record(72, 16, 0)
    with pytest.raises(ValueError):
        singularseries.lower_bound_record(72, 17, -1)
