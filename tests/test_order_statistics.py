import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipmlab.distributions import Exponential, Pareto, Uniform, builtin_families, c_of_lambda
from ipmlab.order_statistics import (
    expected_order_stat,
    expected_rank,
    tail_probability_vs_mean,
    top_k_welfare,
)

from oracles import first_order_stat_cdf, sample_order_stats


def harmonic_tail(j: int, t: int) -> float:
    # Independent oracle for Exponential(1): E of the j-th largest of t draws.
    return float(sum(Fraction(1, i) for i in range(j, t + 1)))


def test_exponential_ranks_match_harmonic_sums():
    d = Exponential(1.0)
    for t in (1, 2, 3, 6, 12):
        for j in range(1, t + 1):
            got = expected_order_stat(d, j, t)
            assert got == pytest.approx(harmonic_tail(j, t), abs=2e-6)


def test_cache_keys_on_exact_parameters():
    # Two rates that agree to six significant digits must not share an entry.
    from ipmlab.mechanisms import ipm_price

    ipm_price(Exponential(1.0), 6, 3)
    near = Exponential(1.0000004)
    assert ipm_price(near, 6, 3) == expected_order_stat(near, 1, 2)


def test_exponential_second_of_three():
    assert expected_rank(Exponential(1.0), 2, 3) == pytest.approx(5 / 6, abs=1e-6)


def test_uniform_ranks_closed_form():
    # j-th largest of t uniforms has mean (t - j + 1)/(t + 1).
    d = Uniform(0, 1)
    for t in (1, 4, 9):
        for j in range(1, t + 1):
            got = expected_rank(d, j, t)
            assert got == pytest.approx((t - j + 1) / (t + 1), abs=1e-7)


def test_monte_carlo_cross_check():
    rng = np.random.default_rng(123)
    d = Exponential(1.0)
    draws = -np.log(rng.random((2_000_000, 3)))
    second = np.sort(draws, axis=1)[:, 1]
    mc = float(second.mean())
    assert expected_rank(d, 2, 3) == pytest.approx(mc, abs=3 * second.std() / math.sqrt(len(second)))


def test_expected_max_monotone_in_sample_size():
    for d in builtin_families():
        vals = [expected_rank(d, 1, t) for t in range(1, 10)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


def test_expected_max_single_draw_is_mean():
    # Heavy tails carry a truncated remainder of order 1e-4; light tails are
    # accurate to quadrature precision.
    for d in builtin_families():
        tol = 2e-4 if isinstance(d, Pareto) else 1e-5
        assert expected_rank(d, 1, 1) == pytest.approx(d.mean(), rel=tol)


def test_first_order_stat_cdf():
    d = Uniform(0, 1)
    assert float(first_order_stat_cdf(d, 3, 0.5)) == pytest.approx(0.125)
    assert float(first_order_stat_cdf(d, 1, 0.25)) == pytest.approx(0.25)


def test_bad_rank_rejected():
    with pytest.raises(ValueError):
        expected_order_stat(Exponential(1.0), 3, 2)


def test_tail_probability_examples():
    d = Exponential(1.0)
    assert tail_probability_vs_mean(d, 1) == pytest.approx(1 / math.e, abs=1e-6)
    assert tail_probability_vs_mean(d, 2) == pytest.approx(1 - (1 - math.exp(-1.5)) ** 2, abs=1e-6)


def test_tail_probability_dominates_c_lambda():
    for d in builtin_families():
        c = c_of_lambda(d.lambda_claimed)
        for t in range(1, 33):
            assert tail_probability_vs_mean(d, t) >= c - 1e-4


def test_shifted_tail_probability():
    # P[max of s-1 >= E[max of s]] >= ((s-1)/s) c(lambda).
    for d in builtin_families():
        c = c_of_lambda(d.lambda_claimed)
        for s in range(2, 33):
            m = expected_rank(d, 1, s)
            p = float(-np.expm1((s - 1) * np.log(max(float(d.cdf(m)), 1e-300))))
            assert p >= (s - 1) / s * c - 1e-4


def test_order_stat_lower_bound_full():
    # k E[v^(1,ceil(n/k))] >= (1 - 1/e) sum_{j<=k} E[v^(j,n)].
    for d in builtin_families():
        for n in (4, 6, 12):
            for k in (1, 2, 3, n):
                lhs = k * expected_rank(d, 1, math.ceil(n / k))
                rhs = (1 - 1 / math.e) * sum(expected_rank(d, j, n) for j in range(1, k + 1))
                assert lhs >= rhs - 1e-5 * max(1.0, rhs), (d.descriptor, n, k)


def test_top_k_welfare_weights():
    d = Exponential(1.0)
    plain = top_k_welfare(d, 4, 2)
    assert plain == pytest.approx(expected_rank(d, 1, 4) + expected_rank(d, 2, 4), abs=1e-9)
    weighted = top_k_welfare(d, 4, 2, etas=(1.0, 0.5))
    assert weighted == pytest.approx(expected_rank(d, 1, 4) + 0.5 * expected_rank(d, 2, 4), abs=1e-9)


@given(seed=st.integers(0, 2**31 - 1), t=st.integers(1, 30))
@settings(max_examples=30, deadline=None)
def test_samples_sorted_and_deterministic(seed, t):
    d = Uniform(0, 1)
    a = sample_order_stats(d, t, seed)
    b = sample_order_stats(d, t, seed)
    assert np.array_equal(a, b)
    assert np.all(np.diff(a) <= 0)
    assert a.shape == (t,)
