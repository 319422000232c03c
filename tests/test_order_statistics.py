import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipmlab.distributions import (
    Distribution,
    Exponential,
    Pareto,
    TruncatedEqualRevenue,
    Uniform,
    Weibull,
    builtin_families,
    c_of_lambda,
    parse_distribution,
)
from ipmlab.errors import NonIntegrable, QuadratureFailure
from ipmlab.order_statistics import (
    expected_order_stat,
    expected_rank,
    max_tail_probability,
    top_k_sums,
    top_k_welfare,
)

from oracles import first_order_stat_cdf, quad_order_stat, sample_order_stats


def harmonic_tail(j: int, t: int) -> float:
    # Independent oracle for Exponential(1): E of the j-th largest of t draws.
    return float(sum(Fraction(1, i) for i in range(j, t + 1)))


def closed_form_order_stat(descriptor: str, j: int, t: int) -> float:
    """E of the j-th largest of t draws for exp, uniform and pareto."""
    kind, *args = descriptor.split(":")
    if kind == "exp":
        return math.fsum(1.0 / i for i in range(j, t + 1)) / float(args[0])
    if kind == "uniform":
        a, b = map(float, args)
        return a + (b - a) * (t - j + 1) / (t + 1)
    shape, scale = map(float, args)
    # t!/(j-1)! Gamma(j - 1/a)/Gamma(t + 1 - 1/a) = prod_(i=j..t) i / (i - 1/a),
    # summed in logs so that no lgamma of a large argument loses digits.
    return scale * math.exp(-math.fsum(math.log1p(-1.0 / (shape * i)) for i in range(j, t + 1)))


@pytest.mark.parametrize(
    "descriptor",
    ["exp:1", "exp:0.25", "uniform:0:1", "uniform:-2:3",
     "pareto:1.05:1", "pareto:1.1:1", "pareto:1.5:1", "pareto:2:1", "pareto:3:2.5"],
)
def test_order_stats_match_closed_forms_to_1e9(descriptor):
    d = parse_distribution(descriptor)
    for t in (1, 2, 3, 16, 256, 1000, 20000, 100000):
        for j in sorted({1, 2, 3, t // 2, t} & set(range(1, t + 1))):
            want = closed_form_order_stat(descriptor, j, t)
            assert expected_order_stat(d, j, t) == pytest.approx(want, rel=1e-9), (j, t)


def test_deep_ranks_of_many_draws_enter_welfare_exactly():
    # The top three of 20 000 exponentials sum to H - 1/2 - 2/3 ... in closed form.
    want = math.fsum(closed_form_order_stat("exp:1", j, 20000) for j in (1, 2, 3))
    assert top_k_welfare(Exponential(1.0), 20000, 3) == pytest.approx(want, rel=1e-9)


@given(scale=st.floats(0.2, 5.0), shape=st.floats(1.0, 6.0), t=st.integers(1, 256), rank=st.floats(0.0, 1.0))
@settings(max_examples=25, deadline=None)
def test_weibull_order_stats_match_quad_oracle(scale, shape, t, rank):
    d = Weibull(scale, shape)
    j = 1 + int(rank * (t - 1))
    assert expected_order_stat(d, j, t) == pytest.approx(quad_order_stat(d, j, t), rel=1e-9)


@given(n=st.integers(2, 2000), t=st.integers(1, 256), rank=st.floats(0.0, 1.0))
@settings(max_examples=25, deadline=None)
def test_truncated_equal_revenue_order_stats_match_quad_oracle(n, t, rank):
    d = TruncatedEqualRevenue(n)
    j = 1 + int(rank * (t - 1))
    assert expected_order_stat(d, j, t) == pytest.approx(quad_order_stat(d, j, t), rel=1e-9)


class _NanTail(Exponential):
    def tail_quantile(self, s):
        return np.full(np.shape(s), np.nan)


def test_non_finite_tail_quantile_raises():
    with pytest.raises(QuadratureFailure):
        expected_order_stat(_NanTail(1.0), 2, 16)


class _NoLogTail(Pareto):
    """Pareto without its log-space quantile: log Q overflows with Q."""

    log_tail_quantile = Distribution.log_tail_quantile


def test_tail_beyond_float_range_raises():
    # E[max of 16 pareto:1.01:1] is finite, but its integrand carries weight
    # where the quantile exceeds the largest float; with no finite log Q
    # there, the expectation fails its self-check.
    with pytest.raises(QuadratureFailure):
        expected_order_stat(_NoLogTail(1.01, 1.0), 1, 16)
    assert expected_order_stat(Pareto(1.01, 1.0), 2, 16) == pytest.approx(
        closed_form_order_stat("pareto:1.01:1", 2, 16), rel=1e-9
    )


@pytest.mark.parametrize("shape", [1.01, 1.03])
def test_tail_beyond_float_range_evaluates_in_log_space(shape):
    # Pareto's log Q = log scale + s / shape is finite where Q overflows, so
    # the max of 16 evaluates: x_m Gamma(t+1) Gamma(1-1/a) / Gamma(t+1-1/a).
    t = 16
    want = 1.5 * math.exp(math.lgamma(t + 1) + math.lgamma(1 - 1 / shape) - math.lgamma(t + 1 - 1 / shape))
    assert expected_order_stat(Pareto(shape, 1.5), 1, t) == pytest.approx(want, rel=1e-9)


class _ExpTail(Exponential):
    tail_growth = 1.0


def test_rank_at_or_below_tail_growth_diverges():
    with pytest.raises(NonIntegrable):
        expected_order_stat(_ExpTail(1.0), 1, 4)


def test_exponential_ranks_match_harmonic_sums():
    d = Exponential(1.0)
    for t in (1, 2, 3, 6, 12):
        for j in range(1, t + 1):
            got = expected_order_stat(d, j, t)
            assert got == pytest.approx(harmonic_tail(j, t), rel=1e-9)


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
            assert got == pytest.approx((t - j + 1) / (t + 1), rel=1e-9)


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
    for d in builtin_families():
        assert expected_rank(d, 1, 1) == pytest.approx(d.mean(), rel=1e-9)


def test_first_order_stat_cdf():
    d = Uniform(0, 1)
    assert float(first_order_stat_cdf(d, 3, 0.5)) == pytest.approx(0.125)
    assert float(first_order_stat_cdf(d, 1, 0.25)) == pytest.approx(0.25)


def test_bad_rank_rejected():
    with pytest.raises(ValueError):
        expected_order_stat(Exponential(1.0), 3, 2)


def test_tail_probability_examples():
    d = Exponential(1.0)
    assert max_tail_probability(d, 1, expected_rank(d, 1, 1)) == pytest.approx(1 / math.e, abs=1e-6)
    assert max_tail_probability(d, 2, expected_rank(d, 1, 2)) == pytest.approx(1 - (1 - math.exp(-1.5)) ** 2, abs=1e-6)


def test_tail_probability_dominates_c_lambda():
    for d in builtin_families():
        c = c_of_lambda(d.lambda_claimed)
        for t in range(1, 33):
            assert max_tail_probability(d, t, expected_rank(d, 1, t)) >= c - 1e-4


def test_shifted_tail_probability():
    # P[max of s-1 >= E[max of s]] >= ((s-1)/s) c(lambda).
    for d in builtin_families():
        c = c_of_lambda(d.lambda_claimed)
        for s in range(2, 33):
            m = expected_rank(d, 1, s)
            p = float(-np.expm1((s - 1) * np.log(max(1.0 - float(d.survival(m)), 1e-300))))
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


def test_top_k_welfare_of_every_draw_is_n_times_the_mean():
    # k = n sums every order statistic: n E[v], without a quadrature, and
    # the same as the rank-by-rank sum to the rule's accuracy.
    for d in [*builtin_families(), TruncatedEqualRevenue(400)]:
        for n in (1, 5, 40):
            assert top_k_welfare(d, n, n) == n * d.mean()
            ranks = sum(expected_rank(d, j, n) for j in range(1, n + 1))
            assert top_k_welfare(d, n, n) == pytest.approx(ranks, rel=1e-9), (d.descriptor, n)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "descriptor",
    ["pareto:4:1", "pareto:2:1", "pareto:1.25:1", "pareto:1.1:1", "pareto:1.05:1", "pareto:1.01:1",
     "uniform:0:1", "exp:1"],
)
def test_top_k_sums_match_closed_forms(descriptor):
    d = parse_distribution(descriptor)
    for n in range(1, 33):
        want = np.cumsum([closed_form_order_stat(descriptor, j, n) for j in range(1, n + 1)])
        got = top_k_sums(d, n)
        assert got.shape == (n,)
        assert np.abs(got - want).max(initial=0.0) <= 1e-9 * want.min(), n


def test_top_k_sums_rule_runs_past_the_float_range_of_the_quantile():
    # At shape 1.01 the tail falls like e^(-0.01 s), so the rule runs to
    # s = 4650, where Q = e^(s / 1.01) overflows: the closed-form test above
    # covers the nodes summed in log space.
    d = Pareto(1.01, 1.0)
    with np.errstate(over="ignore"):
        assert d.tail_quantile(46.0 / (1.0 - d.tail_growth) + 50.0) == np.inf


def test_max_tail_probability_deep_in_a_heavy_tail():
    # 1 - F^t is taken from the survival: taken from the cdf, it read
    # 2.13e-14 at x = 1e15 (6 % low) and -0.0 at x = 1e17.
    d = Pareto(1.01, 1.0)
    for x, rounded in ((1e15, 2.27e-14), (1e17, 2.16e-16)):
        got = max_tail_probability(d, 32, x)
        assert got == pytest.approx(32.0 * x**-1.01, rel=1e-12)
        assert got == pytest.approx(rounded, rel=3e-3)


@pytest.mark.filterwarnings("error")
def test_max_is_surely_above_a_point_below_the_support():
    for d in builtin_families():
        assert max_tail_probability(d, 4, d.support.lo - 1.0) == 1.0, d.descriptor


@given(seed=st.integers(0, 2**31 - 1), t=st.integers(1, 30))
@settings(max_examples=30, deadline=None)
def test_samples_sorted_and_deterministic(seed, t):
    d = Uniform(0, 1)
    a = sample_order_stats(d, t, seed)
    b = sample_order_stats(d, t, seed)
    assert np.array_equal(a, b)
    assert np.all(np.diff(a) <= 0)
    assert a.shape == (t,)


# float.hex of expected_order_stat(d, j, t) for the builtin families plus
# pareto:3:1, j in {1, 2, t // 2, t}, t in {1, 3, 16, 256}.  A change to the
# nodes, range or weights of the rule shows here.
GOLDEN_ORDER_STATS = {
    ("exp:1", 1, 1): "0x1.0000000000000p+0",
    ("exp:1", 1, 3): "0x1.d555555555554p+0",
    ("exp:1", 2, 3): "0x1.aaaaaaaaaaaaap-1",
    ("exp:1", 3, 3): "0x1.5555555555556p-2",
    ("exp:1", 1, 16): "0x1.b0bbba47475d2p+1",
    ("exp:1", 2, 16): "0x1.30bbba47475d2p+1",
    ("exp:1", 8, 16): "0x1.9363f06d927ccp-1",
    ("exp:1", 16, 16): "0x1.fffffffffffffp-5",
    ("exp:1", 1, 256): "0x1.87f544932e3dfp+2",
    ("exp:1", 2, 256): "0x1.47f544932e3e1p+2",
    ("exp:1", 128, 256): "0x1.65e4afef639ffp-1",
    ("exp:1", 256, 256): "0x1.ffffffffffffep-9",
    ("uniform:0:1", 1, 1): "0x1.0000000000000p-1",
    ("uniform:0:1", 1, 3): "0x1.7fffffffffffep-1",
    ("uniform:0:1", 2, 3): "0x1.fffffffffffffp-2",
    ("uniform:0:1", 3, 3): "0x1.0000000000001p-2",
    ("uniform:0:1", 1, 16): "0x1.e1e1e1e1e1e1ep-1",
    ("uniform:0:1", 2, 16): "0x1.c3c3c3c3c3c3bp-1",
    ("uniform:0:1", 8, 16): "0x1.0f0f0f0f0f0f8p-1",
    ("uniform:0:1", 16, 16): "0x1.e1e1e1e1e1e1ep-5",
    ("uniform:0:1", 1, 256): "0x1.fe01fe01fe018p-1",
    ("uniform:0:1", 2, 256): "0x1.fc03fc03fc039p-1",
    ("uniform:0:1", 128, 256): "0x1.00ff00ff00ff5p-1",
    ("uniform:0:1", 256, 256): "0x1.fe01fe01fe02dp-9",
    ("weibull:1:2", 1, 1): "0x1.c5bf891b4ef6ap-1",
    ("weibull:1:2", 1, 3): "0x1.4a55e145c33c8p+0",
    ("weibull:1:2", 2, 3): "0x1.b69a1b8ea584cp-1",
    ("weibull:1:2", 3, 3): "0x1.05f8bd37c0e62p-1",
    ("weibull:1:2", 1, 16): "0x1.cf2b57cfe0610p+0",
    ("weibull:1:2", 2, 16): "0x1.861dd75ff95eap+0",
    ("weibull:1:2", 8, 16): "0x1.bfe87e131076bp-1",
    ("weibull:1:2", 16, 16): "0x1.c5bf891b4ef6ap-3",
    ("weibull:1:2", 1, 256): "0x1.3b2684a709e0bp+1",
    ("weibull:1:2", 2, 256): "0x1.20e69312055f4p+1",
    ("weibull:1:2", 128, 256): "0x1.aba2aae44b47cp-1",
    ("weibull:1:2", 256, 256): "0x1.c5bf891b4ef69p-5",
    ("pareto:2:1", 1, 1): "0x1.fffffffffffffp+0",
    ("pareto:2:1", 1, 3): "0x1.999999999999ap+1",
    ("pareto:2:1", 2, 3): "0x1.999999999999ap+0",
    ("pareto:2:1", 3, 3): "0x1.3333333333334p+0",
    ("pareto:2:1", 1, 16): "0x1.c94e6ffa4c078p+2",
    ("pareto:2:1", 2, 16): "0x1.c94e6ffa4c07ap+1",
    ("pareto:2:1", 8, 16): "0x1.7f2c38d338b52p+0",
    ("pareto:2:1", 16, 16): "0x1.0842108421084p+0",
    ("pareto:2:1", 1, 256): "0x1.c5f84495b9f9cp+4",
    ("pareto:2:1", 2, 256): "0x1.c5f84495b9f9ep+3",
    ("pareto:2:1", 128, 256): "0x1.6b47effc49fa0p+0",
    ("pareto:2:1", 256, 256): "0x1.008040201007cp+0",
    ("ter:100", 1, 1): "0x1.29b53da0c7f52p+2",
    ("ter:100", 1, 3): "0x1.3531e75e9989ep+3",
    ("ter:100", 2, 3): "0x1.6743b00ce97a2p+1",
    ("ter:100", 3, 3): "0x1.7c68487ac039cp+0",
    ("ter:100", 1, 16): "0x1.ae7f8078ac4b7p+4",
    ("ter:100", 2, 16): "0x1.7ed9bfdbcc4fbp+3",
    ("ter:100", 8, 16): "0x1.2044afb0249e3p+1",
    ("ter:100", 16, 16): "0x1.10df360ae2944p+0",
    ("ter:100", 1, 256): "0x1.31c88aafccbe7p+6",
    ("ter:100", 2, 256): "0x1.e8813cb29efebp+5",
    ("ter:100", 128, 256): "0x1.fecd7ce8e98e0p+0",
    ("ter:100", 256, 256): "0x1.00fe69f21c4eap+0",
    ("pareto:3:1", 1, 1): "0x1.8000000000000p+0",
    ("pareto:3:1", 1, 3): "0x1.0333333333330p+1",
    ("pareto:3:1", 2, 3): "0x1.5999999999998p+0",
    ("pareto:3:1", 3, 3): "0x1.2000000000000p+0",
    ("pareto:3:1", 1, 16): "0x1.b7ca1a6069512p+1",
    ("pareto:3:1", 2, 16): "0x1.253166eaf0e0ap+1",
    ("pareto:3:1", 8, 16): "0x1.4e42b35f6d388p+0",
    ("pareto:3:1", 16, 16): "0x1.0572620ae4c40p+0",
    ("pareto:3:1", 1, 256): "0x1.13424ffde2bddp+3",
    ("pareto:3:1", 2, 256): "0x1.6f03155283a7ap+2",
    ("pareto:3:1", 128, 256): "0x1.433ddfb637470p+0",
    ("pareto:3:1", 256, 256): "0x1.005571d09ade4p+0",
}


def test_order_stats_match_golden_bits():
    families = {d.descriptor: d for d in builtin_families() + [parse_distribution("pareto:3:1")]}
    got = {(name, j, t): float.hex(expected_order_stat(families[name], j, t)) for name, j, t in GOLDEN_ORDER_STATS}
    assert got == GOLDEN_ORDER_STATS
