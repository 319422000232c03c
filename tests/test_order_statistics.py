import hashlib
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
    _GL_NODES,
    _GL_WEIGHTS,
    expected_order_stat,
    expected_rank,
    max_tail_probability,
    sum_left,
    top_k_sums,
    top_k_welfare,
)

from oracles import first_order_stat_cdf, quad_order_stat, sample_order_stats, sum_py312


PARETO_101 = Pareto(1.01, 1.0)


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


TIGHT_FAMILIES = ["exp:1", "uniform:0:1"] + [f"pareto:{shape}:1" for shape in (1.01, 1.05, 1.1, 1.25, 1.5, 2, 3, 4, 10)]
TIGHT_RANKS = [(j, t) for t in range(1, 33) for j in range(1, t + 1)] + [
    (j, t) for t in (64, 128, 256) for j in sorted({1, 2, 3, t // 4, t // 2, t - 1, t})
]


@pytest.mark.parametrize("descriptor", TIGHT_FAMILIES)
def test_order_stats_match_closed_forms_to_5e14(descriptor):
    # The rule's own accuracy, far inside its 1e-9 self-check: the worst case
    # over these families and ranks measured 7.3e-15 with panels of
    # min(1/8, sd/(4 mean)) in log s and 8.3e-15 with the present
    # min(1/2, sd/mean) (uniform:0:1, j = 64, t = 256).
    d = parse_distribution(descriptor)
    for j, t in TIGHT_RANKS:
        want = closed_form_order_stat(descriptor, j, t)
        assert abs(expected_order_stat(d, j, t) - want) <= 5e-14 * abs(want), (j, t)


class _CountedExponential(Exponential):
    nodes = 0

    def tail_quantile(self, s):
        _CountedExponential.nodes += np.size(s)
        return super().tail_quantile(s)


def test_order_stats_evaluate_few_nodes():
    # Every rank of 32 draws and the max of 1 to 32 draws: 37 760 quantile
    # evaluations with panels of min(1/2, sd/mean) in log s, 148 960 with
    # the former min(1/8, sd/(4 mean)).
    _CountedExponential.nodes = 0
    d = _CountedExponential(1.0)
    for j in range(1, 33):
        expected_order_stat(d, j, 32)
    for t in range(1, 33):
        expected_order_stat(d, 1, t)
    assert 0 < _CountedExponential.nodes <= 40_000


def test_gauss_legendre_literals_are_leggauss_bits():
    nodes, weights = np.polynomial.legendre.leggauss(20)
    assert _GL_NODES.tobytes() == nodes.tobytes()
    assert _GL_WEIGHTS.tobytes() == weights.tobytes()


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


def test_sum_left_adds_left_to_right():
    # 1e16 + 1 rounds to 1e16, so the plain sum loses the 1 that Python
    # 3.12's compensated sum (emulated by `sum_py312`) keeps.
    xs = [1e16, 1.0, -1e16]
    assert sum_left(xs) == 0.0 and sum_py312(xs) == 1.0
    assert sum_left([]) == 0.0 and sum_py312([]) == 0


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
# pareto:3:1, j in {1, 2, t // 2, t}, t in {1, 3, 16, 256}, and a few
# pareto:1.01:1 cases.  A change to the
# nodes, range or weights of the rule shows here.  Re-recorded when its
# panels widened from min(1/8, sd/(4 mean)) to min(1/2, sd/mean) in log s:
# 63 of 76 moved, by at most 22 ulps (3.1e-15 relative).
GOLDEN_ORDER_STATS = {
    ("exp:1", 1, 1): "0x1.fffffffffffffp-1",
    ("exp:1", 1, 3): "0x1.d55555555554fp+0",
    ("exp:1", 2, 3): "0x1.aaaaaaaaaaaaap-1",
    ("exp:1", 3, 3): "0x1.5555555555555p-2",
    ("exp:1", 1, 16): "0x1.b0bbba47475d2p+1",
    ("exp:1", 2, 16): "0x1.30bbba47475d2p+1",
    ("exp:1", 8, 16): "0x1.9363f06d927cap-1",
    ("exp:1", 16, 16): "0x1.ffffffffffffep-5",
    ("exp:1", 1, 256): "0x1.87f544932e3e9p+2",
    ("exp:1", 2, 256): "0x1.47f544932e3ecp+2",
    ("exp:1", 128, 256): "0x1.65e4afef639fbp-1",
    ("exp:1", 256, 256): "0x1.ffffffffffffcp-9",
    ("uniform:0:1", 1, 1): "0x1.0000000000001p-1",
    ("uniform:0:1", 1, 3): "0x1.7fffffffffffep-1",
    ("uniform:0:1", 2, 3): "0x1.0000000000000p-1",
    ("uniform:0:1", 3, 3): "0x1.0000000000000p-2",
    ("uniform:0:1", 1, 16): "0x1.e1e1e1e1e1e1cp-1",
    ("uniform:0:1", 2, 16): "0x1.c3c3c3c3c3c3cp-1",
    ("uniform:0:1", 8, 16): "0x1.0f0f0f0f0f0f6p-1",
    ("uniform:0:1", 16, 16): "0x1.e1e1e1e1e1e1cp-5",
    ("uniform:0:1", 1, 256): "0x1.fe01fe01fe026p-1",
    ("uniform:0:1", 2, 256): "0x1.fc03fc03fc04dp-1",
    ("uniform:0:1", 128, 256): "0x1.00ff00ff00ff3p-1",
    ("uniform:0:1", 256, 256): "0x1.fe01fe01fe02cp-9",
    ("weibull:1:2", 1, 1): "0x1.c5bf891b4ef6cp-1",
    ("weibull:1:2", 1, 3): "0x1.4a55e145c33c6p+0",
    ("weibull:1:2", 2, 3): "0x1.b69a1b8ea584cp-1",
    ("weibull:1:2", 3, 3): "0x1.05f8bd37c0e64p-1",
    ("weibull:1:2", 1, 16): "0x1.cf2b57cfe060ep+0",
    ("weibull:1:2", 2, 16): "0x1.861dd75ff95ebp+0",
    ("weibull:1:2", 8, 16): "0x1.bfe87e1310768p-1",
    ("weibull:1:2", 16, 16): "0x1.c5bf891b4ef6bp-3",
    ("weibull:1:2", 1, 256): "0x1.3b2684a709e12p+1",
    ("weibull:1:2", 2, 256): "0x1.20e69312055fep+1",
    ("weibull:1:2", 128, 256): "0x1.aba2aae44b476p-1",
    ("weibull:1:2", 256, 256): "0x1.c5bf891b4ef6ap-5",
    ("pareto:2:1", 1, 1): "0x1.0000000000001p+1",
    ("pareto:2:1", 1, 3): "0x1.999999999999bp+1",
    ("pareto:2:1", 2, 3): "0x1.999999999999ap+0",
    ("pareto:2:1", 3, 3): "0x1.3333333333333p+0",
    ("pareto:2:1", 1, 16): "0x1.c94e6ffa4c077p+2",
    ("pareto:2:1", 2, 16): "0x1.c94e6ffa4c077p+1",
    ("pareto:2:1", 8, 16): "0x1.7f2c38d338b4bp+0",
    ("pareto:2:1", 16, 16): "0x1.0842108421084p+0",
    ("pareto:2:1", 1, 256): "0x1.c5f84495b9f94p+4",
    ("pareto:2:1", 2, 256): "0x1.c5f84495b9f9ep+3",
    ("pareto:2:1", 128, 256): "0x1.6b47effc49fa8p+0",
    ("pareto:2:1", 256, 256): "0x1.0080402010080p+0",
    ("ter:100", 1, 1): "0x1.29b53da0c7f4bp+2",
    ("ter:100", 1, 3): "0x1.3531e75e99896p+3",
    ("ter:100", 2, 3): "0x1.6743b00ce97a0p+1",
    ("ter:100", 3, 3): "0x1.7c68487ac039cp+0",
    ("ter:100", 1, 16): "0x1.ae7f8078ac4b6p+4",
    ("ter:100", 2, 16): "0x1.7ed9bfdbcc4f9p+3",
    ("ter:100", 8, 16): "0x1.2044afb0249e2p+1",
    ("ter:100", 16, 16): "0x1.10df360ae2944p+0",
    ("ter:100", 1, 256): "0x1.31c88aafccbf4p+6",
    ("ter:100", 2, 256): "0x1.e8813cb29f000p+5",
    ("ter:100", 128, 256): "0x1.fecd7ce8e98dbp+0",
    ("ter:100", 256, 256): "0x1.00fe69f21c4eap+0",
    ("pareto:3:1", 1, 1): "0x1.8000000000001p+0",
    ("pareto:3:1", 1, 3): "0x1.0333333333334p+1",
    ("pareto:3:1", 2, 3): "0x1.5999999999998p+0",
    ("pareto:3:1", 3, 3): "0x1.2000000000000p+0",
    ("pareto:3:1", 1, 16): "0x1.b7ca1a6069510p+1",
    ("pareto:3:1", 2, 16): "0x1.253166eaf0e0bp+1",
    ("pareto:3:1", 8, 16): "0x1.4e42b35f6d389p+0",
    ("pareto:3:1", 16, 16): "0x1.0572620ae4c42p+0",
    ("pareto:3:1", 1, 256): "0x1.13424ffde2bdep+3",
    ("pareto:3:1", 2, 256): "0x1.6f03155283a82p+2",
    ("pareto:3:1", 128, 256): "0x1.433ddfb63746dp+0",
    ("pareto:3:1", 256, 256): "0x1.005571d09ade3p+0",
    # Rank 1 here takes the path where Q overflows and log Q is summed.
    ("pareto:1.01:1", 1, 1): "0x1.940000000000cp+6",
    ("pareto:1.01:1", 1, 16): "0x1.86f90eddc421bp+10",
    ("pareto:1.01:1", 1, 256): "0x1.7c469472317c9p+14",
    ("pareto:1.01:1", 2, 16): "0x1.ef7d89f81983ap+3",
}


def test_order_stats_match_golden_bits():
    families = {d.descriptor: d for d in builtin_families() + [parse_distribution("pareto:3:1"), PARETO_101]}
    got = {(name, j, t): float.hex(expected_order_stat(families[name], j, t)) for name, j, t in GOLDEN_ORDER_STATS}
    assert got == GOLDEN_ORDER_STATS


# sha256 of top_k_sums(d, n).tobytes() for the builtin families and
# pareto:1.01:1, whose tail runs past the float range of the quantile.
GOLDEN_TOP_K_SUMS = {
    ("exp:1", 1): "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712",
    ("exp:1", 4): "33a2ab511a1ba1cfa7ab11d149bde9d727baefdda2177fe98eccc7b44971ec9c",
    ("exp:1", 12): "ff343b92d22e996f95d66bdcb804b61b9e40544029910d9e68fdf9efab169418",
    ("exp:1", 32): "b85f0c0d74b2e6bb49690fffbdacd0766cbbdce39185baa96a8e390e2860bb85",
    ("exp:1", 256): "074d7b3bf4618aae54cd3a279ad62257914d28d9f57342fe86a75cbd5c22aab6",
    ("uniform:0:1", 1): "4cfa5b42ca669328764e67cd9a34bb8f90b16ed7ca8d85e8443783d7ccce15ed",
    ("uniform:0:1", 4): "ac33ed3385c8eede774254a09965ff19f5ed23772652df5db9adfa111b2888f3",
    ("uniform:0:1", 12): "e38b6cc3e2fd824036c3b8fac42f3a08bae6e58ec7d9c7968d038f5a4d29e1c3",
    ("uniform:0:1", 32): "453376f9f4c3336a42609778788ef38199c8fbbbe96fe67a330da8ed085c85e8",
    ("uniform:0:1", 256): "a58602582283a97fdfd318deb7cb951b4c9e09fc9ea8fe3b730ceaa569f4d3a8",
    ("weibull:1:2", 1): "b7fda8a0a11398bd1faeeb029874999ce73e660ca618115747b7e00502e495cc",
    ("weibull:1:2", 4): "84e3bc2c0b3772130edd9eaa0e5f3ab404ea51a59af3394c6375d38e310fc2f9",
    ("weibull:1:2", 12): "2e9c276d95810da09904d263586dce438f6ec188ffa4fc54c234eab2551dd841",
    ("weibull:1:2", 32): "b92e783e6679d166d3e6e664477337f919cd484c423c12287163beb5fa17b6a4",
    ("weibull:1:2", 256): "7e8ec6efe6c76971971e9e5fec7a6dac71c911bb9e4d76979360ac18b309a55d",
    ("pareto:2:1", 1): "3f710ac088db33363087de2b9a657541fe5447821debaa9fe5cbd538eb1a5f29",
    ("pareto:2:1", 4): "39e60713645cf4611c9a14840df78b729580dfe5faffc2c72120ac7cf1f91bcd",
    ("pareto:2:1", 12): "081fe0579110f0971f81ff5d5434d7539e362d34b583ffabddbd1ba0db9e1ef3",
    ("pareto:2:1", 32): "a63da9b1b02540fb6cd50722a901413829a16ae3681fc6030fdb333b55394ad1",
    ("pareto:2:1", 256): "567b63de9f84b161e73d21ecd6bae6e5fbb2724a76bfd3f1967ba1fb72162334",
    ("ter:100", 1): "41afb70e54f57f8ed03b2b1b66d9ec023351701d714f5f93407d873b340d2d02",
    ("ter:100", 4): "bd3d231e8d3e95552b614afd2bb18a3ab80c7f3054a4da0ddd0a672ea88b8240",
    ("ter:100", 12): "6cfff80f6af4f8b68e818571da2eca329cf2be3bcc09a0b8232d9b49cadd888b",
    ("ter:100", 32): "e1ca4aeb57719662b57b6477fe7098e4ff0211cbecb4c2b1fc70704f2fd4f2fe",
    ("ter:100", 256): "e47e8cbd067568f8ac621ac48ca412da183d7dd545c016d9ed5225771bc99045",
    ("pareto:1.01:1", 1): "3f708e5b72415ab8d5e9e8f243be2a437699c69382038906dc494adab47d06b3",
    ("pareto:1.01:1", 4): "0a79fcc016f746cd9af45149209ad2fee033d8ef81c54326ec6f3de71f5fa875",
    ("pareto:1.01:1", 12): "0cde857a9be8384733e810e5c2464a7dd288796f225282580e65f1f52d58412b",
    ("pareto:1.01:1", 32): "24c4d8cea787a4ea9e07eb5faf22cfbc129297b5dffbc7c803b8bf325aa38c92",
    ("pareto:1.01:1", 256): "b43ab8c8cc8d362bc22f90b7424119d1a91e26485c7a5180fa95b546d54a7703",
}


def test_top_k_sums_match_golden_bits():
    got = {
        (d.descriptor, n): hashlib.sha256(top_k_sums(d, n).tobytes()).hexdigest()
        for d in builtin_families() + [PARETO_101]
        for n in (1, 4, 12, 32, 256)
    }
    assert got == GOLDEN_TOP_K_SUMS
