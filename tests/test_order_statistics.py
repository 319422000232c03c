import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipmlab.distributions import Exponential, Pareto, Uniform, builtin_families, c_of_lambda, parse_distribution
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


# float.hex of expected_order_stat(d, j, t) for the builtin families plus
# pareto:3:1, j in {1, 2, t // 2, t}, t in {1, 3, 16, 256}.  A change to the
# integrands, nodes, tolerances or breakpoints of the quadrature shows here.
GOLDEN_ORDER_STATS = {
    ("exp:1", 1, 1): "0x1.ffffffaa19c48p-1",
    ("exp:1", 1, 3): "0x1.d55554d47bfc2p+0",
    ("exp:1", 2, 3): "0x1.aaaaaaaaaa861p-1",
    ("exp:1", 3, 3): "0x1.5555555554c13p-2",
    ("exp:1", 1, 16): "0x1.b0bbb8efae6fep+1",
    ("exp:1", 2, 16): "0x1.30bbba4746f66p+1",
    ("exp:1", 8, 16): "0x1.9363f06d927acp-1",
    ("exp:1", 16, 16): "0x1.ffffffffffffdp-5",
    ("exp:1", 1, 256): "0x1.87f539d6673fep+2",
    ("exp:1", 2, 256): "0x1.47f544932e341p+2",
    ("exp:1", 128, 256): "0x1.65e4afef639f6p-1",
    ("exp:1", 256, 256): "0x1.0000000000002p-8",
    ("uniform:0:1", 1, 1): "0x1.0000000000000p-1",
    ("uniform:0:1", 1, 3): "0x1.8000000000000p-1",
    ("uniform:0:1", 2, 3): "0x1.0000000000001p-1",
    ("uniform:0:1", 3, 3): "0x1.0000000000000p-2",
    ("uniform:0:1", 1, 16): "0x1.e1e1e1e1e1e1dp-1",
    ("uniform:0:1", 2, 16): "0x1.c3c3c3c3c3c3dp-1",
    ("uniform:0:1", 8, 16): "0x1.0f0f0f0f0f0f1p-1",
    ("uniform:0:1", 16, 16): "0x1.e1e1e1e1e1e1ap-5",
    ("uniform:0:1", 1, 256): "0x1.fe01fe01fe020p-1",
    ("uniform:0:1", 2, 256): "0x1.fc03fc03fc042p-1",
    ("uniform:0:1", 128, 256): "0x1.00ff00ff00fefp-1",
    ("uniform:0:1", 256, 256): "0x1.fe01fe01fe024p-9",
    ("weibull:1:2", 1, 1): "0x1.c5bf89118dad5p-1",
    ("weibull:1:2", 1, 3): "0x1.4a55e137214e9p+0",
    ("weibull:1:2", 2, 3): "0x1.b69a1b8ea2e90p-1",
    ("weibull:1:2", 3, 3): "0x1.05f8bd37c1eabp-1",
    ("weibull:1:2", 1, 16): "0x1.cf2b5781d616bp+0",
    ("weibull:1:2", 2, 16): "0x1.861dd75fedb59p+0",
    ("weibull:1:2", 8, 16): "0x1.bfe87e131075cp-1",
    ("weibull:1:2", 16, 16): "0x1.c5bf891b4ebcdp-3",
    ("weibull:1:2", 1, 256): "0x1.3b268236b7a70p+1",
    ("weibull:1:2", 2, 256): "0x1.20e69311fb12cp+1",
    ("weibull:1:2", 128, 256): "0x1.aba2aae44b471p-1",
    ("weibull:1:2", 256, 256): "0x1.c5bf891b4ed09p-5",
    ("pareto:2:1", 1, 1): "0x1.fff9724744ed0p+0",
    ("pareto:2:1", 1, 3): "0x1.998fc5048189ep+1",
    ("pareto:2:1", 2, 3): "0x1.99999999903a0p+0",
    ("pareto:2:1", 3, 3): "0x1.333333332a0fdp+0",
    ("pareto:2:1", 1, 16): "0x1.c93439176abc0p+2",
    ("pareto:2:1", 2, 16): "0x1.c94e6ffa1a476p+1",
    ("pareto:2:1", 8, 16): "0x1.7f2c38d338b30p+0",
    ("pareto:2:1", 16, 16): "0x1.0842108421083p+0",
    ("pareto:2:1", 1, 256): "0x1.c58f690cf4751p+4",
    ("pareto:2:1", 2, 256): "0x1.c5f8449178a24p+3",
    ("pareto:2:1", 128, 256): "0x1.6b47effc49f9dp+0",
    ("pareto:2:1", 256, 256): "0x1.0080402010080p+0",
    ("ter:100", 1, 1): "0x1.29b53da0c7f4ap+2",
    ("ter:100", 1, 3): "0x1.3531e75e99896p+3",
    ("ter:100", 2, 3): "0x1.6743b00ce97a3p+1",
    ("ter:100", 3, 3): "0x1.7c68487ac039bp+0",
    ("ter:100", 1, 16): "0x1.ae7f8078ac47fp+4",
    ("ter:100", 2, 16): "0x1.7ed9bfdbcc503p+3",
    ("ter:100", 8, 16): "0x1.2044afb0245edp+1",
    ("ter:100", 16, 16): "0x1.10df360ae2944p+0",
    ("ter:100", 1, 256): "0x1.31c88aafd828ep+6",
    ("ter:100", 2, 256): "0x1.e8813cb29efe5p+5",
    ("ter:100", 128, 256): "0x1.fecd7ce8e98d5p+0",
    ("ter:100", 256, 256): "0x1.00fe69f21c4eap+0",
    ("pareto:3:1", 1, 1): "0x1.7fffd910438b7p+0",
    ("pareto:3:1", 1, 3): "0x1.0332f8cb98883p+1",
    ("pareto:3:1", 2, 3): "0x1.5999999998ac5p+0",
    ("pareto:3:1", 3, 3): "0x1.1ffffffff7bd3p+0",
    ("pareto:3:1", 1, 16): "0x1.b7c8e2e286490p+1",
    ("pareto:3:1", 2, 16): "0x1.253166eae6b87p+1",
    ("pareto:3:1", 8, 16): "0x1.4e42b35f6d376p+0",
    ("pareto:3:1", 16, 16): "0x1.0572620ae4c41p+0",
    ("pareto:3:1", 1, 256): "0x1.133d72067dcf2p+3",
    ("pareto:3:1", 2, 256): "0x1.6f03155227935p+2",
    ("pareto:3:1", 128, 256): "0x1.433ddfb637471p+0",
    ("pareto:3:1", 256, 256): "0x1.005571d09ade4p+0",
}


def test_order_stats_match_golden_bits():
    families = {d.descriptor: d for d in builtin_families() + [parse_distribution("pareto:3:1")]}
    got = {(name, j, t): float.hex(expected_order_stat(families[name], j, t)) for name, j, t in GOLDEN_ORDER_STATS}
    assert got == GOLDEN_ORDER_STATS


def test_beta_pdf_ufunc_matches_scipy_stats_bits():
    # expected_order_stat calls the ufunc behind scipy.stats.beta.pdf
    # directly; a scipy that moves or changes it must fail here.
    from scipy import stats
    from scipy.special._ufuncs import _beta_pdf

    u = np.concatenate([[0.0, 1e-300, 1e-9], np.linspace(0.0, 1.0, 1001), [1.0 - 1e-9, 1.0]])
    for a in (1, 2, 3, 7, 16, 129, 255, 256):
        for b in (1, 2, 3, 8, 128, 256):
            assert _beta_pdf(u, a, b).tobytes() == stats.beta(a, b).pdf(u).tobytes(), (a, b)
            assert float(_beta_pdf(0.3, a, b)).hex() == float(stats.beta(a, b).pdf(0.3)).hex(), (a, b)
