import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipmlab.distributions import Exponential, Pareto, TruncatedEqualRevenue, Uniform, Weibull
from ipmlab.mechanisms import build_menu, ipm_price, optimal_item_price

from oracles import bundle_price_monopsony, ipm_allocate, kplus1_auction, sequential_menu_sale


def test_uniform_posted_price_examples():
    assert ipm_price(Exponential(1.0), 6, 3) == pytest.approx(1.5, abs=1e-6)
    assert ipm_price(Uniform(0, 1), 4, 2) == pytest.approx(2 / 3, abs=1e-7)
    # k = n: price is the mean of a single draw.
    assert ipm_price(Exponential(1.0), 5, 5) == pytest.approx(1.0, abs=1e-6)


@given(rate=st.floats(0.01, 100.0), n=st.integers(1, 300), data=st.data())
@settings(max_examples=60, deadline=None)
def test_ipm_price_scales_inversely_with_exponential_rate(rate, n, data):
    # exp:r is exp:1 divided by r, and so is the expected max of any sample.
    k = data.draw(st.integers(1, n))
    assert ipm_price(Exponential(rate), n, k) * rate == pytest.approx(ipm_price(Exponential(1.0), n, k), rel=1e-9)


def test_price_rejects_bad_k():
    with pytest.raises(ValueError):
        ipm_price(Exponential(1.0), 3, 4)


def test_menu_worked_example():
    menu = build_menu(Exponential(1.0), 4, (1.0, 0.5))
    assert menu.us[0] == pytest.approx(25 / 12, abs=1e-6)
    assert menu.us[1] == pytest.approx(1.5, abs=1e-6)
    assert menu.rs[0] == pytest.approx(25 / 12 * 0.5 + 1.5 * 0.5, abs=1e-6)  # 1.791667
    assert menu.rs[1] == pytest.approx(0.75, abs=1e-6)


def test_menu_top_price_telescopes():
    etas = (1.0, 0.6, 0.3, 0.1)
    menu = build_menu(Exponential(1.0), 8, etas)
    ext = list(etas) + [0.0]
    r1 = sum(menu.us[j] * (ext[j] - ext[j + 1]) for j in range(4))
    assert menu.rs[0] == pytest.approx(r1, abs=1e-9)
    assert np.all(np.diff(menu.rs) <= 1e-9)


def test_menu_rejects_prices_rising_over_a_negative_max():
    # u_1 = E[v^(1,4)] and u_2 = E[v^(1,2)] are negative on [-3, -1], so
    # r_1 = r_2 + u_1 (1 - 0.5) < r_2.
    with pytest.raises(ValueError, match="negative expected max"):
        build_menu(Uniform(-3.0, -1.0), 4, (1.0, 0.5))


def test_menu_rejects_increasing_weights():
    with pytest.raises(ValueError):
        build_menu(Exponential(1.0), 4, (0.5, 1.0))


def test_rationing_lottery_is_uniform():
    # Two intermediaries requesting (3, 3) with k = 3: each unit should win
    # with probability 1/2, so intermediary 0 gets 1.5 units on average.
    rng = np.random.default_rng(5)
    tot = 0
    trials = 20_000
    for _ in range(trials):
        served, _ = ipm_allocate([3, 3], 3, 1.0, rng)
        tot += served.get(0, 0)
    assert tot / trials == pytest.approx(1.5, abs=0.02)


def test_allocation_without_shortage_serves_everyone():
    served, revenue = ipm_allocate([2, 1], 5, 2.0, 0)
    assert served == {0: 2, 1: 1}
    assert revenue == pytest.approx(6.0)


def test_kplus1_auction_payments():
    allocation, payments, revenue, welfare = kplus1_auction([5.0, 4.0, 3.0, 2.0], 2, reserve=1.0)
    assert set(allocation) == {0, 1}
    assert payments[0] == pytest.approx(3.0)  # third-highest bid
    assert revenue == pytest.approx(6.0)
    assert welfare == pytest.approx(9.0)


def test_kplus1_auction_reserve_binds():
    allocation, payments, _, _ = kplus1_auction([5.0, 0.2, 0.1], 2, reserve=1.0)
    assert set(allocation) == {0}
    assert payments[0] == pytest.approx(1.0)


def test_kplus1_auction_dominant_strategy_on_grid():
    # Bidding your value is optimal against any opponent bids on a small grid.
    grid = [0.0, 0.5, 1.0, 1.5, 2.0]
    k, reserve = 1, 0.75

    def utility(value, bid, others):
        bids = [bid] + list(others)
        allocation, payments, _, _ = kplus1_auction(bids, k, reserve)
        if 0 in allocation:
            return value - payments[0]
        return 0.0

    for n in (2, 3, 4):
        for others in itertools.product(grid, repeat=n - 1):
            for value in grid:
                truthful = utility(value, value, others)
                for dev in grid:
                    assert utility(value, dev, others) <= truthful + 1e-12


def test_bundle_price_examples():
    assert bundle_price_monopsony(Exponential(1.0), 3, 2) == pytest.approx(8 / 3, abs=1e-5)
    d = TruncatedEqualRevenue(100)
    assert bundle_price_monopsony(d, 100, 100) == pytest.approx(100 * (100 / 99) * math.log(100), rel=1e-5)


def test_bundle_price_grid_optimal_reasonable():
    # The revenue-optimal bundle price cannot be worse than the mean-priced
    # bundle evaluated on the same empirical sample.
    d = Uniform(0, 1)
    p = bundle_price_monopsony(d, 4, 2, mode="grid_optimal", reps=20_000, rng_seed=3)
    assert 0.5 < p < 2.0


def test_optimal_item_price_closed_forms():
    # (family, monopoly price, per-buyer revenue); phi > 0 on the whole
    # support of pareto and ter, so their price is the support's lower end.
    cases = [
        (Exponential(1.0), 1.0, 1 / math.e),
        (Uniform(0, 1), 0.5, 0.25),
        (Weibull(1.0, 2.0), math.sqrt(0.5), math.sqrt(0.5) * math.exp(-0.5)),
        (Pareto(2.0, 1.0), 1.0, 1.0),
        (Pareto(3.0, 2.5), 2.5, 2.5),
        (TruncatedEqualRevenue(100), 1.0, 1.0),
    ]
    for d, price, revenue in cases:
        p = optimal_item_price(d)
        assert p == pytest.approx(price, rel=1e-12, abs=1e-12), d.descriptor
        assert p * float(d.survival(p)) == pytest.approx(revenue, rel=1e-12, abs=1e-12), d.descriptor


def test_sequential_sale_single_buyer_example():
    menu = build_menu(Exponential(1.0), 4, (1.0, 0.5))
    groups = [[0]]
    allocation, revenue, welfare = sequential_menu_sale(menu, groups, [2.0], [0])
    # Item 2 alone: surplus 0.5*2 - 0.75 = 0.25 beats item 1 (2 - 1.7917 < 0.25).
    assert allocation == {0: 1}
    assert revenue == pytest.approx(menu.rs[1])
    assert welfare == pytest.approx(1.0)


def test_sequential_sale_items_disappear():
    menu = build_menu(Exponential(1.0), 4, (1.0, 0.5))
    groups = [[0], [1]]
    allocation, revenue, _ = sequential_menu_sale(menu, groups, [10.0, 10.0], [0, 1])
    # The first intermediary takes the top item for its single buyer; the
    # second can only buy what is left.
    assert allocation == {0: 0, 1: 1}
    assert revenue == pytest.approx(menu.rs.sum())
    allocation2, _, _ = sequential_menu_sale(menu, groups, [10.0, 10.0], [1, 0])
    assert allocation2 == {1: 0, 0: 1}


@given(vals=st.lists(st.floats(0.0, 5.0), min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_revenue_never_exceeds_welfare(vals):
    menu = build_menu(Exponential(1.0), 6, (1.0, 0.5, 0.25))
    groups = [list(range(len(vals)))]
    _, revenue, welfare = sequential_menu_sale(menu, groups, vals, [0])
    assert revenue <= welfare + 1e-9
