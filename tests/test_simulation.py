import hashlib
import math
import os
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ipmlab import agents, simulation
from ipmlab.distributions import Exponential, Uniform, inverse_virtual_value, parse_distribution
from ipmlab.mechanisms import Menu, build_menu
from ipmlab.order_statistics import expected_rank

from _experiments import canonical_structures, ln_gap_experiment
from oracles import competition_welfare, ipm_allocate, kplus1_auction, sequential_menu_sale
from row_digests import record_blocks, row_digest


def scenario(**overrides):
    base = dict(
        d=Exponential(1.0),
        n=6,
        k=3,
        structure=agents.competition(6),
        model=agents.parse_behavior("surplus"),
        mechanism="ipm",
        reps=20_000,
        master_seed=7,
    )
    base.update(overrides)
    return simulation.Scenario(**base)


def test_scenario_validation():
    with pytest.raises(ValueError):
        scenario(reps=0)
    with pytest.raises(ValueError):
        scenario(k=9)
    with pytest.raises(ValueError):
        scenario(mechanism="vcg")
    with pytest.raises(ValueError):
        scenario(mechanism="het_ipm")  # needs weights
    with pytest.raises(ValueError):
        scenario(order_policy="randmo")
    for m in (8, 4):  # a structure over another number of buyers
        with pytest.raises(ValueError):
            scenario(structure=agents.competition(m))
    with pytest.raises(ValueError, match="epsilon"):
        scenario(epsilon=0.5)  # only bundle reads the slack
    for mechanism in ("het_ipm", "kplus1", "bundle"):  # only the uniform price reads the model
        with pytest.raises(ValueError, match="monopolist"):
            scenario(mechanism=mechanism, etas=(1.0, 0.5, 0.25) if mechanism == "het_ipm" else None,
                     model=agents.parse_behavior("monopolist"))


def test_same_seed_reproduces_exactly(monkeypatch):
    a = simulation.run_scenario(scenario())
    b = simulation.run_scenario(scenario())
    assert a.csv_row() == b.csv_row()
    monkeypatch.setenv("IPMLAB_THREADS", "4")
    c = simulation.run_scenario(scenario())
    assert c.csv_row() == a.csv_row()


def test_different_seed_differs():
    a = simulation.run_scenario(scenario())
    b = simulation.run_scenario(scenario(master_seed=8))
    assert a.mean_revenue != b.mean_revenue


def test_revenue_below_welfare_for_pass_through():
    for mech in ("ipm", "het_ipm", "kplus1", "bundle", "item_price"):
        s = scenario(mechanism=mech, etas=(1.0, 0.5, 0.25) if mech == "het_ipm" else None,
                     structure=agents.balanced(6, 2))
        rep = simulation.run_scenario(s)
        assert rep.mean_revenue <= rep.mean_welfare + 2 * rep.ci95_revenue
        assert rep.extra["pointwise_rev_gt_wel"] == 0
        assert rep.ratio >= 0.0


def test_single_buyer_single_item_ratio():
    # One buyer, one unit: revenue = E[v] P[v >= E[v]]; for the memoryless
    # case the ratio is exactly 1/e.
    s = scenario(n=1, k=1, structure=agents.monopsony(1), reps=400_000)
    rep = simulation.run_scenario(s)
    assert rep.extra["price"] == pytest.approx(1.0, abs=1e-6)
    assert rep.ratio == pytest.approx(1 / math.e, abs=5e-3)


def test_bound_not_reported_for_small_runs():
    rep = simulation.run_scenario(scenario(reps=500))
    assert rep.passed is None
    rep2 = simulation.run_scenario(scenario(reps=10_000))
    assert rep2.passed is not None


def test_bound_values():
    # n/k integer doubles the guarantee.
    assert simulation.theoretical_bound(scenario()) == pytest.approx(
        (1 / math.e) * (1 - 1 / math.e))
    assert simulation.theoretical_bound(scenario(n=7, k=3, structure=agents.competition(7))) == pytest.approx(
        0.5 * (1 / math.e) * (1 - 1 / math.e))
    mono = scenario(model=agents.parse_behavior("monopolist"))
    assert simulation.theoretical_bound(mono) == pytest.approx(
        (1 / math.e) ** 2 * (1 - 1 / math.e))
    het = scenario(mechanism="het_ipm", k=2, etas=(1.0, 0.5))
    assert simulation.theoretical_bound(het) == pytest.approx(
        (1 - math.exp(-1 / (2 * math.e))) * (1 - 1 / math.e))
    assert simulation.theoretical_bound(scenario(mechanism="kplus1")) is None


def test_monopolist_revenue_matches_markup_model():
    # Monopolist buys only for buyers above the inverse virtual value, so the
    # fraction of qualifying buyers shrinks to 1/e of the pass-through rate.
    s = scenario(model=agents.parse_behavior("monopolist"), reps=200_000)
    rep = simulation.run_scenario(s)
    # Demand per buyer: P[v >= phi^-1(1.5)] = e^{-2.5}; 6 buyers, cap rarely binds.
    per = 6 * math.exp(-(1.5 + 1.0))
    assert rep.mean_revenue == pytest.approx(1.5 * per, rel=0.05)


def test_heterogeneous_random_vs_fixed_order():
    s_fix = scenario(mechanism="het_ipm", etas=(1.0, 0.5, 0.25),
                     structure=agents.balanced(6, 2), order_policy="fixed")
    s_rand = scenario(mechanism="het_ipm", etas=(1.0, 0.5, 0.25),
                      structure=agents.balanced(6, 2), order_policy="random")
    a = simulation.run_scenario(s_fix)
    b = simulation.run_scenario(s_rand)
    # Same valuation draws, different visit orders: revenue close, not equal.
    assert a.mean_revenue == pytest.approx(b.mean_revenue, rel=0.1)


def test_heterogeneous_engine_matches_reference_sale():
    # The batched fast path must agree with the reference sequential sale.
    s = scenario(mechanism="het_ipm", k=2, etas=(1.0, 0.5), structure=agents.balanced(6, 3),
                 order_policy="fixed", reps=64)
    menu = build_menu(s.d, s.n, s.etas)
    rep = simulation.run_scenario(s)
    rng = np.random.default_rng(np.random.SeedSequence((s.master_seed, 0, 0)))
    v = np.asarray(s.d.quantile(rng.random((64, 6))), dtype=float)
    total = 0.0
    for r in range(64):
        _, revenue, _ = sequential_menu_sale(menu, s.structure.groups(), v[r], range(3))
        total += revenue
    assert rep.mean_revenue == pytest.approx(total / 64, abs=1e-9)


def test_heterogeneous_engine_runs_at_k_equals_n_64():
    # 64 items: the exact purchase is a DP, not a 2^64 enumeration.  Fixed
    # order, so each row replays through the reference sale.
    etas = tuple(1.0 / (j + 1) for j in range(64))
    s = scenario(mechanism="het_ipm", n=64, k=64, etas=etas, structure=agents.balanced(64, 8),
                 order_policy="fixed", reps=96)
    rep = simulation.run_scenario(s)
    assert 0.0 < rep.mean_revenue <= rep.mean_welfare
    assert rep.extra["pointwise_rev_gt_wel"] == 0
    menu = build_menu(s.d, s.n, s.etas)
    rng = np.random.default_rng(np.random.SeedSequence((s.master_seed, 0, 0)))
    v = np.asarray(s.d.quantile(rng.random((96, 64))), dtype=float)
    sales = [sequential_menu_sale(menu, s.structure.groups(), v[r], range(8)) for r in range(96)]
    assert rep.mean_revenue == pytest.approx(sum(rev for _, rev, _ in sales) / 96, rel=1e-12)
    assert rep.mean_welfare == pytest.approx(sum(wel for _, _, wel in sales) / 96, rel=1e-12)


def test_heterogeneous_engine_matches_reference_sale_past_k_buyers():
    # Groups of 5 and 4 buyers hold more than k = 3, groups of 2 and 1 fewer:
    # only a group's top k values can be bought for, so the engine keeps
    # those alone.  Fixed order, so each row replays through the reference.
    structure = agents.DemandStructure(13, 5, (0, 1, 0, 2, 0, 3, 0, 1, 4, 0, 4, 4, 4), "mixed")
    s = scenario(mechanism="het_ipm", n=13, k=3, etas=(1.0, 0.6, 0.3), structure=structure,
                 order_policy="fixed", reps=400)
    rep = simulation.run_scenario(s)
    menu = build_menu(s.d, s.n, s.etas)
    rng = np.random.default_rng(np.random.SeedSequence((s.master_seed, 0, 0)))
    v = np.asarray(s.d.quantile(rng.random((400, 13))), dtype=float)
    sales = [sequential_menu_sale(menu, structure.groups(), v[r], range(5)) for r in range(400)]
    assert rep.mean_revenue == pytest.approx(sum(rev for _, rev, _ in sales) / 400, rel=1e-12)
    assert rep.mean_welfare == pytest.approx(sum(wel for _, _, wel in sales) / 400, rel=1e-12)


# csv_row(), the ci95_welfare hex and the row digest of `het_ipm` under
# competition at n = 32, recorded before the sale skipped rows that cannot buy.
HET_COMPETITION = (
    "het_ipm-exp:1-n32k4-competition-surplus, exp:1, 0, 32, 4, competition, surplus, het_ipm, 16484, 3.71495811142, 0.0376691900963, 4.91986531582, 8.18790465526, 0.453712917753, 0.106205132686, True",
    "0x1.bb53d6891c2c0p-5", "93d494c493f96844")


def test_menu_sale_runs_only_rows_that_can_buy(monkeypatch):
    # 32 intermediaries of one buyer each: at most steps a buyer can afford no
    # item left, and a row whose items are gone has nothing to buy.  The DP
    # never sees such a row, and the skipped rows change no bit.
    monkeypatch.setenv("IPMLAB_THREADS", "1")
    dp = agents.menu_purchase_dp
    rows = []

    def checked(etas, rs, available, vals):
        assert np.asarray(available).any(axis=0).all()
        rows.append(vals.shape[1])
        return dp(etas, rs, available, vals)

    monkeypatch.setattr(agents, "menu_purchase_dp", checked)
    blocks = record_blocks(monkeypatch.setattr)
    rep = simulation.run_scenario(golden_scenario("exp:1", "competition", "surplus", "het_ipm"))
    assert (rep.csv_row(), rep.ci95_welfare.hex(), row_digest(blocks[rep.scenario.label])) == HET_COMPETITION
    assert sum(rows) < rep.scenario.reps * 32 / 4


def test_menu_sale_runs_a_rows_last_listed_step(monkeypatch):
    # Three singletons visited in order; the menu prices item 0 at 5/3 and
    # item 1 at 3/4, so a buyer can afford some item from a value of 1.5 on.
    # Row 0 lists all three steps: its first buyer (1.6) takes item 1, its
    # second cannot afford item 0, and its third (5.0) takes item 0 in the
    # last round.  Row 1 lists only its third step, which it runs in round 0.
    s = scenario(n=3, k=2, mechanism="het_ipm", etas=(1.0, 0.5), structure=agents.competition(3),
                 order_policy="fixed")
    menu = build_menu(s.d, s.n, s.etas)
    v = np.array([[1.6, 1.6, 5.0], [0.1, 0.1, 5.0]])
    calls = []
    dp = agents.menu_purchase_dp

    def recorded(etas, rs, available, w):
        calls.append(w[0].tolist())
        return dp(etas, rs, available, w)

    monkeypatch.setattr(agents, "menu_purchase_dp", recorded)
    revenue, welfare = simulation._batch_fn(s)[0](v, None, {})
    assert calls == [[1.6, 5.0], [5.0]]  # round 1 has no buyer
    for r in range(2):
        _, rev, wel = sequential_menu_sale(menu, s.structure.groups(), v[r], range(3))
        assert (revenue[r], welfare[r]) == pytest.approx((rev, wel), rel=1e-12)
    assert revenue[0] == pytest.approx(menu.rs.sum()) and revenue[1] == pytest.approx(menu.rs[0])


_ETA_GRID = st.one_of(st.sampled_from([1.0, 0.5, 0.5, 0.25, 0.0]), st.floats(0.0, 1.0))


@given(m=st.integers(1, 40), extra=st.integers(0, 6), split=st.integers(0, 99),
       dist=st.sampled_from(["exp:1", "uniform:-1:1"]), weights=st.lists(_ETA_GRID, min_size=1, max_size=6))
@example(m=40, extra=2, split=3, dist="uniform:-1:1", weights=[1.0, 0.5, 0.5, 0.25, 0.0])
@example(m=1, extra=5, split=4, dist="uniform:-1:1", weights=[0.5, 0.5, 0.0, 1.0])
@example(m=1, extra=0, split=5, dist="exp:1", weights=[0.0])
@settings(max_examples=40, deadline=None)
def test_menu_sale_matches_reference_sale_property(m, extra, split, dist, weights):
    # In a fixed order each row's sale replays through the reference sale,
    # whatever the structure, weights (tied, zero) or the sign of the values.
    n = m + extra
    etas = tuple(sorted(weights[:n], reverse=True))
    k = len(etas)
    structure = agents.random_partition(n, m, split)
    s = scenario(d=parse_distribution(dist), n=n, k=k, mechanism="het_ipm", etas=etas,
                 structure=structure, order_policy="fixed")
    v = s.d.quantile(np.random.default_rng(split).random((24, n)))
    revenue, welfare = simulation._batch_fn(s)[0](v, None, {})
    menu = build_menu(s.d, n, etas)
    for r in range(len(v)):
        _, rev, wel = sequential_menu_sale(menu, structure.groups(), v[r], range(m))
        assert revenue[r] == pytest.approx(rev, rel=1e-12, abs=1e-12)
        assert welfare[r] == pytest.approx(wel, rel=1e-12, abs=1e-12)


def assert_floors_bound_the_can_buy_test(menu):
    """No top value t that passes eta_j max(t, 0) - r_j >= -1e-12 lies below
    item j's floor, also a few floats below it; no floor is NaN; -inf floors
    are exactly the items t = 0 buys, an inf floor no t passes, and a finite
    one passes 2e-9 r_j / eta_j above it, so the bound stays tight."""
    floors = simulation._item_floors(menu)
    assert not np.isnan(floors).any()
    etas, rs = menu.etas[:, None], menu.rs[:, None]

    def passes(t):  # per item (rows) and top value (columns)
        return etas * np.maximum(t, 0.0) - rs >= -1e-12

    finite = np.isfinite(floors)
    below = floors[finite, None] - np.arange(5) * np.abs(np.spacing(floors[finite, None]))
    t = np.concatenate([below.ravel(), np.random.default_rng(0).uniform(-2.0, 8.0, 500), [0.0, -0.0, -1.0]])
    assert not (passes(t) & (t < floors[:, None])).any()
    assert ((floors == -np.inf) == passes(0.0)[:, 0]).all()
    assert not passes(np.finfo(float).max)[floors == np.inf].any()
    up = floors[finite] + 2e-9 * menu.rs[finite] / menu.etas[finite]
    assert (menu.etas[finite] * np.maximum(up, 0.0) - menu.rs[finite] >= -1e-12).all()


@pytest.mark.parametrize("etas", [(1.0, 0.5, 0.25), (1.0, 0.6, 0.6, 0.3, 0.0), (0.0,), (1.0, 1.0),
                                  tuple(np.linspace(1.0, 0.0, 16))])
@pytest.mark.parametrize("dist", ["exp:1", "uniform:-1:1", "pareto:3:1", "pareto:1.05:1", "ter:100"])
def test_item_floors_match_the_can_buy_test(etas, dist):
    # The floors bound the can-buy test from below on built menus, with
    # tied, zero and 16 weights and a heavy tail.
    assert_floors_bound_the_can_buy_test(build_menu(parse_distribution(dist), max(6, len(etas)), etas))


@pytest.mark.parametrize("ulps", [-1, 0, 1, 2, 3, 1000, 10**15])
def test_item_floors_bound_the_can_buy_test_near_its_tolerance(ulps):
    # At r_j a few ulps above 1e-12, r_j - 1e-12 is as small as the test's
    # own rounding, so a margin relative to it alone would cut off passing t.
    rs = np.full(5, 1e-12 + ulps * np.spacing(1e-12))
    assert_floors_bound_the_can_buy_test(Menu(etas=[1.0, 0.5, 1e-3, 1e-300, 0.0], us=np.zeros(5), rs=rs))


def test_menu_sale_lists_a_group_in_the_floor_band(monkeypatch):
    # A top value at the lowest floor is listed but fails the can-buy test on
    # every item: the DP buys nothing for it.  Row 0 then sells both items to
    # its later buyers; row 1 lists only that step and sells nothing.  Both
    # rows match the reference sale.
    s = scenario(n=3, k=2, mechanism="het_ipm", etas=(1.0, 0.5), structure=agents.competition(3),
                 order_policy="fixed")
    menu = build_menu(s.d, s.n, s.etas)
    band = simulation._item_floors(menu).min()
    assert (menu.etas * band - menu.rs < -1e-12).all()
    v = np.array([[band, 1.6, 5.0], [0.1, band, 0.1]])
    calls = []
    dp = agents.menu_purchase_dp

    def recorded(etas, rs, available, w):
        calls.append(w[0].tolist())
        return dp(etas, rs, available, w)

    monkeypatch.setattr(agents, "menu_purchase_dp", recorded)
    revenue, welfare = simulation._batch_fn(s)[0](v, None, {})
    assert calls == [[band, band], [1.6], [5.0]]
    for r in range(2):
        _, rev, wel = sequential_menu_sale(menu, s.structure.groups(), v[r], range(3))
        assert (revenue[r], welfare[r]) == pytest.approx((rev, wel), rel=1e-12)
    assert revenue[0] == pytest.approx(menu.rs.sum()) and (revenue[1], welfare[1]) == (0.0, 0.0)


def test_kplus1_engine_matches_reference_auction():
    # Under competition every buyer bids alone, so the batched auction and
    # the scalar one see the same bids; replay one batch row by row.
    s = scenario(mechanism="kplus1", n=8, structure=agents.competition(8), reps=512)
    rep = simulation.run_scenario(s)
    reserve = inverse_virtual_value(s.d, 0.0)
    assert rep.extra["reserve"] == reserve
    rng = np.random.default_rng(np.random.SeedSequence((s.master_seed, 0, 0)))
    v = np.asarray(s.d.quantile(rng.random((512, 8))), dtype=float)
    sales = [kplus1_auction(v[r], s.k, reserve) for r in range(512)]
    assert rep.mean_revenue == pytest.approx(sum(rev for _, _, rev, _ in sales) / 512, rel=1e-12)
    assert rep.mean_welfare == pytest.approx(sum(wel for _, _, _, wel in sales) / 512, rel=1e-12)


@pytest.mark.parametrize("structure, n, k", [("random:5:4", 64, 9), ("monopsony", 12, 4), ("balanced:3", 12, 12)])
def test_kplus1_engine_matches_reference_auction_on_group_bids(structure, n, k):
    # Each intermediary bids its group's top min(k, |g|) values.  random:5:4
    # holds 8, 10, 11, 16 and 19 buyers, so one group bids whole and four are
    # cut to k; under monopsony there are only k bids and the floor is 0, as
    # at k = n.  Replay one batch row by row on those bids.
    s = scenario(mechanism="kplus1", n=n, k=k, structure=agents.parse_structure(structure, n), reps=512)
    rep = simulation.run_scenario(s)
    reserve = rep.extra["reserve"]
    rng = np.random.default_rng(np.random.SeedSequence((s.master_seed, 0, 0)))
    v = np.asarray(s.d.quantile(rng.random((512, n))), dtype=float)
    groups = s.structure.groups()
    sales = [kplus1_auction(np.concatenate([np.sort(v[r, idxs])[::-1][:k] for idxs in groups]), k, reserve)
             for r in range(512)]
    assert rep.mean_revenue == pytest.approx(sum(rev for _, _, rev, _ in sales) / 512, rel=1e-12)
    assert rep.mean_welfare == pytest.approx(sum(wel for _, _, _, wel in sales) / 512, rel=1e-12)


@pytest.mark.parametrize("structure", ["monopsony", "balanced:4"])
def test_group_tops_are_row_major(structure):
    # A gather that feeds a row-wise partition or sum must be row-major: on a
    # column-major copy each row's partition walks strided memory.
    v = np.random.default_rng(0).random((100, 64))
    for top in simulation._group_tops(v, agents.parse_structure(structure, 64).groups(), 16):
        assert top.strides[1] == top.itemsize


def test_bundle_welfare_of_a_lone_row_matches_its_block(monkeypatch):
    # Row BATCH_SIZE is alone in its block in a run of BATCH_SIZE + 1
    # replicates and first of two in a run of BATCH_SIZE + 2.  The group's
    # top 16 values add left to right in both, so the row gets the same bits.
    # A pairwise sum of the lone row differs in the last bit at these seeds.
    monkeypatch.setenv("IPMLAB_THREADS", "1")
    blocks = record_blocks(monkeypatch.setattr)
    for seed in (1, 2, 4):
        simulation.run_scenarios(
            scenario(n=64, k=16, structure=agents.monopsony(64), mechanism="bundle", epsilon=0.9, master_seed=seed,
                     reps=simulation.BATCH_SIZE + extra, scenario_id=f"bundle-{extra}") for extra in (1, 2))
        (_, lone), (_, pair) = blocks["bundle-1"][-1], blocks["bundle-2"][-1]
        assert len(lone) == 1 and len(pair) == 2 and lone[0] > 0
        assert lone.tobytes() == pair[:1].tobytes(), seed


def rationed_welfare(v, qualify, classes, k, aux):
    """Welfare of rows where more than k buyers qualify: who is served,
    from the keys of ``aux``, then each row's sum of its served values."""
    return simulation._served_rows(v, simulation._served(qualify, k, aux), classes, k)


def test_rationing_law_is_multivariate_hypergeometric():
    # Groups interleaved over the columns ask for q = (3, 3, 2) units, one
    # buyer per group below the threshold, and k = 3.  Qualifying values
    # 1, 10 and 100 per group make the welfare spell out the served counts,
    # whose law must be the multivariate hypergeometric one.
    structure = agents.DemandStructure(11, 3, (0, 1, 2) * 3 + (0, 1))
    groups = structure.groups()
    row = np.empty(11)
    for ell, value in enumerate((1.0, 10.0, 100.0)):
        row[groups[ell]] = value
        row[groups[ell][-1]] = 0.0
    trials = 40_000
    v = np.tile(row, (trials, 1))
    welfare = rationed_welfare(v, v >= 0.5, simulation._group_layout(groups), 3, np.random.default_rng(5))
    counts = Counter((int(w) % 10, int(w) // 10 % 10, int(w) // 100) for w in welfare)
    assert all(sum(served) == 3 for served in counts)
    for c0 in range(4):
        for c1 in range(4 - c0):
            c2 = 3 - c0 - c1
            pmf = math.comb(3, c0) * math.comb(3, c1) * math.comb(2, c2) / math.comb(8, 3)
            assert counts[(c0, c1, c2)] / trials == pytest.approx(pmf, abs=0.015), (c0, c1, c2)


class FixedKeys:
    """A stand-in for the rationing stream that hands out given keys in row
    order, and keeps the shapes asked for."""

    def __init__(self, keys):
        self.keys = keys
        self.shapes = []

    def random(self, shape):
        rows = sum(r for r, _ in self.shapes)
        self.shapes.append(shape)
        assert shape[1:] == self.keys.shape[1:] and rows + shape[0] <= len(self.keys)
        return self.keys[rows : rows + shape[0]].copy()


@pytest.mark.parametrize("structure", [agents.competition(8), agents.DemandStructure(8, 3, (0, 1, 2, 0, 1, 2, 0, 1))])
def test_rationing_serves_exactly_k_when_keys_tie(structure):
    # k = 3 of 8 buyers.  Values are distinct powers of two, so a welfare
    # spells out the values served.  Keys tie in every row: row 0 only below
    # the k-th smallest; row 1 at it, after one smaller key; row 2 among its
    # five qualifiers, while the three non-qualifiers hold the smallest raw
    # keys; row 3 everywhere.  Each row serves exactly k qualifiers.
    v = np.tile(2.0 ** (7 - np.arange(8)), (4, 1))
    qualify = np.ones(v.shape, dtype=bool)
    qualify[2, 5:] = False
    keys = np.array([[0.5, 0.2, 0.2, 0.2, 0.9, 0.7, 0.6, 0.3],
                     [0.5, 0.2, 0.2, 0.2, 0.2, 0.7, 0.6, 0.1],
                     [0.3, 0.3, 0.3, 0.3, 0.3, 0.0, 0.0, 0.0],
                     [0.5] * 8])
    welfare = rationed_welfare(v, qualify, simulation._group_layout(structure.groups()), 3, FixedKeys(keys))
    for row, w in enumerate(welfare):
        served = [col for col in range(8) if int(w) >> (7 - col) & 1]
        assert w == sum(v[row, served])
        assert len(served) == 3 and qualify[row, served].all(), (row, served)
    if structure.m == 8:  # one buyer per group: the served buyers themselves
        assert int(welfare[0]) == 2 ** 6 + 2 ** 5 + 2 ** 4
        assert int(welfare[1]) & 1  # the one key below the tie


def test_rationed_welfare_of_a_lone_row_matches_its_block():
    # A row's welfare adds member by member however many rows ration beside
    # it, so a row that rations alone in its block gets the same bits.
    rng = np.random.default_rng(4)
    for structure in (agents.competition(32), agents.parse_structure("random:4:7", 32)):
        classes = simulation._group_layout(structure.groups())
        v = rng.exponential(size=(200, 32))
        keys = rng.random(v.shape)
        whole = rationed_welfare(v, v >= 0.5, classes, 4, FixedKeys(keys))
        for r in range(len(v)):
            row = slice(r, r + 1)
            lone = rationed_welfare(v[row], v[row] >= 0.5, classes, 4, FixedKeys(keys[row]))
            assert lone.tobytes() == whole[row].tobytes(), (structure.descriptor, r)


# Welfare digests of 513 rows at n = 256 that ration, recorded before
# rationing ran in slices.  The batch driver hands rationing 512-row slices
# at n = 256, so a run of these rows would be a slice of 512 and a lone row.
TIED_SLICE = {"competition": "df01c9f3f5d3659d", "random:200:1": "6062f6761d01cb46"}


@pytest.mark.parametrize("structure", list(TIED_SLICE))
def test_rationing_slices_keep_a_tie_in_the_last_row_of_a_slice(structure):
    # Row 511, the last of the first slice, has its k-th and (k+1)-th
    # smallest qualifier keys tied, and gets the same bits alone.
    # Competition takes the direct sum; random:200:1 mixes singletons with
    # wider groups.
    rng = np.random.default_rng(21)
    n, k = 256, 16
    v = rng.exponential(size=(513, n))
    keys = rng.random(v.shape)
    qualify = v >= 0.5
    asks = np.flatnonzero(qualify[511])
    order = asks[np.argsort(keys[511, asks])]
    keys[511, order[k]] = keys[511, order[k - 1]]
    classes = simulation._group_layout(agents.parse_structure(structure, n).groups())
    welfare = rationed_welfare(v, qualify, classes, k, FixedKeys(keys))
    assert hashlib.sha256(welfare.tobytes()).hexdigest()[:16] == TIED_SLICE[structure]
    lone = rationed_welfare(v[511:512], qualify[511:512], classes, k, FixedKeys(keys[511:512]))
    assert lone.tobytes() == welfare[511:512].tobytes()


def test_group_layout_pads_fewer_than_twice_n():
    # One group of 129 buyers beside 127 singletons: a single padded view
    # would hold 128 x 129 slots, the size classes fewer than 2n.
    structure = agents.DemandStructure(256, 128, (0,) * 129 + tuple(range(1, 128)))
    groups = structure.groups()
    classes = simulation._group_layout(groups)
    assert sum(pad.size for _, pad, _ in classes) < 2 * 256
    assert sorted(np.concatenate([pad[~padding] for _, pad, padding in classes])) == list(range(256))
    for members, pad, padding in classes:
        for ell, cols, void in zip(members, pad, padding):
            assert list(cols[~void]) == groups[ell]


def test_uniform_price_welfare_matches_ipm_allocate_replay():
    # Rationing binds often (n = 6 buyers, k = 2 units at the item price).
    # Replay every row with the scalar lottery of `ipm_allocate` and each
    # group's top served values; the means agree within the combined ci95.
    s = scenario(mechanism="item_price", k=2, structure=agents.random_partition(6, 3, 7), reps=20_000)
    rep = simulation.run_scenario(s)
    price = rep.extra["price"]
    groups = s.structure.groups()
    rng = np.random.default_rng(11)
    welfare = []
    for b, size in simulation._batches(s.reps):
        draw = np.random.default_rng(np.random.SeedSequence((s.master_seed, b, 0)))
        for v in np.asarray(s.d.quantile(draw.random((size, 6))), dtype=float):
            asks = [int((v[idxs] >= price).sum()) for idxs in groups]
            served, revenue = ipm_allocate(asks, s.k, price, rng)
            assert revenue == price * min(sum(asks), s.k)
            welfare.append(sum(np.sort(v[groups[ell]])[::-1][:cnt].sum() for ell, cnt in served.items()))
    welfare = np.array(welfare)
    ci = 1.96 * welfare.std() / math.sqrt(len(welfare))
    assert rep.mean_welfare == pytest.approx(welfare.mean(), abs=3 * math.hypot(ci, rep.ci95_welfare))


@pytest.mark.parametrize("mechanism", ["ipm", "item_price"])
@pytest.mark.parametrize("n, k", [(256, 16), (6, 3)])
def test_competition_welfare_matches_exact_oracle(mechanism, n, k):
    # Under competition each buyer who asks is served with a probability
    # that does not depend on its value, so the expected welfare has a
    # closed form, independent of the key stream and the engine's sums.
    s = scenario(mechanism=mechanism, n=n, k=k, structure=agents.competition(n), reps=4 * simulation.BATCH_SIZE,
                 master_seed=5)
    rep = simulation.run_scenario(s)
    exact = competition_welfare(s.d, n, k, agents.purchase_threshold(s.model, s.d, rep.extra["price"]))
    assert abs(rep.mean_welfare - exact) <= 4 * rep.ci95_welfare / 1.96


def test_block_where_every_row_rations_matches_a_mixed_block():
    # A block whose rows all ration skips the row copies.  Its rows get the
    # same bits when a row that does not ration sits among them: that row
    # draws no keys, so both blocks take the same keys from the stream.
    s = scenario(n=8, k=2, structure=agents.random_partition(8, 3, 7))
    layout = simulation._group_layout(s.structure.groups())
    v = np.random.default_rng(3).random((50, 8)) + 1.0  # all at or above the threshold
    mixed = np.insert(v, 20, 0.0, axis=0)

    def block(x):
        return simulation._uniform_price_block(s, layout, 1.0, 1.0, x, np.random.default_rng(9), {})

    rest = np.arange(51) != 20
    for whole, part in zip(block(v), block(mixed)):
        assert whole.tobytes() == part[rest].tobytes()


@pytest.mark.parametrize("mechanism", ["ipm", "item_price", "het_ipm", "kplus1", "bundle"])
def test_report_identical_across_threads_and_blocks(monkeypatch, mechanism):
    s = scenario(mechanism=mechanism, k=2, etas=(1.0, 0.5) if mechanism == "het_ipm" else None,
                 structure=agents.random_partition(6, 3, 7), reps=2 * simulation.BATCH_SIZE + 100)

    def report():
        rep = simulation.run_scenario(s)
        return rep.csv_row(), rep.ci95_revenue, rep.ci95_welfare

    monkeypatch.setenv("IPMLAB_THREADS", "1")
    one = report()
    monkeypatch.setenv("IPMLAB_THREADS", "2")
    assert report() == one
    # Blocks only bound the engine's memory: valuations, rationing keys and
    # visit orders come from their streams in row order, so one block per
    # batch, or 333-row blocks with a partial last one, agree.
    for rows in (simulation.BATCH_SIZE, 333):
        monkeypatch.setattr(simulation, "BLOCK_VALUES", rows * s.n)
        assert report() == one, rows


@pytest.mark.parametrize("mechanism", ["ipm", "item_price", "het_ipm", "kplus1", "bundle"])
def test_batch_memory_stays_below_two_valuation_arrays(monkeypatch, mechanism):
    # Only one block of BLOCK_VALUES valuations is live at a time, so a full
    # batch of n = 256 buyers never holds two (BATCH_SIZE, n) float arrays at once.
    monkeypatch.setenv("IPMLAB_THREADS", "1")
    s = scenario(mechanism=mechanism, n=256, k=16, structure=agents.balanced(256, 16),
                 etas=tuple(1.0 / (j + 1) for j in range(16)) if mechanism == "het_ipm" else None,
                 reps=simulation.BATCH_SIZE)
    simulation.run_scenario(replace(s, reps=1))  # warm the analytic cache
    tracemalloc.start()
    try:
        simulation.run_scenario(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * simulation.BATCH_SIZE * 256 * 8


# Each mechanism's traced peak for one n = 256 batch, in valuation blocks
# (BLOCK_VALUES floats): the peak once block temporaries were computed in
# place (for `item_price`, once rationing ran in half-block slices; for
# `kplus1`, once its gather wrote straight into the bids), plus 25 %
# headroom, so that a new block-sized temporary fails.
PEAK_BLOCKS = {"ipm": 1.56, "item_price": 2.76, "het_ipm": 4.09, "kplus1": 2.70, "bundle": 1.57}


# Under competition every row of `item_price` rations, through the direct
# sum of the served values, and the menu sale runs 256 steps per row in
# 512-row slices; the other engines are checked on balanced:16.  At n = 64,
# random:5:4 holds groups of 8, 10, 11, 16 and 19 buyers, so `kplus1`
# gathers the whole groups beside a cut one.  Under monopsony at
# n = k = 64 the menu sale's slices are bounded by its DP tables, not by its
# top values.
@pytest.mark.parametrize("mechanism, structure, n, k",
                         [pytest.param(m, "balanced:16", 256, 16, id=m) for m in PEAK_BLOCKS]
                         + [pytest.param(m, "competition", 256, 16, id=f"{m}-competition")
                            for m in ("ipm", "item_price", "het_ipm")]
                         + [pytest.param("kplus1", "random:5:4", 64, 16, id="kplus1-mixed"),
                            pytest.param("het_ipm", "monopsony", 64, 64, id="het_ipm-monopsony")])
def test_batch_memory_per_mechanism_in_valuation_blocks(monkeypatch, mechanism, structure, n, k):
    monkeypatch.setenv("IPMLAB_THREADS", "1")
    s = scenario(mechanism=mechanism, n=n, k=k, structure=agents.parse_structure(structure, n),
                 etas=tuple(1.0 / (j + 1) for j in range(k)) if mechanism == "het_ipm" else None,
                 reps=simulation.BATCH_SIZE)
    simulation.run_scenario(replace(s, reps=1))  # warm the analytic cache
    tracemalloc.start()
    try:
        simulation.run_scenario(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < PEAK_BLOCKS[mechanism] * simulation.BLOCK_VALUES * 8


@pytest.mark.parametrize("n, structure", [(256, "competition"), (256, "balanced:16"), (6, "random:3:7")])
def test_block_functions_get_slices_that_tile_each_batch(monkeypatch, n, structure):
    # The batch driver alone cuts rows: every call of a member's block
    # function gets at most BLOCK_VALUES // _row_values rows, and the calls
    # run through the member's rows of each batch in order, as drawn.  At
    # n = 256 the draw block is 1024 rows, which the uniform price cuts in
    # two and the menu sale under balanced:16 into 963 + 61; at n = 6 each
    # call is a whole batch.  Members end at different rows.
    monkeypatch.setenv("IPMLAB_THREADS", "1")
    k, reps = (16, 2100) if n == 256 else (2, 2 * simulation.BATCH_SIZE + 100)
    members = [scenario(n=n, k=k, structure=agents.parse_structure(structure, n), mechanism=mechanism,
                        etas=tuple(1.0 / (j + 1) for j in range(k)) if mechanism == "het_ipm" else None,
                        reps=reps - 7 * i, scenario_id=mechanism)
               for i, mechanism in enumerate(simulation.MECHANISMS)]
    batch_fn = simulation._batch_fn
    calls = {}

    def recorded(s):
        block, extra = batch_fn(s)

        def run(v, aux, passes):
            calls.setdefault(s.label, []).append(v.copy())
            return block(v, aux, passes)

        return run, extra

    monkeypatch.setattr(simulation, "_batch_fn", recorded)
    simulation.run_scenarios(members)
    for s in members:
        got = calls[s.label]
        assert max(len(v) for v in got) <= max(1, simulation.BLOCK_VALUES // simulation._row_values(s))
        drawn = [s.d.quantile(np.random.default_rng(np.random.SeedSequence((s.master_seed, b, 0))).random((size, n)))
                 for b, size in simulation._batches(s.reps)]
        assert np.concatenate(got).tobytes() == np.concatenate(drawn).tobytes(), s.label


# csv_row(), the ci95_welfare hex and a digest of every row's revenue and
# welfare for a small grid: the same streams must give the same bits.  The
# reports were recorded before the engines computed their temporaries in
# place, the row digests before blocks were sized by values.  Two full
# batches and a partial one, and rows that ration.  The row digest catches a
# last-bit change that the report's sums would absorb.
GOLDEN_GRID = [
    ("ipm-exp:1-n32k4-random:4:7-surplus, exp:1, 0, 32, 4, random:4:7, surplus, ipm, 16484, 5.51221790827, 0.0511014227085, 7.55238695578, 11.9006474484, 0.46318638815, 0.232544157935, True",
     "0x1.2e217abdd8468p-4", "6396d69c0a0f3d91"),
    ("het_ipm-exp:1-n32k4-random:4:7-surplus, exp:1, 0, 32, 4, random:4:7, surplus, het_ipm, 16484, 3.71518117043, 0.0376100414516, 4.93632407818, 8.18790465526, 0.453740160255, 0.106205132686, True",
     "0x1.be5bdbb1c90a3p-5", "3fdef882eb0256c0"),
    ("kplus1-exp:1-n32k4-random:4:7-surplus, exp:1, 0, 32, 4, random:4:7, surplus, kplus1, 16484, 7.88727448763, 0.0264306802941, 11.8743074777, 11.9006474484, 0.662760116357, , ",
     "0x1.48871ce3ced80p-5", "1b5e7ea95283574c"),
    ("bundle-exp:1-n32k4-random:4:7-surplus, exp:1, 0, 32, 4, random:4:7, surplus, bundle, 16484, 1.38614675449, 0.058280558059, 1.56819336938, 11.9006474484, 0.116476583354, , ",
     "0x1.0fe313eb7f986p-4", "938996b1eb44d764"),
    ("item_price-exp:1-n32k4-random:4:7-surplus, exp:1, 0, 32, 4, random:4:7, surplus, item_price, 16484, 3.9995146809, 0.000375931866146, 10.3556807767, 11.9006474484, 0.336075385666, , ",
     "0x1.2fcc87ecf1e55p-5", "2139f7e8087cadbb"),
    ("ipm-exp:1-n32k4-random:4:7-monopolist, exp:1, 0, 32, 4, random:4:7, monopolist, ipm, 16484, 2.0832398083, 0.0358349366433, 3.61285449563, 11.9006474484, 0.1750526446, 0.0855482148687, True",
     "0x1.0417f8dfa011ep-4", "0c0cb906dcebc8a5"),
    ("item_price-exp:1-n32k4-random:4:7-monopolist, exp:1, 0, 32, 4, random:4:7, monopolist, item_price, 16484, 3.40791070129, 0.0141865038721, 10.5420238295, 11.9006474484, 0.286363470228, , ",
     "0x1.be395380b58a3p-5", "6254040c0b69c0e1"),
    ("ipm-pareto:3:1-n32k4-random:4:7-surplus, pareto:3:1, 0.333333333333, 32, 4, random:4:7, surplus, ipm, 16484, 4.13889543416, 0.048010442072, 6.20045942339, 11.7169913126, 0.353238755901, 0.187294980394, True",
     "0x1.55e2c44c32c87p-4", "1719aeb705a31254"),
    ("het_ipm-pareto:3:1-n32k4-random:4:7-surplus, pareto:3:1, 0.333333333333, 32, 4, random:4:7, surplus, het_ipm, 16484, 2.83957109492, 0.0359842913136, 4.25781924247, 8.20189391881, 0.346209195465, 0.0870408790274, True",
     "0x1.17abbf3fe32a0p-4", "1ef2d66f7173f1c1"),
    ("kplus1-pareto:3:1-n32k4-random:4:7-surplus, pareto:3:1, 0.333333333333, 32, 4, random:4:7, surplus, kplus1, 16484, 7.80106443073, 0.0180438239953, 11.6692887135, 11.7169913126, 0.665790749742, , ",
     "0x1.cdd44fb5a1078p-5", "a40918a9470f1273"),
    ("bundle-pareto:3:1-n32k4-random:4:7-surplus, pareto:3:1, 0.333333333333, 32, 4, random:4:7, surplus, bundle, 16484, 1.91207878129, 0.066099705011, 2.40119594506, 11.7169913126, 0.163188546469, , ",
     "0x1.673c19a05d4b5p-4", "c6d1c9d11718c884"),
    ("item_price-pareto:3:1-n32k4-random:4:7-surplus, pareto:3:1, 0.333333333333, 32, 4, random:4:7, surplus, item_price, 16484, 4, 0, 9.89607097731, 11.7169913126, 0.341384566506, , ",
     "0x1.918ad563cf7b1p-5", "aa2fbaf6d879e23f"),
    ("ipm-pareto:3:1-n32k4-random:4:7-monopolist, pareto:3:1, 0.333333333333, 32, 4, random:4:7, monopolist, ipm, 16484, 1.24664923046, 0.0281350863941, 2.78183463491, 11.7169913126, 0.106396701781, 0.0554948090055, True",
     "0x1.22fdfd918d2e1p-4", "3bcce6007179d1b4"),
    ("item_price-pareto:3:1-n32k4-random:4:7-monopolist, pareto:3:1, 0.333333333333, 32, 4, random:4:7, monopolist, item_price, 16484, 3.99235622422, 0.00160865447968, 10.5759303588, 11.7169913126, 0.340732199735, , ",
     "0x1.9eed0f3355e95p-5", "be98998414e1e456"),
    ("ipm-exp:1-n32k4-competition-surplus, exp:1, 0, 32, 4, competition, surplus, ipm, 16484, 5.51221790827, 0.0511014227085, 7.52319168947, 11.9006474484, 0.46318638815, 0.232544157935, True",
     "0x1.2b23685d5c7b8p-4", "c4f53940086eac0f"),
    ("item_price-exp:1-n32k4-competition-surplus, exp:1, 0, 32, 4, competition, surplus, item_price, 16484, 3.9995146809, 0.000375931866146, 7.98503926943, 11.9006474484, 0.336075385666, , ",
     "0x1.f1588b839524cp-6", "a85ff44bd972e7b1"),
    ("ipm-exp:1-n32k4-random:30:3-surplus, exp:1, 0, 32, 4, random:30:3, surplus, ipm, 16484, 5.51221790827, 0.0511014227085, 7.52370832725, 11.9006474484, 0.46318638815, 0.232544157935, True",
     "0x1.2b3058f4aed15p-4", "62f53f2b4993fc97"),
    ("item_price-exp:1-n32k4-random:30:3-surplus, exp:1, 0, 32, 4, random:30:3, surplus, item_price, 16484, 3.9995146809, 0.000375931866146, 8.04434551494, 11.9006474484, 0.336075385666, , ",
     "0x1.f5486461b9974p-6", "91611f8828015c31"),
    ("ipm-pareto:3:1-n32k4-competition-surplus, pareto:3:1, 0.333333333333, 32, 4, competition, surplus, ipm, 16484, 4.13889543416, 0.048010442072, 6.188799483, 11.7169913126, 0.353238755901, 0.187294980394, True",
     "0x1.545001e363a7fp-4", "855ef4588ebfb17c"),
    ("item_price-pareto:3:1-n32k4-competition-surplus, pareto:3:1, 0.333333333333, 32, 4, competition, surplus, item_price, 16484, 4, 0, 6.01447784951, 11.7169913126, 0.341384566506, , ",
     "0x1.a865389f5b495p-6", "2014ded7b75384bb"),
    ("ipm-pareto:3:1-n32k4-random:30:3-surplus, pareto:3:1, 0.333333333333, 32, 4, random:30:3, surplus, ipm, 16484, 4.13889543416, 0.048010442072, 6.18900999861, 11.7169913126, 0.353238755901, 0.187294980394, True",
     "0x1.5456ab0f902b7p-4", "0d830516f2dc568f"),
    ("item_price-pareto:3:1-n32k4-random:30:3-surplus, pareto:3:1, 0.333333333333, 32, 4, random:30:3, surplus, item_price, 16484, 4, 0, 6.14254940972, 11.7169913126, 0.341384566506, , ",
     "0x1.b8da02cb46cd1p-6", "b6c6c3a2ef5051bb"),
]


def golden_scenarios():
    for dist in ("exp:1", "pareto:3:1"):
        for model in ("surplus", "monopolist"):
            for mechanism in simulation.MECHANISMS:
                if model == "surplus" or mechanism in ("ipm", "item_price"):
                    yield dist, "random:4:7", model, mechanism
    # Singletons, alone or beside wider groups, take the width-1 path.
    for dist in ("exp:1", "pareto:3:1"):
        for structure in ("competition", "random:30:3"):
            for mechanism in ("ipm", "item_price"):
                yield dist, structure, "surplus", mechanism


def golden_scenario(dist, structure, model, mechanism):
    return scenario(d=parse_distribution(dist), n=32, k=4, structure=agents.parse_structure(structure, 32),
                    model=agents.parse_behavior(model), mechanism=mechanism,
                    etas=(1.0, 0.75, 0.5, 0.25) if mechanism == "het_ipm" else None,
                    reps=2 * simulation.BATCH_SIZE + 100, master_seed=11)


def test_golden_bits_of_a_small_grid(monkeypatch):
    monkeypatch.setenv("IPMLAB_THREADS", "1")
    blocks = record_blocks(monkeypatch.setattr)
    got = []
    for grid_point in golden_scenarios():
        rep = simulation.run_scenario(golden_scenario(*grid_point))
        got.append((rep.csv_row(), rep.ci95_welfare.hex(), row_digest(blocks[rep.scenario.label])))
    assert got == GOLDEN_GRID


def test_golden_grid_in_one_run(monkeypatch):
    # All 22 scenarios in one call form two groups, exp:1 and pareto:3:1 at
    # n = 32 and seed 11, each mixing mechanisms, het_ipm included.  Each
    # batch of a group is drawn once, and every member gets the bits it
    # gets alone.
    monkeypatch.setenv("IPMLAB_THREADS", "1")
    blocks = record_blocks(monkeypatch.setattr)
    run_batch = simulation._run_batch
    batches = []

    def counted(members, fns, batch_idx):
        batches.append((members[0].d.descriptor, batch_idx, len(members)))
        return run_batch(members, fns, batch_idx)

    monkeypatch.setattr(simulation, "_run_batch", counted)
    scenarios = [golden_scenario(*grid_point) for grid_point in golden_scenarios()]
    reports = simulation.run_scenarios(scenarios)
    assert [rep.scenario for rep in reports] == scenarios
    got = [(rep.csv_row(), rep.ci95_welfare.hex(), row_digest(blocks[rep.scenario.label])) for rep in reports]
    assert got == GOLDEN_GRID
    assert batches == [(dist, b, 11) for dist in ("exp:1", "pareto:3:1") for b in range(3)]
    assert {rep.extra["draw_values"] for rep in reports} == {scenarios[0].reps * 32}


# The same pins at n = 64, k = 16, where a group's top is wider than 8
# columns, so that a sum's order shows in its bits (numpy adds rows of up to
# 8 values left to right in any layout).  `kplus1` and `bundle` with groups
# cut to k (monopsony), whole (balanced:4) and both (random:5:4: 8, 10, 11,
# 16 and 19 buyers), and width-1 rationing.  The bundle price is
# 64 (E[v] - 0.75) = 16, the mean value of 16 buyers, so that most rows sell.
# Recorded before the gathers became row-major.
GOLDEN_WIDE = [
    ("kplus1-exp:1-n64k16-monopsony-surplus, exp:1, 0, 64, 16, monopsony, surplus, kplus1, 16484, 15.9731861199, 0.00404296732487, 37.784025569, 37.8105905676, 0.422452701216, , ",
     "0x1.491efcefbafefp-4", "a5717c61bb60a40e"),
    ("bundle-exp:1-n64k16-monopsony-surplus, exp:1, 0, 64, 16, monopsony, surplus, bundle, 16484, 16, 0, 37.8094251106, 37.8105905676, 0.423161864435, , ",
     "0x1.46180573829e2p-4", "bb07387f22c4441f"),
    ("kplus1-exp:1-n64k16-balanced:4-surplus, exp:1, 0, 64, 16, balanced:4, surplus, kplus1, 16484, 21.7994037905, 0.0513751991696, 37.784025569, 37.8105905676, 0.576542271972, , ",
     "0x1.491efcefbafefp-4", "bb8eddc0179a4f28"),
    ("bundle-exp:1-n64k16-balanced:4-surplus, exp:1, 0, 64, 16, balanced:4, surplus, bundle, 16484, 14.7760252366, 0.064921689347, 17.9160979765, 37.8105905676, 0.390790649254, , ",
     "0x1.6bad4bdce3ea5p-4", "175f6f6d8cd6073a"),
    ("kplus1-exp:1-n64k16-random:5:4-surplus, exp:1, 0, 64, 16, random:5:4, surplus, kplus1, 16484, 21.7994037905, 0.0513751991696, 37.784025569, 37.8105905676, 0.576542271972, , ",
     "0x1.491efcefbafefp-4", "bb8eddc0179a4f28"),
    ("bundle-exp:1-n64k16-random:5:4-surplus, exp:1, 0, 64, 16, random:5:4, surplus, bundle, 16484, 13.880126183, 0.0828087980453, 17.088872486, 37.8105905676, 0.367096254636, , ",
     "0x1.c6ef254aeae72p-4", "4c17e17796d512f4"),
    ("item_price-exp:1-n64k16-competition-surplus, exp:1, 0, 64, 16, competition, surplus, item_price, 16484, 15.9731861199, 0.00404296732487, 31.933948008, 37.8105905676, 0.422452701216, , ",
     "0x1.f5aee1cb380d0p-5", "37c6f9cfb8d80e2e"),
]


def wide_golden_scenarios():
    for structure in ("monopsony", "balanced:4", "random:5:4"):
        for mechanism in ("kplus1", "bundle"):
            yield structure, mechanism
    yield "competition", "item_price"


def wide_golden_scenario(structure, mechanism):
    return scenario(n=64, k=16, structure=agents.parse_structure(structure, 64), mechanism=mechanism,
                    epsilon=0.75 if mechanism == "bundle" else None,
                    reps=2 * simulation.BATCH_SIZE + 100, master_seed=11)


def test_golden_bits_of_groups_wider_than_eight(monkeypatch):
    monkeypatch.setenv("IPMLAB_THREADS", "1")
    blocks = record_blocks(monkeypatch.setattr)
    reports = simulation.run_scenarios(wide_golden_scenario(*point) for point in wide_golden_scenarios())
    got = [(rep.csv_row(), rep.ci95_welfare.hex(), row_digest(blocks[rep.scenario.label])) for rep in reports]
    assert got == GOLDEN_WIDE


# Row digests of rationing cut into slices, recorded before rationing ran in
# slices.  At n = 256 (slices of 512 rows) `item_price` under competition,
# where every row rations, takes a block of 513 rows as a slice and a lone
# row; a one-replicate run is a lone row.  random:30:3 at n = 32 holds 28
# singletons and two pairs, random:5:4 at n = 64 groups of 8 to 19: classes
# of mixed widths.  On uniform:-1:1 the products of unserved buyers below
# zero are -0.0.
SLICED = [
    ("exp:1", 256, 16, "competition", "ipm", 513, "14c6e595b37b6928"),
    ("exp:1", 256, 16, "competition", "ipm", 1, "f091dcf88b7549e5"),
    ("exp:1", 32, 4, "random:30:3", "ipm", 4097, "9bafa1c58f38efc9"),
    ("exp:1", 64, 16, "random:5:4", "ipm", 2049, "9069f41b2f68cae6"),
    ("exp:1", 256, 16, "competition", "item_price", 513, "783f1d2a50cd56e5"),
    ("exp:1", 256, 16, "competition", "item_price", 1, "0997888138dc8e5d"),
    ("exp:1", 32, 4, "random:30:3", "item_price", 4097, "5131d78f5f7600c1"),
    ("exp:1", 64, 16, "random:5:4", "item_price", 2049, "ca74cbdabef687c4"),
    ("uniform:-1:1", 256, 16, "competition", "ipm", 513, "f1d943e3035ddcde"),
    ("uniform:-1:1", 256, 16, "competition", "ipm", 1, "80da6a57d95b109d"),
    ("uniform:-1:1", 32, 4, "random:30:3", "ipm", 4097, "d752c928dac13941"),
    ("uniform:-1:1", 64, 16, "random:5:4", "ipm", 2049, "9592f8641641e8a3"),
    ("uniform:-1:1", 256, 16, "competition", "item_price", 513, "3cc2e61eaf3214b8"),
    ("uniform:-1:1", 256, 16, "competition", "item_price", 1, "1ab59f695c36895f"),
    ("uniform:-1:1", 32, 4, "random:30:3", "item_price", 4097, "ba2e4bd61dd0c8e9"),
    ("uniform:-1:1", 64, 16, "random:5:4", "item_price", 2049, "a11ba9d3f4c8b322"),
]


@pytest.mark.parametrize("slice_rows", [None, 1, 7])
def test_sliced_rationing_keeps_the_bits(monkeypatch, slice_rows):
    # Blocks only cut rows, so the digests hold for any BLOCK_VALUES.  With
    # BLOCK_VALUES = 2 * slice_rows * n, rationing runs in slices of
    # slice_rows rows at every n, classes of mixed widths included: at 1 row
    # each rationing row is a slice of its own.
    monkeypatch.setenv("IPMLAB_THREADS", "1")
    blocks = record_blocks(monkeypatch.setattr)
    got = []
    for dist, n, k, structure, mechanism, reps, _ in SLICED:
        if slice_rows is not None:
            monkeypatch.setattr(simulation, "BLOCK_VALUES", 2 * slice_rows * n)
        rep = simulation.run_scenario(scenario(d=parse_distribution(dist), n=n, k=k, mechanism=mechanism,
                                               structure=agents.parse_structure(structure, n), reps=reps,
                                               master_seed=13, scenario_id=f"{mechanism}-{dist}-n{n}-{reps}"))
        got.append(row_digest(blocks[rep.scenario.label]))
    assert got == [case[-1] for case in SLICED]


def report_bits(rep):
    return (rep.csv_row(), rep.mean_revenue.hex(), rep.ci95_revenue.hex(),
            rep.mean_welfare.hex(), rep.ci95_welfare.hex(), rep.extra["pointwise_rev_gt_wel"])


@pytest.mark.parametrize("threads, block_rows", [("1", None), ("2", None), ("1", 333)])
def test_group_members_match_their_own_runs(monkeypatch, threads, block_rows):
    # One group whose members end in different batches and blocks: a member
    # with fewer reps reads a prefix of the group's rows, and its own stream
    # 1, so it gets the bits of its own run.
    monkeypatch.setenv("IPMLAB_THREADS", threads)
    if block_rows is not None:
        monkeypatch.setattr(simulation, "BLOCK_VALUES", block_rows * 6)
    big, mid = 2 * simulation.BATCH_SIZE + 100, simulation.BATCH_SIZE + 1
    members = [scenario(mechanism=mechanism, k=2, reps=reps, structure=agents.random_partition(6, 3, 7),
                        etas=(1.0, 0.5) if mechanism == "het_ipm" else None, scenario_id=f"{mechanism}-{reps}")
               for mechanism, reps in (("ipm", big), ("het_ipm", mid), ("item_price", 50),
                                       ("kplus1", big), ("bundle", mid), ("het_ipm", 50))]
    blocks = record_blocks(monkeypatch.setattr)
    alone = []
    for s in members:
        alone.append(report_bits(simulation.run_scenario(s)))
    alone_rows = {label: row_digest(b) for label, b in blocks.items()}
    blocks.clear()
    reports = simulation.run_scenarios(members)
    assert [report_bits(rep) for rep in reports] == alone
    if threads == "1":  # blocks of other batches interleave at two threads
        assert {label: row_digest(b) for label, b in blocks.items()} == alone_rows
    for rep in reports:
        assert rep.extra["draw_values"] == big * 6
        assert rep.extra["engine_s"] > 0


@pytest.mark.parametrize("threads", ["1", "2"])
def test_members_sharing_a_uniform_price_pass_match_their_own_runs(monkeypatch, threads):
    # Two ipm structures post one price at one threshold: in batch 0 both
    # hold BATCH_SIZE rows and share each slice's pass; in batch 1 the
    # balanced one holds 1500 rows over three slices, so each runs its own.
    # Beside them, a monopolist ipm (same price, another threshold) with the
    # rows of the first and an item_price (another price) with the rows of
    # the second never share.  Each member gets the bits of its own run.
    monkeypatch.setenv("IPMLAB_THREADS", threads)
    big, mid = 2 * simulation.BATCH_SIZE + 100, simulation.BATCH_SIZE + 1500
    members = [scenario(n=256, k=16, structure=agents.parse_structure(structure, 256), mechanism=mechanism,
                        model=agents.parse_behavior(model), reps=reps, scenario_id=f"{mechanism}-{structure}-{model}")
               for mechanism, structure, model, reps in (("ipm", "competition", "surplus", big),
                                                         ("ipm", "balanced:16", "surplus", mid),
                                                         ("ipm", "random:8:7", "monopolist", big),
                                                         ("item_price", "competition", "surplus", mid))]
    blocks = record_blocks(monkeypatch.setattr)
    alone = [report_bits(simulation.run_scenario(s)) for s in members]
    alone_rows = {label: row_digest(b) for label, b in blocks.items()}
    blocks.clear()
    run_pass = simulation._uniform_price_pass
    passes = []

    def counted(price, threshold, k, v, aux):
        passes.append(len(v))
        return run_pass(price, threshold, k, v, aux)

    monkeypatch.setattr(simulation, "_uniform_price_pass", counted)
    reports = simulation.run_scenarios(members)
    assert [report_bits(rep) for rep in reports] == alone
    assert {rep.extra["draw_values"] for rep in reports} == {big * 256}
    # 512-row slices: batch 0 runs 3 passes a slice over 16 slices, batch 1
    # runs 16 + 3 + 16 + 3, the last of each 3 holding 476 rows, and batch 2
    # two of 100 rows.
    assert sorted(Counter(passes).items()) == [(100, 2), (476, 2), (512, 48 + 36)]
    if threads == "1":  # blocks of other batches interleave at two threads
        assert {label: row_digest(b) for label, b in blocks.items()} == alone_rows


def test_scenarios_differing_in_seed_family_or_n_do_not_share_a_draw():
    base = scenario(reps=3000)
    for other in (replace(base, master_seed=8), replace(base, d=Exponential(2.0)),
                  replace(base, n=7, structure=agents.competition(7))):
        other = replace(other, reps=5000)
        together = simulation.run_scenarios([base, other])
        assert [report_bits(rep) for rep in together] == [report_bits(simulation.run_scenario(s))
                                                          for s in (base, other)]
        assert [rep.extra["draw_values"] for rep in together] == [3000 * 6, 5000 * other.n]
    # Another structure alone does share the draw.
    together = simulation.run_scenarios([base, replace(base, structure=agents.monopsony(6), reps=5000)])
    assert [rep.extra["draw_values"] for rep in together] == [5000 * 6] * 2


def test_engines_get_a_read_only_block(monkeypatch):
    # The block is shared by a group's members, so a block function that
    # writes into its values fails instead of changing another member's.
    batch_fn = simulation._batch_fn
    for write in (lambda v: v.__setitem__((0, 0), 0.0), lambda v: np.negative(v, out=v)):

        def writing(s, write=write):
            block, extra = batch_fn(s)

            def run(v, aux, passes):
                write(v)
                return block(v, aux, passes)

            return run, extra

        monkeypatch.setattr(simulation, "_batch_fn", writing)
        with pytest.raises(ValueError, match="read-only"):
            simulation.run_scenario(scenario(reps=100))


def test_ci95_exact_on_a_shifted_family():
    # Values near 2e6 that vary by about 1: a raw sum of squares loses most
    # of the variance to cancellation, the merged per-batch M2 does not.
    s = scenario(d=Uniform(1_000_000, 1_000_001), n=4, k=2, mechanism="kplus1",
                 structure=agents.competition(4), reps=20_000, master_seed=3)
    rep = simulation.run_scenario(s)
    rows = []
    for b, size in simulation._batches(s.reps):
        draw = np.random.default_rng(np.random.SeedSequence((s.master_seed, b, 0)))
        rows += [kplus1_auction(v, s.k, rep.extra["reserve"])[2:] for v in s.d.quantile(draw.random((size, s.n)))]
    revenue, welfare = np.array(rows).T
    assert rep.mean_revenue == revenue.mean()
    for got, x in ((rep.ci95_revenue, revenue), (rep.ci95_welfare, welfare)):
        assert got == pytest.approx(1.96 * x.std() / math.sqrt(s.reps), rel=1e-9)


def test_price_structure_invariance_sweep():
    base = scenario()
    reports = [simulation.run_scenario(replace(base, structure=st)) for st in canonical_structures(6)]
    prices = {rep.extra["price"] for rep in reports}
    assert len(prices) == 1
    # Common random numbers: pass-through revenue identical across structures.
    revs = {rep.mean_revenue for rep in reports}
    assert len(revs) == 1


def test_uniform_price_engine_against_naive_reference():
    # Replay one batch by hand with the same seeds.
    s = scenario(structure=agents.balanced(6, 2), reps=256, k=2)
    rep = simulation.run_scenario(s)
    draw = np.random.default_rng(np.random.SeedSequence((s.master_seed, 0, 0)))
    aux = np.random.default_rng(np.random.SeedSequence((s.master_seed, 0, 1)))
    price = expected_rank(s.d, 1, 3)
    v = np.asarray(s.d.quantile(draw.random((256, 6))), dtype=float)
    total_rev = 0.0
    for r in range(256):
        q = [int((v[r, :3] >= price).sum()), int((v[r, 3:] >= price).sum())]
        total_rev += price * min(sum(q), 2)
    assert rep.mean_revenue == pytest.approx(total_rev / 256, rel=1e-12)


def test_csv_row_formatting():
    rep = simulation.run_scenario(scenario(reps=1000))
    row = rep.csv_row()
    fields = [f.strip() for f in row.split(",")]
    header = [h.strip() for h in simulation.CSV_HEADER.split(",")]
    assert len(fields) == len(header)
    assert fields[1] == "exp:1"
    assert fields[8] == "1000"
    assert fields[-1] == ""  # no verdict below the replicate floor


def test_ln_gap_experiment_rejects_small_n():
    with pytest.raises(ValueError):
        ln_gap_experiment(10)


def test_worker_count_env(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.delenv("IPMLAB_THREADS", raising=False)
    assert simulation.worker_count() == 1
    monkeypatch.setenv("IPMLAB_THREADS", "6")
    assert simulation.worker_count() == 6
    monkeypatch.setenv("IPMLAB_THREADS", "junk")
    assert simulation.worker_count() == 1
    # Capped at the CPU count; an unknown count means one thread.
    monkeypatch.setenv("IPMLAB_THREADS", "100000")
    assert simulation.worker_count() == 8
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert simulation.worker_count() == 2
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert simulation.worker_count() == 1


DISTS = st.sampled_from(["exp:1", "uniform:0:1", "pareto:3:1"])


@st.composite
def markets(draw):
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, n))
    structure = agents.random_partition(n, draw(st.integers(1, n)), draw(st.integers(0, 99)))
    return n, k, structure


@given(market=markets(), dist=DISTS, mechanism=st.sampled_from(["ipm", "item_price"]),
       model=st.sampled_from(["surplus", "monopolist", "alpha:0.5"]))
@settings(max_examples=30, deadline=None)
def test_uniform_price_revenue_bits_independent_of_demand_structure(market, dist, mechanism, model):
    # Revenue is price * min(k, buyers asking): who holds the buyers cannot
    # change a bit of it for the same seed.
    n, k, structure = market
    base = scenario(d=parse_distribution(dist), n=n, k=k, mechanism=mechanism,
                    model=agents.parse_behavior(model), structure=agents.competition(n), reps=3000)
    ref = simulation.run_scenario(base)
    for other in (structure, agents.monopsony(n)):
        rep = simulation.run_scenario(replace(base, structure=other))
        assert (rep.mean_revenue.hex(), rep.ci95_revenue.hex()) == (ref.mean_revenue.hex(), ref.ci95_revenue.hex())


@given(market=markets(), dist=DISTS, mechanism=st.sampled_from(simulation.MECHANISMS),
       model=st.sampled_from(["surplus", "alpha:0.5"]), order=st.sampled_from(["random", "fixed"]))
@settings(max_examples=40, deadline=None)
def test_pass_through_revenue_never_exceeds_welfare_pointwise(market, dist, mechanism, model, order):
    n, k, structure = market
    etas = tuple(1.0 / (j + 1) for j in range(k)) if mechanism == "het_ipm" else None
    s = scenario(d=parse_distribution(dist), n=n, k=k, mechanism=mechanism, etas=etas, structure=structure,
                 model=agents.parse_behavior(model), order_policy=order, reps=2000)
    assert simulation.run_scenario(s).extra["pointwise_rev_gt_wel"] == 0
