import hashlib
import math
import os
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipmlab import agents, simulation
from ipmlab.distributions import Exponential, Uniform, inverse_virtual_value, parse_distribution
from ipmlab.mechanisms import build_menu
from ipmlab.order_statistics import expected_rank

from _experiments import canonical_structures, ln_gap_experiment
from oracles import ipm_allocate, kplus1_auction, sequential_menu_sale


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
    assert simulation.theoretical_bound(scenario(n=7, k=3)) == pytest.approx(
        0.5 * (1 / math.e) * (1 - 1 / math.e))
    mono = scenario(model=agents.parse_behavior("monopolist"))
    assert simulation.theoretical_bound(mono) == pytest.approx(
        (1 / math.e) ** 2 * (1 - 1 / math.e))
    het = scenario(mechanism="het_ipm", etas=(1.0, 0.5))
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
    s = scenario(mechanism="het_ipm", etas=(1.0, 0.5), structure=agents.balanced(6, 3),
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
    welfare = simulation._rationed_welfare(v, v >= 0.5, simulation._group_layout(groups), 3,
                                           np.random.default_rng(5))
    counts = Counter((int(w) % 10, int(w) // 10 % 10, int(w) // 100) for w in welfare)
    assert all(sum(served) == 3 for served in counts)
    for c0 in range(4):
        for c1 in range(4 - c0):
            c2 = 3 - c0 - c1
            pmf = math.comb(3, c0) * math.comb(3, c1) * math.comb(2, c2) / math.comb(8, 3)
            assert counts[(c0, c1, c2)] / trials == pytest.approx(pmf, abs=0.015), (c0, c1, c2)


def test_group_layout_pads_fewer_than_twice_n():
    # One group of 129 buyers beside 127 singletons: a single padded view
    # would hold 128 x 129 slots, the size classes fewer than 2n.
    structure = agents.DemandStructure(256, 128, (0,) * 129 + tuple(range(1, 128)))
    groups = structure.groups()
    group_of, classes = simulation._group_layout(groups)
    assert sum(pad.size for _, pad, _ in classes) < 2 * 256
    assert sorted(np.concatenate([pad[~padding] for _, pad, padding in classes])) == list(range(256))
    for members, pad, padding in classes:
        for ell, cols, void in zip(members, pad, padding):
            assert list(cols[~void]) == groups[ell]
            assert (group_of[cols[~void]] == ell).all()


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


def test_block_where_every_row_rations_matches_a_mixed_block():
    # A block whose rows all ration skips the row copies.  Its rows get the
    # same bits when a row that does not ration sits among them: that row
    # draws no keys, so both blocks take the same keys from the stream.
    s = scenario(n=8, k=2, structure=agents.random_partition(8, 3, 7))
    layout = simulation._group_layout(s.structure.groups())
    v = np.random.default_rng(3).random((50, 8)) + 1.0  # all at or above the threshold
    mixed = np.insert(v, 20, 0.0, axis=0)

    def block(x):
        return simulation._uniform_price_block(s, layout, 1.0, 1.0, x, np.random.default_rng(9))

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
    # Row blocks only bound the engine's memory: valuations, rationing keys
    # and visit orders come from their streams in row order, so one block
    # per batch, or 333-row blocks with a partial last one, agree.
    for rows in (simulation.BATCH_SIZE, 333):
        monkeypatch.setattr(simulation, "ROW_BLOCK", rows)
        assert report() == one, rows


@pytest.mark.parametrize("mechanism", ["ipm", "item_price", "het_ipm", "kplus1", "bundle"])
def test_batch_memory_stays_below_two_valuation_arrays(monkeypatch, mechanism):
    # Only one ROW_BLOCK of valuations is live at a time, so a full batch of
    # n = 256 buyers never holds two (BATCH_SIZE, n) float arrays at once.
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
# (ROW_BLOCK x 256 floats): the peak once block temporaries were computed in
# place, plus 25 % headroom, so that a new block-sized temporary fails.
PEAK_BLOCKS = {"ipm": 1.56, "item_price": 4.12, "het_ipm": 4.09, "kplus1": 2.75, "bundle": 1.57}


@pytest.mark.parametrize("mechanism", list(PEAK_BLOCKS))
def test_batch_memory_per_mechanism_in_valuation_blocks(monkeypatch, mechanism):
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
    assert peak < PEAK_BLOCKS[mechanism] * simulation.ROW_BLOCK * 256 * 8


# csv_row(), the ci95_welfare hex and a digest of every row's revenue and
# welfare for a small grid, recorded before the engines computed their
# temporaries in place: the same streams must give the same bits.  Two full
# batches and a partial one, and rows that ration.  The row digest catches a
# last-bit change that the report's sums would absorb.
GOLDEN_GRID = [
    ("ipm-exp:1-n32k4-random:4:7-surplus, exp:1, 0, 32, 4, random:4:7, surplus, ipm, 16484, 5.51221790827, 0.0511014227085, 7.55238695578, 11.9006474484, 0.46318638815, 0.232544157935, True",
     "0x1.2e217abdd8468p-4", "c0d8af433a491925"),
    ("het_ipm-exp:1-n32k4-random:4:7-surplus, exp:1, 0, 32, 4, random:4:7, surplus, het_ipm, 16484, 3.71518117043, 0.0376100414516, 4.93632407818, 8.18790465526, 0.453740160255, 0.106205132686, True",
     "0x1.be5bdbb1c90a3p-5", "7633fe23beaa0536"),
    ("kplus1-exp:1-n32k4-random:4:7-surplus, exp:1, 0, 32, 4, random:4:7, surplus, kplus1, 16484, 7.88727448763, 0.0264306802941, 11.8743074777, 11.9006474484, 0.662760116357, , ",
     "0x1.48871ce3ced80p-5", "ea8bc73efe71926c"),
    ("bundle-exp:1-n32k4-random:4:7-surplus, exp:1, 0, 32, 4, random:4:7, surplus, bundle, 16484, 1.38614675449, 0.058280558059, 1.56819336938, 11.9006474484, 0.116476583354, , ",
     "0x1.0fe313eb7f986p-4", "09e68e81733d1879"),
    ("item_price-exp:1-n32k4-random:4:7-surplus, exp:1, 0, 32, 4, random:4:7, surplus, item_price, 16484, 3.9995146809, 0.000375931866146, 10.3556807767, 11.9006474484, 0.336075385666, , ",
     "0x1.2fcc87ecf1e55p-5", "d181292588a82192"),
    ("ipm-exp:1-n32k4-random:4:7-monopolist, exp:1, 0, 32, 4, random:4:7, monopolist, ipm, 16484, 2.0832398083, 0.0358349366433, 3.61285449563, 11.9006474484, 0.1750526446, 0.0855482148687, True",
     "0x1.0417f8dfa011ep-4", "88c8ba8aedf3a4d9"),
    ("het_ipm-exp:1-n32k4-random:4:7-monopolist, exp:1, 0, 32, 4, random:4:7, monopolist, het_ipm, 16484, 3.71518117043, 0.0376100414516, 4.93632407818, 8.18790465526, 0.453740160255, 0.106205132686, True",
     "0x1.be5bdbb1c90a3p-5", "7633fe23beaa0536"),
    ("kplus1-exp:1-n32k4-random:4:7-monopolist, exp:1, 0, 32, 4, random:4:7, monopolist, kplus1, 16484, 7.88727448763, 0.0264306802941, 11.8743074777, 11.9006474484, 0.662760116357, , ",
     "0x1.48871ce3ced80p-5", "ea8bc73efe71926c"),
    ("bundle-exp:1-n32k4-random:4:7-monopolist, exp:1, 0, 32, 4, random:4:7, monopolist, bundle, 16484, 1.38614675449, 0.058280558059, 1.56819336938, 11.9006474484, 0.116476583354, , ",
     "0x1.0fe313eb7f986p-4", "09e68e81733d1879"),
    ("item_price-exp:1-n32k4-random:4:7-monopolist, exp:1, 0, 32, 4, random:4:7, monopolist, item_price, 16484, 3.40791070129, 0.0141865038721, 10.5420238295, 11.9006474484, 0.286363470228, , ",
     "0x1.be395380b58a3p-5", "c372478836f15b37"),
    ("ipm-pareto:3:1-n32k4-random:4:7-surplus, pareto:3:1, 0.333333333333, 32, 4, random:4:7, surplus, ipm, 16484, 4.13889543416, 0.048010442072, 6.20045942339, 11.7169913126, 0.353238755901, 0.187294980394, True",
     "0x1.55e2c44c32c87p-4", "0a84834ab038b80b"),
    ("het_ipm-pareto:3:1-n32k4-random:4:7-surplus, pareto:3:1, 0.333333333333, 32, 4, random:4:7, surplus, het_ipm, 16484, 2.83957109492, 0.0359842913136, 4.25781924247, 8.20189391881, 0.346209195465, 0.0870408790274, True",
     "0x1.17abbf3fe32a0p-4", "f05ba51664df4411"),
    ("kplus1-pareto:3:1-n32k4-random:4:7-surplus, pareto:3:1, 0.333333333333, 32, 4, random:4:7, surplus, kplus1, 16484, 7.80106443073, 0.0180438239953, 11.6692887135, 11.7169913126, 0.665790749742, , ",
     "0x1.cdd44fb5a1078p-5", "12519682adf537aa"),
    ("bundle-pareto:3:1-n32k4-random:4:7-surplus, pareto:3:1, 0.333333333333, 32, 4, random:4:7, surplus, bundle, 16484, 1.91207878129, 0.066099705011, 2.40119594506, 11.7169913126, 0.163188546469, , ",
     "0x1.673c19a05d4b5p-4", "4fd8323afb1d7a83"),
    ("item_price-pareto:3:1-n32k4-random:4:7-surplus, pareto:3:1, 0.333333333333, 32, 4, random:4:7, surplus, item_price, 16484, 4, 0, 9.89607097731, 11.7169913126, 0.341384566506, , ",
     "0x1.918ad563cf7b1p-5", "a30b1055977a1ad3"),
    ("ipm-pareto:3:1-n32k4-random:4:7-monopolist, pareto:3:1, 0.333333333333, 32, 4, random:4:7, monopolist, ipm, 16484, 1.24664923046, 0.0281350863941, 2.78183463491, 11.7169913126, 0.106396701781, 0.0554948090055, True",
     "0x1.22fdfd918d2e1p-4", "fc87f0345ca270cc"),
    ("het_ipm-pareto:3:1-n32k4-random:4:7-monopolist, pareto:3:1, 0.333333333333, 32, 4, random:4:7, monopolist, het_ipm, 16484, 2.83957109492, 0.0359842913136, 4.25781924247, 8.20189391881, 0.346209195465, 0.0870408790274, True",
     "0x1.17abbf3fe32a0p-4", "f05ba51664df4411"),
    ("kplus1-pareto:3:1-n32k4-random:4:7-monopolist, pareto:3:1, 0.333333333333, 32, 4, random:4:7, monopolist, kplus1, 16484, 7.80106443073, 0.0180438239953, 11.6692887135, 11.7169913126, 0.665790749742, , ",
     "0x1.cdd44fb5a1078p-5", "12519682adf537aa"),
    ("bundle-pareto:3:1-n32k4-random:4:7-monopolist, pareto:3:1, 0.333333333333, 32, 4, random:4:7, monopolist, bundle, 16484, 1.91207878129, 0.066099705011, 2.40119594506, 11.7169913126, 0.163188546469, , ",
     "0x1.673c19a05d4b5p-4", "4fd8323afb1d7a83"),
    ("item_price-pareto:3:1-n32k4-random:4:7-monopolist, pareto:3:1, 0.333333333333, 32, 4, random:4:7, monopolist, item_price, 16484, 3.99235622422, 0.00160865447968, 10.5759303588, 11.7169913126, 0.340732199735, , ",
     "0x1.9eed0f3355e95p-5", "906609f65e7ea130"),
]


def test_golden_bits_of_a_small_grid(monkeypatch):
    monkeypatch.setenv("IPMLAB_THREADS", "1")
    batch_fn = simulation._batch_fn
    digest = None

    def hashed(s):
        block, extra = batch_fn(s)

        def run(v, aux):
            rows = block(v, aux)
            for x in rows:
                digest.update(np.asarray(x).tobytes())
            return rows

        return run, extra

    monkeypatch.setattr(simulation, "_batch_fn", hashed)
    got = []
    for dist in ("exp:1", "pareto:3:1"):
        for model in ("surplus", "monopolist"):
            for mechanism in simulation.MECHANISMS:
                digest = hashlib.sha256()
                s = scenario(d=parse_distribution(dist), n=32, k=4, structure=agents.parse_structure("random:4:7", 32),
                             model=agents.parse_behavior(model), mechanism=mechanism,
                             etas=(1.0, 0.75, 0.5, 0.25) if mechanism == "het_ipm" else None,
                             reps=2 * simulation.BATCH_SIZE + 100, master_seed=11)
                rep = simulation.run_scenario(s)
                got.append((rep.csv_row(), rep.ci95_welfare.hex(), digest.hexdigest()[:16]))
    assert got == GOLDEN_GRID


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
