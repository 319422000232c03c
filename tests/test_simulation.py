import math
import os

import numpy as np
import pytest

from ipmlab import agents, simulation
from ipmlab.distributions import Exponential, Uniform, inverse_virtual_value
from ipmlab.mechanisms import build_menu
from ipmlab.order_statistics import expected_rank

from oracles import kplus1_auction, sequential_menu_sale


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


def test_heterogeneous_report_identical_across_threads_and_blocks(monkeypatch):
    s = scenario(mechanism="het_ipm", etas=(1.0, 0.5, 0.25), structure=agents.random_partition(6, 3, 7),
                 reps=2 * simulation.BATCH_SIZE + 100)
    monkeypatch.setenv("IPMLAB_THREADS", "1")
    one = simulation.run_scenario(s).csv_row()
    monkeypatch.setenv("IPMLAB_THREADS", "2")
    assert simulation.run_scenario(s).csv_row() == one
    # Row blocks only bound the engine's memory: one block per batch agrees.
    monkeypatch.setattr(simulation, "MENU_BLOCK", simulation.BATCH_SIZE)
    assert simulation.run_scenario(s).csv_row() == one


def test_price_structure_invariance_sweep():
    base = scenario()
    reports = simulation.robustness_sweep(base, agents.canonical_structures(6))
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
        simulation.ln_gap_experiment(10)


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
