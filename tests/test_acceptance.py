"""End-to-end acceptance runs: revenue guarantees at scale, exact
combinatorial cores, grid suites, benchmark separations, determinism."""

import math
import textwrap
import time
from fractions import Fraction

import numpy as np
import pytest

from ipmlab import agents, cli, simulation, theory
from ipmlab.distributions import Exponential, Pareto, builtin_families, c_of_lambda
from ipmlab.simulation import Scenario, run_scenario

from _experiments import canonical_structures, ln_gap_experiment
from oracles import estimate_tau

C0 = 1 / math.e
ONE_MINUS_INV_E = 1 - 1 / math.e


def _ratio_with_ci(rep):
    return rep.ratio, 2 * rep.ci95_revenue / rep.analytic_welfare


def test_uniform_price_guarantee_at_scale():
    # Exponential(1), n=6, k=3 (n/k integer), pass-through intermediaries,
    # one million replicates per canonical structure, under a minute total.
    bound = C0 * ONE_MINUS_INV_E
    start = time.time()
    for structure in canonical_structures(6):
        rep = run_scenario(Scenario(
            d=Exponential(1.0), n=6, k=3, structure=structure,
            model=agents.parse_behavior("surplus"), mechanism="ipm",
            reps=1_000_000, master_seed=101))
        ratio, ci = _ratio_with_ci(rep)
        assert ratio >= bound - ci, structure.descriptor
        assert rep.passed
    assert time.time() - start < 60


def test_uniform_price_guarantee_monopolist():
    bound = C0 * C0 * ONE_MINUS_INV_E  # tau = 1/e for the memoryless case
    start = time.time()
    for structure in canonical_structures(6):
        rep = run_scenario(Scenario(
            d=Exponential(1.0), n=6, k=3, structure=structure,
            model=agents.parse_behavior("monopolist"), mechanism="ipm",
            reps=1_000_000, master_seed=102))
        ratio, ci = _ratio_with_ci(rep)
        assert ratio >= bound - ci, structure.descriptor
    # Measured purchase fraction above the price matches 1/e tightly.
    mono = agents.BehaviorModel(agents.Kind.MONOPOLIST)
    tau = estimate_tau(mono, Exponential(1.0), [0.5, 1.5, 3.0],
                       reps=2_000_000, rng_seed=5)
    assert tau == pytest.approx(C0, abs=1e-3)
    assert time.time() - start < 60


def test_uniform_price_guarantee_half_regular():
    d = Pareto(2.0, 1.0)
    bound = c_of_lambda(0.5) * ONE_MINUS_INV_E  # 0.25 * 0.632...
    assert bound == pytest.approx(0.1580, abs=1e-4)
    rep = run_scenario(Scenario(
        d=d, n=8, k=4, structure=agents.competition(8),
        model=agents.parse_behavior("surplus"), mechanism="ipm",
        reps=500_000, master_seed=103))
    ratio, ci = _ratio_with_ci(rep)
    assert ratio >= bound - ci
    # The monopolist's conditional purchase probability is exactly 1/4.
    for p in (1.0, 2.0, 7.5):
        assert agents.monopolist_tau_analytic(d, p) == pytest.approx(0.25, abs=1e-8)


def test_heterogeneous_menu_guarantee():
    bound = (1 - math.exp(-C0 / 2)) * ONE_MINUS_INV_E
    assert bound == pytest.approx(0.1062, abs=1e-4)
    start = time.time()
    rep = run_scenario(Scenario(
        d=Exponential(1.0), n=6, k=3, etas=(1.0, 0.5, 0.25),
        structure=agents.balanced(6, 2), model=agents.parse_behavior("surplus"),
        mechanism="het_ipm", order_policy="random",
        reps=100_000, master_seed=104))
    ratio, ci = _ratio_with_ci(rep)
    assert ratio >= bound - ci
    assert time.time() - start < 120


def test_subset_avoidance_exact_rational():
    # C(n-k, s)/C(n, s) <= 1/e with s = ceil(n/k), in exact arithmetic:
    # compare against a certified rational lower bound of 1/e, zero tolerance.
    for n in range(1, 25):
        for k in range(1, n + 1):
            s = math.ceil(n / k)
            prob = theory.exact_no_large_elements(n, k)
            assert isinstance(prob, Fraction)
            assert prob <= theory.INV_E_LOWER, (n, k, s)


def test_pricing_program_uniform_solution_on_random_instances():
    # 50 instances with successive weight ratios >= 1.3 (the uniform vector
    # is the true optimum only on this regime; see the flat-weight negative
    # control for the boundary).
    rng = np.random.default_rng(2024)
    start = time.time()
    done = 0
    while done < 50:
        k = int(rng.integers(1, 6))
        n = int(rng.integers(2, 41))
        lam = float(rng.choice([0.0, 0.25, 0.5, 0.75]))
        r = [float(rng.uniform(0.5, 5.0))]
        for q in rng.uniform(1.3, 3.0, size=k - 1):
            r.insert(0, r[0] * q)
        c = c_of_lambda(lam)
        analytic_obj = sum(r) * math.exp(-c / 2)
        oracle_obj, oracle_p = theory.program_optimum(r, n, lam)
        assert abs(oracle_obj - analytic_obj) <= 1e-4 * max(1.0, sum(r))
        assert np.max(np.abs(oracle_p - c / (2 * n))) <= 1e-3
        res = theory.check_optprog(r, n, lam)
        assert res.passed
        done += 1
    assert time.time() - start < 30


def test_grid_suites_and_negative_controls():
    for d in builtin_families():
        assert theory.check_fact1(d, d.lambda_claimed, 8).passed
        assert theory.check_facts_2_3(d, 32).passed
        assert theory.check_claim1(d).passed
    assert theory.check_lamb_aux(12).passed
    # Boundary limit -(n-1)/2 recovered to 1e-6 from evaluations at
    # F = 1 - 1e-6 (extrapolated; the raw value at that point still carries
    # a linear remainder of (n^2-1)/12 * 1e-6, checked directly for n <= 3).
    for n in range(2, 13):
        assert theory.lamb_aux_boundary(n) == pytest.approx(-(n - 1) / 2, abs=1e-6)
    for n in (2, 3):
        assert float(theory._lamb_aux_h(1e-6, n)) == pytest.approx(-(n - 1) / 2, abs=1e-6)
    # Negative controls: the checkers must reject constructed violators.
    assert not theory.check_fact1(Pareto(2.0, 1.0), 0.0, 8).passed
    assert not theory.check_optprog((1.0, 1.0), 10, 0.0).passed


# Accepting replicates at seed 9 and 30 000 replicates: the counts of rows
# whose plain sum of values reaches n^2 ln n / (2(n-1)), drawn from the same
# streams, which the `bundle` engine must reproduce.
LN_GAP_ACCEPTS = {60: 29_996, 100: 30_000, 400: 30_000}


def test_item_vs_bundle_separation():
    start = time.time()
    rows = {}
    for n in (60, 100, 400):
        item, rep = ln_gap_experiment(n, reps=30_000, seed=9)
        price = rep.extra["price"]
        # n (E[v] - E[v]/2) rounds within a few ulps of the closed form.
        exact = n * n * math.log(n) / (2 * (n - 1))
        assert abs(price - exact) <= 4 * math.ulp(exact), n
        acc = rep.mean_revenue / price
        assert round(acc * 30_000) == LN_GAP_ACCEPTS[n]
        se = math.sqrt(acc * (1 - acc) / 30_000)
        assert acc >= 0.75 - 2 * se, n
        rows[n] = (item, rep.mean_revenue)
    gap = {n: bundle / item for n, (item, bundle) in rows.items()}
    assert gap[100] > 1.7
    # The three-point trend is monotone: the gap widens with n.
    assert gap[60] < gap[100] < gap[400]
    # n=100 spot values.
    item, bundle = rows[100]
    assert bundle >= 174
    assert item <= 101
    price = (100 ** 2 * math.log(100)) / (2 * 99)
    assert price == pytest.approx(232.6, abs=0.1)
    assert time.time() - start < 60


def test_benchmarks_fail_under_wrong_structure():
    # Auction under monopsony: the lone intermediary pays only the reserve,
    # while the posted price keeps growing with n.
    posted_rev = []
    for n in (16, 64, 256):
        common = dict(structure=agents.monopsony(n),
                      model=agents.parse_behavior("surplus"),
                      reps=30_000, master_seed=11)
        auction = run_scenario(Scenario(d=Exponential(1.0), n=n, k=1,
                                        mechanism="kplus1", **common))
        assert auction.mean_revenue <= 1.0 + 1e-9, n
        posted = run_scenario(Scenario(d=Exponential(1.0), n=n, k=1,
                                       mechanism="ipm", **common))
        posted_rev.append(posted.mean_revenue)
    assert posted_rev[0] < posted_rev[1] < posted_rev[2]
    assert posted_rev[2] > 2.5  # ~ H(256)/e and beyond
    # Bundle tuned for a single buyer-block, faced with singleton buyers.
    from ipmlab.distributions import Uniform
    bundle = run_scenario(Scenario(
        d=Uniform(0, 1), n=32, k=32, structure=agents.competition(32),
        model=agents.parse_behavior("surplus"), mechanism="bundle",
        epsilon=0.05, reps=30_000, master_seed=11))
    competition_bench = run_scenario(Scenario(
        d=Uniform(0, 1), n=32, k=32, structure=agents.competition(32),
        model=agents.parse_behavior("surplus"), mechanism="ipm",
        reps=30_000, master_seed=11))
    assert bundle.mean_revenue < 0.01 * competition_bench.mean_revenue


CONFIG = textwrap.dedent("""\
    seed = 424242
    reps = 100000
    output = {out}

    [scenario]
    id = homogeneous
    dist = exp:1
    n = 6
    k = 3
    structure = balanced:2
    model = surplus
    mechanism = ipm

    [scenario]
    id = markup
    dist = exp:1
    n = 6
    k = 3
    structure = random:3:7
    model = monopolist
    mechanism = ipm

    [scenario]
    id = menu
    dist = exp:1
    n = 6
    etas = 1,0.5,0.25
    structure = balanced:2
    model = surplus
    mechanism = het_ipm
    reps = 20000
""")


def test_reports_identical_across_thread_counts(tmp_path, monkeypatch, capsys):
    outputs = []
    for threads in ("1", "4", "3"):
        monkeypatch.setenv("IPMLAB_THREADS", threads)
        out_csv = tmp_path / f"report_{threads}.csv"
        cfg = tmp_path / f"cfg_{threads}.cfg"
        cfg.write_text(CONFIG.format(out=out_csv))
        assert cli.main(["simulate", str(cfg)]) == 0
        capsys.readouterr()
        outputs.append(out_csv.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
