import math
from fractions import Fraction

import numpy as np
import pytest

from ipmlab import theory
from ipmlab.distributions import (
    Exponential,
    Pareto,
    Uniform,
    builtin_families,
    c_of_lambda,
    check_lambda_regularity,
)
from ipmlab.errors import InfeasibleClaim

import oracles


def test_convexity_check_passes_for_builtins():
    for d in builtin_families():
        res = theory.check_fact1_convexity(d, d.lambda_claimed, n_max=8)
        assert res.passed, (d.descriptor, res.worst_margin, res.detail)


def test_convexity_check_has_power():
    res = theory.check_fact1_convexity(Pareto(2.0, 1.0), 0.0, n_max=8)
    assert not res.passed


def test_aux_inequality_grid():
    res = theory.check_lamb_aux(12)
    assert res.passed, (res.worst_margin, res.detail)


def test_aux_inequality_point_values():
    # n=2, lam=1, F=0.5: h = 2*0.25/0.75 - 1 = -1/3, slack = 2h + 1 = 1/3.
    h = float(theory._lamb_aux_h(0.5, 2))
    assert h == pytest.approx(-1 / 3, abs=1e-12)
    assert 2 * h + 1 == pytest.approx(1 / 3, abs=1e-12)


def test_aux_boundary_limits():
    for n in (2, 3, 5, 12):
        assert theory.lamb_aux_boundary(n) == pytest.approx(-(n - 1) / 2, abs=1e-6)
    # Direct evaluation near the boundary carries a linear remainder with
    # slope (n^2 - 1)/12, visible at eps = 1e-6.
    for n in (2, 3, 5):
        dev = float(theory._lamb_aux_h(1e-6, n)) + (n - 1) / 2
        assert dev == pytest.approx((n * n - 1) / 12 * 1e-6, rel=1e-3)


def test_program_example_instance():
    res = theory.check_optprog((3.0, 2.0, 1.0), 10, 0.0)
    assert res.passed
    analytic = 6 * math.exp(-1 / (2 * math.e))
    assert analytic == pytest.approx(4.9919, abs=1e-4)
    val, p = theory.program_vertex_optimum((3.0, 2.0, 1.0), 10, 0.0)
    assert val == pytest.approx(analytic, abs=1e-9)
    assert np.allclose(p, 1 / (20 * math.e), atol=1e-9)


def test_program_single_item_binds():
    res = theory.check_optprog((5.0,), 4, 0.5)
    assert res.passed
    _, p = theory.program_vertex_optimum((5.0,), 4, 0.5)
    assert p[0] == pytest.approx(0.25 / 8, abs=1e-12)


def test_program_degenerate_lambda_one():
    res = theory.check_optprog((2.0, 1.0), 5, 1.0)
    assert res.passed and "degenerate" in res.detail


def test_program_rejects_bad_weights():
    with pytest.raises(ValueError):
        theory.check_optprog((1.0, 2.0), 5, 0.0)


def test_program_infeasible_claim():
    # c(0)/2 > n requires n < 1/(2e): impossible for integer n >= 1, so force
    # it with a fractional n stand-in.
    with pytest.raises(InfeasibleClaim):
        theory.check_optprog((1.0,), 0.1, 0.0)


def test_program_flat_weights_defeat_uniform_point():
    # With near-flat weights, concentrating the constraint mass on the first
    # coordinate and zeroing the second strictly beats the uniform vector.
    res = theory.check_optprog((1.0, 1.0), 10, 0.0)
    assert not res.passed
    assert res.worst_margin < -1e-3
    val, p = theory.program_vertex_optimum((1.0, 1.0), 10, 0.0)
    c = 1 / math.e
    assert val == pytest.approx(math.exp(-c) + 1.0, abs=1e-9)
    assert p[1] == pytest.approx(0.0, abs=1e-12)


def test_program_oracles_agree():
    rng = np.random.default_rng(3)
    for _ in range(10):
        k = int(rng.integers(1, 6))
        n = int(rng.integers(2, 30))
        lam = float(rng.choice([0.0, 0.25, 0.5, 0.75]))
        r = np.flip(np.sort(rng.uniform(0.5, 5.0, size=k)))
        vertex_val, _ = theory.program_vertex_optimum(r, n, lam)
        cd_val, _ = theory._program_descent_oracle(r, n, lam)
        assert cd_val <= vertex_val + 1e-9
        if k <= 3:
            grid_val, _ = theory._program_grid_oracle(r, n, lam)
            assert grid_val <= vertex_val + 1e-9


def test_exact_subset_avoidance_probability():
    assert theory.exact_no_large_elements(4, 2) == Fraction(1, 6)
    assert theory.exact_no_large_elements(4, 1) == Fraction(0)
    for n in range(1, 25):
        for k in range(1, n + 1):
            assert theory.exact_no_large_elements(n, k) <= theory.INV_E_UPPER


def test_order_stat_bound_check():
    cases = [(6, 3), (4, 1), (12, 4)]
    for d in builtin_families():
        res = theory.check_lemma_main(d, cases, reps=30_000)
        assert res.passed, (d.descriptor, res.detail)
        # The detail names the worst case and the largest cross-check |z|.
        at, z = res.detail.split(" max|z|=")
        assert at in {"n=6 k=3", "n=4 k=1", "n=12 k=4"}
        assert 0.0 < float(z) < 5.0


@pytest.mark.parametrize(
    "cases, reps",
    [(theory.LEMMA_MAIN_CASES, 50_000), ([(6, 3), (4, 1), (12, 4)], 30_000)],
    ids=["registry", "bound-check"],
)
def test_lemma_main_mc_matches_per_family_oracle(cases, reps):
    # One ranked draw shared by the families keeps every case's mean and se
    # to the bit of drawing, mapping and sorting per family.
    for d in builtin_families():
        assert theory._lemma_main_mc(d, cases, reps, 0) == oracles.lemma_main_mc(d, cases, reps, 0), d.descriptor


def test_quantiles_commute_with_row_sort():
    # The bit identity above rests on this: each builtin quantile maps the
    # ranked rows to the ranked mapped rows.
    ns = (4, 6, 12)
    raw = np.random.default_rng(0).random((50_000, 12))
    for d in builtin_families():
        mapped = d.quantile(raw)
        for n, u in zip(ns, theory._ranked_uniforms(50_000, ns, 0)):
            assert np.array_equal(d.quantile(u).T, np.sort(mapped[:, :n], axis=1)), (d.descriptor, n)


def test_ranked_uniforms_are_read_only():
    for u in theory._ranked_uniforms(1_000, (2, 5), 0):
        assert not u.flags.writeable
        with pytest.raises(ValueError):
            u[0, 0] = 0.5


def test_regularity_check_passes_and_its_control_fails():
    for r in theory.REGISTRY["regularity"]():
        assert r.passed, (r.detail, r.worst_margin)
    [control] = theory.REGISTRY["negcontrol_regularity"]()
    assert control.passed and control.worst_margin < -0.1
    # The certificate's raw slope for pareto:2:1 at lam = 0.25.
    cert = check_lambda_regularity(Pareto(2.0, 1.0), 0.25)
    assert cert.min_slope == pytest.approx(-245.0, abs=0.1)
    assert control.worst_margin == cert.min_slope / cert.scale


def test_tail_fact_checks():
    for d in builtin_families():
        res = theory.check_facts_2_3(d, 16)
        assert res.passed, d.descriptor


def test_tau_check():
    res = theory.check_monopolist_tau(Exponential(1.0), 0.0, [0.5, 1.0, 2.0])
    assert res.passed
    assert res.worst_margin == pytest.approx(0.0, abs=1e-9)
    res2 = theory.check_monopolist_tau(Uniform(0, 1), 0.0, [0.0, 0.2, 0.4])
    assert res2.passed


def test_claim1_check():
    for d in builtin_families():
        res = theory.check_claim1(d)
        assert res.passed, d.descriptor


def test_registry_runs_and_controls_flip():
    results = theory.run_checks()
    names = {r.name for r in results}
    assert {"fact1_convexity", "lamb_aux", "optprog", "lemma_main",
            "facts_2_3", "monopolist_tau", "claim1"} <= names
    for r in results:
        assert r.passed, (r.name, r.detail)
    with pytest.raises(KeyError):
        theory.run_checks(["nope"])
