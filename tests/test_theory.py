import hashlib
import importlib.util
import math
import pathlib
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ipmlab import cli, order_statistics, theory
from ipmlab.distributions import (
    Exponential,
    Pareto,
    Uniform,
    builtin_families,
    c_of_lambda,
    parse_distribution,
)
from ipmlab.order_statistics import expected_rank

import oracles


def test_convexity_check_passes_for_builtins():
    # The `fact1_convexity` rows: the max of n <= 8 draws is lambda-regular.
    for d in builtin_families():
        res = theory.check_fact1(d, d.lambda_claimed, n_max=8)
        assert res.passed and res.name == "fact1_convexity", (d.descriptor, res.worst_margin, res.detail)


def test_convexity_check_has_power():
    res = theory.check_fact1(Pareto(2.0, 1.0), 0.0, n_max=8)
    assert not res.passed
    assert res.row() == "fact1_convexity, -0.980029, n=1 lam=0, False"


FACT1_FAMILIES = [Pareto(shape, 1.0) for shape in (4.0, 1.25, 1.1, 1.05, 1.01)] + [parse_distribution("ter:100")]


@pytest.mark.parametrize("d", FACT1_FAMILIES, ids=lambda d: d.descriptor)
def test_the_max_is_regular_at_the_claimed_lambda_and_no_lower(d):
    # Fact 1 as stated: the max of n <= 32 draws is lambda-regular at the
    # family's lambda, and the check has the power to see that it is not at
    # lambda - 0.1 (margins of -0.215 to -0.053 for Pareto, -1.0e-5 for ter).
    at = theory.check_fact1(d, d.lambda_claimed, n_max=32)
    assert at.passed, at.row()
    below = theory.check_fact1(d, d.lambda_claimed - 0.1, n_max=32)
    assert not below.passed and below.worst_margin < -1e-6, below.row()


def test_the_max_of_a_heavy_tail_fails_lambda_one_quarter_at_every_n():
    # Pareto(2) is 1/2-regular and no more, and so is the max of n draws;
    # the violation shrinks as n grows.
    rows = [theory.check_regularity(Pareto(2.0, 1.0), 0.25, n) for n in range(1, 9)]
    assert not any(r.passed for r in rows), [r.row() for r in rows]
    margins = [r.worst_margin for r in rows]
    assert margins[0] == pytest.approx(-0.3267, abs=1e-4) and margins[-1] == pytest.approx(-0.0465, abs=1e-4)


def test_aux_inequality_grid():
    res = theory.check_lamb_aux(12)
    assert res.passed, (res.worst_margin, res.detail)


def test_aux_inequality_fails_at_a_nan_slack(monkeypatch):
    # A NaN slack at one grid point fails the check and is named; the old
    # argmin and strict-< loop skipped it and passed.
    h = theory._lamb_aux_h

    def nan_at_7(eps, n):
        out = h(eps, n)
        return np.where(np.arange(out.size) == 7, np.nan, out) if out.ndim and n == 5 else out

    monkeypatch.setattr(theory, "_lamb_aux_h", nan_at_7)
    res = theory.check_lamb_aux(12)
    assert not res.passed and math.isnan(res.worst_margin)
    assert res.detail.startswith("n=5 lam=0.0 F="), res.row()


def test_aux_inequality_ends_cover_every_lambda():
    # The slack is affine in lam, so the two ends the check samples give
    # the least slack over any grid of lam in [0, 1].
    eps = 1.0 - np.linspace(0.0, 1.0 - 1e-4, 2000)
    lams = np.linspace(0.0, 1.0, 101)[:, None]
    least = min(float(np.min((1.0 + lams) * theory._lamb_aux_h(eps, n) + (n - 1))) for n in range(2, 13))
    assert theory.check_lamb_aux(12).worst_margin == least


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
    val, p = theory.program_optimum((3.0, 2.0, 1.0), 10, 0.0)
    assert val == pytest.approx(analytic, abs=1e-9)
    assert np.allclose(p, 1 / (20 * math.e), atol=1e-9)


def test_program_single_item_binds():
    res = theory.check_optprog((5.0,), 4, 0.5)
    assert res.passed
    _, p = theory.program_optimum((5.0,), 4, 0.5)
    assert p[0] == pytest.approx(0.25 / 8, abs=1e-12)


def test_program_degenerate_lambda_one():
    res = theory.check_optprog((2.0, 1.0), 5, 1.0)
    assert res.passed and "degenerate" in res.detail


def test_program_rejects_bad_weights(capsys):
    for rs in [(1.0, 2.0), (math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, -1.0)]:
        with pytest.raises(ValueError):
            theory.check_optprog(rs, 5, 0.0)
    for r in ("nan,1", "inf,1", "1,nan"):
        assert cli.main(["program", "--r", r, "--n", "5"]) == cli.EXIT_PARSE
    assert "finite" in capsys.readouterr().err


def test_program_rejects_lambda_outside_unit_interval(capsys):
    # A bad lambda is a bad input (exit 2), not a numeric failure (exit 3).
    for lam in (1.5, math.nan, -0.1, math.inf):
        with pytest.raises(ValueError):
            theory.check_optprog((3.0, 2.0, 1.0), 5, lam)
    for lam in ("1.5", "nan", "-0.1"):
        assert cli.main(["program", "--r", "3,2,1", "--n", "5", "--lam", lam]) == cli.EXIT_PARSE
    assert "lambda must lie in [0, 1]" in capsys.readouterr().err
    assert cli.main(["program", "--r", "3,2,1", "--n", "5", "--lam", "1"]) == cli.EXIT_OK


def test_program_infeasible_claim(capsys):
    # c(lam)/2 <= 1/(2e) < 1, so for every legal n >= 1 the uniform point
    # lies in the box; smaller n are rejected up front.
    for n in (0, -2, 0.1):
        with pytest.raises(ValueError):
            theory.check_optprog((1.0,), n, 0.0)
    assert cli.main(["program", "--r", "3,2,1", "--n", "0"]) == cli.EXIT_PARSE
    assert "n >= 1" in capsys.readouterr().err


def test_program_flat_weights_defeat_uniform_point():
    # With near-flat weights, concentrating the constraint mass on the first
    # coordinate and zeroing the second strictly beats the uniform vector.
    res = theory.check_optprog((1.0, 1.0), 10, 0.0)
    assert not res.passed
    assert res.worst_margin < -1e-3
    val, p = theory.program_optimum((1.0, 1.0), 10, 0.0)
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
        vertex_val, _ = oracles.program_vertex_optimum(r, n, lam)
        cd_val, _ = oracles._program_descent_oracle(r, n, lam)
        assert cd_val <= vertex_val + 1e-9
        if k <= 3:
            grid_val, _ = oracles._program_grid_oracle(r, n, lam)
            assert grid_val <= vertex_val + 1e-9
            assert theory.program_optimum(r, n, lam)[0] >= grid_val


def _weights(kind, k, draws):
    return {
        "flat": [1.0] * k,
        "integer": [float(k - j) for j in range(k)],
        "geometric": [2.0**-j for j in range(k)],
        "zeros": sorted(draws[: k // 2], reverse=True) + [0.0] * (k - k // 2),
        "random": sorted(draws[:k], reverse=True),
    }[kind]


@given(
    k=st.integers(1, 5),
    n=st.integers(1, 800),
    lam=st.sampled_from([0.0, 0.25, 0.5, 0.75, 0.9, 0.99]),
    kind=st.sampled_from(["flat", "integer", "geometric", "zeros", "random"]),
    draws=st.lists(st.floats(0.0, 10.0), min_size=5, max_size=5),
)
@example(k=6, n=10, lam=0.25, kind="geometric", draws=[0.0] * 5)
@example(k=6, n=3, lam=0.0, kind="flat", draws=[0.0] * 5)
@example(k=6, n=1, lam=0.9, kind="integer", draws=[0.0] * 5)
@example(k=6, n=40, lam=0.5, kind="zeros", draws=[5.0, 4.0, 4.0, 1.0, 0.0])
@settings(max_examples=100, deadline=None)
def test_program_optimum_matches_vertex_enumeration(k, n, lam, kind, draws):
    r = _weights(kind, k, draws)
    val, p = theory.program_optimum(r, n, lam)
    vertex_val, _ = oracles.program_vertex_optimum(r, n, lam)
    assert val == pytest.approx(vertex_val, rel=1e-12)
    # p is feasible: in the box, and every prefix meets n P_s >= s c/2.
    assert p.shape == (k,)
    assert np.all(p >= -1e-12) and np.all(p <= 1.0 + 1e-12)
    assert np.all(n * np.cumsum(p) >= c_of_lambda(lam) / 2.0 * np.arange(1, k + 1) - 1e-9)


# sha256 of every (value, p) that `program_optimum` gives on a grid of the
# property test's instances, recorded before its tables were built in blocks
# of lattice points and each step ran only the points it can reach.
PROGRAM_GRID_SHA256 = "95b6edb2198eee65e945d1ba1f5424446d1beb315e4d5bca293062efb6f1c060"


def _program_grid_digest():
    digest = hashlib.sha256()
    for k in range(1, 7):
        for n in (1, 3, 10, 800):
            for lam in (0.0, 0.5, 0.99):
                for kind in ("flat", "integer", "geometric", "zeros", "random"):
                    val, p = theory.program_optimum(_weights(kind, k, [7.5, 4.0, 4.0, 1.25, 0.0]), n, lam)
                    digest.update(np.float64(val).tobytes() + p.tobytes())
    return digest.hexdigest()


def test_program_optimum_bits_are_pinned():
    assert _program_grid_digest() == PROGRAM_GRID_SHA256


def test_program_optimum_bits_hold_under_python_312_sum(monkeypatch):
    # From Python 3.12 the builtin sum compensates float sums; the
    # objective adds left to right, so the pin holds there too.
    oracles.install_py312_sum(monkeypatch)
    assert _program_grid_digest() == PROGRAM_GRID_SHA256


def test_program_optimum_peak_memory_at_k_128():
    # The (points x window) tables hold about 2k^3 entries; built and scanned
    # in blocks of points, with int32 predecessors, k = 128 peaks near 37 MB
    # (121 MB when they were built whole).
    tracemalloc.start()
    try:
        theory.program_optimum([2.0 ** (-j / 8) for j in range(128)], 10, 0.25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 60e6


def test_exact_subset_avoidance_probability():
    assert Fraction(*theory.exact_no_large_elements(4, 2)) == Fraction(1, 6)
    assert Fraction(*theory.exact_no_large_elements(4, 1)) == Fraction(0)
    for n in range(1, 25):
        for k in range(1, n + 1):
            pair = theory.exact_no_large_elements(n, k)
            assert len(pair) == 2 and all(type(x) is int for x in pair)
            assert Fraction(*pair) <= Fraction(*theory.INV_E_UPPER)


def test_order_stat_bound_check():
    cases = [(6, 3), (4, 1), (12, 4)]
    for d in builtin_families():
        res = theory.check_lemma_main(d, cases)
        assert res.passed, (d.descriptor, res.detail)
        # The detail names the worst case and the largest cross-check
        # difference, relative to the top-k sum.
        at, rel = res.detail.split(" max rel diff=")
        assert at in {"n=6 k=3", "n=4 k=1", "n=12 k=4"}
        assert 0.0 <= float(rel) <= 1e-9
        assert ", " not in res.detail


def test_lemma_main_cross_check_catches_a_1e6_quadrature_error(monkeypatch):
    # A relative error of 1e-6 in every order statistic is far inside the
    # lemma's slack, so only the cross-check can see it.
    exact = order_statistics.expected_order_stat
    monkeypatch.setattr(order_statistics, "expected_order_stat", lambda d, j, t: exact(d, j, t) * (1.0 + 1e-6))
    monkeypatch.setattr(order_statistics, "_CACHE", {})
    rows = theory.run_checks(["lemma_main"])
    assert len(rows) == 5
    for r in rows:
        assert not r.passed, r.row()
        assert "cross-check" in r.detail and r.worst_margin == pytest.approx(-1e-6, rel=1e-6)


def test_lemma_main_cross_check_on_a_support_of_both_signs():
    # On Uniform(-1, 1) the top-n sum is 0: divided by its own size, the
    # cross-check's roundoff read 0.53 at n = k = 4.  The scale
    # sum_j |t_j - t_(j-1)| of the top-k sums t cannot cancel.
    res = theory.check_lemma_main(Uniform(-1.0, 1.0), theory.LEMMA_MAIN_CASES)
    assert res.passed, res.row()
    assert float(res.detail.split(" max rel diff=")[1]) <= 1e-14
    # Uniform(-3, -1) fails the lemma itself, whose (1 - 1/e) factor needs
    # nonnegative values, and passes the cross-check.
    res = theory.check_lemma_main(Uniform(-3.0, -1.0), theory.LEMMA_MAIN_CASES)
    assert not res.passed and res.worst_margin < -1.0
    assert "cross-check" not in res.detail and float(res.detail.split(" max rel diff=")[1]) <= 1e-14


def test_regularity_check_passes_and_its_control_fails():
    for d in builtin_families():
        r = theory.check_regularity(d, d.lambda_claimed)
        assert r.passed, (d.descriptor, r.worst_margin)
    [control] = theory.REGISTRY["negcontrol_regularity"]()
    assert control.passed and control.worst_margin < -0.1
    # Pareto(2) has (1-F)/f = v/2, so the margin (lam - 1/2) v falls by
    # (lam - 1/2) max dv at the widest grid step, over a scale of
    # (lam + 1/2) v_max: -0.3267 at lam = 0.25.
    v = theory._quantile_grid(Pareto(2.0, 1.0))
    closed_form = (0.25 - 0.5) * np.diff(v).max() / ((0.25 + 0.5) * v.max())
    assert control.worst_margin == pytest.approx(closed_form, rel=1e-9)
    assert control.worst_margin == pytest.approx(-0.3267, abs=1e-4)


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


@pytest.mark.parametrize(
    "dist, lam, prices",
    [
        ("pareto:2:1", 0.5, [1e8, 1e12]),
        ("exp:1", 0.0, [30.0, 40.0, 100.0]),
        ("weibull:1:2", 0.0, [5.0, 6.0, 7.0]),
        ("pareto:1.1:1", 1 / 1.1, [1e3, 1e6, 1e9, 1e12, 1e15]),
        ("pareto:1.01:1", 1 / 1.01, [1e3, 1e6, 1e9, 1e12, 1e15]),
    ],
)
def test_tau_check_deep_in_the_tail(dist, lam, prices):
    # Taken as 1 - cdf, the survivals here cancel to few digits or to 0:
    # each price then failed falsely, raised NonMonotone, or gave 0/0, which
    # the worst-case loop skipped to pass with no case named.
    d = parse_distribution(dist)
    for p in prices:
        res = theory.check_monopolist_tau(d, lam, [p])
        assert res.passed and math.isfinite(res.worst_margin), (p, res.row())
        assert res.detail == f"p={p:.6g}"


def test_claim1_check():
    for d in builtin_families():
        res = theory.check_claim1(d)
        assert res.passed, d.descriptor


class _NaNAt(Exponential):
    """Exponential(1) whose survival is NaN at one point."""

    def __init__(self, bad):
        super().__init__(1.0)
        self.bad = bad

    def survival(self, v):
        return np.where(np.asarray(v) == self.bad, np.nan, super().survival(v))


def test_claim1_fails_at_a_nan_survival():
    # u_j for n = 8, j = 3 is E[max of 3 draws] of Exponential(1).
    d = _NaNAt(expected_rank(Exponential(1.0), 1, 3))
    res = theory.check_claim1(d, ns=(8,))
    assert not res.passed
    assert math.isnan(res.worst_margin)
    assert res.detail == "n=8 j=3"


def test_worst_case_takes_the_first_minimum_and_fails_on_nan():
    assert theory._worst("x", [(1.0, "a"), (0.5, "b"), (0.5, "c")], 0.0).row() == "x, 0.5, b, True"
    assert theory._worst("x", [(-1.0, "a"), (math.nan, "b"), (math.nan, "c")], 0.0).row() == "x, nan, b, False"
    assert theory._worst("x", [(0.0, "a"), (-1e-7, "b")], 1e-6).row() == "x, -1e-07, b, True"


def _perfbench_verify():
    """perfbench/verify.py, which uses the standard library only, loaded by path."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "verify.py"
    spec = importlib.util.spec_from_file_location("perfbench_verify", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_registry_runs_and_controls_flip():
    rows = {name: theory.run_checks([name]) for name in theory.REGISTRY}
    # The benchmark counts a registry entry without its mapped row as failed.
    for entry, row_name in _perfbench_verify().CHECK_ROWS.items():
        assert row_name in {r.name for r in rows[entry]}, (entry, row_name)
    for r in (r for results in rows.values() for r in results):
        assert r.passed, (r.name, r.detail)
    with pytest.raises(KeyError):
        theory.run_checks(["nope"])
