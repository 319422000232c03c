import math
import pathlib
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ipmlab.distributions import (
    Exponential,
    Pareto,
    TruncatedEqualRevenue,
    Uniform,
    Weibull,
    builtin_families,
    c_of_lambda,
    g_lambda,
    generalized_virtual_margin,
    inverse_virtual_value,
    parse_distribution,
    virtual_value,
)
from ipmlab.errors import DomainError, OutOfRange, ParseError
from ipmlab.theory import _quantile_grid, check_regularity

from oracles import gamma_h_representation, gamma_lambda, generalized_hazard, hazard


FAMILIES = builtin_families()


@pytest.mark.parametrize("d", FAMILIES, ids=lambda d: d.descriptor)
def test_cdf_quantile_roundtrip(d):
    us = np.linspace(1e-6, 1 - 1e-6, 200)
    xs = d.quantile(us)
    back = d.cdf(xs)
    assert np.allclose(back, us, atol=1e-9)


@pytest.mark.parametrize("d", FAMILIES + [Uniform(-2.0, 3.0), Weibull(1.5, 2.0)], ids=lambda d: d.descriptor)
def test_quantile_in_place_is_bit_exact(d):
    # The simulator maps its draw buffer in place: `out=` must not move a bit.
    u = np.random.default_rng(5).random((64, 33))
    u[0, :4] = [0.0, 0.5, 1.0 - 2.0**-53, 2.0**-60]
    want = d.quantile(u)
    buf = np.empty_like(u)
    assert d.quantile(u, out=buf) is buf
    assert buf.tobytes() == want.tobytes()
    assert d.quantile(u, out=u) is u
    assert u.tobytes() == want.tobytes()
    scalar = d.quantile(0.3)
    assert isinstance(scalar, np.float64)
    assert scalar == d.quantile(np.array([0.3]))[0]


@pytest.mark.parametrize("d", FAMILIES, ids=lambda d: d.descriptor)
def test_pdf_matches_cdf_derivative(d):
    us = np.linspace(0.05, 0.95, 31)
    xs = np.asarray(d.quantile(us), dtype=float)
    h = 1e-6 * np.maximum(1.0, np.abs(xs))
    num = (d.cdf(xs + h) - d.cdf(xs - h)) / (2 * h)
    assert np.allclose(num, d.pdf(xs), rtol=1e-4, atol=1e-8)


def test_parse_descriptors_roundtrip():
    for d in FAMILIES:
        again = parse_distribution(d.descriptor)
        assert again.descriptor == d.descriptor
        assert type(again) is type(d)


# Descriptors of every family the parser accepts, across its legal range.
PARSEABLE = st.one_of(
    st.sampled_from([d.descriptor for d in FAMILIES]),
    st.floats(1e-3, 1e3).map(lambda r: f"exp:{r!r}"),
    st.tuples(st.floats(-1e3, 1e3), st.floats(1e-3, 1e3)).map(lambda p: f"uniform:{p[0]!r}:{p[0] + p[1]!r}"),
    st.tuples(st.floats(1e-2, 1e2), st.floats(1.0, 8.0)).map(lambda p: f"weibull:{p[0]!r}:{p[1]!r}"),
    st.tuples(st.floats(1.0, 8.0, exclude_min=True), st.floats(1e-2, 1e2)).map(lambda p: f"pareto:{p[0]!r}:{p[1]!r}"),
    st.integers(2, 10_000).map(lambda n: f"ter:{n}"),
)


@given(text=PARSEABLE)
@settings(max_examples=150, deadline=None)
def test_descriptor_rebuilds_exact_parameters(text):
    d = parse_distribution(text)
    again = parse_distribution(d.descriptor)
    assert type(again) is type(d)
    assert vars(again) == vars(d)


def test_descriptor_keeps_every_digit():
    assert Exponential(1.0000004).descriptor == "exp:1.0000004"
    assert [Exponential(1.0).descriptor, Pareto(2.0, 1.0).descriptor, Pareto(3.0, 1.0).descriptor] == [
        "exp:1", "pareto:2:1", "pareto:3:1"]


@given(text=PARSEABLE)
@settings(max_examples=100, deadline=None)
def test_regularity_certificates_for_parseable_families(text):
    d = parse_distribution(text)
    res = check_regularity(d, d.lambda_claimed)
    assert res.passed, (d.descriptor, res.worst_margin)


def test_parse_rejects_garbage():
    # weibull shape < 1: the hazard falls like v^(shape-1), so the virtual
    # value decreases near 0 and no lambda <= 1 holds.
    for bad in ("", "exp", "exp:a", "nope:1", "pareto:1:1", "uniform:1:0", "weibull:1:0.5"):
        with pytest.raises((ParseError, ValueError)):
            parse_distribution(bad)


def test_means():
    assert Exponential(2.0).mean() == pytest.approx(0.5)
    assert Uniform(0, 1).mean() == pytest.approx(0.5)
    assert Pareto(2.0, 1.0).mean() == pytest.approx(2.0)
    assert Weibull(1.0, 2.0).mean() == pytest.approx(math.gamma(1.5))
    n = 100
    assert TruncatedEqualRevenue(n).mean() == pytest.approx(n / (n - 1) * math.log(n))


def test_pareto_infinite_mean_rejected():
    with pytest.raises((ParseError, ValueError)):
        Pareto(1.0, 1.0)


def test_hazard_exponential_constant():
    d = Exponential(3.0)
    for x in np.linspace(0.1, 5, 20):
        assert hazard(d, float(x)) == pytest.approx(3.0)


def test_virtual_value_closed_forms():
    # Exponential(1): phi(v) = v - 1; Uniform[0,1]: phi(v) = 2v - 1.
    assert virtual_value(Exponential(1.0), 2.5) == pytest.approx(1.5)
    assert virtual_value(Uniform(0, 1), 0.75) == pytest.approx(0.5)
    # Pareto(2,1): phi(v) = v/2.
    assert virtual_value(Pareto(2.0, 1.0), 4.0) == pytest.approx(2.0)


@pytest.mark.parametrize("d", FAMILIES, ids=lambda d: d.descriptor)
def test_virtual_value_is_the_margin_at_lambda_one(d):
    grid = _quantile_grid(d)
    assert np.array_equal(virtual_value(d, grid), generalized_virtual_margin(d, 1.0, grid))
    v = float(grid[200])
    assert virtual_value(d, v) == float(generalized_virtual_margin(d, 1.0, v))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("d", FAMILIES + [Uniform(-2.0, 3.0), Weibull(1.5, 3.0)], ids=lambda d: d.descriptor)
def test_cdf_and_pdf_vanish_below_the_support(d):
    # exp:1 once read cdf(-1) = -1.718 and pdf(-1) = 2.718, weibull:1:2
    # cdf(-1) = 0.632.
    v = d.support.lo - np.array([1e-9, 0.5, 1.0, 50.0])
    assert np.all(d.cdf(v) == 0.0) and np.all(d.pdf(v) == 0.0)


@pytest.mark.parametrize(
    "d, v, exact",
    [(Exponential(1.0), 40.0, math.exp(-40.0)), (Exponential(2.0), 300.0, math.exp(-600.0)),
     (Weibull(1.0, 2.0), 7.0, math.exp(-49.0)), (Weibull(2.0, 3.0), 16.0, math.exp(-512.0)),
     (Exponential(1.0), -1.0, 1.0), (Weibull(1.0, 2.0), -1.0, 1.0)],
)
def test_infinite_tails_have_exact_survivals(d, v, exact):
    # 1 - cdf is 0 at each tail point here.
    assert float(d.survival(v)) == pytest.approx(exact, rel=1e-13, abs=0.0)


def test_only_the_base_survival_subtracts_the_cdf_from_one():
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "ipmlab"
    pattern = re.compile(r"\b1(\.0)?\s*-\s*[\w.()\[\]]*cdf\(")
    hits = [
        f"{path.name}:{i}"
        for path in sorted(src.glob("*.py"))
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert len(hits) == 1 and hits[0].startswith("distributions.py:"), hits
    assert "return 1.0 - self.cdf(v)" in (src / "distributions.py").read_text()


def test_inverse_virtual_value_closed_forms():
    assert inverse_virtual_value(Exponential(1.0), 0.0) == pytest.approx(1.0, abs=1e-8)
    assert inverse_virtual_value(Uniform(0, 1), 0.0) == pytest.approx(0.5, abs=1e-8)
    assert inverse_virtual_value(Pareto(2.0, 1.0), 3.0) == pytest.approx(6.0, rel=1e-8)


def test_inverse_virtual_value_out_of_range():
    with pytest.raises(OutOfRange):
        inverse_virtual_value(Uniform(0, 1), 2.0)


@given(p=st.floats(0.0, 3.0))
@settings(max_examples=40, deadline=None)
def test_inverse_virtual_value_inverts(p):
    d = Exponential(1.0)
    v = inverse_virtual_value(d, p)
    assert virtual_value(d, v) == pytest.approx(p, abs=1e-7)


@given(shape=st.sampled_from([4.0, 1.25, 1.1, 1.05, 1.01]), c=st.floats(1.0, 1e4))
@example(shape=1.01, c=1467.116066253632)
@settings(max_examples=60, deadline=None)
def test_pareto_virtual_value_inverts_deep_in_the_tail(shape, c):
    # phi(v) = v (1 - 1/shape) on v > 1, so every c >= 1 has a root, which
    # near shape 1 lies far out, where 1 - F(v) is tiny: phi must come from
    # the survival function, not from 1 - cdf, to be pinned within rtol.
    d = Pareto(shape, 1.0)
    v = inverse_virtual_value(d, c)
    assert abs(virtual_value(d, v) - c) <= 1e-9 * c


def test_regularity_certificates_for_builtins():
    for d in FAMILIES:
        res = check_regularity(d, d.lambda_claimed)
        assert res.passed, (d.descriptor, res.worst_margin)


def test_regularity_rejects_heavy_tail_as_mhr():
    res = check_regularity(Pareto(2.0, 1.0), 0.0)
    assert not res.passed


def test_c_of_lambda_values_and_monotone():
    assert c_of_lambda(0.0) == pytest.approx(1 / math.e)
    assert c_of_lambda(0.5) == pytest.approx(0.25)
    assert c_of_lambda(1.0) == 0.0
    grid = np.linspace(0, 1, 100)
    vals = [c_of_lambda(x) for x in grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    with pytest.raises(DomainError):
        c_of_lambda(1.5)


@pytest.mark.parametrize("lam", [0.0, 0.25, 0.5, 1.0])
def test_g_lambda_convex_increasing(lam):
    xs = np.linspace(0.0, 0.999, 500)
    ys = np.asarray(g_lambda(lam, xs), dtype=float)
    assert np.all(np.diff(ys) > 0)
    assert np.all(np.diff(ys, 2) >= -1e-9)
    assert g_lambda(lam, 0.0) == pytest.approx(0.0)


def test_g_lambda_log_limit():
    xs = np.linspace(0.0, 0.99, 50)
    near = np.asarray(g_lambda(1e-9, xs), dtype=float)
    exact = -np.log1p(-xs)
    assert np.allclose(near, exact, rtol=1e-6)


def test_gamma_lambda_inverts_g():
    for lam in (0.0, 0.3, 1.0):
        for x in (0.1, 0.5, 0.9):
            u = float(g_lambda(lam, x))
            assert float(gamma_lambda(lam, u)) == pytest.approx(1 - x, rel=1e-10)


def test_generalized_hazard_monotone_for_builtins():
    for d in FAMILIES:
        xs = np.asarray(d.quantile(np.linspace(0.01, 0.99, 200)), dtype=float)
        r = np.asarray(generalized_hazard(d, d.lambda_claimed, xs), dtype=float)
        assert np.all(np.diff(r) >= -1e-7 * np.maximum(1.0, np.abs(r[:-1])))


@pytest.mark.parametrize("d", FAMILIES, ids=lambda d: d.descriptor)
def test_hazard_representation_reconstructs_survival(d):
    v = float(d.quantile(0.7))
    _, err = gamma_h_representation(d, d.lambda_claimed, v)
    assert err < 1e-6


def test_truncated_equal_revenue_shape():
    n = 100
    d = TruncatedEqualRevenue(n)
    # Per-item revenue x (1 - F(x)) = (n - x)/(n - 1): at most 1 everywhere.
    xs = np.linspace(1.0, 99.0, 40)
    rev = xs * (1 - np.asarray(d.cdf(xs)))
    assert np.allclose(rev, (n - xs) / (n - 1), rtol=1e-10)
    assert np.all(rev <= 1.0 + 1e-12)
    assert float(d.cdf(100.0)) == 1.0
