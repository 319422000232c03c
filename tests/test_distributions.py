import math
import pathlib
import re
import time
import warnings
from fractions import Fraction

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
    inverse_virtual_value,
    parse_distribution,
    virtual_value,
)
from ipmlab.errors import DomainError, OutOfRange, ParseError
from ipmlab.theory import check_regularity

from oracles import gamma_h_representation, gamma_lambda, generalized_hazard, hazard


FAMILIES = builtin_families()


@pytest.mark.parametrize("d", FAMILIES, ids=lambda d: d.descriptor)
def test_cdf_quantile_roundtrip(d):
    # F = 1 - survival undoes the quantile.
    us = np.linspace(1e-6, 1 - 1e-6, 200)
    xs = d.quantile(us)
    assert np.allclose(d.survival(xs), 1.0 - us, atol=1e-9)


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
    # f = F' = -S', by central differences of the survival S.
    us = np.linspace(0.05, 0.95, 31)
    xs = np.asarray(d.quantile(us), dtype=float)
    h = 1e-6 * np.maximum(1.0, np.abs(xs))
    num = (d.survival(xs - h) - d.survival(xs + h)) / (2 * h)
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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("d", FAMILIES + [Uniform(-2.0, 3.0), Weibull(1.5, 3.0)], ids=lambda d: d.descriptor)
def test_cdf_and_pdf_vanish_below_the_support(d):
    # F = 1 - S is 0 there.  exp:1 once read F(-1) = -1.718 and
    # pdf(-1) = 2.718, weibull:1:2 F(-1) = 0.632.
    v = d.support.lo - np.array([1e-9, 0.5, 1.0, 50.0])
    assert np.all(d.survival(v) == 1.0) and np.all(d.pdf(v) == 0.0)


@pytest.mark.parametrize(
    "d, v, exact",
    [(Exponential(1.0), 40.0, math.exp(-40.0)), (Exponential(2.0), 300.0, math.exp(-600.0)),
     (Weibull(1.0, 2.0), 7.0, math.exp(-49.0)), (Weibull(2.0, 3.0), 16.0, math.exp(-512.0)),
     (Exponential(1.0), -1.0, 1.0), (Weibull(1.0, 2.0), -1.0, 1.0)],
)
def test_infinite_tails_have_exact_survivals(d, v, exact):
    # 1 - F, taken by subtraction, is 0 at each tail point here.
    assert float(d.survival(v)) == pytest.approx(exact, rel=1e-13, abs=0.0)


def test_no_module_defines_or_calls_a_cdf():
    # `survival` is each family's one distribution function.
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "ipmlab"
    pattern = re.compile(r"\bdef\s+cdf\b|\bcdf\s*\(")
    hits = [
        f"{path.name}:{i}"
        for path in sorted(src.glob("*.py"))
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert hits == []
    assert not any(hasattr(d, "cdf") for d in FAMILIES)


def test_inverse_virtual_value_closed_forms():
    assert inverse_virtual_value(Exponential(1.0), 0.0) == pytest.approx(1.0, abs=1e-8)
    assert inverse_virtual_value(Uniform(0, 1), 0.0) == pytest.approx(0.5, abs=1e-8)
    assert inverse_virtual_value(Pareto(2.0, 1.0), 3.0) == pytest.approx(6.0, rel=1e-8)


# float.hex of inverse_virtual_value(d, p) for the builtin families, at
# p = 0 and at the prices of the `tau` check, d's quantiles at the levels
# below.  pareto:2:1 and ter:100 have no root at 0.  A change to the
# bracket refinement shows here.
TAU_LEVELS = (0.05, 0.25, 0.5, 0.75, 0.9)
GOLDEN_INVERSE_VIRTUAL_VALUES = {
    ("exp:1", 0): "0x1.0000000000002p+0",
    ("exp:1", 0.05): "0x1.0d218eade60c8p+0",
    ("exp:1", 0.25): "0x1.49a58844d36e6p+0",
    ("exp:1", 0.5): "0x1.b17217f7d1cf9p+0",
    ("exp:1", 0.75): "0x1.317217f7d1cf8p+1",
    ("exp:1", 0.9): "0x1.a6bb1bbb55516p+1",
    ("uniform:0:1", 0): "0x1.0000000000005p-1",
    ("uniform:0:1", 0.05): "0x1.0cccccccccccdp-1",
    ("uniform:0:1", 0.25): "0x1.400000000000fp-1",
    ("uniform:0:1", 0.5): "0x1.7fffffffffff8p-1",
    ("uniform:0:1", 0.75): "0x1.c000000000001p-1",
    ("uniform:0:1", 0.9): "0x1.e66666666665ap-1",
    ("weibull:1:2", 0): "0x1.6a09e667f3bccp-1",
    ("weibull:1:2", 0.05): "0x1.a8a1796d70ef8p-1",
    ("weibull:1:2", 0.25): "0x1.0641532c675b4p+0",
    ("weibull:1:2", 0.5): "0x1.3ca018534b85cp+0",
    ("weibull:1:2", 0.75): "0x1.8240ac9407484p+0",
    ("weibull:1:2", 0.9): "0x1.cbbca526e606cp+0",
    ("pareto:2:1", 0): "OutOfRange",
    ("pareto:2:1", 0.05): "0x1.06a6846c9c167p+1",
    ("pareto:2:1", 0.25): "0x1.279a745903320p+1",
    ("pareto:2:1", 0.5): "0x1.6a09e667f3bd4p+1",
    ("pareto:2:1", 0.75): "0x1.ffffffffffff8p+1",
    ("pareto:2:1", 0.9): "0x1.94c583ada5b58p+2",
    ("ter:100", 0): "OutOfRange",
    ("ter:100", 0.05): "0x1.483a0992d0110p+3",
    ("ter:100", 0.25): "0x1.70e3ce586b2dcp+3",
    ("ter:100", 0.5): "0x1.c24d6bf667ffep+3",
    ("ter:100", 0.75): "0x1.3b4e2ca9e2376p+4",
    ("ter:100", 0.9): "0x1.e4a04341a817ep+4",
}


def test_inverse_virtual_values_match_golden_bits():
    got = {}
    for d in FAMILIES:
        for level in (0, *TAU_LEVELS):
            p = float(d.quantile(level)) if level else 0.0
            try:
                got[d.descriptor, level] = float.hex(inverse_virtual_value(d, p))
            except OutOfRange:
                got[d.descriptor, level] = "OutOfRange"
    assert got == GOLDEN_INVERSE_VIRTUAL_VALUES


def test_inverse_virtual_value_out_of_range():
    with pytest.raises(OutOfRange):
        inverse_virtual_value(Uniform(0, 1), 2.0)


@pytest.mark.parametrize("desc, c, root", [("exp:1", 600.0, 601.0),
                                           ("weibull:1:2", 17.7, (17.7 + math.sqrt(17.7**2 + 2.0)) / 2.0)])
def test_inverse_virtual_value_steps_back_from_an_underflowed_tail(desc, c, root):
    # Doubling the upper end jumps past where survival and pdf both underflow
    # (phi = 0/0 = NaN there), though the root lies before: phi(v) = v - 1
    # for exp:1, v - 1 / (2 v) for weibull:1:2.  No warning escapes.
    d = parse_distribution(desc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = inverse_virtual_value(d, c)
    assert abs(virtual_value(d, v) - c) <= 1e-9 * c
    assert v == pytest.approx(root, rel=1e-12)


def test_inverse_virtual_value_past_the_underflowed_tail():
    # exp:1's phi(v) = v - 1 is a number only up to about v = 745, so c = 800
    # is out of reach: the step back is bounded and raises promptly.
    start = time.perf_counter()
    with pytest.raises(OutOfRange, match="underflows"):
        inverse_virtual_value(parse_distribution("exp:1"), 800.0)
    assert time.perf_counter() - start < 1.0


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


def test_gamma_lambda_inverts_g():
    # g(x) = ((1-x)^-lam - 1)/lam, with the log limit at lam = 0.
    for lam in (0.0, 0.3, 1.0):
        for x in (0.1, 0.5, 0.9):
            u = -math.log1p(-x) if lam == 0.0 else math.expm1(-lam * math.log1p(-x)) / lam
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
    rev = xs * np.asarray(d.survival(xs))
    assert np.allclose(rev, (n - xs) / (n - 1), rtol=1e-10)
    assert np.all(rev <= 1.0 + 1e-12)
    assert float(d.survival(100.0)) == 0.0 and float(d.survival(150.0)) == 0.0


@pytest.mark.parametrize("x", [1.0, 1.5, 50.0, 99.0, 99.99999999, 99.9999999999])
def test_truncated_equal_revenue_survival_is_exact(x):
    # (n/(n-1)) (1/x - 1/n) cancels near x = n: 6.8e-7 relative off at
    # x = 99.99999999 and 5.0e-5 at 99.9999999999.  (n - x)/((n - 1) x)
    # keeps n - x exact there.
    exact = 1 - Fraction(100, 99) * (1 - 1 / Fraction(x))
    assert float(TruncatedEqualRevenue(100).survival(x)) == pytest.approx(float(exact), rel=1e-15, abs=0.0)
