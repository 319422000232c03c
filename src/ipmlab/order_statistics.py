"""Order statistics of i.i.d. draws: expectations and tail probabilities.

Ranks are counted from the top: rank 1 is the largest of t draws.
"""

from __future__ import annotations

import math
import operator
from functools import reduce

import numpy as np

from .distributions import Distribution
from .errors import NonIntegrable, QuadratureFailure

# Nodes and weights of the 20-point Gauss-Legendre rule on [-1, 1]: the bits of
# numpy.polynomial.legendre.leggauss(20), which is symmetric bit for bit, written
# out so that importing ipmlab does not load numpy.polynomial.
_GL_POSITIVE_NODES = np.array([
    0.07652652113349734, 0.22778585114164507, 0.37370608871541955, 0.5108670019508271,
    0.636053680726515, 0.7463319064601508, 0.8391169718222188, 0.912234428251326,
    0.9639719272779138, 0.993128599185095,
])
_GL_POSITIVE_WEIGHTS = np.array([
    0.15275338713072628, 0.14917298647260424, 0.1420961093183824, 0.1316886384491769,
    0.1181945319615186, 0.1019301198172407, 0.08327674157670471, 0.06267204833410879,
    0.040601429800386446, 0.017614007139150893,
])
_GL_NODES = np.concatenate((-_GL_POSITIVE_NODES[::-1], _GL_POSITIVE_NODES))
_GL_WEIGHTS = np.concatenate((_GL_POSITIVE_WEIGHTS[::-1], _GL_POSITIVE_WEIGHTS))
# Relative error allowed in the rule's moments of S with known exact values.
SELF_CHECK_RTOL = 1e-9
# Step and first node in t of the tanh-sinh rule of `top_k_sums`.
_TS_STEP = 1.0 / 16.0
_TS_START = -4.0


def expected_order_stat(d: Distribution, j: int, t: int) -> float:
    """E of the j-th largest of t i.i.d. draws, to 1e-9 relative accuracy.

    By Renyi's representation the j-th largest draw is
    ``d.tail_quantile(S)``, where S is the j-th largest of t standard
    exponentials: S = sum_(i=j..t) E_i / i with E_i i.i.d. Exp(1), of density
    g(s) = C (1 - e^-s)^(t-j) e^(-j s), mean H_t - H_(j-1) and variance
    sum_(i>=j) 1/i^2.  The expectation is a composite 20-point Gauss-Legendre
    rule in y = log s over mean +- 40 sd, widened on the right until the
    integrand's tail, which falls like e^(-(j - tail_growth) s), has decayed
    by e^-46, on panels of width at most min(1/2, sd/mean) in y.  Against
    closed forms (exp, uniform, Pareto shapes 1.01 to 10) it is within
    1e-14 relative at t <= 256.  The same nodes integrate g, s g and
    e^(tail_growth s) g, whose exact values are 1, the mean and
    prod_(i=j..t) i / (i - tail_growth); a miss of 1e-9 relative raises
    QuadratureFailure.

    Terms whose value is exact before they are computed are skipped, with
    every bit of the result kept: the factor (1 - e^-s)^(t-j) when j = t,
    the binomial sum in C when j = 1 or j = t (C = t), and, when
    tail_growth = 0, the exact tilted moment (1) and the factor e^(0 s) in
    its integrand.  All three moments are still integrated and compared.
    """
    if not 1 <= j <= t:
        raise ValueError(f"need 1 <= j <= t, got j={j}, t={t}")
    growth = d.tail_growth
    if j <= growth:
        raise NonIntegrable(f"E[v^({j},{t})] diverges for {d.descriptor}")
    inv = 1.0 / np.arange(j, t + 1, dtype=float)
    mean = float(inv.sum())
    sd = math.sqrt(float(np.square(inv).sum()))
    tilted_exact = math.exp(-float(np.log1p(-growth * inv).sum())) if growth else 1.0
    # C = t binom(t-1, m) with m = min(j-1, t-j), summed term by term: lgamma(t + 1)
    # alone would carry an absolute error of about 1e-16 t log t.
    m = min(j - 1, t - j)
    log_c = math.log(t)
    if m:
        log_c += float(np.log(np.arange(t - m, t) / np.arange(1.0, m + 1)).sum())
    # Near 0, s g(s) <= C s^(t-j+1); start where that bound is below e^-50.
    lo = max(mean - 40.0 * sd, math.exp((-50.0 - log_c) / (t - j + 1)))
    hi = mean + 40.0 * sd + 46.0 / (j - growth)
    y_lo, y_hi = math.log(lo), math.log(hi)
    panels = math.ceil((y_hi - y_lo) / min(0.5, sd / mean))
    half = 0.5 * (y_hi - y_lo) / panels
    y = ((y_lo + half * (2 * np.arange(panels) + 1))[:, None] + half * _GL_NODES).ravel()
    s = np.exp(y)
    rule = (half * _GL_WEIGHTS)[None].repeat(panels, 0).ravel()
    # log of s g(s): g times the Jacobian of s = e^y.
    if t > j:
        log_sg = log_c + (t - j) * np.log(-np.expm1(-s)) - j * s + y
    else:
        log_sg = log_c - j * s + y
    sg = np.exp(log_sg)
    w = sg * rule
    result, keep, tail = _quantile_weighted_sum(d, s, w, lambda i: log_sg[i] + np.log(rule[i]))
    # Nodes where Q overflows count in the e^(tail_growth s) moment too, which
    # shows whether the tail was integrated.
    tilted_sg = np.exp(log_sg + growth * s) if growth else sg
    tilted = float(tilted_sg[keep] @ rule[keep])
    if tail.size:
        tilted += float(tilted_sg[tail] @ rule[tail])
    s, w = s[keep], w[keep]
    checks = (
        (float(w.sum()), 1.0),
        (float(w @ s), mean),
        (tilted, tilted_exact),
    )
    if not math.isfinite(result) or any(abs(got - want) > SELF_CHECK_RTOL * want for got, want in checks):
        raise QuadratureFailure(f"order-statistic expectation failed its self-check for {d.descriptor}")
    return float(result)


def _quantile_weighted_sum(d: Distribution, s, w, log_w):
    """Sum over the nodes s of w Q, with Q = ``d.tail_quantile(s)``; a 2-D
    ``w``, one row per node, gives one sum per column.

    A node adds w Q where Q is finite, or nothing where its weight
    underflowed to 0 (inf * 0 would be NaN).  Where Q overflows, deep in a
    heavy tail, it adds e^(log w + log Q) instead, which need not be small
    even where w underflowed; ``log_w(tail)`` gives log w at those nodes
    alone.  Returns the sum, an index of the nodes that added w Q (a slice,
    and no copy, when that is every node) and the nodes where Q overflowed.
    """
    with np.errstate(over="ignore"):
        q = np.asarray(d.tail_quantile(s), dtype=float)
    finite = q != np.inf
    weighted = w > 0.0 if w.ndim == 1 else (w > 0.0).any(axis=1)
    added = finite & weighted
    if added.all():
        return q @ w, slice(None), _NO_NODES
    keep = np.flatnonzero(added)
    tail = np.flatnonzero(~finite)
    total = q[keep] @ w[keep]
    if tail.size:
        log_q = d.log_tail_quantile(s[tail]).reshape((-1,) + (1,) * (w.ndim - 1))
        total = total + np.exp(log_w(tail) + log_q).sum(axis=0)
    return total, keep, tail


# The overflow nodes when there are none.
_NO_NODES = np.empty(0, dtype=np.intp)


# Keyed on the descriptor, which names the family and its exact parameters.
_CACHE: dict[tuple[str, int, int], float] = {}


def expected_rank(d: Distribution, j: int, t: int) -> float:
    """Cached E[v^(j,t)]; rank 1 is what every posted price is built from."""
    key = (d.descriptor, j, t)
    if key not in _CACHE:
        _CACHE[key] = expected_order_stat(d, j, t)
    return _CACHE[key]


def sum_left(xs) -> float:
    """The floats ``xs`` added left to right from 0.0, the bits that the
    builtin `sum` gives up to Python 3.11; from 3.12 it compensates float
    sums and can end an ulp away."""
    return reduce(operator.add, xs, 0.0)


def top_k_welfare(d: Distribution, n: int, k: int, etas=None) -> float:
    """Expected (weighted) sum of the top-k order statistics of n draws.

    With no weights this is the welfare benchmark, n E[v] in closed form
    when every draw counts (k = n); with weights it is
    sum_j eta_j E[v^(j,n)].
    """
    if etas is None:
        if k == n:
            return n * d.mean()
        etas = [1.0] * k
    return float(sum_left(eta * expected_rank(d, j + 1, n) for j, eta in enumerate(etas)))


def top_k_sums(d: Distribution, n: int) -> np.ndarray:
    """E[sum_(j<=k) v^(j,n)] for k = 1..n, by another formula and another
    rule than `expected_order_stat`; the two share only the summation of
    weighted quantiles.

    A draw at quantile u is among the top k of n when at most k - 1 of the
    other n - 1 beat it, so the sum is
    n int_0^1 Q(u) P[Bin(n - 1, 1 - u) <= k - 1] du.  The rule is tanh-sinh
    with step 1/16 in t, where s = -log(1 - u) = log1p(e^(pi sinh t)): Q is
    ``d.tail_quantile(s)``, and u is never rounded to 1.  t starts at -4
    (u about 6e-38) and ends where s reaches 46/(1 - tail_growth) + 50, past
    which the integrand, falling like e^(-(1 - tail_growth) s), has decayed
    by more than e^-46.  One pass over the nodes serves every k: a node's
    binomial pmf is taken in log space, and its cumulative sum is
    P[Bin <= k - 1] for every k.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    s_max = 46.0 / (1.0 - d.tail_growth) + 50.0
    nodes = math.ceil((math.asinh(s_max / math.pi) - _TS_START) / _TS_STEP) + 1
    t = _TS_START + _TS_STEP * np.arange(nodes)
    x = math.pi * np.sinh(t)
    s = np.logaddexp(0.0, x)
    # log of h n du/dt, with du/dt = pi cosh(t) e^x / (1 + e^x)^2.
    log_jac = math.log(_TS_STEP * n * math.pi) + np.log(np.cosh(t)) + x - 2.0 * s
    # log C(n-1, i), i = 0..n-1, summed term by term.
    log_binom = np.concatenate(([0.0], np.cumsum(np.log(np.arange(n - 1.0, 0.0, -1.0) / np.arange(1.0, n)))))
    # Column i: i of the other n - 1 draws beat the node, each with chance e^-s.
    i = np.arange(n)
    log_w = log_jac[:, None] + log_binom - s[:, None] * i + np.log(-np.expm1(-s))[:, None] * (n - 1 - i)
    w = np.cumsum(np.exp(log_w), axis=1)
    total, _, _ = _quantile_weighted_sum(d, s, w, lambda tail: np.logaddexp.accumulate(log_w[tail], axis=1))
    return total


def max_tail_probability(d: Distribution, t: int, x):
    """P[v^(1,t) >= x] = 1 - F(x)^t, the chance that the max of t draws
    reaches x, as -expm1(t log1p(-S(x))) with S = ``d.survival``: no
    cancellation deep in the tail.  Vectorized over x.

    At x = E[v^(1,t)] this is at least c(lambda) for a lambda-regular family,
    since the max of i.i.d. lambda-regular draws is itself lambda-regular.
    """
    with np.errstate(divide="ignore"):  # S(x) = 1 below the support
        return -np.expm1(t * np.log1p(-d.survival(x)))
