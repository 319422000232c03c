"""Order statistics of i.i.d. draws: expectations and tail probabilities.

Ranks are counted from the top: rank 1 is the largest of t draws.
"""

from __future__ import annotations

import math

import numpy as np

from .distributions import Distribution
from .errors import NonIntegrable, QuadratureFailure

# Nodes and weights of the 20-point Gauss-Legendre rule on [-1, 1].
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)
# Relative error allowed in the rule's moments of S with known exact values.
SELF_CHECK_RTOL = 1e-9


def expected_order_stat(d: Distribution, j: int, t: int) -> float:
    """E of the j-th largest of t i.i.d. draws, to 1e-9 relative accuracy.

    By Renyi's representation the j-th largest draw is
    ``d.tail_quantile(S)``, where S is the j-th largest of t standard
    exponentials: S = sum_(i=j..t) E_i / i with E_i i.i.d. Exp(1), of density
    g(s) = C (1 - e^-s)^(t-j) e^(-j s), mean H_t - H_(j-1) and variance
    sum_(i>=j) 1/i^2.  The expectation is a composite 20-point Gauss-Legendre
    rule in y = log s over mean +- 40 sd, widened on the right until the
    integrand's tail, which falls like e^(-(j - tail_growth) s), has decayed
    by e^-46.  The same nodes integrate g, s g and e^(tail_growth s) g, whose
    exact values are 1, the mean and prod_(i=j..t) i / (i - tail_growth); a
    miss of 1e-9 relative raises QuadratureFailure.
    """
    if not 1 <= j <= t:
        raise ValueError(f"need 1 <= j <= t, got j={j}, t={t}")
    growth = d.tail_growth
    if j <= growth:
        raise NonIntegrable(f"E[v^({j},{t})] diverges for {d.descriptor}")
    inv = 1.0 / np.arange(j, t + 1, dtype=float)
    mean = float(inv.sum())
    sd = math.sqrt(float(np.square(inv).sum()))
    tilted_exact = math.exp(-float(np.log1p(-growth * inv).sum()))
    # C = t binom(t-1, m) with m = min(j-1, t-j), summed term by term: lgamma(t + 1)
    # alone would carry an absolute error of about 1e-16 t log t.
    m = min(j - 1, t - j)
    log_c = math.log(t) + float(np.log(np.arange(t - m, t) / np.arange(1.0, m + 1)).sum())
    # Near 0, s g(s) <= C s^(t-j+1); start where that bound is below e^-50.
    lo = max(mean - 40.0 * sd, math.exp((-50.0 - log_c) / (t - j + 1)))
    hi = mean + 40.0 * sd + 46.0 / (j - growth)
    y_lo, y_hi = math.log(lo), math.log(hi)
    panels = math.ceil((y_hi - y_lo) / min(0.125, sd / (4.0 * mean)))
    half = 0.5 * (y_hi - y_lo) / panels
    y = ((y_lo + half * (2 * np.arange(panels) + 1))[:, None] + half * _GL_NODES).ravel()
    s = np.exp(y)
    rule = np.tile(half * _GL_WEIGHTS, panels)
    # log of s g(s): g times the Jacobian of s = e^y.
    log_sg = log_c + (t - j) * np.log(-np.expm1(-s)) - j * s + y
    w = np.exp(log_sg) * rule
    # A node where Q is finite adds w Q, or nothing where its weight
    # underflowed to 0 (inf * 0 would be NaN).  Where Q overflows, deep in a
    # heavy tail, the node adds e^(log_sg + log Q) instead, which need not be
    # small even where w underflowed; those nodes also count in the
    # e^(tail_growth s) moment, which shows whether the tail was integrated.
    with np.errstate(over="ignore"):
        q = np.asarray(d.tail_quantile(s), dtype=float)
    finite = q != np.inf
    keep = np.flatnonzero(finite & (w > 0.0))
    result = float(w[keep] @ q[keep])
    tilted = float(np.exp(log_sg[keep] + growth * s[keep]) @ rule[keep])
    if not finite.all():
        tail = np.flatnonzero(~finite)
        result += float(np.exp(log_sg[tail] + d.log_tail_quantile(s[tail])) @ rule[tail])
        tilted += float(np.exp(log_sg[tail] + growth * s[tail]) @ rule[tail])
    s, w = s[keep], w[keep]
    checks = (
        (float(w.sum()), 1.0),
        (float(w @ s), mean),
        (tilted, tilted_exact),
    )
    if not math.isfinite(result) or any(abs(got - want) > SELF_CHECK_RTOL * want for got, want in checks):
        raise QuadratureFailure(f"order-statistic expectation failed its self-check for {d.descriptor}")
    return result


# Keyed on the descriptor, which names the family and its exact parameters.
_CACHE: dict[tuple[str, int, int], float] = {}


def expected_rank(d: Distribution, j: int, t: int) -> float:
    """Cached E[v^(j,t)]; rank 1 is what every posted price is built from."""
    key = (d.descriptor, j, t)
    if key not in _CACHE:
        _CACHE[key] = expected_order_stat(d, j, t)
    return _CACHE[key]


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
    return float(sum(eta * expected_rank(d, j + 1, n) for j, eta in enumerate(etas)))


def tail_probability_vs_mean(d: Distribution, t: int) -> float:
    """P[v^(1,t) >= E[v^(1,t)]] evaluated analytically.

    For a lambda-regular family this is at least c(lambda), since the max of
    i.i.d. lambda-regular draws is itself lambda-regular.
    """
    m = expected_rank(d, 1, t)
    return float(-np.expm1(t * np.log(np.clip(d.cdf(m), 0.0, 1.0))))
