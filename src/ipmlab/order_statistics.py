"""Order statistics of i.i.d. draws: expectations and tail probabilities.

Ranks are counted from the top: rank 1 is the largest of t draws.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate
from scipy.special._ufuncs import _beta_pdf

from .distributions import Distribution, Pareto
from .errors import NonIntegrable, QuadratureFailure


def expected_order_stat(d: Distribution, j: int, t: int) -> float:
    """E of the j-th largest of t i.i.d. draws, to ~1e-6 relative accuracy.

    Rank 1 integrates the survival function of the max; deeper ranks use the
    Beta-weighted quantile integral, which needs only the quantile function
    and stays stable in the upper tail.
    """
    if not 1 <= j <= t:
        raise ValueError(f"need 1 <= j <= t, got j={j}, t={t}")
    if isinstance(d, Pareto) and d.shape <= 1.0:
        raise NonIntegrable(f"E[v^({j},{t})] diverges for {d.descriptor}")
    if j == 1:
        hi = d.truncation_point()
        val, err = integrate.quad(
            lambda x: -np.expm1(t * np.log(np.minimum(F, 1.0))) if (F := d.cdf(x)) > 0 else 1.0,
            d.support.lo,
            hi,
            limit=400,
        )
        # Discarded mass beyond the truncation point contributes at most
        # t * tail quantile width; negligible at the 1e-8 truncation level.
        result = d.support.lo + val
    else:
        # j-th largest of t ~ quantile of a Beta(t-j+1, j) variate; _beta_pdf is the ufunc
        # behind scipy.stats.beta.pdf, without its per-call overhead or the scipy.stats import.
        val, err = integrate.quad(
            lambda u: float(d.quantile(u)) * _beta_pdf(u, t - j + 1, j),
            0.0,
            1.0,
            limit=400,
            points=[0.0, 1.0 - 1e-9],
        )
        result = val
    if not math.isfinite(result) or err > 1e-6 * max(1.0, abs(result)):
        raise QuadratureFailure(f"order-statistic expectation did not converge for {d.descriptor}")
    return float(result)


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

    With no weights this is the welfare benchmark; with weights it is
    sum_j eta_j E[v^(j,n)].
    """
    if etas is None:
        etas = [1.0] * k
    return float(sum(eta * expected_rank(d, j + 1, n) for j, eta in enumerate(etas)))


def tail_probability_vs_mean(d: Distribution, t: int) -> float:
    """P[v^(1,t) >= E[v^(1,t)]] evaluated analytically.

    For a lambda-regular family this is at least c(lambda), since the max of
    i.i.d. lambda-regular draws is itself lambda-regular.
    """
    m = expected_rank(d, 1, t)
    return float(-np.expm1(t * np.log(np.clip(d.cdf(m), 0.0, 1.0))))
