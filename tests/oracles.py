"""Scalar reference implementations the tests check the production code
against: one market or one intermediary at a time, in plain loops.

The batched engines in `ipmlab.simulation` and the closed forms in
`ipmlab.agents` and `ipmlab.order_statistics` are the production paths;
nothing outside the tests calls these.  The hazard apparatus (h, r_lambda,
Gamma_lambda) is here too: the regularity tests use it, the package does not.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy import integrate, stats

from ipmlab.agents import BehaviorModel, Kind, menu_purchase_dp
from ipmlab.distributions import Distribution, virtual_value
from ipmlab.errors import OutOfSupport, QuadratureFailure
from ipmlab.mechanisms import Menu
from ipmlab.order_statistics import top_k_welfare


def _rng(rng_seed) -> np.random.Generator:
    return rng_seed if isinstance(rng_seed, np.random.Generator) else np.random.default_rng(rng_seed)


# ---------------------------------------------------------------------------
# Mechanisms


def ipm_allocate(requests, k: int, price: float, rng_seed):
    """Serve unit requests at the posted price, rationing by uniform lottery.

    Each requested unit is one lottery ticket; if total demand exceeds k,
    exactly k tickets win, uniformly without replacement.  Returns
    (served, revenue) with served = {intermediary: units} for nonzero units.
    """
    requests = [int(q) for q in requests]
    if any(q < 0 for q in requests):
        raise ValueError("requests must be nonnegative")
    if sum(requests) <= k:
        counts = requests
    else:
        owners = np.repeat(np.arange(len(requests)), requests)
        winners = _rng(rng_seed).choice(owners, size=k, replace=False)
        counts = np.bincount(winners, minlength=len(requests)).tolist()
    served = {idx: cnt for idx, cnt in enumerate(counts) if cnt}
    return served, sum(cnt * price for cnt in served.values())


def kplus1_auction(valuations, k: int, reserve: float):
    """(k+1)-th price auction with reserve: top bidders clearing the reserve
    win and pay max(reserve, (k+1)-th highest bid).  Returns (allocation,
    payments, revenue, welfare) with allocation = {winner: 1} and payments
    = {winner: price}."""
    if reserve < 0:
        raise ValueError("reserve must be nonnegative")
    vals = np.asarray(valuations, dtype=float)
    order = np.argsort(-vals, kind="stable")
    winners = [int(i) for i in order if vals[i] >= reserve][:k]
    pay = max(vals[order[k]] if len(vals) > k else 0.0, reserve)
    welfare = sum((float(vals[i]) for i in winners), 0.0)
    return {i: 1 for i in winners}, {i: pay for i in winners}, pay * len(winners), welfare


def sequential_menu_sale(menu: Menu, groups, valuations, order):
    """Offer the menu to each intermediary in turn; sold items disappear.

    ``groups`` maps intermediary -> list of buyer indices; ``order`` is a
    permutation of intermediaries.  Each intermediary buys its exact surplus
    optimum over the still-available items.  Returns (allocation, revenue,
    welfare) with allocation = {buyer: item}.
    """
    valuations = np.asarray(valuations, dtype=float)
    available = list(range(menu.k))
    allocation = {}
    revenue = welfare = 0.0
    for ell in order:
        if not available:
            break
        buyers = groups[ell]
        purchase, assignment, _ = surplus_max_menu_purchase(menu, available, valuations[buyers])
        revenue += float(sum(menu.rs[j] for j in purchase))
        for local_i, j in assignment.items():
            allocation[buyers[local_i]] = j
            welfare += menu.etas[j] * valuations[buyers[local_i]]
        available = [j for j in available if j not in purchase]
    return allocation, revenue, welfare


def bundle_price_monopsony(d: Distribution, n: int, k: int, mode: str = "mean",
                           reps: int = 100_000, rng_seed: int = 0) -> float:
    """Bundle price for a single intermediary holding all n buyers.

    ``mean`` prices at the expected sum of the top-k order statistics;
    ``grid_optimal`` maximizes p * (1 - Ghat(p)) over an empirical CDF of
    the bundle value (the empirical revenue curve is piecewise linear
    between samples, so the maximizer is a sample point).
    """
    if mode == "mean":
        return top_k_welfare(d, n, k)
    if mode != "grid_optimal":
        raise ValueError(f"unknown mode {mode!r}")
    if reps < 10_000:
        raise ValueError("grid_optimal needs reps >= 10_000")
    draws = np.asarray(d.quantile(_rng(rng_seed).random((reps, n))), dtype=float)
    top = -np.partition(-draws, k - 1, axis=1)[:, :k] if k < n else draws
    bundle = np.sort(top.sum(axis=1))
    # p = bundle[i] sells to the reps - i samples at or above it.
    revenue = bundle * (reps - np.arange(reps)) / reps
    return float(bundle[int(np.argmax(revenue))])


# ---------------------------------------------------------------------------
# Intermediaries


def uniform_price_purchases(model: BehaviorModel, d: Distribution, price: float, valuations) -> int:
    """Number of units the intermediary requests at a uniform per-item price."""
    if price < 0:
        raise ValueError("price must be nonnegative")
    vals = np.asarray(valuations, dtype=float)
    if model.kind is Kind.MONOPOLIST:
        return int(np.sum(virtual_value(d, vals) >= price))
    # Alpha-bargaining rescales the payoff split, not the argmax.
    return int(np.sum(vals >= price))


def estimate_tau(model: BehaviorModel, d: Distribution, price_grid,
                 reps: int = 200_000, rng_seed: int = 0) -> float:
    """Monte Carlo min over the grid of P[buy | v >= p]: 1 for pass-through
    models; for the monopolist, v is sampled conditioned on v >= p and the
    virtual values clearing p are counted (`agents.monopolist_tau_analytic`
    is the closed form)."""
    if reps < 100_000:
        raise ValueError("need reps >= 100_000 for a stable estimate")
    if model.kind is not Kind.MONOPOLIST:
        return 1.0
    rng = np.random.default_rng(rng_seed)
    worst = 1.0
    for p in price_grid:
        f_p = float(d.cdf(p))
        v = np.asarray(d.quantile(f_p + (1.0 - f_p) * rng.random(reps)), dtype=float)
        worst = min(worst, float(np.mean(virtual_value(d, v) >= p)))
    return worst


def surplus_max_menu_purchase(menu: Menu, available, valuations):
    """One intermediary's purchase through `menu_purchase_dp`.

    Returns (purchase set, {buyer index -> item}, surplus); ties resolve to
    the larger set, then the lexicographically smallest item tuple.
    """
    vals = np.asarray(valuations, dtype=float)
    order = np.argsort(-vals, kind="stable")
    mask = np.zeros((1, menu.k), dtype=bool)
    mask[0, list(available)] = True
    taken, slot = menu_purchase_dp(menu.etas, menu.rs, mask, vals[order][None, :])
    items = [int(j) for j in np.flatnonzero(taken[0])]
    assignment = {int(order[slot[0, j]]): j for j in items if slot[0, j] < len(vals)}
    gross = sum(vals[b] * menu.etas[j] for b, j in assignment.items())
    return set(items), assignment, float(gross - sum(menu.rs[j] for j in items))


def brute_force_menu_purchase(menu: Menu, available, valuations):
    """Enumerate every purchase set and every injective assignment of
    purchased items to buyers.  Exponential; small cases only."""
    available = sorted(available)
    vals = np.asarray(valuations, dtype=float)
    nb = len(vals)
    best_surplus = 0.0
    best = (set(), {})
    for size in range(len(available) + 1):
        for items in itertools.combinations(available, size):
            cost = float(sum(menu.rs[j] for j in items))
            take = min(len(items), nb)
            for chosen in itertools.permutations(range(nb), take):
                for placed in itertools.combinations(items, take):
                    surplus = sum(vals[b] * menu.etas[j] for b, j in zip(chosen, placed)) - cost
                    if surplus > best_surplus + 1e-12:
                        best_surplus = surplus
                        best = (set(items), dict(zip(chosen, placed)))
    return best[0], best[1], float(best_surplus)


def demand_set(menu: Menu, valuations):
    """Lowest-indexed item each buyer can 'afford' by the u_j thresholds:
    B(i) = min{ j : v_i >= u_j }, or None below u_k."""
    return [next((j for j in range(menu.k) if v >= menu.us[j]), None) for v in valuations]


# ---------------------------------------------------------------------------
# Order statistics and the generalized hazard


def quad_order_stat(d: Distribution, j: int, t: int) -> float:
    """E[v^(j,t)] as the integral of v times the density of the j-th largest
    of t draws, C F^(t-j) (1-F)^(j-1) f, by adaptive quadrature in value
    space.  The pieces end at the values where a Beta(t-j+1, j) variable,
    the order statistic's F, has its quantiles 1e-15 .. 1-1e-15."""
    log_c = math.lgamma(t + 1) - math.lgamma(t - j + 1) - math.lgamma(j)

    def integrand(v):
        f_v = float(d.cdf(v))
        if f_v <= 0.0 or (f_v >= 1.0 and j > 1):
            return 0.0
        log_p = (t - j) * math.log(f_v) + ((j - 1) * math.log1p(-f_v) if j > 1 else 0.0)
        return v * math.exp(log_c + log_p) * float(d.pdf(v))

    levels = stats.beta(t - j + 1, j).ppf([1e-15, 1e-6, 0.01, 0.5, 0.99, 1 - 1e-6, 1 - 1e-15])
    with np.errstate(divide="ignore"):
        inner = sorted(float(x) for x in d.quantile(levels) if math.isfinite(x))
    # Pieces narrower than 1e-9 relative hold no weight that matters, and
    # quad cannot subdivide them.
    edges = [d.support.lo]
    for x in inner:
        gap = 1e-9 * max(1.0, abs(x))
        if x - edges[-1] > gap and d.support.hi - x > gap:
            edges.append(x)
    edges.append(d.support.hi)
    return math.fsum(
        integrate.quad(integrand, a, b, epsabs=1e-15, epsrel=1e-11, limit=200)[0]
        for a, b in zip(edges, edges[1:])
    )


def hazard(d: Distribution, v: float) -> float:
    """Hazard rate f(v) / (1 - F(v)) at an interior point."""
    if not d.support.interior(v):
        raise OutOfSupport(f"{v} not in the interior of {d.descriptor} support")
    return float(d.pdf(v)) / (1.0 - float(d.cdf(v)))


def generalized_hazard(d: Distribution, lam: float, v):
    """r_lam(v) = h(v) / (1-F(v))^lam; nondecreasing iff lambda-regular."""
    v = np.asarray(v, dtype=float)
    surv = 1.0 - d.cdf(v)
    return d.pdf(v) / np.power(surv, 1.0 + lam)


def gamma_lambda(lam: float, u):
    """Gamma_lam(u) = (1 + lam*u)^(-1/lam); exp(-u) at lam = 0."""
    u = np.asarray(u, dtype=float)
    if lam == 0.0:
        return np.exp(-u)
    return np.power(1.0 + lam * u, -1.0 / lam)


def gamma_h_representation(d: Distribution, lam: float, v: float) -> tuple[float, float]:
    """Cumulative generalized hazard H_lam(v) plus the reconstruction error.

    H_lam(v) = int_{v_lo}^{v} r_lam, and for a lambda-regular family
    Gamma_lam(H_lam(v)) must reproduce the survival function 1 - F(v).
    """
    if not d.support.interior(v) and v != d.support.lo:
        raise OutOfSupport(f"{v} not inside {d.descriptor} support")
    if v == d.support.lo:
        return 0.0, 0.0
    val, err = integrate.quad(lambda z: float(generalized_hazard(d, lam, z)), d.support.lo, v, limit=200)
    if not math.isfinite(val) or err > 1e-8 * max(1.0, abs(val)):
        raise QuadratureFailure(f"H integral did not converge for {d.descriptor} at v={v}")
    recon = float(gamma_lambda(lam, val))
    return float(val), abs(recon - (1.0 - float(d.cdf(v))))


def first_order_stat_cdf(d: Distribution, t: int, v) -> float:
    """CDF of the max of t i.i.d. draws: F(v)^t."""
    if t < 1:
        raise ValueError("sample size must be >= 1")
    return np.power(d.cdf(v), t)


def sample_order_stats(d: Distribution, t: int, rng_seed) -> np.ndarray:
    """t i.i.d. draws via inverse transform, sorted descending."""
    if t < 1:
        raise ValueError("sample size must be >= 1")
    return np.sort(np.asarray(d.quantile(_rng(rng_seed).random(t)), dtype=float))[::-1]
