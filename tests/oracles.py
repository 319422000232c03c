"""Scalar reference implementations the tests check the production code
against: one market or one intermediary at a time, in plain loops.

The batched engines in `ipmlab.simulation`, the closed forms in
`ipmlab.agents` and `ipmlab.order_statistics` and the lattice DP
`ipmlab.theory.program_optimum` are the production paths; nothing outside
the tests calls these.  The hazard apparatus (h, r_lambda,
Gamma_lambda) is here too: the regularity tests use it, the package does not.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy import integrate, stats

from ipmlab.agents import BehaviorModel, Kind, menu_purchase_dp
from ipmlab.distributions import Distribution, c_of_lambda, virtual_value
from ipmlab.errors import OutOfSupport, QuadratureFailure
from ipmlab.mechanisms import Menu
from ipmlab.order_statistics import top_k_welfare
from ipmlab.theory import program_objective


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


def competition_welfare(d: Distribution, n: int, k: int, threshold: float) -> float:
    """Exact expected welfare of a uniform price under `competition`: each
    buyer valued at or above the threshold asks for a unit and a uniform
    lottery serves k of the asks.  A buyer who asks is served with
    probability min(1, k / (1 + B)), B ~ Bin(n - 1, q) the other asks and
    q = 1 - F(threshold), whatever its value, so
    E[W] = n E[v 1{v >= threshold}] E[min(1, k / (1 + B))]."""
    lo = max(threshold, d.support.lo)
    head = integrate.quad(lambda v: v * float(d.pdf(v)), lo, d.support.hi, epsabs=1e-13, epsrel=1e-11, limit=200)[0]
    others = np.arange(n)
    served = np.minimum(1.0, k / (1.0 + others))
    return n * head * float(stats.binom.pmf(others, n - 1, float(d.survival(threshold))) @ served)


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
        f_p = 1.0 - float(d.survival(p))
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
    mask = np.zeros((menu.k, 1), dtype=bool)
    mask[list(available), 0] = True
    taken, pick = menu_purchase_dp(menu.etas, menu.rs, mask, np.append(vals[order], 0.0)[:, None])
    items = [int(j) for j in np.flatnonzero(taken[:, 0])]
    # With one row, pick[j, 0] is the rank of item j's buyer (len(vals): none).
    assignment = {int(order[pick[j, 0]]): j for j in items if pick[j, 0] < len(vals)}
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
        f_v = 1.0 - float(d.survival(v))
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
    return float(d.pdf(v)) / float(d.survival(v))


def generalized_hazard(d: Distribution, lam: float, v):
    """r_lam(v) = h(v) / (1-F(v))^lam; nondecreasing iff lambda-regular."""
    v = np.asarray(v, dtype=float)
    return d.pdf(v) / np.power(d.survival(v), 1.0 + lam)


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
    return float(val), abs(recon - float(d.survival(v)))


def first_order_stat_cdf(d: Distribution, t: int, v) -> float:
    """CDF of the max of t i.i.d. draws: F(v)^t."""
    if t < 1:
        raise ValueError("sample size must be >= 1")
    return np.power(1.0 - d.survival(v), t)


def sample_order_stats(d: Distribution, t: int, rng_seed) -> np.ndarray:
    """t i.i.d. draws via inverse transform, sorted descending."""
    if t < 1:
        raise ValueError("sample size must be >= 1")
    return np.sort(np.asarray(d.quantile(_rng(rng_seed).random(t)), dtype=float))[::-1]


# ---------------------------------------------------------------------------
# Theory


def program_vertex_optimum(rs, n: int, lam: float):
    """Exact maximizer of sum r_j exp(-n p_j) over the feasible polytope.

    The objective is convex, so the max sits at a vertex; with k <= 5 and 3k
    constraint rows, enumerating all C(3k, k) candidate tight sets is cheap
    and gives a certified global optimum.
    """
    k = len(rs)
    c = c_of_lambda(lam)
    rows = []
    for s in range(1, k + 1):
        a = np.zeros(k)
        a[:s] = n
        rows.append((a, s * c / 2.0))
    for j in range(k):
        lo = np.zeros(k)
        lo[j] = 1.0
        rows.append((lo, 0.0))
        hi = np.zeros(k)
        hi[j] = -1.0
        rows.append((hi, -1.0))
    best_val = -math.inf
    best_p = None
    for comb in itertools.combinations(range(len(rows)), k):
        A = np.array([rows[i][0] for i in comb])
        b = np.array([rows[i][1] for i in comb])
        try:
            p = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            continue
        if any(a @ p < bb - 1e-9 for a, bb in rows):
            continue
        val = program_objective(rs, p, n)
        if val > best_val:
            best_val, best_p = val, p
    return best_val, np.asarray(best_p)


def _program_descent_oracle(rs, n: int, lam: float, starts: int = 20, seed: int = 0):
    """Secondary oracle: projected coordinate descent from random starts.

    Each coordinate is pushed to its minimal feasible value (the objective is
    decreasing coordinate-wise), so fixed points are coordinate-wise minimal
    feasible vectors; we keep the best fixed point seen.
    """
    k = len(rs)
    c = c_of_lambda(lam)
    need = c / (2.0 * n)
    rng = np.random.default_rng(seed)
    best_val = -math.inf
    best_p = None
    for _ in range(starts):
        p = rng.uniform(0.0, min(1.0, k * need), size=k)
        for _ in range(200):
            moved = False
            for j in range(k):
                req = 0.0
                for s in range(j + 1, k + 1):
                    req = max(req, s * need - (p[:s].sum() - p[j]))
                req = min(max(req, 0.0), 1.0)
                if abs(req - p[j]) > 1e-14:
                    p[j] = req
                    moved = True
            if not moved:
                break
        val = program_objective(rs, p, n)
        if val > best_val:
            best_val, best_p = val, p.copy()
    return best_val, best_p


def _program_grid_oracle(rs, n: int, lam: float, step: float = 1e-3):
    """Exhaustive grid for k <= 3 over p_j in [0, k c/(2n)] (larger p only
    hurts the objective beyond the last prefix constraint)."""
    k = len(rs)
    if k > 3:
        raise ValueError("grid oracle is for k <= 3")
    c = c_of_lambda(lam)
    cap = min(1.0, k * c / (2.0 * n))
    axis = np.arange(0.0, cap + step, step)
    # r_j exp(-n p) per axis point, the floats program_objective sums; one
    # slab over the last two coordinates per value of the first (k = 3), in
    # itertools.product order, so argmax keeps the first maximum.
    terms = [np.array([r * math.exp(-p * n) for p in axis]) for r in rs]
    tail = np.meshgrid(*[np.arange(len(axis))] * min(k, 2), indexing="ij")
    best_val = -math.inf
    best_p = None
    for head in itertools.product(range(len(axis)), repeat=k - len(tail)):
        prefix = val = 0.0
        ok = True
        for s, (i, term) in enumerate(zip([*head, *tail], terms), start=1):
            prefix = prefix + axis[i]
            ok = ok & (n * prefix >= s * c / 2.0 - 1e-12)
            val = val + term[i]
        val = np.where(ok, val, -math.inf)
        pos = np.unravel_index(int(np.argmax(val)), val.shape)
        if val[pos] > best_val:
            best_val = float(val[pos])
            best_p = axis[[*head, *pos]]
    return best_val, best_p
