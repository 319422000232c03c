"""Monte Carlo market simulator.

Replicates are processed in fixed-size batches; each batch derives its RNG
from (master_seed, batch_index), so results are bit-identical no matter how
many worker threads run the batches.  Batch partial sums are combined in
batch order.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import agents
from .distributions import Distribution, c_of_lambda, inverse_virtual_value
from .mechanisms import Menu, build_menu, ipm_price, optimal_item_price
from .order_statistics import top_k_welfare

BATCH_SIZE = 8192

MECHANISMS = ("ipm", "het_ipm", "kplus1", "bundle", "item_price")


@dataclass(frozen=True)
class Scenario:
    d: Distribution
    n: int
    k: int
    structure: agents.DemandStructure
    model: agents.BehaviorModel
    mechanism: str = "ipm"
    etas: tuple | None = None  # present => heterogeneous weights
    reps: int = 100_000
    master_seed: int = 0
    scenario_id: str = ""
    order_policy: str = "random"  # intermediary order in the sequential sale
    epsilon: float | None = None  # bundle price slack: p = n (E[v] - eps)

    def __post_init__(self):
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if not 1 <= self.k <= self.n:
            raise ValueError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        if self.mechanism not in MECHANISMS:
            raise ValueError(f"unknown mechanism {self.mechanism!r}")
        if self.mechanism == "het_ipm" and self.etas is None:
            raise ValueError("het_ipm needs item weights")
        if self.order_policy not in ("random", "fixed"):
            raise ValueError(f"unknown order policy {self.order_policy!r}")

    @property
    def label(self) -> str:
        return self.scenario_id or (
            f"{self.mechanism}-{self.d.descriptor}-n{self.n}k{self.k}-"
            f"{self.structure.descriptor}-{self.model.descriptor}"
        )


@dataclass
class SimulationReport:
    scenario: Scenario
    mean_revenue: float
    ci95_revenue: float
    mean_welfare: float
    ci95_welfare: float
    analytic_welfare: float
    ratio: float
    bound: float | None
    passed: bool | None
    extra: dict = field(default_factory=dict)

    def csv_row(self) -> str:
        s = self.scenario
        bound = "" if self.bound is None else f"{self.bound:.12g}"
        passed = "" if self.passed is None else str(self.passed)
        return ", ".join(
            [
                s.label,
                s.d.descriptor,
                f"{s.d.lambda_claimed:.12g}",
                str(s.n),
                str(s.k),
                s.structure.descriptor,
                s.model.descriptor,
                s.mechanism,
                str(s.reps),
                f"{self.mean_revenue:.12g}",
                f"{self.ci95_revenue:.12g}",
                f"{self.mean_welfare:.12g}",
                f"{self.analytic_welfare:.12g}",
                f"{self.ratio:.12g}",
                bound,
                passed,
            ]
        )


CSV_HEADER = (
    "scenario_id, dist, lambda, n, k, structure, model, mechanism, reps, "
    "mean_rev, ci95, mean_wel, analytic_wel, ratio, bound, passed"
)


def worker_count() -> int:
    """IPMLAB_THREADS, capped at the CPU count; 1 when unset or malformed."""
    try:
        wanted = int(os.environ.get("IPMLAB_THREADS", ""))
    except ValueError:
        return 1
    return max(1, min(wanted, os.cpu_count() or 1))


def theoretical_bound(s: Scenario) -> float | None:
    """Revenue/welfare guarantee matching the scenario's mechanism."""
    lam = s.d.lambda_claimed
    c = c_of_lambda(lam)
    if s.mechanism == "ipm":
        tau = c if s.model.kind is agents.Kind.MONOPOLIST else 1.0
        factor = c if s.n % s.k == 0 else c / 2.0
        return tau * factor * (1.0 - 1.0 / math.e)
    if s.mechanism == "het_ipm":
        return (1.0 - math.exp(-c / 2.0)) * (1.0 - 1.0 / math.e)
    return None


def _draw(s: Scenario, batch_idx: int, size: int):
    """A batch's (size, n) valuations, from stream 0 of its seed, and the
    generator on stream 1 that the engines use for rationing and orders."""
    draw = np.random.default_rng(np.random.SeedSequence((s.master_seed, batch_idx, 0)))
    aux = np.random.default_rng(np.random.SeedSequence((s.master_seed, batch_idx, 1)))
    return np.asarray(s.d.quantile(draw.random((size, s.n))), dtype=float), aux


def _batches(reps: int):
    start = 0
    idx = 0
    while start < reps:
        size = min(BATCH_SIZE, reps - start)
        yield idx, size
        idx += 1
        start += size


# ---------------------------------------------------------------------------
# Homogeneous uniform-price engine (also backs `item_price`)


def _uniform_price_batch(s: Scenario, groups, price: float, threshold: float, batch_idx: int, size: int):
    v, aux = _draw(s, batch_idx, size)
    m = len(groups)
    qualify = v >= threshold
    q = np.empty((size, m), dtype=np.int64)
    for ell, idxs in enumerate(groups):
        q[:, ell] = qualify[:, idxs].sum(axis=1)
    total = q.sum(axis=1)
    served = q.copy()
    over = total > s.k
    if np.any(over):
        rows = np.where(over)[0]
        remaining_pop = total[rows].copy()
        remaining_k = np.full(len(rows), s.k, dtype=np.int64)
        for ell in range(m):
            good = q[rows, ell]
            bad = remaining_pop - good
            take = aux.hypergeometric(np.maximum(good, 0), np.maximum(bad, 0), remaining_k)
            served[rows, ell] = take
            remaining_pop -= good
            remaining_k -= take
    units = served.sum(axis=1)
    revenue = price * units
    welfare = np.zeros(size)
    for ell, idxs in enumerate(groups):
        if len(idxs) == 1:
            welfare += np.where(served[:, ell] > 0, v[:, idxs[0]], 0.0)
            continue
        vals = np.sort(v[:, idxs], axis=1)[:, ::-1]
        csum = np.cumsum(vals, axis=1)
        cnt = served[:, ell]
        welfare += np.where(cnt > 0, np.take_along_axis(csum, np.maximum(cnt - 1, 0)[:, None], axis=1)[:, 0], 0.0)
    return _sums(revenue, welfare)


# ---------------------------------------------------------------------------
# Sequential menu engine (heterogeneous items)


# Rows per block of the menu sale: the DP's arrays stay in cache and the
# engine's peak memory stays at the uniform-price engine's level.
MENU_BLOCK = 1024


def _menu_batch(s: Scenario, groups, menu: Menu, batch_idx: int, size: int):
    """Sequential menu sale for a batch, in blocks of rows: at each step
    every row offers its remaining items to its next intermediary, whose
    purchase comes from the O(k b) DP of `agents.menu_purchase_dp` over the
    block's rows at once (ties to the larger set, then the lexicographically
    smallest).  Revenue and welfare accumulate per step in ascending item
    order."""
    v, aux = _draw(s, batch_idx, size)
    m = len(groups)
    if s.order_policy == "random":
        orders = np.argsort(aux.random((size, m)), axis=1)
    else:
        orders = np.tile(np.arange(m), (size, 1))
    revenue, welfare = np.empty((2, size))
    for lo in range(0, size, MENU_BLOCK):
        block = slice(lo, lo + MENU_BLOCK)
        revenue[block], welfare[block] = _menu_sale(menu, groups, v[block], orders[block])
    return _sums(revenue, welfare)


def _menu_sale(menu: Menu, groups, v: np.ndarray, orders: np.ndarray):
    """Per-row revenue and welfare of the sequential menu sale on valuation
    rows ``v``, visiting intermediaries in the order of ``orders``."""
    size, m = orders.shape
    width = max(len(idxs) for idxs in groups)
    # Group values sorted descending, zero-padded; the extra zero column is
    # the value of an item bought unassigned (slot == width).
    sorted_vals = np.zeros((size, m, width + 1))
    for ell, idxs in enumerate(groups):
        sorted_vals[:, ell, : len(idxs)] = np.sort(v[:, idxs], axis=1)[:, ::-1]
    rows = np.arange(size)
    available = np.ones((size, menu.k), dtype=bool)
    revenue = np.zeros(size)
    welfare = np.zeros(size)
    for step in range(m):
        if not available.any():
            break
        w = sorted_vals[rows, orders[:, step]]
        taken, slot = agents.menu_purchase_dp(menu.etas, menu.rs, available, w[:, :width])
        for j in range(menu.k):
            revenue += np.where(taken[:, j], menu.rs[j], 0.0)
            welfare += np.where(taken[:, j], menu.etas[j] * w[rows, slot[:, j]], 0.0)
        available &= ~taken
    return revenue, welfare


# ---------------------------------------------------------------------------
# Benchmark engines


def _group_tops(v: np.ndarray, groups, k: int):
    """Each group's top min(k, |group|) values, unordered; a group that fits
    whole comes back as its own columns."""
    for idxs in groups:
        g = v[:, idxs]
        take = min(k, len(idxs))
        yield g if take == len(idxs) else -np.partition(-g, take - 1, axis=1)[:, :take]


def _kplus1_batch(s: Scenario, groups, reserve: float, batch_idx: int, size: int):
    v, _ = _draw(s, batch_idx, size)
    # Each intermediary bids its top min(k, |group|) buyer values.
    bids = np.sort(np.concatenate(list(_group_tops(v, groups, s.k)), axis=1), axis=1)[:, ::-1]
    nb = bids.shape[1]
    winners = np.minimum((bids >= reserve).sum(axis=1), s.k)
    floor = bids[:, s.k] if nb > s.k else np.zeros(size)
    pay = np.maximum(floor, reserve)
    revenue = winners * pay
    csum = np.cumsum(bids, axis=1)
    welfare = np.where(winners > 0, np.take_along_axis(csum, np.maximum(winners - 1, 0)[:, None], axis=1)[:, 0], 0.0)
    return _sums(revenue, welfare)


def _bundle_batch(s: Scenario, groups, price: float, batch_idx: int, size: int):
    v, _ = _draw(s, batch_idx, size)
    # Each intermediary values the bundle at its top min(k, |group|) buyers.
    value = np.empty((size, len(groups)))
    for ell, top in enumerate(_group_tops(v, groups, s.k)):
        value[:, ell] = top.sum(axis=1)
    accept = value >= price
    any_accept = accept.any(axis=1)
    first = np.argmax(accept, axis=1)
    revenue = np.where(any_accept, price, 0.0)
    welfare = np.where(any_accept, value[np.arange(size), first], 0.0)
    return _sums(revenue, welfare)


def _sums(revenue: np.ndarray, welfare: np.ndarray):
    return (
        float(revenue.sum()),
        float(np.square(revenue).sum()),
        float(welfare.sum()),
        float(np.square(welfare).sum()),
        int(np.sum(revenue > welfare + 1e-9)),
    )


# ---------------------------------------------------------------------------
# Scenario runner


def _batch_fn(s: Scenario):
    groups = s.structure.groups()
    if s.mechanism in ("ipm", "item_price"):
        if s.mechanism == "ipm":
            price = ipm_price(s.d, s.n, s.k)
        else:
            price, _ = optimal_item_price(s.d)
        threshold = agents.purchase_threshold(s.model, s.d, price)
        return lambda b, sz: _uniform_price_batch(s, groups, price, threshold, b, sz), {"price": price}
    if s.mechanism == "het_ipm":
        menu = build_menu(s.d, s.n, s.etas)
        return lambda b, sz: _menu_batch(s, groups, menu, b, sz), {"menu": menu}
    if s.mechanism == "kplus1":
        reserve = inverse_virtual_value(s.d, 0.0)
        return lambda b, sz: _kplus1_batch(s, groups, reserve, b, sz), {"reserve": reserve}
    if s.mechanism == "bundle":
        if s.epsilon is not None:
            price = s.n * (s.d.mean() - s.epsilon)
        else:
            price = top_k_welfare(s.d, s.n, s.k)
        return lambda b, sz: _bundle_batch(s, groups, price, b, sz), {"price": price}
    raise AssertionError(s.mechanism)


def run_scenario(s: Scenario) -> SimulationReport:
    """Simulate the scenario and compare mean revenue to the analytic
    welfare benchmark and the matching theoretical bound."""
    fn, extra = _batch_fn(s)
    jobs = list(_batches(s.reps))
    threads = worker_count()
    if threads > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(lambda j: fn(*j), jobs))
    else:
        parts = [fn(b, sz) for b, sz in jobs]
    # Combine in batch order so the result is independent of scheduling.
    rev_sum = rev_sq = wel_sum = wel_sq = 0.0
    violations = 0
    for p in parts:
        rev_sum += p[0]
        rev_sq += p[1]
        wel_sum += p[2]
        wel_sq += p[3]
        violations += p[4]
    reps = s.reps
    mean_rev = rev_sum / reps
    mean_wel = wel_sum / reps
    var_rev = max(rev_sq / reps - mean_rev**2, 0.0)
    var_wel = max(wel_sq / reps - mean_wel**2, 0.0)
    ci_rev = 1.96 * math.sqrt(var_rev / reps)
    ci_wel = 1.96 * math.sqrt(var_wel / reps)
    if s.mechanism == "het_ipm":
        analytic = top_k_welfare(s.d, s.n, len(s.etas), s.etas)
    else:
        analytic = top_k_welfare(s.d, s.n, s.k)
    ratio = mean_rev / analytic if analytic > 0 else 0.0
    bound = theoretical_bound(s)
    passed: bool | None = None
    if bound is not None and reps >= 10_000:
        ci_ratio = ci_rev / analytic
        passed = ratio >= bound - 2.0 * ci_ratio
    extra = dict(extra)
    extra["pointwise_rev_gt_wel"] = violations
    return SimulationReport(
        scenario=s,
        mean_revenue=mean_rev,
        ci95_revenue=ci_rev,
        mean_welfare=mean_wel,
        ci95_welfare=ci_wel,
        analytic_welfare=analytic,
        ratio=ratio,
        bound=bound,
        passed=passed,
        extra=extra,
    )


def robustness_sweep(base: Scenario, structures) -> list[SimulationReport]:
    """Run the same mechanism across demand structures with common random
    numbers (same master seed => same valuation draws per batch)."""
    if not structures:
        raise ValueError("structures must be nonempty")
    reports = []
    prices = []
    for st in structures:
        sc = replace(base, structure=st)
        rep = run_scenario(sc)
        if base.mechanism == "ipm":
            prices.append(rep.extra["price"])
        reports.append(rep)
    if prices and not all(p == prices[0] for p in prices):
        raise AssertionError("uniform posted price must not depend on the demand structure")
    return reports


def ln_gap_experiment(n: int, reps: int = 50_000, seed: int = 0):
    """Item pricing vs bundle pricing under monopsony for the
    truncated-equal-revenue family with n buyers and n items.

    Item pricing earns at most ~n in total; the bundle priced at half the
    expected total value is accepted with probability >= 3/4, so the
    bundle/item gap grows like ln n.
    """
    from .distributions import TruncatedEqualRevenue

    if n <= 55:
        raise ValueError("the separation argument needs n > e^4 ~ 55")
    d = TruncatedEqualRevenue(n)
    _, per_buyer = optimal_item_price(d)
    item_revenue = n * per_buyer
    bundle_price = (n * n * math.log(n)) / (2.0 * (n - 1.0))
    rng = np.random.default_rng(seed)
    accept = 0
    done = 0
    while done < reps:
        size = min(BATCH_SIZE, reps - done)
        v = np.asarray(d.quantile(rng.random((size, n))), dtype=float)
        accept += int(np.sum(v.sum(axis=1) >= bundle_price))
        done += size
    acceptance = accept / reps
    return item_revenue, bundle_price * acceptance, acceptance
