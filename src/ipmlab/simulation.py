"""Monte Carlo market simulator.

Replicates are processed in fixed-size batches; each batch derives its RNG
from (master_seed, batch_index), so results are bit-identical no matter how
many worker threads run the batches.  One driver, `_run_batch`, draws,
allocates and reduces every batch; batch sums and M2s merge in batch order.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import agents
from .distributions import Distribution, c_of_lambda
from .mechanisms import Menu, build_menu, ipm_price, optimal_item_price
from .order_statistics import top_k_welfare

BATCH_SIZE = 8192
# Rows per drawn block: a block's arrays stay in cache and only one block of
# valuations is live per batch.
ROW_BLOCK = 1024

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


def _batches(reps: int):
    start = 0
    idx = 0
    while start < reps:
        size = min(BATCH_SIZE, reps - start)
        yield idx, size
        idx += 1
        start += size


def _run_batch(s: Scenario, block, batch_idx: int, size: int):
    """Draw, allocate and reduce one batch.  Stream 0 of the batch's seed is
    drawn ROW_BLOCK rows at a time into one reused buffer (bit-identical to
    a whole-batch draw: `random` fills rows in order) and mapped to values
    in place, ``block(v, aux)`` gives each block's per-row revenue and
    welfare, with ``aux`` the generator on stream 1, and the batch reduces
    to its partial sums."""
    draw, aux = (np.random.default_rng(np.random.SeedSequence((s.master_seed, batch_idx, stream)))
                 for stream in (0, 1))
    u = np.empty((min(ROW_BLOCK, size), s.n))
    revenue, welfare = np.empty((2, size))
    for lo in range(0, size, ROW_BLOCK):
        ub = draw.random(out=u[: size - lo])
        revenue[lo : lo + ROW_BLOCK], welfare[lo : lo + ROW_BLOCK] = block(s.d.quantile(ub, out=ub), aux)
    return _sums(revenue, welfare)


def _sums(revenue: np.ndarray, welfare: np.ndarray):
    """Each series' sum and its M2 about the batch mean, in two passes over
    the batch's rows, and the rows where revenue exceeds welfare."""
    sums = []
    for x in (revenue, welfare):
        total = float(x.sum())
        sums += [total, float(np.square(x - total / len(x)).sum())]
    return (*sums, int(np.sum(revenue > welfare + 1e-9)))


def _merge(parts, sizes, col: int):
    """Mean and ci95 of one series from its batches' (sum, M2), in batch
    order: the mean from the raw sums, M2 = sum M2_b + n_b (mean_b - mean)^2
    (Chan, Golub & LeVeque 1979)."""
    reps = sum(sizes)
    total = 0.0
    for p in parts:
        total += p[col]
    mean = total / reps
    m2 = 0.0
    for p, size in zip(parts, sizes):
        m2 += p[col + 1] + size * (p[col] / size - mean) ** 2
    return mean, 1.96 * math.sqrt(m2 / reps / reps)


# ---------------------------------------------------------------------------
# Homogeneous uniform-price engine (also backs `item_price`)


def _group_layout(groups):
    """Each column's group, and the groups in size classes [2^j, 2^(j+1)):
    per class its members and a (members, width) index of their columns,
    padded to the class's largest group, with a mask of the padding slots.
    So the padded views hold fewer than 2n values, however unequal the
    groups."""
    sizes = np.array([len(idxs) for idxs in groups])
    group_of = np.empty(sizes.sum(), dtype=np.intp)
    group_of[np.concatenate(groups)] = np.repeat(np.arange(len(groups)), sizes)
    size_class = np.frexp(sizes)[1]
    classes = []
    for c in sorted(set(size_class.tolist())):
        members = np.flatnonzero(size_class == c)
        padding = np.arange(sizes[members].max()) >= sizes[members, None]
        pad = np.zeros(padding.shape, dtype=np.intp)
        pad[~padding] = np.concatenate([groups[ell] for ell in members])
        classes.append((members, pad, padding))
    return group_of, classes


def _sorted_groups(v: np.ndarray, pad: np.ndarray, padding: np.ndarray):
    """Each row's values of a class's groups as (rows, members, width),
    padded with -inf and sorted ascending: one sort for the class.  The copy
    is laid out member by member, each member a contiguous (rows, width)
    block: each sort runs along contiguous memory, and numpy's sum over the
    last two axes in `_rationed_welfare`, whose order follows the layout,
    adds in the order the golden-bits test pins.  For width 1, plain
    indexing already gives that layout, at half the cost."""
    if pad.shape[1] == 1:
        vals = v[:, pad]
    else:
        vals = v[np.arange(len(v))[:, None], pad[:, None, :]].transpose(1, 0, 2)
    vals[:, padding] = -np.inf
    vals.sort(axis=2)
    return vals


def _uniform_price_block(s: Scenario, layout, price: float, threshold: float, v: np.ndarray, aux):
    """Each buyer valued at or above the threshold asks for a unit; past k
    asks, a lottery rations them (`_rationed_welfare`)."""
    qualify = v >= threshold
    total = np.count_nonzero(qualify, axis=1)
    over = total > s.k
    if over.all():  # every row rations: no row copies
        welfare = _rationed_welfare(v, qualify, layout, s.k, aux)
    else:
        welfare = np.einsum("ij,ij->i", v, qualify)
        if over.any():
            welfare[over] = _rationed_welfare(v[over], qualify[over], layout, s.k, aux)
    return price * np.minimum(total, s.k), welfare


def _rationed_welfare(v: np.ndarray, qualify: np.ndarray, layout, k: int, aux):
    """Welfare of rows where more than k buyers qualify.  Every buyer draws
    one uniform key from ``aux`` and qualifiers' keys move down by 1, so the
    k smallest keys pick k qualifiers uniformly without replacement (group
    counts are multivariate hypergeometric); each group serves its top
    values."""
    group_of, classes = layout
    rows, m = len(v), group_of.max() + 1
    keys = aux.random(v.shape)
    keys -= qualify
    cells = group_of[np.argsort(keys, axis=1)[:, :k]] + m * np.arange(rows)[:, None]
    del keys  # free the block-sized keys before the sorts below
    served = np.bincount(cells.ravel(), minlength=rows * m).reshape(rows, m)
    welfare = np.zeros(rows)
    for members, pad, padding in classes:
        vals = _sorted_groups(v, pad, padding)
        vals[np.arange(pad.shape[1]) < pad.shape[1] - served[:, members, None]] = 0.0
        welfare += vals.sum(axis=(1, 2))
    return welfare


# ---------------------------------------------------------------------------
# Sequential menu engine (heterogeneous items)


def _top_values(v: np.ndarray, classes, m: int, width: int):
    """Each group's top `width` values (a purchase has at most k items) as
    (rows, m, width + 1), descending and zero-padded; the extra zero column
    is the value of an item bought unassigned (slot == width).  The sorted
    copies die on return, before the sale runs."""
    out = np.zeros((len(v), m, width + 1))
    for members, pad, padding in classes:
        desc = _sorted_groups(v, pad, padding)[:, :, ::-1][:, :, :width]
        desc[:, padding[:, :width]] = 0.0
        out[:, members, : desc.shape[2]] = desc
    return out


def _menu_block(s: Scenario, layout, menu: Menu, v: np.ndarray, aux):
    """Sequential menu sale: at each step every row offers its remaining
    items to its next intermediary, whose purchase comes from the O(k b) DP
    of `agents.menu_purchase_dp` over the block's rows at once (ties to the
    larger set, then the lexicographically smallest).  Random visit orders
    come from ``aux`` in row order.  Revenue and welfare accumulate per step
    in ascending item order."""
    size, m = len(v), s.structure.m
    if s.order_policy == "random":
        orders = np.argsort(aux.random((size, m)), axis=1)
    else:
        orders = np.tile(np.arange(m), (size, 1))
    _, classes = layout
    width = min(max(pad.shape[1] for _, pad, _ in classes), menu.k)
    sorted_vals = _top_values(v, classes, m, width)
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
    whole comes back as its own columns.  The others are negated and
    partitioned in their own copy, and come back as a view of it."""
    for idxs in groups:
        g = v[:, idxs]
        take = min(k, len(idxs))
        if take < len(idxs):
            np.negative(g, out=g)
            g.partition(take - 1, axis=1)
            g = g[:, :take]
            np.negative(g, out=g)
        yield g


def _kplus1_block(s: Scenario, groups, reserve: float, v: np.ndarray, aux):
    # Each intermediary bids its top min(k, |group|) buyer values; only the
    # top k + 1 bids set the winners and the price.
    # Filled one group at a time, so only one group's copy is live at once.
    nb = sum(min(s.k, len(idxs)) for idxs in groups)
    bids = np.empty((len(v), nb))
    hi = 0
    for top in _group_tops(v, groups, s.k):
        hi += top.shape[1]
        bids[:, hi - top.shape[1] : hi] = top
    cut = max(nb - s.k - 1, 0)
    bids.partition(cut, axis=1)
    bids = np.sort(bids[:, cut:], axis=1)[:, ::-1]
    winners = np.minimum((bids >= reserve).sum(axis=1), s.k)
    floor = bids[:, s.k] if nb > s.k else np.zeros(len(v))
    pay = np.maximum(floor, reserve)
    revenue = winners * pay
    csum = np.cumsum(bids, axis=1)
    welfare = np.where(winners > 0, np.take_along_axis(csum, np.maximum(winners - 1, 0)[:, None], axis=1)[:, 0], 0.0)
    return revenue, welfare


def _bundle_block(s: Scenario, groups, price: float, v: np.ndarray, aux):
    # Each intermediary values the bundle at its top min(k, |group|) buyers.
    value = np.empty((len(v), len(groups)))
    for ell, top in enumerate(_group_tops(v, groups, s.k)):
        value[:, ell] = top.sum(axis=1)
    accept = value >= price
    any_accept = accept.any(axis=1)
    first = np.argmax(accept, axis=1)
    revenue = np.where(any_accept, price, 0.0)
    welfare = np.where(any_accept, value[np.arange(len(v)), first], 0.0)
    return revenue, welfare


# ---------------------------------------------------------------------------
# Scenario runner


def _batch_fn(s: Scenario):
    groups = s.structure.groups()
    layout = _group_layout(groups)
    if s.mechanism in ("ipm", "item_price"):
        if s.mechanism == "ipm":
            price = ipm_price(s.d, s.n, s.k)
        else:
            price, _ = optimal_item_price(s.d)
        threshold = agents.purchase_threshold(s.model, s.d, price)
        return lambda v, aux: _uniform_price_block(s, layout, price, threshold, v, aux), {"price": price}
    if s.mechanism == "het_ipm":
        menu = build_menu(s.d, s.n, s.etas)
        return lambda v, aux: _menu_block(s, layout, menu, v, aux), {"menu": menu}
    if s.mechanism == "kplus1":
        reserve, _ = optimal_item_price(s.d)
        return lambda v, aux: _kplus1_block(s, groups, reserve, v, aux), {"reserve": reserve}
    if s.mechanism == "bundle":
        if s.epsilon is not None:
            price = s.n * (s.d.mean() - s.epsilon)
        else:
            price = top_k_welfare(s.d, s.n, s.k)
        return lambda v, aux: _bundle_block(s, groups, price, v, aux), {"price": price}
    raise AssertionError(s.mechanism)


def run_scenario(s: Scenario) -> SimulationReport:
    """Simulate the scenario and compare mean revenue to the analytic
    welfare benchmark and the matching theoretical bound."""
    block, extra = _batch_fn(s)
    jobs = list(_batches(s.reps))
    threads = worker_count()
    if threads > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(lambda j: _run_batch(s, block, *j), jobs))
    else:
        parts = [_run_batch(s, block, b, sz) for b, sz in jobs]
    # Combine in batch order so the result is independent of scheduling.
    sizes = [size for _, size in jobs]
    mean_rev, ci_rev = _merge(parts, sizes, 0)
    mean_wel, ci_wel = _merge(parts, sizes, 2)
    violations = sum(p[4] for p in parts)
    if s.mechanism == "het_ipm":
        analytic = top_k_welfare(s.d, s.n, len(s.etas), s.etas)
    else:
        analytic = top_k_welfare(s.d, s.n, s.k)
    ratio = mean_rev / analytic if analytic > 0 else 0.0
    bound = theoretical_bound(s)
    passed: bool | None = None
    if bound is not None and s.reps >= 10_000:
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

