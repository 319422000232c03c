"""Monte Carlo market simulator.

Replicates are processed in fixed-size batches; each batch derives its RNG
from (master_seed, batch_index), so results are bit-identical no matter how
many worker threads run the batches.  Scenarios with the same master seed,
family and n draw the same valuations, so they run as one group whose
batches are drawn once.  One driver, `_run_batch`, draws, allocates and
reduces every batch; batch sums and M2s merge in batch order.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter

import numpy as np

from . import agents
from .distributions import Distribution, c_of_lambda
from .mechanisms import Menu, build_menu, ipm_price, optimal_item_price
from .order_statistics import sum_left, top_k_welfare

BATCH_SIZE = 8192
# Values per drawn block (2 MB of float64), so max(1, BLOCK_VALUES // n) rows:
# a block's arrays stay in cache and only one block of valuations is live per
# batch, while a batch of narrow rows is one block, not many small ones.
BLOCK_VALUES = 1 << 18

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
    order_policy: str | None = None  # het_ipm visit order: "random" (the default) or "fixed"
    epsilon: float | None = None  # bundle price slack: p = n (E[v] - eps)

    def __post_init__(self):
        if "," in self.scenario_id:
            raise ValueError(f"id {self.scenario_id!r} has a comma, which would split its report row")
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if not 1 <= self.k <= self.n:
            raise ValueError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        if self.structure.n != self.n:
            raise ValueError(f"structure {self.structure.descriptor} is over {self.structure.n} buyers, not n={self.n}")
        if self.mechanism not in MECHANISMS:
            raise ValueError(f"unknown mechanism {self.mechanism!r}")
        if self.epsilon is not None:
            if self.mechanism != "bundle":
                raise ValueError(f"epsilon applies to bundle only, not to {self.mechanism}")
            if not math.isfinite(self.epsilon):
                raise ValueError(f"epsilon must be finite, got {self.epsilon}")
        if self.model is agents.BehaviorModel.MONOPOLIST and self.mechanism not in ("ipm", "item_price"):
            raise ValueError(f"the monopolist model applies to ipm and item_price only, not to {self.mechanism}")
        if self.mechanism == "het_ipm":
            if self.etas is None:
                raise ValueError("het_ipm needs item weights")
            if len(self.etas) != self.k:
                raise ValueError(f"het_ipm sells one item per weight: got {len(self.etas)} etas for k={self.k}")
        elif self.etas is not None:
            raise ValueError(f"etas weigh the items of het_ipm only, not of {self.mechanism}")
        if self.order_policy is not None:
            if self.order_policy not in ("random", "fixed"):
                raise ValueError(f"unknown order policy {self.order_policy!r}")
            if self.mechanism != "het_ipm":
                raise ValueError(f"order applies to het_ipm only, not to {self.mechanism}")

    @property
    def label(self) -> str:
        return self.scenario_id or (
            f"{self.mechanism}-{self.d.descriptor}-n{self.n}k{self.k}-"
            f"{self.structure.descriptor}-{self.model.value}"
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
                s.model.value,
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
    """IPMLAB_THREADS, capped at the CPUs this process may run on; 1 when
    unset or malformed."""
    try:
        wanted = int(os.environ.get("IPMLAB_THREADS", ""))
    except ValueError:
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(wanted, cpus))


def theoretical_bound(s: Scenario) -> float | None:
    """Revenue/welfare guarantee matching the scenario's mechanism."""
    lam = s.d.lambda_claimed
    c = c_of_lambda(lam)
    if s.mechanism == "ipm":
        tau = c if s.model is agents.BehaviorModel.MONOPOLIST else 1.0
        factor = c if s.n % s.k == 0 else c / 2.0
        return tau * factor * (1.0 - 1.0 / math.e)
    if s.mechanism == "het_ipm":
        return (1.0 - math.exp(-c / 2.0)) * (1.0 - 1.0 / math.e)
    return None


def _run_batch(members, fns, batch_idx: int):
    """Draw, allocate and reduce one batch of a group: scenarios with one
    master seed, family and n.  Stream 0 of the batch's seed is drawn
    BLOCK_VALUES // n rows at a time into one reused buffer (bit-identical
    to a whole-batch draw: `random` fills rows in order) and mapped to
    values in place, once for the group.  Each member's
    ``block(v, aux, passes)`` from `_batch_fn` reads read-only views of its
    rows of that block (fewer when the member has fewer rows in this batch)
    in slices of BLOCK_VALUES // values_per_row rows, the width `_batch_fn`
    gives with it, so that its largest tables stay within a block of values
    however narrow its rows; ``aux`` is the member's own generator on
    stream 1, drawn in row order, so slices change no bit.  It gives each
    row's revenue and welfare.  The members
    with the same rows in this batch get one ``passes`` dict per slice, in
    which a block function memoizes work that does not depend on the
    member (`_uniform_price_pass`): the first member to run it draws from
    its own stream 1, which equals every other member's, and the others
    then leave theirs untouched for the whole batch.  Per member, the batch
    reduces to its size, its partial sums and the seconds spent in
    ``block``, a shared pass charged to the member that ran it."""
    s = members[0]
    sizes = [min(BATCH_SIZE, m.reps - batch_idx * BATCH_SIZE) for m in members]
    steps = [max(1, BLOCK_VALUES // values_per_row) for _, values_per_row, _ in fns]
    size = max(sizes)
    draw = np.random.default_rng(np.random.SeedSequence((s.master_seed, batch_idx, 0)))
    auxs = [np.random.default_rng(np.random.SeedSequence((s.master_seed, batch_idx, 1))) for _ in members]
    rows = max(1, BLOCK_VALUES // s.n)
    u = np.empty((min(rows, size), s.n))
    shared = u.view()
    shared.flags.writeable = False
    out = [None] * len(members)
    sums = [None] * len(members)
    engine_s = [0.0] * len(members)
    for lo in range(0, size, rows):
        ub = draw.random(out=u[: size - lo])
        s.d.quantile(ub, out=ub)
        passes = {}
        for j, ((block, _, _), aux, sz, step) in enumerate(zip(fns, auxs, sizes, steps)):
            if lo >= sz:
                continue
            if lo == 0:
                out[j] = np.empty((2, sz))
            hi = min(lo + rows, sz)
            t0 = perf_counter()
            for a in range(lo, hi, step):
                b = min(a + step, hi)
                out[j][0, a:b], out[j][1, a:b] = block(shared[a - lo : b - lo], aux, passes.setdefault((sz, a), {}))
            engine_s[j] += perf_counter() - t0
            # After the member's last block, reduce and free its rows at once, so
            # that a one-block batch holds one member's rows at a time.
            if hi == sz:
                sums[j] = _sums(*out[j])
                out[j] = None
    return [(*p, t) for p, t in zip(sums, engine_s)]


def _sums(revenue: np.ndarray, welfare: np.ndarray):
    """The batch's size, each series' sum and its M2 about the batch mean,
    in two passes over the batch's rows, and the rows where revenue exceeds
    welfare."""
    sums = []
    for x in (revenue, welfare):
        total = float(x.sum())
        sums += [total, float(np.square(x - total / len(x)).sum())]
    return (len(revenue), *sums, int(np.sum(revenue > welfare + 1e-9)))


def _merge(parts, col: int):
    """Mean and ci95 of one series from its batches' (size, ..., sum, M2),
    in batch order: the mean from the raw sums, M2 = sum M2_b + n_b (mean_b
    - mean)^2 (Chan, Golub & LeVeque 1979)."""
    reps = sum(p[0] for p in parts)
    mean = sum_left(p[col] for p in parts) / reps
    m2 = sum_left(p[col + 1] + p[0] * (p[col] / p[0] - mean) ** 2 for p in parts)
    return mean, 1.96 * math.sqrt(m2 / reps / reps)


# ---------------------------------------------------------------------------
# Homogeneous uniform-price engine (also backs `item_price`)


def _group_layout(groups):
    """The groups in size classes [2^j, 2^(j+1)): per class its members and a
    (members, width) index of their columns, padded to the class's largest
    group, with a mask of the padding slots.  So the padded views hold fewer
    than 2n values, however unequal the groups."""
    sizes = np.array([len(idxs) for idxs in groups])
    size_class = np.frexp(sizes)[1]
    classes = []
    for c in sorted(set(size_class.tolist())):
        members = np.flatnonzero(size_class == c)
        padding = np.arange(sizes[members].max()) >= sizes[members, None]
        pad = np.zeros(padding.shape, dtype=np.intp)
        pad[~padding] = np.concatenate([groups[ell] for ell in members])
        classes.append((members, pad, padding))
    return classes


def _member_major(x: np.ndarray, pad: np.ndarray):
    """Each row's entries of a class's groups as (rows, members, width),
    laid out member by member, each member a contiguous (rows, width) block.
    For width 1, plain indexing already gives that layout, at half the
    cost."""
    if pad.shape[1] == 1:
        return x[:, pad]
    return x[np.arange(len(x))[:, None], pad[:, None, :]].transpose(1, 0, 2)


def _sorted_groups(v: np.ndarray, pad: np.ndarray, padding: np.ndarray):
    """Each row's values of a class's groups as (rows, members, width),
    padded with -inf and sorted ascending: one sort for the class.  In the
    member-major layout each sort runs along contiguous memory, and each
    member's width sum, whose order follows the layout, adds in the order
    the golden-bits test pins."""
    vals = _member_major(v, pad)
    vals[:, padding] = -np.inf
    vals.sort(axis=2)
    return vals


def _uniform_price_block(s: Scenario, classes, price: float, threshold: float, v: np.ndarray, aux, passes: dict):
    """Each buyer valued at or above the threshold asks for a unit; past k
    asks, a lottery rations them.  Who asks, the revenue and who is served
    do not depend on the demand structure, so the pass that finds them
    (`_uniform_price_pass`) is memoized in ``passes`` by (price, threshold,
    k); only each group's sum of its served values is the member's own."""
    key = (price, threshold, s.k)
    if key not in passes:
        passes[key] = _uniform_price_pass(price, threshold, s.k, v, aux)
    revenue, welfare, rations, served = passes[key]
    if served is None:  # no row rations
        return revenue, welfare
    welfare = welfare.copy()
    welfare[rations] = _served_rows(v[rations], served, classes, s.k)
    return revenue, welfare


def _uniform_price_pass(price: float, threshold: float, k: int, v: np.ndarray, aux):
    """Each row's revenue; the welfare of rows that do not ration (empty
    slots in the others); the rows that ration, ``slice(None)`` when every
    row does, so that indexing with it is a view; and who is served in the
    rows that ration, None when none does.  Keys come from ``aux``, so
    members that share a pass have equal stream-1 generators and the same
    rows in the batch: then the pass draws exactly the keys each would draw
    alone."""
    qualify = v >= threshold
    # One exact integer reduction: intp does not wrap for any n.
    total = np.einsum("ij->i", qualify.view(np.uint8), dtype=np.intp)
    over = total > k
    revenue = price * np.minimum(total, k)
    if over.all():
        return revenue, np.empty(len(v)), slice(None), _served(qualify, k, aux)
    rations = np.flatnonzero(over)
    served = _served(qualify[rations], k, aux) if len(rations) else None
    return revenue, np.einsum("ij,ij->i", v, qualify), rations, served


def _served(qualify: np.ndarray, k: int, aux):
    """Who is served in rows where more than k buyers qualify.  Every buyer
    draws one uniform key from ``aux`` and qualifiers' keys move down by 1,
    so the buyers whose keys are at most the row's k-th smallest are k
    qualifiers drawn uniformly without replacement (group counts are
    multivariate hypergeometric)."""
    keys = aux.random(qualify.shape)
    keys -= qualify
    kth = np.sort(keys, axis=1)[:, k - 1 : k + 1].copy()  # the k-th and (k+1)-th smallest
    served = keys <= kth[:, :1]
    # Where the k-th key ties the next one, the tied buyers first in column
    # order are served, so that every row serves exactly k.
    for r in np.flatnonzero(kth[:, 0] == kth[:, 1]):
        tied = np.flatnonzero(keys[r] == kth[r, 0])
        served[r, tied[k - np.count_nonzero(keys[r] < kth[r, 0]) :]] = False
    return served


def _served_rows(v: np.ndarray, served: np.ndarray, classes, k: int):
    """Each row's sum of its served values, class by class."""
    welfare = np.zeros(len(v))
    (_, pad, _), *others = classes
    if not others and pad.shape[1] == 1 and (pad[:, 0] == np.arange(len(pad))).all():
        # Every buyer is their own group, in column order (`competition`), and
        # each row serves exactly k: add a row's k served values left to
        # right.  The member-by-member class sum below gives the same bits,
        # since it adds only exact zeros between them.
        welfare += np.cumsum(np.take(v, np.flatnonzero(served)).reshape(-1, k), axis=1)[:, -1]
        return welfare
    for _, pad, padding in classes:
        if pad.shape[1] == 1:
            vals = _member_major(v, pad)
            vals *= _member_major(served, pad)
        else:
            vals = _sorted_groups(v, pad, padding)
            hits = _member_major(served, pad)
            hits[:, padding] = False
            width = pad.shape[1]
            vals[np.arange(width) < width - np.count_nonzero(hits, axis=2)[:, :, None]] = 0.0
        # Member by member, each member's width summed first; the cumsum's
        # order is the same for one row as for many.
        welfare += np.cumsum(vals.sum(axis=2), axis=1)[:, -1]
    return welfare


# ---------------------------------------------------------------------------
# Sequential menu engine (heterogeneous items)


def _top_values(v: np.ndarray, classes, m: int, width: int):
    """Each group's top `width` values (a purchase has at most k items),
    descending and zero-padded, as (width + 1, m, rows): state-major, as
    `agents.menu_purchase_dp` reads them, so that one row's column of one
    group is column g rows + r of the (width + 1, m rows) table.  The extra
    zero row is the value of an item bought unassigned.  The sorted copies
    die on return, before the sale runs."""
    out = np.zeros((width + 1, m, len(v)))
    for members, pad, padding in classes:
        desc = _sorted_groups(v, pad, padding)[:, :, ::-1][:, :, :width]
        desc[:, padding[:, :width]] = 0.0
        out[: desc.shape[2], members] = desc.transpose(2, 1, 0)
    return out


def _item_floors(menu: Menu) -> np.ndarray:
    """Per item j, a lower bound on the top values t that pass the can-buy
    test eta_j max(t, 0) - r_j >= -1e-12: -inf where t = 0 passes (r_j <=
    1e-12), inf where eta_j = 0 and no t does, else (r_j - 1e-12) / eta_j
    lowered by 1e-9 r_j / eta_j.  The test's rounding moves its threshold by
    a few ulps of r_j, far less than that margin, so a t that passes is
    never below the bound; one that fails may be above it."""
    etas, rs = menu.etas, menu.rs
    floors = np.where(rs <= 1e-12, -np.inf, np.inf)
    finite = (rs > 1e-12) & (etas > 0)
    floors[finite] = (rs[finite] * (1.0 - 1e-9) - 1e-12) / etas[finite]
    return floors


def _menu_rows(s: Scenario, classes, menu: Menu, floors: np.ndarray, width: int, v: np.ndarray, aux):
    """Sequential menu sale: each row offers its remaining items to its
    intermediaries in its visit order (random ones from ``aux`` in row
    order), and each buys the optimum of `agents.menu_purchase_dp` (ties to
    the larger set, then the lexicographically smallest).

    A group whose top value is t can buy item j only if eta_j max(t, 0) -
    r_j >= -1e-12: that bounds the surplus of the item with any buyer or
    none, and the DP takes an item only at a surplus of -1e-12 or more.  A
    group whose t is below item j's `_item_floors` bound fails that test
    for j.  Availability only shrinks, so each row lists the steps whose
    group is at or above some item's bound, in visit order, and round i
    runs every row's i-th listed step in one DP call, over the rows whose
    group is at or above the bound of an item it has left.  A listed group
    that fails the exact test on every item left still reaches the DP,
    which buys nothing for it and so adds only zeros.  A row sees its steps
    in the order the sale visits them, and revenue and welfare add each
    step's taken items in item order, so no bit depends on the rounds or on
    the other rows."""
    size, m = len(v), s.structure.m
    if s.order_policy == "fixed":
        orders = np.arange(m)
    else:
        orders = np.argsort(aux.random((size, m)), axis=1)
    tops = _top_values(v, classes, m, width).reshape(width + 1, m * size)
    # Row r's s-th step visits the group whose values are column
    # orders[r, s] rows + r of `tops`.
    column = orders * size + np.arange(size)[:, None]
    listed = np.flatnonzero(np.take(tops[0] >= floors.min(), column))
    # Entry e of row r's list sits at first[r] + e of `column` (row-major).
    column = column.reshape(-1)[listed]
    count = np.bincount(listed // m, minlength=size)
    first = np.cumsum(count) - count
    rows = np.flatnonzero(count)
    available = np.ones((menu.k, size), dtype=bool)
    out = np.zeros((2, size))
    for i in range(int(count.max(initial=0))):
        rows = rows[count[rows] > i]
        w = np.take(tops, column[first[rows] + i], axis=1)
        left = available[:, rows]
        can = floors[:, None] <= w[0]
        can &= left
        buys = np.logical_or.reduce(can, axis=0)
        buyers = rows
        if not buys.all():
            buyers, w, left = rows[buys], w[:, buys], left[:, buys]
        if not len(buyers):
            continue
        taken, pick = agents.menu_purchase_dp(menu.etas, menu.rs, left, w)
        # Each item's price and eta_j times its buyer's value, or +-0.0 where
        # it is not taken: adding a zero leaves a sum that starts at +0.0 as
        # it is.
        got = np.take(w, pick)
        got *= menu.etas[:, None]
        got *= taken
        paid = taken * menu.rs[:, None]
        acc = out[:, buyers]
        for j in range(menu.k):
            acc[0] += paid[j]
            acc[1] += got[j]
        out[:, buyers] = acc
        left &= ~taken
        available[:, buyers] = left
    return out[0], out[1]


# ---------------------------------------------------------------------------
# Benchmark engines


def _group_tops(v: np.ndarray, groups, k: int):
    """Each group's top min(k, |group|) values, unordered, in a row-major
    copy: a group that fits whole comes back as its own columns.  The others
    are negated and partitioned in place, along contiguous rows, and come
    back as a view of the copy."""
    for idxs in groups:
        g = np.take(v, idxs, axis=1)
        take = min(k, len(idxs))
        if take < len(idxs):
            np.negative(g, out=g)
            g.partition(take - 1, axis=1)
            g = g[:, :take]
            np.negative(g, out=g)
        yield g


def _kplus1_block(k: int, columns: np.ndarray, fit: int, cut, reserve: float, v: np.ndarray, aux):
    # Each intermediary bids its top min(k, |group|) buyer values; only the
    # top k + 1 bids set the winners and the price.  The groups that fit
    # whole are gathered in one take that fills ``bids`` whole, so that it
    # writes straight into it (``mode="clip"``; the default mode, or an
    # ``out`` that is a column slice, would buffer a copy): each cut group's
    # k slots take its first k columns, which its top then overwrites.  The
    # cut groups are cut one group at a time, and each group's copy is freed
    # once written, so at most one is live, and none past the loop.
    nb = len(columns)
    bids = np.empty((len(v), nb))
    np.take(v, columns, axis=1, out=bids, mode="clip")
    for lo, top in zip(range(fit, nb, k), _group_tops(v, cut, k)):
        bids[:, lo : lo + k] = top
        del top
    # One in-place sort: its top k + 1 do not depend on the order of the bids.
    bids.sort(axis=1)
    bids = bids[:, max(nb - k - 1, 0) :][:, ::-1]
    winners = np.minimum((bids >= reserve).sum(axis=1), k)
    floor = bids[:, k] if nb > k else np.zeros(len(v))
    pay = np.maximum(floor, reserve)
    revenue = winners * pay
    csum = np.cumsum(bids, axis=1)
    welfare = np.where(winners > 0, np.take_along_axis(csum, np.maximum(winners - 1, 0)[:, None], axis=1)[:, 0], 0.0)
    return revenue, welfare


def _bundle_block(s: Scenario, groups, price: float, v: np.ndarray, aux):
    # Each intermediary values the bundle at its top min(k, |group|) buyers,
    # added left to right: a row sum adds pairwise past 8 columns, and a lone
    # row would do so in any layout.
    value = np.empty((len(v), len(groups)))
    for ell, top in enumerate(_group_tops(v, groups, s.k)):
        value[:, ell] = np.cumsum(top, axis=1)[:, -1]
    accept = value >= price
    any_accept = accept.any(axis=1)
    first = np.argmax(accept, axis=1)
    revenue = np.where(any_accept, price, 0.0)
    welfare = np.where(any_accept, value[np.arange(len(v)), first], 0.0)
    return revenue, welfare


# ---------------------------------------------------------------------------
# Scenario runner


def _batch_fn(s: Scenario):
    """The scenario's engine, built once: its block function
    ``block(v, aux, passes)``; the values per row in the largest tables the
    block function holds, which size its slices (`_run_batch`); and the
    report's extra."""
    groups = s.structure.groups()
    if s.mechanism in ("ipm", "item_price"):
        if s.mechanism == "ipm":
            price = ipm_price(s.d, s.n, s.k)
        else:
            price = optimal_item_price(s.d)
        threshold = agents.purchase_threshold(s.model, s.d, price)
        block = partial(_uniform_price_block, s, _group_layout(groups), price, threshold)
        # A slice's rationing keys and their sorted copy.
        return block, 2 * s.n, {"price": price}
    if s.mechanism == "het_ipm":
        menu = build_menu(s.d, s.n, s.etas)
        classes, floors = _group_layout(groups), _item_floors(menu)
        # Top values kept per group: a purchase has at most k items, and a
        # group offers at most its size.  Per state, the groups' top values
        # (m) or a DP call's three value tables and its k take-or-not masks
        # (3 + k / 8), over width + 1 states.
        width = min(max(map(len, groups)), s.k)

        def block(v, aux, passes):
            return _menu_rows(s, classes, menu, floors, width, v, aux)

        return block, (width + 1) * max(s.structure.m, 3 + s.k // 8), {"menu": menu}
    if s.mechanism == "kplus1":
        reserve = optimal_item_price(s.d)
        # The columns of ``bids``: every buyer of the groups that fit whole,
        # then each cut group's first k.
        fit = [i for idxs in groups if len(idxs) <= s.k for i in idxs]
        cut = [idxs for idxs in groups if len(idxs) > s.k]
        columns = np.array(fit + [i for idxs in cut for i in idxs[: s.k]], dtype=np.intp)
        fits = len(fit)

        def block(v, aux, passes):
            return _kplus1_block(s.k, columns, fits, cut, reserve, v, aux)

        return block, s.n, {"reserve": reserve}
    if s.mechanism == "bundle":
        if s.epsilon is not None:
            price = s.n * (s.d.mean() - s.epsilon)
        else:
            price = top_k_welfare(s.d, s.n, s.k)
        return (lambda v, aux, passes: _bundle_block(s, groups, price, v, aux)), s.n, {"price": price}
    raise AssertionError(s.mechanism)


def run_scenarios(scenarios) -> list[SimulationReport]:
    """Simulate the scenarios and compare each one's mean revenue to the
    analytic welfare benchmark and the matching theoretical bound; the
    reports come back in the scenarios' order.  Scenarios with the same
    master seed, family and n share their stream-0 blocks: each batch of
    such a group is drawn once, and threads split the work by (group,
    batch)."""
    scenarios = list(scenarios)
    groups: dict[tuple, list[int]] = {}
    for i, s in enumerate(scenarios):
        groups.setdefault((s.master_seed, s.d.descriptor, s.n), []).append(i)
    fns = [_batch_fn(s) for s in scenarios]
    jobs = []
    for members in groups.values():
        for b in range(-(-max(scenarios[i].reps for i in members) // BATCH_SIZE)):
            jobs.append((b, [i for i in members if scenarios[i].reps > b * BATCH_SIZE]))

    def run(job):
        b, members = job
        return _run_batch([scenarios[i] for i in members], [fns[i] for i in members], b)

    threads = worker_count()
    if threads > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run, jobs))
    else:
        results = [run(job) for job in jobs]
    # Jobs run group by group in batch order, so each member's parts do too.
    parts: list[list] = [[] for _ in scenarios]
    for (_, members), result in zip(jobs, results):
        for i, part in zip(members, result):
            parts[i].append(part)
    reports = [None] * len(scenarios)
    for members in groups.values():
        drawn = max(scenarios[i].reps for i in members) * scenarios[members[0]].n
        for i in members:
            reports[i] = _report(scenarios[i], fns[i][2], parts[i], drawn)
    return reports


def run_scenario(s: Scenario) -> SimulationReport:
    """`run_scenarios` of the one scenario."""
    return run_scenarios([s])[0]


def _report(s: Scenario, extra: dict, parts, draw_values: int) -> SimulationReport:
    """A member's report from its batches' partial sums, in batch order."""
    mean_rev, ci_rev = _merge(parts, 1)
    mean_wel, ci_wel = _merge(parts, 3)
    violations = sum(p[5] for p in parts)
    analytic = top_k_welfare(s.d, s.n, s.k, s.etas)
    ratio = mean_rev / analytic if analytic > 0 else 0.0
    bound = theoretical_bound(s)
    passed: bool | None = None
    if bound is not None and s.reps >= 10_000:
        ci_ratio = ci_rev / analytic
        passed = ratio >= bound - 2.0 * ci_ratio
    extra = dict(extra)
    extra["pointwise_rev_gt_wel"] = violations
    # Seconds in the member's block function, and the values its group drew.
    extra["engine_s"] = sum(p[6] for p in parts)
    extra["draw_values"] = draw_values
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
