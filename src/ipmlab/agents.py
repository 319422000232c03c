"""Demand structures and intermediary purchase behavior.

An intermediary either passes prices through (surplus maximizer, possibly
with a bargaining split that rescales payoffs but not decisions) or
re-prices to its captive buyers (monopolist), in which case it buys for a
buyer only when the buyer's virtual value clears the posted price.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .distributions import Distribution, inverse_virtual_value, virtual_value
from .errors import ParseError
from .mechanisms import Menu


@dataclass(frozen=True)
class DemandStructure:
    n: int
    m: int
    partition: tuple  # buyer index -> intermediary index
    label: str = ""

    def __post_init__(self):
        if len(self.partition) != self.n:
            raise ValueError("partition must assign every buyer")
        seen = set(self.partition)
        if seen != set(range(self.m)):
            raise ValueError("partition must be surjective onto the intermediaries")

    def groups(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.m)]
        for buyer, ell in enumerate(self.partition):
            out[ell].append(buyer)
        return out

    @property
    def descriptor(self) -> str:
        return self.label or f"custom:{self.m}"


class Kind(Enum):
    SURPLUS_MAX = "surplus"
    MONOPOLIST = "monopolist"
    ALPHA_BARGAIN = "alpha"


@dataclass(frozen=True)
class BehaviorModel:
    kind: Kind
    alpha: float = 1.0

    def __post_init__(self):
        if self.kind is Kind.ALPHA_BARGAIN and not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")

    @property
    def descriptor(self) -> str:
        if self.kind is Kind.ALPHA_BARGAIN:
            return f"alpha:{self.alpha:g}"
        return self.kind.value


def parse_behavior(descriptor: str) -> BehaviorModel:
    s = descriptor.strip().lower()
    if s in ("surplus", "surplusmax", "surplus_max"):
        return BehaviorModel(Kind.SURPLUS_MAX)
    if s in ("monopolist", "monopoly"):
        return BehaviorModel(Kind.MONOPOLIST)
    if s.startswith("alpha:"):
        return BehaviorModel(Kind.ALPHA_BARGAIN, float(s.split(":", 1)[1]))
    raise ParseError(f"unknown behavior model {descriptor!r}")


def competition(n: int) -> DemandStructure:
    return DemandStructure(n, n, tuple(range(n)), "competition")


def monopsony(n: int) -> DemandStructure:
    return DemandStructure(n, 1, (0,) * n, "monopsony")


def balanced(n: int, m: int) -> DemandStructure:
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}")
    part = tuple(i * m // n for i in range(n))
    return DemandStructure(n, m, part, f"balanced:{m}")


def random_partition(n: int, m: int, seed: int) -> DemandStructure:
    """Seeded random partition; every intermediary keeps at least one buyer."""
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}")
    rng = np.random.default_rng(seed)
    part = np.concatenate([np.arange(m), rng.integers(0, m, size=n - m)])
    rng.shuffle(part)
    return DemandStructure(n, m, tuple(int(x) for x in part), f"random:{m}:{seed}")


def parse_structure(descriptor: str, n: int) -> DemandStructure:
    s = descriptor.strip().lower()
    if s == "competition":
        return competition(n)
    if s == "monopsony":
        return monopsony(n)
    if s.startswith("balanced:"):
        return balanced(n, int(s.split(":")[1]))
    if s.startswith("random:"):
        _, m, seed = s.split(":")
        return random_partition(n, int(m), int(seed))
    raise ParseError(f"unknown demand structure {descriptor!r}")


def canonical_structures(n: int, seed: int = 7) -> list[DemandStructure]:
    """Competition, monopsony, balanced halves, and a seeded random split."""
    out = [competition(n), monopsony(n)]
    if n >= 2:
        out.append(balanced(n, 2))
        out.append(random_partition(n, min(3, n), seed))
    return out


# ---------------------------------------------------------------------------
# Uniform-price purchasing


def purchase_threshold(model: BehaviorModel, d: Distribution, price: float) -> float:
    """Valuation cutoff above which the intermediary buys for a buyer.

    Surplus maximizers pass the price through; a monopolist marks it up to
    the inverse virtual value (it resells at its own optimal reserve).
    """
    if model.kind is Kind.MONOPOLIST:
        return inverse_virtual_value(d, price)
    return price


def uniform_price_purchases(model: BehaviorModel, d: Distribution, price: float, valuations) -> int:
    """Number of units the intermediary requests at a uniform per-item price."""
    if price < 0:
        raise ValueError("price must be nonnegative")
    vals = np.asarray(valuations, dtype=float)
    if model.kind is Kind.MONOPOLIST:
        return int(np.sum(virtual_value(d, vals) >= price))
    # Alpha-bargaining rescales the payoff split, not the argmax.
    return int(np.sum(vals >= price))


def monopolist_tau_analytic(d: Distribution, price: float) -> float:
    """P[intermediary buys | buyer value >= price] for a monopolist, in
    closed form: (1 - F(phi^-1(p))) / (1 - F(p))."""
    thr = inverse_virtual_value(d, price)
    return float((1.0 - d.cdf(thr)) / (1.0 - d.cdf(price)))


def estimate_tau(
    model: BehaviorModel,
    d: Distribution,
    price_grid,
    reps: int = 200_000,
    rng_seed: int = 0,
) -> float:
    """Monte Carlo estimate of min over the grid of P[buy | v >= p].

    Surplus maximizers (and bargainers) always pass through, so the answer
    is exactly 1.  For the monopolist we sample v conditioned on v >= p and
    count virtual values clearing p; `monopolist_tau_analytic` gives the
    noise-free counterpart.
    """
    if reps < 100_000:
        raise ValueError("need reps >= 100_000 for a stable estimate")
    if model.kind is not Kind.MONOPOLIST:
        return 1.0
    rng = np.random.default_rng(rng_seed)
    worst = 1.0
    for p in price_grid:
        f_p = float(d.cdf(p))
        u = f_p + (1.0 - f_p) * rng.random(reps)
        v = np.asarray(d.quantile(u), dtype=float)
        frac = float(np.mean(virtual_value(d, v) >= p))
        worst = min(worst, frac)
    return worst


# ---------------------------------------------------------------------------
# Menu purchasing (weighted items)

def menu_purchase_dp(etas, rs, available, vals_desc):
    """Exact surplus-maximizing menu purchase for many rows at once.

    ``available`` is an (R, k) mask over the items (index order =
    nonincreasing eta); ``vals_desc`` is (R, B), each row's buyer values
    sorted descending and zero-padded.  Both orders are nonincreasing, so the
    best purchase gives its i-th item to the i-th highest buyer and a DP over
    items x buyers served solves each row in O(k B): an item taken with t
    buyers served adds vals[t] eta_j - r_j, or -r_j once all B are served.

    Ties within 1e-12 go to the larger set, then the lexicographically
    smallest item tuple: the DP runs backward over items on (surplus, set
    size), and the forward walk takes an item whenever taking is no worse.

    Returns (taken, slot), both (R, k): slot[r, j] is the rank of the buyer
    who gets a taken item j, or B when it is bought unassigned.
    """
    available = np.asarray(available, dtype=bool)
    rows, k = available.shape
    w = np.pad(np.asarray(vals_desc, dtype=float), ((0, 0), (0, 1)))
    width = w.shape[1] - 1
    after = np.minimum(np.arange(width + 1) + 1, width)  # state after a take
    value = np.zeros((rows, width + 1))
    size = np.zeros((rows, width + 1), dtype=np.int64)
    prefer_take = [None] * k
    for j in range(k - 1, -1, -1):
        take_value = (w * etas[j] - rs[j]) + value[:, after]
        take_size = size[:, after] + 1
        gain = take_value - value
        take = ((gain > 1e-12) | ((gain >= -1e-12) & (take_size >= size))) & available[:, j, None]
        value = np.where(take, take_value, value)
        size = np.where(take, take_size, size)
        prefer_take[j] = take
    r = np.arange(rows)
    t = np.zeros(rows, dtype=np.int64)
    taken = np.empty((rows, k), dtype=bool)
    slot = np.empty((rows, k), dtype=np.int64)
    for j in range(k):
        taken[:, j] = prefer_take[j][r, t]
        slot[:, j] = t
        t = np.where(taken[:, j], after[t], t)
    return taken, slot


def surplus_max_menu_purchase(menu: Menu, available, valuations):
    """Exact surplus-maximizing purchase over the available items.

    Returns (purchase set, {buyer index -> item}, surplus), solved by the
    O(k b) DP of `menu_purchase_dp` on one row.  Ties resolve to the larger
    purchase set, then the lexicographically smallest item tuple, which
    keeps the demand-set preference deterministic.
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
    """Independent oracle: enumerate every purchase set and every injective
    assignment of purchased items to buyers.  Exponential; small cases only."""
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
                    gross = sum(vals[b] * menu.etas[j] for b, j in zip(chosen, placed))
                    surplus = gross - cost
                    if surplus > best_surplus + 1e-12:
                        best_surplus = surplus
                        best = (set(items), dict(zip(chosen, placed)))
    return best[0], best[1], float(best_surplus)


def demand_set(menu: Menu, valuations):
    """Lowest-indexed item each buyer can 'afford' by the u_j thresholds:
    B(i) = min{ j : v_i >= u_j }, or None below u_k."""
    vals = np.asarray(valuations, dtype=float)
    out = []
    for v in vals:
        hit = None
        for j in range(menu.k):
            if v >= menu.us[j]:
                hit = j
                break
        out.append(hit)
    return out
