"""Demand structures and intermediary purchase behavior.

An intermediary either passes prices through (surplus maximizer, possibly
with a bargaining split that rescales payoffs but not decisions) or
re-prices to its captive buyers (monopolist), in which case it buys for a
buyer only when the buyer's virtual value clears the posted price.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .distributions import Distribution, _fmt, inverse_virtual_value
from .errors import ParseError


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
            return f"alpha:{_fmt(self.alpha)}"
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


def monopolist_tau_analytic(d: Distribution, price: float) -> float:
    """P[intermediary buys | buyer value >= price] for a monopolist, in
    closed form: (1 - F(phi^-1(p))) / (1 - F(p))."""
    thr = inverse_virtual_value(d, price)
    return float((1.0 - d.cdf(thr)) / (1.0 - d.cdf(price)))


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
    vals_desc = np.asarray(vals_desc, dtype=float)
    width = vals_desc.shape[1]
    w = np.zeros((rows, width + 1))
    w[:, :width] = vals_desc
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
