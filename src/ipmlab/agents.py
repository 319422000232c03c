"""Demand structures and intermediary purchase behavior.

An intermediary either passes prices through (surplus maximizer) or
re-prices to its captive buyers (monopolist), in which case it buys for a
buyer only when the buyer's virtual value clears the posted price.  A
bargaining split between intermediary and buyer rescales payoffs but
changes no purchase, so it is the surplus model.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .distributions import Distribution, inverse_virtual_value
from .errors import ParseError


@dataclass(frozen=True)
class DemandStructure:
    n: int
    m: int
    partition: tuple  # buyer index -> intermediary index
    label: str = ""

    def __post_init__(self):
        if "," in self.label:
            raise ValueError(f"label {self.label!r} has a comma, which would split a report row")
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


class BehaviorModel(Enum):
    """An intermediary's purchase behavior; the value is its descriptor."""

    SURPLUS_MAX = "surplus"
    MONOPOLIST = "monopolist"


def parse_behavior(descriptor: str) -> BehaviorModel:
    try:
        return BehaviorModel(descriptor.strip().lower())
    except ValueError:
        raise ParseError(
            f"unknown behavior model {descriptor!r}: use surplus or monopolist"
            " (a bargaining split changes no purchase, so it is surplus)"
        ) from None


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


# The structures with integer fields: their builder and descriptor form.
_STRUCTURE_FORMS = {"balanced": (balanced, "balanced:M"), "random": (random_partition, "random:M:SEED")}


def parse_structure(descriptor: str, n: int) -> DemandStructure:
    s = descriptor.strip().lower()
    if s == "competition":
        return competition(n)
    if s == "monopsony":
        return monopsony(n)
    kind, _, rest = s.partition(":")
    if kind not in _STRUCTURE_FORMS:
        raise ParseError(f"unknown demand structure {descriptor!r}")
    build, form = _STRUCTURE_FORMS[kind]
    try:
        fields = [int(f) for f in rest.split(":")]
    except ValueError:
        fields = []  # matches no form
    if len(fields) != form.count(":"):
        raise ParseError(f"demand structure {descriptor!r} is not {form} with integer fields")
    return build(n, *fields)


# ---------------------------------------------------------------------------
# Uniform-price purchasing


def purchase_threshold(model: BehaviorModel, d: Distribution, price: float) -> float:
    """Valuation cutoff above which the intermediary buys for a buyer.

    Surplus maximizers pass the price through; a monopolist marks it up to
    the inverse virtual value (it resells at its own optimal reserve).
    """
    if model is BehaviorModel.MONOPOLIST:
        return inverse_virtual_value(d, price)
    return price


def monopolist_tau_analytic(d: Distribution, price: float) -> float:
    """P[intermediary buys | buyer value >= price] for a monopolist, in
    closed form: (1 - F(phi^-1(p))) / (1 - F(p))."""
    thr = purchase_threshold(BehaviorModel.MONOPOLIST, d, price)
    return float(d.survival(thr) / d.survival(price))


# ---------------------------------------------------------------------------
# Menu purchasing (weighted items)

def menu_purchase_dp(etas, rs, available, w):
    """Exact surplus-maximizing menu purchase for many rows at once.

    State-major: ``w`` is (B + 1, R), column r holding row r's buyer values
    sorted descending and zero-padded, and a last row of zeros, the value
    of an item bought unassigned; ``available`` is a (k, R) mask over the
    items (index order = nonincreasing eta).  Both orders are
    nonincreasing, so the best purchase gives its i-th item to the i-th
    highest buyer and a DP over items x buyers served solves each row in
    O(k B): an item taken with t buyers served adds w[t] eta_j - r_j, or
    -r_j once all B are served.

    Ties within 1e-12 go to the larger set, then the lexicographically
    smallest item tuple: the DP runs backward over items on (surplus, set
    size), and the forward walk takes an item whenever taking is no worse.

    Returns (taken, pick), both (k, R): pick[j, r] = t R + r indexes
    ``w.ravel()`` at w[t, r], where t is the rank of the buyer who gets a
    taken item j, or B when it is bought unassigned.
    """
    available = np.asarray(available, dtype=bool)
    k, rows = available.shape
    w = np.ascontiguousarray(w, dtype=float)
    width = len(w) - 1
    # Per state t (rows of the tables), the best (surplus, size) of items
    # j.. with t buyers served; a take moves t to min(t + 1, B).  The walk
    # reaches item j with at most j buyers served, so item j's step fills
    # states 0..min(j, B) alone: each reads only states the step of item
    # j + 1 filled.
    value = np.zeros(w.shape)
    size = np.zeros(w.shape, dtype=np.min_scalar_type(k))
    take_value = np.empty(w.shape)
    take_size = np.empty_like(size)
    gain = np.empty(w.shape)
    near = np.empty(w.shape, dtype=bool)
    prefer = np.zeros((k, *w.shape), dtype=bool)
    value_bits, take_bits, gain_bits = (x.view(np.int64) for x in (value, take_value, gain))
    for j in range(k - 1, -1, -1):
        if not available[j].any():
            continue
        n = min(j, width) + 1
        up = min(n, width)  # states below `up` move up a row; state B stays
        tv, ts, g, take = take_value[:n], take_size[:n], gain[:n], prefer[j, :n]
        np.multiply(w[:n], etas[j], out=tv)
        tv -= rs[j]
        tv[:up] += value[1 : up + 1]
        np.add(size[1 : up + 1], 1, out=ts[:up])
        if up < n:
            tv[width] += value[width]
            np.add(size[width], 1, out=ts[width])
        np.subtract(tv, value[:n], out=g)
        np.greater_equal(ts, size[:n], out=take)
        take &= np.greater_equal(g, -1e-12, out=near[:n])
        take |= np.greater(g, 1e-12, out=near[:n])
        take &= available[j]
        # value, size = take ? (tv, ts) : (value, size), selected on the bit
        # patterns: x ^ ((x ^ y) * take).  numpy's masked copies branch per
        # entry and run several times slower on mixed masks.
        diff, bits = gain_bits[:n], value_bits[:n]
        np.bitwise_xor(bits, take_bits[:n], out=diff)
        diff *= take
        bits ^= diff
        ts ^= size[:n]
        ts *= take
        size[:n] ^= ts
    # Forward walk on flat indices t R + r into each item's table.
    flat = prefer.reshape(k, -1)
    taken = np.empty((k, rows), dtype=bool)
    pick = np.empty((k, rows), dtype=np.intp)
    pick[0] = np.arange(rows)
    for j in range(k):
        np.take(flat[j], pick[j], out=taken[j])
        if j + 1 < k:
            pick[j + 1] = pick[j] + rows * (taken[j] & (pick[j] < width * rows))
    return taken, pick
