"""Posted prices: the uniform price for identical items, the price menu for
weighted items, and the revenue-optimal single-item price.

The mechanisms that sell at these prices (and the two benchmarks) run
batched in `simulation`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import Distribution, inverse_virtual_value
from .errors import OutOfRange
from .order_statistics import expected_rank


@dataclass
class Menu:
    """Weighted-item price schedule.

    ``us[j]`` is the expected max of ceil(n/(j+1)) draws; prices follow the
    backward recursion r_j = r_{j+1} + u_j (eta_j - eta_{j+1}) with
    r_{k+1} = eta_{k+1} = 0.
    """

    etas: np.ndarray
    us: np.ndarray
    rs: np.ndarray

    def __post_init__(self):
        self.etas = np.asarray(self.etas, dtype=float)
        self.us = np.asarray(self.us, dtype=float)
        self.rs = np.asarray(self.rs, dtype=float)

    @property
    def k(self) -> int:
        return len(self.etas)

    def csv_rows(self) -> list[str]:
        rows = ["j, eta_j, u_j, r_j"]
        for j in range(self.k):
            rows.append(f"{j + 1}, {self.etas[j]:.12g}, {self.us[j]:.12g}, {self.rs[j]:.12g}")
        return rows


def ipm_price(d: Distribution, n: int, k: int) -> float:
    """Uniform per-item posted price E[v^(1, ceil(n/k))].

    A function of (d, n, k) only; the demand structure never enters.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    s = math.ceil(n / k)
    return expected_rank(d, 1, s)


def build_menu(d: Distribution, n: int, etas) -> Menu:
    """Price schedule for weighted items via the backward recursion."""
    etas = np.asarray(etas, dtype=float)
    k = len(etas)
    if k > n:
        raise ValueError(f"need k <= n, got k={k}, n={n}")
    if not np.isfinite(etas).all() or np.any(etas < 0) or np.any(np.diff(etas) > 1e-12):
        raise ValueError("etas must be finite, nonnegative and nonincreasing")
    us = np.array([ipm_price(d, n, j + 1) for j in range(k)])
    rs = np.zeros(k)
    r_next, eta_next = 0.0, 0.0
    for j in range(k - 1, -1, -1):
        rs[j] = r_next + us[j] * (etas[j] - eta_next)
        r_next, eta_next = rs[j], etas[j]
    if np.any(np.diff(rs) > 1e-9):
        raise ValueError("menu prices rise with j: a weight drops over a negative expected max")
    return Menu(etas=etas, us=us, rs=rs)


def optimal_item_price(d: Distribution) -> float:
    """Myerson's monopoly price r, where the virtual value crosses 0.

    The virtual value of a regular (lambda <= 1) family is nondecreasing, so
    revenue rises up to r and falls after it; where it is positive on the
    whole support, r is the support's lower end.
    """
    try:
        r = inverse_virtual_value(d, 0.0)
    except OutOfRange:
        r = d.support.lo
    return r
