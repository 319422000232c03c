"""Posted prices: the uniform price for identical items, the price menu for
weighted items, and the revenue-optimal single-item price.

The mechanisms that sell at these prices (and the two benchmarks) run
batched in `simulation`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .distributions import Distribution
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

    def validate(self, atol: float = 1e-9) -> None:
        for name, arr in (("etas", self.etas), ("us", self.us), ("rs", self.rs)):
            if np.any(np.diff(arr) > atol):
                raise ValueError(f"menu {name} must be nonincreasing")
        r_next = 0.0
        eta_next = 0.0
        for j in range(self.k - 1, -1, -1):
            expect = r_next + self.us[j] * (self.etas[j] - eta_next)
            if abs(self.rs[j] - expect) > atol * max(1.0, abs(expect)):
                raise ValueError(f"menu recursion violated at item {j + 1}")
            r_next, eta_next = self.rs[j], self.etas[j]

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
    if np.any(etas < 0) or np.any(np.diff(etas) > 1e-12):
        raise ValueError("etas must be nonnegative and nonincreasing")
    us = np.array([expected_rank(d, 1, math.ceil(n / (j + 1))) for j in range(k)])
    rs = np.zeros(k)
    r_next, eta_next = 0.0, 0.0
    for j in range(k - 1, -1, -1):
        rs[j] = r_next + us[j] * (etas[j] - eta_next)
        r_next, eta_next = rs[j], etas[j]
    menu = Menu(etas=etas, us=us, rs=rs)
    menu.validate()
    return menu


def optimal_item_price(d: Distribution, grid_size: int = 512) -> tuple[float, float]:
    """Maximize p * (1 - F(p)) over the support.

    Coarse quantile-grid scan (so heavy tails are covered) followed by a
    bounded golden-section refinement around the best bracket.  Warns if the
    scan reveals multiple strict local maxima.
    """
    from scipy.optimize import minimize_scalar

    lo = d.support.lo
    hi = d.truncation_point()
    us = np.linspace(0.0, 1.0 - 1e-9, grid_size)
    ps = np.asarray(d.quantile(us), dtype=float)
    ps = np.clip(ps, lo, hi)
    rev = ps * (1.0 - np.asarray(d.cdf(ps), dtype=float))
    interior_max = (rev[1:-1] > rev[:-2]) & (rev[1:-1] > rev[2:])
    if int(interior_max.sum()) > 1:
        warnings.warn(f"revenue curve for {d.descriptor} looks multimodal; using grid fallback")
    best = int(np.argmax(rev))
    a = ps[max(best - 1, 0)]
    b = ps[min(best + 1, grid_size - 1)]
    if a == b:
        return float(ps[best]), float(rev[best])
    res = minimize_scalar(
        lambda p: -p * (1.0 - float(d.cdf(p))),
        bounds=(a, b),
        method="bounded",
        options={"xatol": 1e-10},
    )
    cand_p, cand_r = float(res.x), float(-res.fun)
    if cand_r >= rev[best]:
        return cand_p, cand_r
    return float(ps[best]), float(rev[best])
