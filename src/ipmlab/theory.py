"""Numerical verifiers for the analytic inequalities behind the bounds.

Each check evaluates one inequality on a (quantile-spaced) grid against an
independent oracle and reports the most-violating slack.  These certify
numerically on grids, not universally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .agents import monopolist_tau_analytic
from .distributions import (
    Distribution,
    Pareto,
    builtin_families,
    c_of_lambda,
)
from .mechanisms import ipm_price
from .order_statistics import expected_rank, max_tail_probability, sum_left, top_k_sums

# Certified upper bound of 1/e as (numerator, denominator): 2.718281828459045 < e.
INV_E_UPPER = (10**15, 2718281828459045)


@dataclass
class CheckResult:
    name: str
    worst_margin: float
    passed: bool
    detail: str = ""

    def row(self) -> str:
        return f"{self.name}, {self.worst_margin:.6g}, {self.detail}, {self.passed}"


def _worst(name: str, cases, tol: float) -> CheckResult:
    """``name``'s result from its (slack, detail) cases: the smallest slack,
    the first one on ties, passing at >= -tol.  A NaN slack ranks below every
    number, so the first NaN case is reported and fails."""
    slack, detail = min(cases, key=lambda case: (not math.isnan(case[0]), case[0]), default=(math.inf, ""))
    return CheckResult(name, float(slack), bool(slack >= -tol), detail)


def _quantile_grid(d: Distribution, n: int = 1) -> np.ndarray:
    """400 points at which the max of n draws of ``d`` has quantiles spaced
    evenly over [1e-6, 1 - 1e-6]."""
    return np.asarray(d.quantile(np.linspace(1e-6, 1.0 - 1e-6, 400) ** (1.0 / n)), dtype=float)


def _lamb_aux_h(eps, n: int):
    """h(F) = n F^n/(1-F^n) - F/(1-F) at F = 1 - eps, cancellation-free;
    exactly 0 at F = 0, where both fractions vanish."""
    eps = np.asarray(eps, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_f = np.log1p(-eps)
        fn = np.exp(n * log_f)
        return n * fn / (-np.expm1(n * log_f)) - (1.0 - eps) / eps


def lamb_aux_boundary(n: int) -> float:
    """lim_{F->1} h(F), via Richardson extrapolation from F = 1 - 1e-6.

    h(1-eps) approaches the limit linearly in eps (slope (n^2-1)/12), so a
    two-point extrapolation removes the leading term.
    """
    h1 = float(_lamb_aux_h(1e-6, n))
    h2 = float(_lamb_aux_h(5e-7, n))
    return 2.0 * h2 - h1


def check_lamb_aux(n_max: int) -> CheckResult:
    """(1+lam) n F^n/(1-F^n) + (n-1) >= (1+lam) F/(1-F) on 2000 points F in
    [0, 1-1e-4], plus the F -> 1 boundary value -(n-1)/2."""
    if n_max < 2:
        raise ValueError("need n_max >= 2")
    for n in range(2, n_max + 1):
        limit_err = abs(lamb_aux_boundary(n) + (n - 1) / 2.0)
        if not limit_err <= 1e-6:
            return CheckResult("lamb_aux", -limit_err, False, f"boundary n={n}")
    eps_grid = 1.0 - np.linspace(0.0, 1.0 - 1e-4, 2000)
    # The slack is affine in lam, so its least value over [0, 1] is at an end.
    lams = (0.0, 1.0)

    def cases(n):
        slack = (1.0 + np.array(lams)[:, None]) * _lamb_aux_h(eps_grid, n) + (n - 1)
        for lam, row, i in zip(lams, slack, np.argmin(slack, axis=1)):
            yield row[i], f"n={n} lam={lam} F={1.0 - eps_grid[i]:.6g}"

    return _worst("lamb_aux", (case for n in range(2, n_max + 1) for case in cases(n)), 1e-9)


# ---------------------------------------------------------------------------
# The prefix-constrained pricing program


def program_objective(rs, ps, n: int) -> float:
    return float(sum_left(r * math.exp(-p * n) for r, p in zip(rs, ps)))


def program_optimum(rs, n: int, lam: float):
    """Exact maximizer of sum r_j exp(-n p_j) subject to
    n (p_1 + ... + p_s) >= s c(lam)/2 for every s and 0 <= p_j <= 1.

    The objective is convex and the polytope bounded, so the max sits at a
    vertex.  There k independent constraints are tight, each reading
    P_t = P_{t-1}, P_t = P_{t-1} + 1 or P_s = s a for the prefix sums P_t,
    with a = c/(2n) and P_0 = 0; chained, they put every P_t on the lattice
    s a + m, 0 <= s <= k, m an integer.  A DP over t on the lattice points
    in [0, k] is therefore exact.  The points are sorted, so each one's
    predecessors (steps in [0, 1]) lie in one searchsorted window: about
    k^2 points times a window of about 2k, over k steps, O(k^4) in all.
    Steps come from the lattice indices, so the uniform step is exactly a.
    Returns (value, p) with the value summed by `program_objective`.
    """
    k = len(rs)
    a = c_of_lambda(lam) / (2.0 * n)
    s, m = np.divmod(np.arange((k + 1) * (2 * k + 1)), 2 * k + 1)
    m -= k
    P = s * a + m
    keep = (P >= -1e-12) & (P <= k + 1e-12)
    order = np.argsort(P[keep], kind="stable")
    s, m, P = s[keep][order], m[keep][order], P[keep][order]
    lo = np.searchsorted(P, P - 1.0 - 1e-9, "left")
    hi = np.searchsorted(P, P + 1e-9, "right")
    window = int((hi - lo).max())
    # The (points x window) tables hold about 2k^3 entries, so they are
    # built, and each step's candidates formed, a block of points at a time;
    # every point's entries depend on that point alone.
    block = max(1, (1 << 16) // window)
    pred = np.empty((len(P), window), dtype=np.int32)
    gain = np.empty((len(P), window))
    offsets = np.arange(window)
    for b in range(0, len(P), block):
        pb = lo[b : b + block, None] + offsets
        pb = np.minimum(pb, hi[b : b + block, None] - 1)
        step = (s[b : b + block, None] - s[pb]) * a + (m[b : b + block, None] - m[pb])
        gain[b : b + block] = np.exp(-n * np.clip(step, 0.0, 1.0))
        # Slot len(P) holds -inf: steps outside [0, 1] are routed there.
        pb[(step < -1e-12) | (step > 1.0 + 1e-12)] = len(P)
        pred[b : b + block] = pb
    value = np.full(len(P) + 1, -np.inf)
    value[np.flatnonzero((s == 0) & (m == 0))] = 0.0
    rows = np.arange(min(block, len(P)))
    back = []
    for t, r in enumerate(rs, start=1):
        # Only points with t a <= P <= t can be reached in t steps (up to
        # rounding, which these bounds cover): every other value stays -inf.
        lo_t = int(np.searchsorted(P, t * a - 1e-9, "left"))
        hi_t = int(np.searchsorted(P, t + 1e-9 * (t + 1), "right"))
        reached = np.empty(len(P) + 1)
        reached.fill(-np.inf)
        best_pred = np.empty(hi_t - lo_t, dtype=np.int32)
        for b in range(lo_t, hi_t, block):
            e = min(b + block, hi_t)
            cand = value[pred[b:e]] + r * gain[b:e]
            best = cand.argmax(axis=1)
            reached[b:e] = cand[rows[: e - b], best]
            best_pred[b - lo_t : e - lo_t] = pred[b:e][rows[: e - b], best]
        value = reached
        value[:-1][(s - t) * a + m < -1e-12] = -np.inf  # P_t >= t a
        back.append((lo_t, best_pred))
    path = [int(np.argmax(value[:-1]))]
    for lo_t, b in reversed(back):
        path.append(int(b[path[-1] - lo_t]))
    path = np.array(path[::-1])
    p = np.diff(s[path]) * a + np.diff(m[path])
    return program_objective(rs, p, n), p


def check_optprog(rs, n: int, lam: float) -> CheckResult:
    """Does the uniform vector p_j = c(lam)/(2n) solve the program?

    Compares the analytic value sum(r) e^{-c/2} against the exact optimum of
    `program_optimum`; the margin alone decides.  Raises ValueError unless
    n >= 1, lam lies in [0, 1] and the weights are finite, nonnegative and
    nonincreasing; since c(lam)/2 <= 1/(2e) < 1 <= n, the uniform point then
    lies in the box.

    Note: the uniform point is the true optimum only when successive ratios
    r_j/r_{j+1} are large enough; for near-flat weights a vertex that zeroes
    a later coordinate wins and this check reports failure.
    """
    rs = [float(r) for r in rs]
    if not n >= 1:
        raise ValueError(f"need n >= 1, got n={n}")
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")
    if not all(math.isfinite(r) for r in rs):
        raise ValueError("weights must be finite")
    if any(b > a + 1e-12 for a, b in zip(rs, rs[1:])) or any(r < 0 for r in rs):
        raise ValueError("weights must be nonincreasing and nonnegative")
    c = c_of_lambda(lam)
    k = len(rs)
    scale = max(1.0, sum_left(rs))
    analytic = sum_left(rs) * math.exp(-c / 2.0)
    if c == 0.0:
        # Constraints are vacuous; optimum is p = 0 with objective sum(rs).
        return CheckResult("optprog", 0.0, True, "lam=1 degenerate")
    oracle_val, _ = program_optimum(rs, n, lam)
    margin = (analytic - oracle_val) / scale  # 0 iff the uniform point is optimal
    return CheckResult("optprog", margin, margin >= -1e-4, f"k={k} n={n} lam={lam:g}")


# ---------------------------------------------------------------------------


def exact_no_large_elements(n: int, k: int) -> tuple[int, int]:
    """(C(n-k, s), C(n, s)) with s = ceil(n/k), whose ratio is the chance a
    uniformly random s-subset of n draws avoids all of the top k."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    s = math.ceil(n / k)
    return math.comb(n - k, s), math.comb(n, s)


def check_lemma_main(d: Distribution, cases) -> CheckResult:
    """k E[v^(1,ceil(n/k))] >= (1-1/e) sum_{j<=k} E[v^(j,n)], with the exact
    combinatorial core C(n-k,s)/C(n,s) <= 1/e checked in integer arithmetic
    and a deterministic cross-check of the right-hand side.

    The cross-check holds sum_j E[v^(j,n)] from `expected_rank` to
    `top_k_sums`, a second quadrature of another formula by another rule,
    within 1e-9 of sum_{j<=k} |t_j - t_(j-1)| over the top-k sums t (t_0 =
    0), a scale that no signed support cancels; a NaN fails it.  The detail
    reports the largest relative difference."""
    top = {}
    worst = math.inf
    worst_at = ""
    rel_max = 0.0
    for n, k in cases:
        avoid, subsets = exact_no_large_elements(n, k)
        if avoid * INV_E_UPPER[1] > INV_E_UPPER[0] * subsets:
            return CheckResult("lemma_main", -1.0, False, f"combinatorial core n={n} k={k}")
        if n not in top:
            top[n] = top_k_sums(d, n)
        t = top[n][:k].tolist()
        lhs = k * ipm_price(d, n, k)
        rhs_sum = sum_left(expected_rank(d, j, n) for j in range(1, k + 1))
        scale = sum_left(abs(b - a) for a, b in zip([0.0, *t], t)) or 1.0
        rel = abs(rhs_sum - t[-1]) / scale
        if not rel <= 1e-9:
            return CheckResult("lemma_main", -rel, False, f"cross-check n={n} k={k} rel diff={rel:.2g}")
        rel_max = max(rel_max, rel)
        rhs = (1.0 - 1.0 / math.e) * rhs_sum
        slack = (lhs - rhs) / max(1.0, rhs)
        if slack < worst:
            worst, worst_at = slack, f"n={n} k={k}"
    return CheckResult("lemma_main", worst, worst >= -3e-6, f"{worst_at} max rel diff={rel_max:.2g}")


def check_facts_2_3(d: Distribution, s_max: int) -> CheckResult:
    """Fact 2: P[v^(1,t) >= E[v^(1,t)]] >= c(lam) for t <= s_max.
    Fact 3: P[v^(1,s-1) >= E[v^(1,s)]] >= ((s-1)/s) c(lam) for s <= s_max."""
    c = c_of_lambda(d.lambda_claimed)
    fact2 = [(max_tail_probability(d, t, expected_rank(d, 1, t)) - c, f"fact2 t={t}") for t in range(1, s_max + 1)]
    fact3 = [
        (max_tail_probability(d, s - 1, expected_rank(d, 1, s)) - ((s - 1) / s) * c, f"fact3 s={s}")
        for s in range(2, s_max + 1)
    ]
    return _worst("facts_2_3", fact2 + fact3, 1e-4)


def check_monopolist_tau(d: Distribution, lam: float, p_grid) -> CheckResult:
    """(1 - F(phi^-1(p))) / (1 - F(p)) >= c(lam) over the price grid."""
    c = c_of_lambda(lam)
    cases = ((monopolist_tau_analytic(d, float(p)) - c, f"p={p:.6g}") for p in p_grid)
    return _worst("monopolist_tau", cases, 1e-5)


def check_claim1(d: Distribution, ns=(4, 8, 16)) -> CheckResult:
    """n P[v >= u_j] >= (j/2) c(lam) for u_j = E[v^(1, ceil(n/j))], j <= n."""
    c = c_of_lambda(d.lambda_claimed)
    cases = (
        (n * float(d.survival(ipm_price(d, n, j))) - 0.5 * j * c, f"n={n} j={j}")
        for n in ns
        for j in range(1, n + 1)
    )
    return _worst("claim1", cases, 1e-4)


def check_regularity(d: Distribution, lam: float, n: int = 1) -> CheckResult:
    """lam-regularity of the max of n draws of ``d``: its generalized virtual
    margin m(v) = lam*v - (1-F(v)^n)/(n F(v)^(n-1) f(v)) must be
    nondecreasing on `_quantile_grid`.  By Fact 1 it is whenever ``d`` is
    lam-regular; n = 1 tests ``d`` itself.

    The margin reported is the smallest step of m over a scale, the largest
    of |lam*v| + |(1-F^n)/(n F^(n-1) f)| on the grid (at least 1), and passes
    at >= -1e-7: finite-difference noise never masks a linear-in-v violation
    (e.g. Pareto(2) tested at lam < 1/2).
    """
    grid = _quantile_grid(d, n)
    # log F once: 1 - F^n = -expm1(n log F), as `max_tail_probability` has it.
    log_f = np.log1p(-d.survival(grid))
    ratio = -np.expm1(n * log_f) / (n * np.exp((n - 1) * log_f) * d.pdf(grid))
    # Scale against the components of the margin, not the margin itself:
    # the margin can cancel to ~0 (Pareto at its exact lambda) while the
    # rounding noise tracks lam*v and the ratio individually.
    scale = max(1.0, float(np.max(np.abs(lam * grid) + np.abs(ratio))))
    worst = float(np.min(np.diff(lam * grid - ratio))) / scale
    return CheckResult("regularity", worst, worst >= -1e-7, f"n={n} lam={lam:g}")


def check_fact1(d: Distribution, lam: float, n_max: int) -> CheckResult:
    """Fact 1: the max of n draws of a lam-regular ``d`` is lam-regular,
    checked by `check_regularity` for n = 1..n_max.  The row is named
    fact1_convexity, the name perfbench's verify.CHECK_ROWS looks up."""
    cases = (check_regularity(d, lam, n) for n in range(1, n_max + 1))
    return _worst("fact1_convexity", ((r.worst_margin, r.detail) for r in cases), 1e-7)


# ---------------------------------------------------------------------------
# Registry


def _per_family(check):
    """Registry entry: ``check(d)`` for every builtin family, with the
    family's descriptor leading each row's detail."""

    def run():
        out = []
        for d in builtin_families():
            r = check(d)
            r.detail = f"{d.descriptor} {r.detail}"
            out.append(r)
        return out

    return run


def _tau_on_quantiles(d: Distribution) -> CheckResult:
    grid = [float(d.quantile(q)) for q in (0.05, 0.25, 0.5, 0.75, 0.9)]
    return check_monopolist_tau(d, d.lambda_claimed, grid)


def _negcontrol(name: str, check, label: str = ""):
    """Registry entry for a negative control: ``check()`` must fail, so the
    row, renamed ``name`` and its detail led by ``label``, passes iff the
    checker reported failure."""

    def run():
        r = check()
        r.name, r.detail, r.passed = name, label + r.detail, not r.passed
        return [r]

    return run


LEMMA_MAIN_CASES = [(n, k) for n in (4, 6, 12) for k in (1, 2, 3, n)]

REGISTRY = {
    "fact1": _per_family(lambda d: check_fact1(d, d.lambda_claimed, n_max=8)),
    "lamb_aux": lambda: [check_lamb_aux(12)],
    "optprog": lambda: [check_optprog((3.0, 2.0, 1.0), 10, lam) for lam in (0.0, 0.25, 0.5, 0.75, 1.0)],
    "lemma_main": _per_family(lambda d: check_lemma_main(d, LEMMA_MAIN_CASES)),
    "facts23": _per_family(lambda d: check_facts_2_3(d, 32)),
    "tau": _per_family(_tau_on_quantiles),
    "claim1": _per_family(check_claim1),
    # A heavy tail tested as if it were light-tailed must fail.
    "negcontrol_fact1": _negcontrol(
        "negcontrol_fact1", lambda: check_fact1(Pareto(2.0, 1.0), 0.0, n_max=8), "pareto:2:1 "
    ),
    # Flat weights: a vertex zeroing the last coordinate beats the uniform
    # point, so the checker must report failure.
    "negcontrol_optprog": _negcontrol("negcontrol_optprog", lambda: check_optprog((1.0, 1.0), 10, 0.0)),
    # Pareto(2) is 1/2-regular and no more: tested at lam = 0.25 it must fail.
    "negcontrol_regularity": _negcontrol(
        "negcontrol_regularity", lambda: check_regularity(Pareto(2.0, 1.0), 0.25), "pareto:2:1 "
    ),
}


def run_checks(names=None) -> list[CheckResult]:
    if names is None:
        names = list(REGISTRY)
    out = []
    for name in names:
        out.extend(REGISTRY[name]())
    return out
