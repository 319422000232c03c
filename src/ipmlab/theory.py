"""Numerical verifiers for the analytic inequalities behind the bounds.

Each check evaluates one inequality on a (quantile-spaced) grid against an
independent oracle and reports the most-violating slack.  These certify
numerically on grids, not universally.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .agents import monopolist_tau_analytic
from .distributions import Distribution, Pareto, builtin_families, c_of_lambda, g_lambda
from .errors import InfeasibleClaim
from .order_statistics import expected_rank, tail_probability_vs_mean

# Certified rational bounds: 2.718281828459045 < e < 2.718281828459046.
INV_E_LOWER = Fraction(10**15, 2718281828459046)
INV_E_UPPER = Fraction(10**15, 2718281828459045)


@dataclass
class CheckResult:
    name: str
    worst_margin: float
    passed: bool
    detail: str = ""

    def row(self) -> str:
        return f"{self.name}, {self.worst_margin:.6g}, {self.detail}, {self.passed}"


def check_fact1_convexity(d: Distribution, lam: float, n_max: int, grid_size: int = 400) -> CheckResult:
    """Convexity of g_lam(F(x)^n) in x, for n = 1..n_max.

    Checked as monotonicity of chords on a quantile-spaced grid; slack is
    relative to the local slope magnitude so heavy tails don't trip it.
    """
    us = np.linspace(1e-6, 1.0 - 1e-6, grid_size)
    xs = np.asarray(d.quantile(us), dtype=float)
    F = np.asarray(d.cdf(xs), dtype=float)
    worst = math.inf
    detail = ""
    for n in range(1, n_max + 1):
        y = np.asarray(g_lambda(lam, np.power(F, n)), dtype=float)
        slopes = np.diff(y) / np.diff(xs)
        scale = np.maximum(1.0, np.maximum(np.abs(slopes[1:]), np.abs(slopes[:-1])))
        rel = np.diff(slopes) / scale
        i = int(np.argmin(rel))
        if rel[i] < worst:
            worst = float(rel[i])
            detail = f"n={n} x={xs[i + 1]:.6g}"
    return CheckResult("fact1_convexity", worst, worst >= -1e-6, detail)


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


def check_lamb_aux(n_max: int, grid_size: int = 2000) -> CheckResult:
    """(1+lam) n F^n/(1-F^n) + (n-1) >= (1+lam) F/(1-F) on F in [0, 1-1e-4],
    plus the F -> 1 boundary value -(n-1)/2."""
    if n_max < 2:
        raise ValueError("need n_max >= 2")
    eps_grid = 1.0 - np.linspace(0.0, 1.0 - 1e-4, grid_size)
    worst = math.inf
    detail = ""
    for n in range(2, n_max + 1):
        h = _lamb_aux_h(eps_grid, n)
        for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
            slack = (1.0 + lam) * h + (n - 1)
            i = int(np.argmin(slack))
            if slack[i] < worst:
                worst = float(slack[i])
                detail = f"n={n} lam={lam} F={1.0 - eps_grid[i]:.6g}"
        limit_err = abs(lamb_aux_boundary(n) + (n - 1) / 2.0)
        if limit_err > 1e-6:
            return CheckResult("lamb_aux", -limit_err, False, f"boundary n={n}")
    return CheckResult("lamb_aux", worst, worst >= -1e-9, detail)


# ---------------------------------------------------------------------------
# The prefix-constrained pricing program


def program_objective(rs, ps, n: int) -> float:
    return float(sum(r * math.exp(-p * n) for r, p in zip(rs, ps)))


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


def check_optprog(rs, n: int, lam: float) -> CheckResult:
    """Does the uniform vector p_j = c(lam)/(2n) solve the program?

    Compares the analytic value against a certified vertex-enumeration
    optimum (plus a coordinate-descent oracle, and a grid for k <= 3) and
    verifies the shadow prices S_j = r_j e^{-c/2}/n are a feasible,
    value-matching dual certificate.

    Note: the uniform point is the true optimum only when successive ratios
    r_j/r_{j+1} are large enough; for near-flat weights a vertex that zeroes
    a later coordinate wins and this check reports failure.
    """
    rs = [float(r) for r in rs]
    if any(b > a + 1e-12 for a, b in zip(rs, rs[1:])) or any(r < 0 for r in rs):
        raise ValueError("weights must be nonincreasing and nonnegative")
    c = c_of_lambda(lam)
    if c / 2.0 > n:
        raise InfeasibleClaim(f"claimed optimum c/2n = {c / (2 * n):.4g} exceeds 1")
    k = len(rs)
    scale = max(1.0, sum(rs))
    analytic = sum(rs) * math.exp(-c / 2.0)
    if c == 0.0:
        # Constraints are vacuous; optimum is p = 0 with objective sum(rs).
        return CheckResult("optprog", 0.0, True, "lam=1 degenerate")
    oracle_val, oracle_p = program_vertex_optimum(rs, n, lam)
    cd_val, _ = _program_descent_oracle(rs, n, lam)
    oracle_val = max(oracle_val, cd_val)
    if k <= 3:
        grid_val, _ = _program_grid_oracle(rs, n, lam)
        # The grid undershoots by at most its resolution; it must never beat
        # the certified optimum materially.
        if grid_val > oracle_val + 1e-6 * scale:
            return CheckResult("optprog", (oracle_val - grid_val) / scale, False, "grid beat vertex oracle")
    margin = (analytic - oracle_val) / scale  # 0 iff the uniform point is optimal
    # Dual certificate for the uniform point.
    S = [r * math.exp(-c / 2.0) / n for r in rs]
    dual_ok = all(S[j] >= S[j + 1] - 1e-12 for j in range(k - 1))
    dual_ok &= all(r / (n * math.exp(n)) - 1e-12 <= s <= r / n + 1e-12 for r, s in zip(rs, S))
    dual_val = sum(
        s * (n - c / 2.0) - s * math.log(n * s / r) if r > 0 else 0.0 for r, s in zip(rs, S)
    )
    dual_ok &= abs(dual_val - analytic) <= 1e-9 * scale
    passed = margin >= -1e-4 and dual_ok
    return CheckResult("optprog", margin, passed, f"k={k} n={n} lam={lam:g}")


# ---------------------------------------------------------------------------


def exact_no_large_elements(n: int, k: int) -> Fraction:
    """C(n-k, s)/C(n, s) with s = ceil(n/k): the chance a uniformly random
    s-subset of n draws avoids all of the top k."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    s = math.ceil(n / k)
    if s > n - k:
        return Fraction(0)
    return Fraction(math.comb(n - k, s), math.comb(n, s))


def check_lemma_main(d: Distribution, cases, reps: int = 200_000, rng_seed: int = 0) -> CheckResult:
    """k E[v^(1,ceil(n/k))] >= (1-1/e) sum_{j<=k} E[v^(j,n)], with the exact
    combinatorial core C(n-k,s)/C(n,s) <= 1/e checked in rational arithmetic
    and an MC cross-check of the right-hand side.  The cross-check draws one
    (reps, max n) sample: case n sorts its first n columns once, and each
    top-k sum is a prefix sum of that sort.  The detail reports the largest
    cross-check |z| = |mc - sum_j E[v^(j,n)]| / se."""
    cases = list(cases)
    draws = np.random.default_rng(rng_seed).random((reps, max(n for n, _ in cases)))
    d.quantile(draws, out=draws)
    top_sums = {}
    worst = math.inf
    worst_at = ""
    z_max = 0.0
    for n, k in cases:
        if exact_no_large_elements(n, k) > INV_E_UPPER:
            return CheckResult("lemma_main", -1.0, False, f"combinatorial core n={n} k={k}")
        lhs = k * expected_rank(d, 1, math.ceil(n / k))
        rhs_terms = [expected_rank(d, j, n) for j in range(1, k + 1)]
        rhs = (1.0 - 1.0 / math.e) * sum(rhs_terms)
        if n not in top_sums:
            top_sums[n] = np.cumsum(np.sort(draws[:, :n], axis=1)[:, ::-1], axis=1)
        sums = top_sums[n][:, k - 1]
        mc = float(sums.mean())
        mc_se = float(sums.std(ddof=1)) / math.sqrt(reps)
        if abs(mc - sum(rhs_terms)) > 5.0 * mc_se + 1e-4 * max(1.0, mc):
            return CheckResult("lemma_main", mc - sum(rhs_terms), False, f"MC cross-check n={n} k={k}")
        z_max = max(z_max, abs(mc - sum(rhs_terms)) / mc_se)
        slack = (lhs - rhs) / max(1.0, rhs)
        if slack < worst:
            worst, worst_at = slack, f"n={n} k={k}"
    return CheckResult("lemma_main", worst, worst >= -3e-6, f"{worst_at} max|z|={z_max:.2g}")


def check_facts_2_3(d: Distribution, s_max: int) -> CheckResult:
    """Fact 2: P[v^(1,t) >= E[v^(1,t)]] >= c(lam) for t <= s_max.
    Fact 3: P[v^(1,s-1) >= E[v^(1,s)]] >= ((s-1)/s) c(lam) for s <= s_max."""
    c = c_of_lambda(d.lambda_claimed)
    worst = math.inf
    detail = ""
    for t in range(1, s_max + 1):
        slack = tail_probability_vs_mean(d, t) - c
        if slack < worst:
            worst, detail = slack, f"fact2 t={t}"
    for s in range(2, s_max + 1):
        m = expected_rank(d, 1, s)
        p = float(-np.expm1((s - 1) * np.log(np.clip(d.cdf(m), 1e-300, 1.0))))
        slack = p - ((s - 1) / s) * c
        if slack < worst:
            worst, detail = slack, f"fact3 s={s}"
    return CheckResult("facts_2_3", worst, worst >= -1e-4, detail)


def check_monopolist_tau(d: Distribution, lam: float, p_grid) -> CheckResult:
    """(1 - F(phi^-1(p))) / (1 - F(p)) >= c(lam) over the price grid."""
    c = c_of_lambda(lam)
    worst = math.inf
    detail = ""
    for p in p_grid:
        ratio = monopolist_tau_analytic(d, float(p))
        if ratio - c < worst:
            worst, detail = ratio - c, f"p={p:.6g}"
    return CheckResult("monopolist_tau", worst, worst >= -1e-5, detail)


def check_claim1(d: Distribution, ns=(4, 8, 16)) -> CheckResult:
    """n P[v >= u_j] >= (j/2) c(lam) for u_j = E[v^(1, ceil(n/j))], j <= n."""
    c = c_of_lambda(d.lambda_claimed)
    worst = math.inf
    detail = ""
    for n in ns:
        for j in range(1, n + 1):
            u_j = expected_rank(d, 1, math.ceil(n / j))
            lhs = n * float(1.0 - d.cdf(u_j))
            slack = lhs - 0.5 * j * c
            if slack < worst:
                worst, detail = slack, f"n={n} j={j}"
    return CheckResult("claim1", worst, worst >= -1e-4, detail)


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


def _negcontrol_fact1():
    # A heavy tail tested as if it were light-tailed must fail.
    r = check_fact1_convexity(Pareto(2.0, 1.0), 0.0, n_max=8)
    r.name = "negcontrol_fact1"
    r.detail = f"pareto:2:1 at lam=0 {r.detail}"
    r.passed = not r.passed  # the control passes iff the checker failed
    return [r]


def _negcontrol_optprog():
    # Flat weights: a vertex zeroing the last coordinate beats the uniform
    # point, so the checker must report failure.
    r = check_optprog((1.0, 1.0), 10, 0.0)
    r.name = "negcontrol_optprog"
    r.passed = not r.passed
    return [r]


REGISTRY = {
    "fact1": _per_family(lambda d: check_fact1_convexity(d, d.lambda_claimed, n_max=8)),
    "lamb_aux": lambda: [check_lamb_aux(12)],
    "optprog": lambda: [check_optprog((3.0, 2.0, 1.0), 10, lam) for lam in (0.0, 0.25, 0.5, 0.75, 1.0)],
    "lemma_main": _per_family(
        lambda d: check_lemma_main(d, [(n, k) for n in (4, 6, 12) for k in (1, 2, 3, n)], reps=50_000)
    ),
    "facts23": _per_family(lambda d: check_facts_2_3(d, 32)),
    "tau": _per_family(_tau_on_quantiles),
    "claim1": _per_family(check_claim1),
    "negcontrol_fact1": _negcontrol_fact1,
    "negcontrol_optprog": _negcontrol_optprog,
}


def run_checks(names=None) -> list[CheckResult]:
    if names is None:
        names = list(REGISTRY)
    unknown = [n for n in names if n not in REGISTRY]
    if unknown:
        raise KeyError(f"unknown check(s): {', '.join(unknown)}")
    out = []
    for name in names:
        out.extend(REGISTRY[name]())
    return out
