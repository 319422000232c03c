"""Correctness checks on the reports ipmlab writes, from the standard library only.

Each function returns the number of failed operations in one report.  An
operation is one scenario of `ipmlab simulate` or one CheckResult row of
`ipmlab check`.

* `ipm` and `item_price` revenue must match the closed form
  p * E[min(k, Bin(n, 1 - F(thr)))], with p and thr computed here from the
  family's closed forms, and the reported ci95 must match the exact one.
* `kplus1`, `bundle` and `het_ipm` revenue must match a reference recorded
  with many replicates (references.json), within three times the combined
  ci95, so that a change of RNG stream still passes.
* A scenario with a bound must report PASS; every check row must report
  passed, the negative controls included (they pass by failing).
"""

from __future__ import annotations

import json
import math
import os

CSV_FIELDS = (
    "scenario_id", "dist", "lambda", "n", "k", "structure", "model", "mechanism",
    "reps", "mean_rev", "ci95", "mean_wel", "analytic_wel", "ratio", "bound", "passed",
)
# A statistical comparison may miss by this many reported ci95 (about
# 5.9 standard errors), so chance failures stay negligible over many runs.
CI_MULTIPLE = 3.0
# Relative slack for the program's quadrature and price search (~1e-6).
NUMERIC_RTOL = 1e-6
# The reported ci95 may differ from the exact one by sampling error in the
# standard deviation, which is well under 1 % at these replicate counts.
CI_RTOL = 0.1
CHECK_ROWS = {
    "fact1": "fact1_convexity",
    "lamb_aux": "lamb_aux",
    "optprog": "optprog",
    "lemma_main": "lemma_main",
    "facts23": "facts_2_3",
    "tau": "monopolist_tau",
    "claim1": "claim1",
    "negcontrol_fact1": "negcontrol_fact1",
    "negcontrol_optprog": "negcontrol_optprog",
}

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")) as _fh:
    REFERENCES = json.load(_fh)


def parse_config(text: str) -> tuple[dict, list[dict]]:
    """The flat `key = value` format with repeated [scenario] blocks."""
    globals_: dict = {}
    scenarios: list[dict] = []
    current = globals_
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line == "[scenario]":
            current = {}
            scenarios.append(current)
        elif "=" in line:
            key, _, val = line.partition("=")
            current[key.strip()] = val.strip()
    return globals_, scenarios


# ---------------------------------------------------------------------------
# Closed forms for the families the workloads use


def _family(dist: str):
    kind, *args = dist.split(":")
    return kind, [float(a) for a in args]


def expected_max(dist: str, s: int) -> float:
    """E of the max of s i.i.d. draws."""
    kind, args = _family(dist)
    if kind == "exp":
        return sum(1.0 / i for i in range(1, s + 1)) / args[0]
    if kind == "pareto":
        a, xm = args
        return xm * math.exp(math.lgamma(s + 1) + math.lgamma(1 - 1 / a) - math.lgamma(s + 1 - 1 / a))
    raise ValueError(f"no closed form for {dist}")


def monopoly_price(dist: str) -> float:
    """argmax p (1 - F(p))."""
    kind, args = _family(dist)
    if kind == "exp":
        return 1.0 / args[0]
    if kind == "pareto":
        return args[1]
    raise ValueError(f"no closed form for {dist}")


def inverse_virtual_value(dist: str, p: float) -> float:
    """v with v - (1 - F(v)) / f(v) = p."""
    kind, args = _family(dist)
    if kind == "exp":
        return p + 1.0 / args[0]
    if kind == "pareto":
        a, xm = args
        return max(xm, p * a / (a - 1.0))
    raise ValueError(f"no closed form for {dist}")


def survival(dist: str, x: float) -> float:
    kind, args = _family(dist)
    if kind == "exp":
        return math.exp(-args[0] * x)
    if kind == "pareto":
        a, xm = args
        return 1.0 if x <= xm else (xm / x) ** a
    raise ValueError(f"no closed form for {dist}")


def capped_binomial_moments(n: int, q: float, k: int) -> tuple[float, float]:
    """Mean and variance of min(k, Bin(n, q))."""
    m1 = m2 = 0.0
    for j in range(n + 1):
        if q <= 0.0:
            pmf = 1.0 if j == 0 else 0.0
        elif q >= 1.0:
            pmf = 1.0 if j == n else 0.0
        else:
            pmf = math.exp(
                math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)
                + j * math.log(q) + (n - j) * math.log1p(-q)
            )
        units = min(j, k)
        m1 += units * pmf
        m2 += units * units * pmf
    return m1, max(m2 - m1 * m1, 0.0)


def uniform_price_revenue(sc: dict) -> tuple[float, float]:
    """Exact mean and standard deviation of per-replicate revenue."""
    dist, n, k = sc["dist"], int(sc["n"]), int(sc["k"])
    if sc["mechanism"] == "ipm":
        p = expected_max(dist, math.ceil(n / k))
    else:
        p = monopoly_price(dist)
    thr = inverse_virtual_value(dist, p) if sc["model"] == "monopolist" else p
    mean, var = capped_binomial_moments(n, survival(dist, thr), k)
    return p * mean, p * math.sqrt(var)


# ---------------------------------------------------------------------------


def simulate_failures(csv_text: str, globals_: dict, scenarios: list[dict], exit_code: int) -> int:
    """Failed scenarios in one `ipmlab simulate` report."""
    lines = [line for line in csv_text.splitlines() if line]
    if exit_code not in (0, 4) or not lines or lines[0] != ", ".join(CSV_FIELDS):
        return len(scenarios)
    rows = [dict(zip(CSV_FIELDS, line.split(", "))) for line in lines[1:]]
    failed = max(len(scenarios) - len(rows), 0)
    for sc, row in zip(scenarios, rows):
        failed += 0 if _scenario_ok(sc, row, int(sc.get("reps", globals_["reps"]))) else 1
    return failed


def _scenario_ok(sc: dict, row: dict, reps: int) -> bool:
    if len(row) != len(CSV_FIELDS):
        return False
    same = all(row[key] == sc[key] for key in ("dist", "n", "structure", "model", "mechanism"))
    same &= row["scenario_id"] == sc["id"] and int(row["reps"]) == reps
    if not same:
        return False
    if row["bound"] and row["passed"] != "True":
        return False
    mean, ci = float(row["mean_rev"]), float(row["ci95"])
    if sc["mechanism"] in ("ipm", "item_price"):
        exact, sd = uniform_price_revenue(sc)
        exact_ci = 1.96 * sd / math.sqrt(reps)
        slack = NUMERIC_RTOL * abs(exact)
        if abs(ci - exact_ci) > CI_RTOL * exact_ci + slack:
            return False
        return abs(mean - exact) <= CI_MULTIPLE * exact_ci + slack
    ref = REFERENCES[sc["id"]]
    if any(ref[key] != sc[key] for key in ("dist", "n", "structure", "model", "mechanism")):
        return False
    return abs(mean - ref["mean_rev"]) <= CI_MULTIPLE * math.hypot(ci, ref["ci95"])


def check_failures(stdout: str, names: list[str], exit_code: int) -> tuple[int, int]:
    """(attempted, failed) CheckResult rows in one `ipmlab check` output.

    Each registry name that produced no row counts as one failed operation.
    """
    rows = [line.split(", ") for line in stdout.splitlines()[1:] if line and not line.startswith("#")]
    seen = {row[0] for row in rows}
    missing = sum(1 for name in names if CHECK_ROWS[name] not in seen)
    failed = sum(1 for row in rows if row[-1] != "True") + missing
    if exit_code != 0 and failed == 0:
        failed = 1
    return len(rows) + missing, failed
