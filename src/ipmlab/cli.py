"""Command-line front end.

Exit codes: 0 success, 2 parse error, 3 numeric failure, 4 bound failure,
5 unknown check name.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

from . import agents, simulation, theory
from .distributions import parse_distribution
from .errors import IpmLabError, ParseError
from .mechanisms import build_menu, ipm_price

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NUMERIC = 3
EXIT_BOUND = 4
EXIT_UNKNOWN_CHECK = 5


@dataclass
class ExperimentConfig:
    output: str
    scenarios: list[simulation.Scenario]


_GLOBAL_KEYS = {"seed", "reps", "output"}
_SCENARIO_KEYS = {
    "id", "dist", "n", "k", "structure", "model", "mechanism",
    "reps", "etas", "seed", "order", "epsilon",
}


def parse_config(text: str) -> ExperimentConfig:
    """Flat key-value lines with repeated [scenario] blocks."""
    globals_: dict = {}
    raw_scenarios: list[dict] = []
    current: dict | None = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "[scenario]":
            current = {}
            raw_scenarios.append(current)
            continue
        if line.startswith("["):
            raise ParseError(f"line {lineno}: unknown section {line}")
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected key = value")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if current is None:
            if key not in _GLOBAL_KEYS:
                raise ParseError(f"line {lineno}: unknown global key {key!r}")
            globals_[key] = val
        else:
            if key not in _SCENARIO_KEYS:
                raise ParseError(f"line {lineno}: unknown scenario key {key!r}")
            current[key] = val
    if "seed" not in globals_:
        raise ParseError("config must set an explicit seed")
    try:
        seed = int(globals_["seed"])
        reps = int(globals_.get("reps", 100_000))
    except ValueError as exc:
        raise ParseError(f"bad integer in config: {exc}") from exc
    if reps < 1:
        raise ParseError("reps must be >= 1")
    # Built here, so a bad scenario is a parse error (exit code 2) before any runs.
    scenarios = [_scenario_from_keys(raw, idx, seed, reps) for idx, raw in enumerate(raw_scenarios)]
    return ExperimentConfig(output=globals_.get("output", "report.csv"), scenarios=scenarios)


def _scenario_from_keys(raw: dict, idx: int, default_seed: int, default_reps: int) -> simulation.Scenario:
    try:
        d = parse_distribution(raw["dist"])
        n = int(raw["n"])
        k = int(raw.get("k", raw.get("etas", "").count(",") + 1 if raw.get("etas") else 1))
        reps = int(raw.get("reps", default_reps))
        seed = int(raw.get("seed", default_seed))
        mech = raw.get("mechanism", "ipm").strip().lower()
        structure = agents.parse_structure(raw.get("structure", "competition"), n)
        model = agents.parse_behavior(raw.get("model", "surplus"))
        etas = None
        if raw.get("etas"):
            etas = tuple(float(x) for x in raw["etas"].split(","))
        epsilon = float(raw["epsilon"]) if "epsilon" in raw else None
        scenario = simulation.Scenario(
            d=d, n=n, k=k, structure=structure, model=model, mechanism=mech,
            etas=etas, reps=reps, master_seed=seed,
            scenario_id=raw.get("id", f"scenario{idx + 1}"),
            order_policy=raw.get("order", "random"),
            epsilon=epsilon,
        )
    except KeyError as exc:
        raise ParseError(f"scenario {idx + 1}: missing key {exc}") from exc
    except (ValueError, ParseError) as exc:
        raise ParseError(f"scenario {idx + 1}: {exc}") from exc
    return scenario


# ---------------------------------------------------------------------------


def cmd_price(args) -> int:
    d = parse_distribution(args.dist)
    if args.etas:
        etas = [float(x) for x in args.etas.split(",")]
        menu = build_menu(d, args.n, etas)
        for row in menu.csv_rows():
            print(row)
        return EXIT_OK
    if args.k is None:
        raise ParseError("need --k (homogeneous) or --etas (heterogeneous)")
    p = ipm_price(d, args.n, args.k)
    print(f"p_R = {p:.6g}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    with open(args.config) as fh:
        cfg = parse_config(fh.read())
    rows = [simulation.CSV_HEADER]
    all_passed = True
    for rep in simulation.run_scenarios(cfg.scenarios):
        s = rep.scenario
        rows.append(rep.csv_row())
        if rep.passed is None:  # no bound, or too few replicates for a verdict
            verdict = "----"
        elif rep.passed:
            verdict = "PASS"
        else:
            verdict = "FAIL"
            all_passed = False
        bound = f"{rep.bound:.6g}" if rep.bound is not None else "n/a"
        print(f"{verdict} {s.label}: ratio {rep.ratio:.6g} vs bound {bound} (rev {rep.mean_revenue:.6g} +- {rep.ci95_revenue:.6g})")
    with open(cfg.output, "w") as fh:
        fh.write("\n".join(rows) + "\n")
    print(f"wrote {cfg.output} ({len(rows) - 1} scenarios)")
    return EXIT_OK if all_passed else EXIT_BOUND


def cmd_check(args) -> int:
    names = None
    if args.only:
        names = [n.strip() for n in args.only.split(",") if n.strip()]
        unknown = [n for n in names if n not in theory.REGISTRY]
        if unknown:
            print(f"unknown check(s): {', '.join(unknown)}", file=sys.stderr)
            return EXIT_UNKNOWN_CHECK
    results = theory.run_checks(names)
    print("name, worst_margin, at, passed")
    ok = True
    for r in results:
        print(r.row())
        if not r.name.startswith("negcontrol_") and not r.passed:
            ok = False
    controls = [r for r in results if r.name.startswith("negcontrol_")]
    if controls:
        good = sum(1 for r in controls if r.passed)
        print(f"# negative controls behaving as designed: {good}/{len(controls)} (excluded from exit status)")
    return EXIT_OK if ok else EXIT_BOUND


def cmd_program(args) -> int:
    rs = [float(x) for x in args.r.split(",")]
    res = theory.check_optprog(rs, args.n, args.lam)
    print("name, worst_margin, at, passed")
    print(res.row())
    return EXIT_OK if res.passed else EXIT_BOUND


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ipmlab", description="Posted-price intermediary market laboratory")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("price", help="print the posted price or menu table")
    p.add_argument("--dist", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--etas", help="comma-separated nonincreasing weights")
    p.set_defaults(fn=cmd_price)

    p = sub.add_parser("simulate", help="run the scenarios in a config file")
    p.add_argument("config")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("check", help="run the numerical inequality checkers")
    p.add_argument("--only", help="comma-separated check names")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("program", help="verify the prefix-constrained pricing program")
    p.add_argument("--r", required=True, help="comma-separated nonincreasing weights")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lam", type=float, default=0.0)
    p.set_defaults(fn=cmd_program)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        return args.fn(args)
    except (ParseError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except IpmLabError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
