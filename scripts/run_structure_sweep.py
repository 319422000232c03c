#!/usr/bin/env python3
"""Sweep the uniform-price mechanism across demand structures with common
random numbers and print one CSV row per structure.

The posted price depends only on (distribution, n, k), so revenue is
identical across structures for pass-through intermediaries; welfare shifts
with concentration.
"""

import argparse
from dataclasses import replace

from _experiments import canonical_structures
from ipmlab import agents, simulation
from ipmlab.distributions import parse_distribution


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--dist", default="exp:1")
    ap.add_argument("--n", type=int, default=6)
    ap.add_argument("--k", type=int, default=3)
    ap.add_argument("--model", default="surplus")
    ap.add_argument("--reps", type=int, default=200_000)
    ap.add_argument("--seed", type=int, default=20240817)
    args = ap.parse_args()

    base = simulation.Scenario(
        d=parse_distribution(args.dist),
        n=args.n,
        k=args.k,
        structure=agents.competition(args.n),
        model=agents.parse_behavior(args.model),
        mechanism="ipm",
        reps=args.reps,
        master_seed=args.seed,
    )
    print(simulation.CSV_HEADER)
    # One master seed for every structure: common random numbers.
    for structure in canonical_structures(args.n):
        print(simulation.run_scenario(replace(base, structure=structure)).csv_row())


if __name__ == "__main__":
    main()
