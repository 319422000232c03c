#!/usr/bin/env python3
"""Demonstrations that the two standard benchmarks break under the wrong
demand structure, while the uniform posted price keeps growing.

1. (k+1)-price auction with reserve, monopsony: one intermediary submits
   every bid, so revenue is pinned at the reserve regardless of n.
2. Bundle pricing tuned for monopsony, run under competition: no single
   buyer can afford the bundle, so revenue collapses.
"""

import argparse

from ipmlab import agents, simulation
from ipmlab.distributions import Exponential, Uniform


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--reps", type=int, default=50_000)
    ap.add_argument("--seed", type=int, default=11)
    args = ap.parse_args()

    print("# (k+1)-auction, monopsony, Exponential(1), k=1: revenue vs posted price")
    print("n, auction_revenue, posted_price_revenue")
    for n in (16, 64, 256):
        common = dict(structure=agents.monopsony(n), model=agents.parse_behavior("surplus"),
                      reps=args.reps, master_seed=args.seed)
        # One seed, family and n: the pair is one group, drawn once.
        auction, posted = simulation.run_scenarios(
            [simulation.Scenario(d=Exponential(1.0), n=n, k=1, mechanism=m, **common) for m in ("kplus1", "ipm")])
        print(f"{n}, {auction.mean_revenue:.6g}, {posted.mean_revenue:.6g}")

    print()
    print("# bundle price tuned for monopsony, run under competition, Uniform[0,1], k=n=32")
    n = 32
    common = dict(d=Uniform(0.0, 1.0), n=n, k=n, structure=agents.competition(n),
                  model=agents.parse_behavior("surplus"), reps=args.reps, master_seed=args.seed)
    bundle, posted = simulation.run_scenarios([simulation.Scenario(mechanism="bundle", epsilon=0.05, **common),
                                               simulation.Scenario(mechanism="ipm", **common)])
    print(f"bundle revenue {bundle.mean_revenue:.6g} (price {bundle.extra['price']:.6g}) "
          f"vs posted-price revenue {posted.mean_revenue:.6g}")


if __name__ == "__main__":
    main()
