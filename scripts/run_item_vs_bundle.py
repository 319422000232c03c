#!/usr/bin/env python3
"""Item pricing vs bundle pricing under monopsony for the truncated
equal-revenue family: the bundle/item revenue gap grows like ln n."""

import argparse

from _experiments import ln_gap_experiment


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--ns", default="60,100,400")
    ap.add_argument("--reps", type=int, default=50_000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    print("n, item_revenue, bundle_revenue, acceptance, gap_ratio")
    for n in (int(x) for x in args.ns.split(",")):
        item, report = ln_gap_experiment(n, reps=args.reps, seed=args.seed)
        bundle = report.mean_revenue
        acc = bundle / report.extra["price"]
        print(f"{n}, {item:.6g}, {bundle:.6g}, {acc:.6g}, {bundle / item:.6g}")


if __name__ == "__main__":
    main()
