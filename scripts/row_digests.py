#!/usr/bin/env python3
"""Print the bits a config's simulation gives, to compare two checkouts.

    python scripts/row_digests.py CONFIG

For each scenario of CONFIG, in order, one line: the label, the first 16
hex digits of the sha256 of its `csv_row()`, and its row digest, a digest of
every replicate's revenue and welfare (`row_digest`).  The row digest shows
a last-bit change in one row that the report's sums would absorb.  The
scenarios run as `ipmlab simulate` runs them, one group per stream, at one
thread, so that blocks are recorded in row order; nothing is written.
"""

import argparse
import hashlib
import os

import numpy as np

from ipmlab import simulation
from ipmlab.cli import parse_config


def record_blocks(patch=setattr):
    """Wrap every block function so that it keeps a copy of each output it
    gives, listed by scenario label in the order of the calls.  ``patch``
    installs the wrapped `simulation._batch_fn` (a test passes its
    monkeypatch's `setattr`, which undoes it)."""
    batch_fn = simulation._batch_fn
    blocks = {}

    def recorded(s):
        block, *rest = batch_fn(s)
        kept = blocks.setdefault(s.label, [])

        # Forwards whatever the batch driver passes, and the rest of what
        # `_batch_fn` gives, so that the script runs on checkouts whose block
        # functions take other arguments, or whose `_batch_fn` gives more.
        def run(*args):
            out = block(*args)
            kept.append([np.array(x, dtype=float) for x in out])
            return out

        return (run, *rest)

    patch(simulation, "_batch_fn", recorded)
    return blocks


def row_digest(blocks):
    """Every row's revenue, then every row's welfare, in row order: the
    digest does not depend on how the rows were cut into blocks."""
    digest = hashlib.sha256()
    for series in zip(*blocks):
        digest.update(np.concatenate(series).tobytes())
    return digest.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("config")
    args = ap.parse_args()
    with open(args.config) as fh:
        cfg = parse_config(fh.read())
    os.environ["IPMLAB_THREADS"] = "1"
    blocks = record_blocks()
    for rep in simulation.run_scenarios(cfg.scenarios):
        csv = hashlib.sha256(rep.csv_row().encode()).hexdigest()[:16]
        print(f"{rep.scenario.label}, {csv}, {row_digest(blocks[rep.scenario.label])}")


if __name__ == "__main__":
    main()
