"""Fixed pieces of work that measure the host's speed, not the program's.

On a shared host the CPU time of the same process drifts with what runs on
the other processors (caches, memory bandwidth, sibling hyper-threads).  The
benchmark times one of these kernels right before it spawns each ipmlab
process and right after the process ends, in its own process so that the
measured one stays untouched, and scales the process's times by them.
They use nothing of ipmlab, so a change of the program does not move them.
"""

from __future__ import annotations

import math
import resource
import threading
import time

import numpy as np
from scipy import integrate


def mix() -> float:
    """Main-thread CPU seconds of work in the program's own mix: numpy sorts
    and reductions on replicate-by-bidder arrays, scipy quadrature of a
    Python integrand and plain Python loops."""
    t0 = time.thread_time()
    rng = np.random.default_rng(20240817)
    for _ in range(40):
        v = -np.log1p(-rng.random((4096, 32)))
        top = np.sort(v, axis=1)[:, ::-1]
        np.cumsum(top, axis=1).sum()
        np.partition(-v, 7, axis=1)[:, :8].sum()
        np.argsort(rng.random((4096, 8)), axis=1)
    for t in range(2, 78):
        integrate.quad(lambda x: x * t * math.exp(-x) * (1.0 - math.exp(-x)) ** (t - 1), 0.0, math.inf)
    menu = {}
    for i in range(200_000):
        key = (i % 97, i % 13)
        menu[key] = max(menu.get(key, 0.0), math.sqrt(i) - 0.5 * key[1])
    return time.thread_time() - t0


def wide() -> float:
    """Process CPU seconds of wide numpy work on two threads: draws, partial
    sorts, threshold counts and sorts on replicate-by-bidder arrays 256
    bidders wide, the shape and memory traffic of the n = 256 engine."""

    def work(seed: int) -> None:
        rng = np.random.default_rng(seed)
        for _ in range(6):
            v = -np.log1p(-rng.random((2048, 256)))
            np.partition(-v, 15, axis=1)[:, :16].sum()
            (v > 1.0).sum(axis=1)
            np.sort(v, axis=1)

    before = resource.getrusage(resource.RUSAGE_SELF)
    threads = [threading.Thread(target=work, args=(seed,)) for seed in (1, 2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    after = resource.getrusage(resource.RUSAGE_SELF)
    return (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)


KERNELS = {"mix": mix, "wide": wide}
# CPU seconds each kernel takes on the reference host; a time is reported
# as that host would have measured it.
REFERENCE_S = {"mix": 0.2, "wide": 0.1}
