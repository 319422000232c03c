"""Numerical laboratory for intermediary-proof posted-price mechanisms."""

import os

# numpy's bundled OpenBLAS starts one worker thread per core when numpy
# loads, and an idle worker spins for about 100 ms of CPU.  ipmlab's only
# BLAS calls are dot products over a few thousand quadrature nodes, which
# run on one thread anyway; its parallelism is IPMLAB_THREADS.  OpenBLAS
# reads the variable once, at load, so it is removed again afterwards and
# the caller's later subprocesses see the environment they set.  A caller
# who set it, or who imported numpy first, keeps their choice.
if "OPENBLAS_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .distributions import (
    Distribution,
    Exponential,
    Pareto,
    TruncatedEqualRevenue,
    Uniform,
    Weibull,
    builtin_families,
    c_of_lambda,
    parse_distribution,
)
from .mechanisms import Menu, build_menu, ipm_price, optimal_item_price

__all__ = [
    "Distribution", "Exponential", "Uniform", "Weibull", "Pareto",
    "TruncatedEqualRevenue", "builtin_families", "parse_distribution",
    "c_of_lambda",
    "Menu", "build_menu", "ipm_price", "optimal_item_price",
]

__version__ = "0.1.0"
