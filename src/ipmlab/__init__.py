"""Numerical laboratory for intermediary-proof posted-price mechanisms."""

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
from .simulation import Scenario, SimulationReport, run_scenario, run_scenarios

__all__ = [
    "Distribution", "Exponential", "Uniform", "Weibull", "Pareto",
    "TruncatedEqualRevenue", "builtin_families", "parse_distribution",
    "c_of_lambda",
    "Menu", "build_menu", "ipm_price", "optimal_item_price",
    "Scenario", "SimulationReport", "run_scenario", "run_scenarios",
]

__version__ = "0.1.0"
