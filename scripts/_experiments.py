"""Experiments the scripts and the tests share.  Each one is a plain
`Scenario` run through `run_scenario`, which is `run_scenarios`, the engine
`ipmlab simulate` runs, of the one scenario."""

from ipmlab import agents
from ipmlab.distributions import TruncatedEqualRevenue
from ipmlab.mechanisms import optimal_item_price
from ipmlab.simulation import Scenario, SimulationReport, run_scenario


def canonical_structures(n: int, seed: int = 7) -> list[agents.DemandStructure]:
    """Competition, monopsony, balanced halves, and a seeded random split."""
    out = [agents.competition(n), agents.monopsony(n)]
    if n >= 2:
        out.append(agents.balanced(n, 2))
        out.append(agents.random_partition(n, min(3, n), seed))
    return out


def ln_gap_experiment(n: int, reps: int = 50_000, seed: int = 0) -> tuple[float, SimulationReport]:
    """Item pricing vs bundle pricing under monopsony for the
    truncated-equal-revenue family with n buyers and n items.

    Item pricing earns at most ~n in total; the bundle priced at half the
    expected total value, n E[v]/2 = n^2 ln n / (2(n-1)), is accepted with
    probability >= 3/4, so the bundle/item gap grows like ln n.  Returns the
    item revenue and the bundle scenario's report, whose acceptance rate is
    its mean revenue over its price.
    """
    if n <= 55:
        raise ValueError("the separation argument needs n > e^4 ~ 55")
    d = TruncatedEqualRevenue(n)
    _, per_buyer = optimal_item_price(d)
    bundle = Scenario(d, n, n, agents.monopsony(n), agents.parse_behavior("surplus"), mechanism="bundle",
                      epsilon=d.mean() / 2, reps=reps, master_seed=seed)
    return n * per_buyer, run_scenario(bundle)
