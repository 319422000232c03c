import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipmlab import agents
from ipmlab.distributions import Exponential, Pareto, Uniform, builtin_families, c_of_lambda
from ipmlab.errors import ParseError
from ipmlab.mechanisms import Menu, build_menu

import oracles


def test_structure_constructors():
    c = agents.competition(4)
    assert c.m == 4 and c.groups() == [[0], [1], [2], [3]]
    m = agents.monopsony(4)
    assert m.m == 1 and m.groups() == [[0, 1, 2, 3]]
    b = agents.balanced(5, 2)
    sizes = sorted(len(g) for g in b.groups())
    assert sizes == [2, 3]


def test_random_partition_deterministic_and_surjective():
    a = agents.random_partition(9, 3, 7)
    b = agents.random_partition(9, 3, 7)
    assert a.partition == b.partition
    assert all(len(g) >= 1 for g in a.groups())


def test_structure_descriptor_roundtrip():
    for descriptor in ("competition", "monopsony", "balanced:2", "random:3:7"):
        s = agents.parse_structure(descriptor, 8)
        assert s.descriptor == descriptor
        again = agents.parse_structure(s.descriptor, 8)
        assert again.partition == s.partition


def test_a_comma_in_a_structure_label_is_rejected():
    # A custom label is the report row's structure field and part of the
    # default scenario label: a comma would split the row.
    with pytest.raises(ValueError, match="comma") as exc:
        agents.DemandStructure(2, 1, (0, 0), "a, b")
    assert "'a, b'" in str(exc.value)


def test_parse_structure_rejects_unknown():
    with pytest.raises(ParseError):
        agents.parse_structure("oligopoly:2", 4)


@pytest.mark.parametrize(
    "descriptor", ["balanced:2:99", "balanced", "balanced:", "balanced:x", "random:3", "random:3:7:1", "random:3:x"]
)
def test_parse_structure_rejects_wrong_fields(descriptor):
    # balanced:M has one integer field and random:M:SEED two; balanced:2:99
    # used to run as balanced:2, and random:3 failed to unpack.
    with pytest.raises(ParseError, match=f"{descriptor!r}"):
        agents.parse_structure(descriptor, 6)


def test_behavior_parsing():
    # Two models; each one's value is its descriptor, which parses back to it.
    assert [m.value for m in agents.BehaviorModel] == ["surplus", "monopolist"]
    for model in agents.BehaviorModel:
        assert agents.parse_behavior(model.value) is model
    assert agents.parse_behavior(" Monopolist ") is agents.BehaviorModel.MONOPOLIST
    # A bargaining split changes no purchase, so it has no model of its own,
    # and no other spelling of the two parses.
    for text in ("altruist", "alpha:0.5", "surplusmax", "surplus_max", "monopoly"):
        with pytest.raises(ParseError, match="surplus"):
            agents.parse_behavior(text)


def test_purchase_thresholds():
    d = Exponential(1.0)
    sm = agents.BehaviorModel.SURPLUS_MAX
    mono = agents.BehaviorModel.MONOPOLIST
    assert agents.purchase_threshold(sm, d, 1.5) == 1.5
    # Monopolist marks the price up by the inverse virtual value: p + 1 here.
    assert agents.purchase_threshold(mono, d, 1.5) == pytest.approx(2.5, abs=1e-7)


def test_uniform_price_purchase_counts():
    d = Exponential(1.0)
    sm = agents.BehaviorModel.SURPLUS_MAX
    mono = agents.BehaviorModel.MONOPOLIST
    vals = [0.5, 1.2, 2.3, 3.0]
    assert oracles.uniform_price_purchases(sm, d, 1.0, vals) == 3
    # Monopolist needs phi(v) = v - 1 >= 1, i.e. v >= 2.
    assert oracles.uniform_price_purchases(mono, d, 1.0, vals) == 2


def test_monopolist_tau_closed_forms():
    # Memoryless: tau is exactly 1/e at every price.
    d = Exponential(1.0)
    for p in (0.0, 0.5, 1.0, 2.0):
        assert agents.monopolist_tau_analytic(d, p) == pytest.approx(1 / math.e, abs=1e-9)
    # Pareto(2,1): the markup doubles the price, tau = (2p)^-2 / p^-2 = 1/4.
    d2 = Pareto(2.0, 1.0)
    for p in (1.0, 2.0, 5.0):
        assert agents.monopolist_tau_analytic(d2, p) == pytest.approx(0.25, abs=1e-8)


def test_estimate_tau_surplus_is_one():
    sm = agents.BehaviorModel.SURPLUS_MAX
    assert oracles.estimate_tau(sm, Exponential(1.0), [0.5, 1.0]) == 1.0


def test_estimate_tau_monopolist_matches_analytic():
    mono = agents.BehaviorModel.MONOPOLIST
    got = oracles.estimate_tau(mono, Exponential(1.0), [0.5, 1.0, 2.0], reps=400_000, rng_seed=1)
    assert got == pytest.approx(1 / math.e, abs=3e-3)


def test_estimate_tau_dominates_c_lambda():
    mono = agents.BehaviorModel.MONOPOLIST
    for d in builtin_families():
        if d.lambda_claimed >= 1.0:
            continue  # c(1) = 0: vacuous
        grid = [float(d.quantile(q)) for q in (0.1, 0.5, 0.8)]
        got = oracles.estimate_tau(mono, d, grid, reps=150_000, rng_seed=2)
        se = math.sqrt(0.25 / 150_000)
        assert got >= c_of_lambda(d.lambda_claimed) - 2 * se


# ---------------------------------------------------------------------------
# Menu purchasing


MENU = build_menu(Exponential(1.0), 6, (1.0, 0.5, 0.25))


def test_menu_purchase_matches_brute_force_on_grid():
    grid = [0.0, 0.5, 1.0, 1.6, 2.2, 4.0]
    menu3 = build_menu(Exponential(1.0), 3, (1.0, 0.6, 0.2))
    for nb in (1, 2, 3):
        for vals in itertools.product(grid, repeat=nb):
            fast = oracles.surplus_max_menu_purchase(menu3, range(3), vals)
            brute = oracles.brute_force_menu_purchase(menu3, range(3), vals)
            assert fast[2] == pytest.approx(brute[2], abs=1e-9), vals


def test_menu_purchase_respects_availability():
    purchase, assignment, surplus = oracles.surplus_max_menu_purchase(MENU, [2], [10.0])
    assert purchase == {2}
    assert assignment == {0: 2}
    assert surplus == pytest.approx(0.25 * 10.0 - MENU.rs[2])


def test_demand_set_thresholds():
    vals = [MENU.us[0] + 0.1, MENU.us[2] + 0.01, 0.0]
    assert oracles.demand_set(MENU, vals) == [0, 2, None]


def test_demand_band_buyer_forces_sale():
    # A buyer valued inside [u_j, u_{j-1}) guarantees item j sells when it is
    # the only thing on the table.
    for j in range(1, MENU.k):
        v = (MENU.us[j] + MENU.us[j - 1]) / 2
        purchase, _, _ = oracles.surplus_max_menu_purchase(MENU, [j], [v])
        assert j in purchase


def _assignment_oracle(menu, available, vals):
    """Best surplus as a max-weight matching of buyers to items, where an
    item is bought only if it is matched (prices are nonnegative here)."""
    from scipy.optimize import linear_sum_assignment

    weights = np.outer(vals, menu.etas[available]) - menu.rs[available]
    gain = np.maximum(weights, 0.0)
    rows, cols = linear_sum_assignment(gain, maximize=True)
    return float(gain[rows, cols].sum())


def test_menu_purchase_matches_assignment_oracle():
    for k in (8, 20, 64):
        menu = build_menu(Exponential(1.0), 64, tuple(1.0 / (j + 1) for j in range(k)))
        rng = np.random.default_rng(k)
        for _ in range(10):
            nb = int(rng.integers(1, k + 1))
            vals = rng.exponential(size=nb) + rng.uniform(0.0, 6.0, size=nb)
            available = sorted(rng.choice(k, size=int(rng.integers(1, k + 1)), replace=False).tolist())
            got = oracles.surplus_max_menu_purchase(menu, available, vals)[2]
            assert got == pytest.approx(_assignment_oracle(menu, available, vals), abs=1e-9)


def _exhaustive_purchase(etas, rs, available, vals_desc):
    """All 2^k purchase sets, items matched in index order to the buyers in
    descending value order; ties within 1e-12 go to the larger set, then the
    lexicographically smallest item tuple.  Returns the chosen items and the
    number of sets within 1e-12 of the best surplus."""
    best_surplus = 0.0
    best_items: tuple = ()
    surpluses = [0.0]
    na = len(available)
    nb = len(vals_desc)
    for mask in range(1, 1 << na):
        items = [available[i] for i in range(na) if mask >> i & 1]
        surplus = 0.0
        for t, j in enumerate(items[:nb]):
            surplus += vals_desc[t] * etas[j]
        for j in items:
            surplus -= rs[j]
        surpluses.append(surplus)
        if surplus > best_surplus + 1e-12:
            best_surplus, best_items = surplus, tuple(items)
        elif abs(surplus - best_surplus) <= 1e-12 and (
            len(items) > len(best_items)
            or (len(items) == len(best_items) and tuple(items) < best_items)
        ):
            best_items = tuple(items)
    return best_items, sum(abs(x - best_surplus) <= 1e-12 for x in surpluses)


def _dyadic_menu(rng, k):
    """Menus whose surpluses are exact in floating point, so ties are exact:
    repeated etas (identical items), zero etas (zero-price items)."""
    etas = np.sort(rng.choice([0.0, 0.25, 0.5, 0.5, 1.0], size=k))[::-1]
    us = np.sort(rng.choice([0.5, 1.0, 1.5, 2.0, 4.0], size=k))[::-1]
    rs = np.zeros(k)
    r_next = eta_next = 0.0
    for j in range(k - 1, -1, -1):
        rs[j] = r_next + us[j] * (etas[j] - eta_next)
        r_next, eta_next = rs[j], etas[j]
    return Menu(etas=etas, us=us, rs=rs)


def test_menu_purchase_tie_break_matches_exhaustive():
    # Each menu is solved for 20 rows in one kernel call; the rows differ in
    # availability and in group size (zero-padded to the widest).
    rng = np.random.default_rng(3)
    grid = [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0]
    tied = 0
    for _ in range(60):
        k = int(rng.integers(1, 6))
        menu = _dyadic_menu(rng, k)
        rows = 20
        avail = rng.random((rows, k)) < 0.7
        groups = [sorted(rng.choice(grid, size=int(rng.integers(1, 4))).tolist(), reverse=True)
                  for _ in range(rows)]
        padded = np.zeros((4, rows))  # state-major, with the zero row of an unassigned item
        for r, g in enumerate(groups):
            padded[: len(g), r] = g
        taken, _ = agents.menu_purchase_dp(menu.etas, menu.rs, avail.T, padded)
        for r, g in enumerate(groups):
            available = np.flatnonzero(avail[r]).tolist()
            items, optima = _exhaustive_purchase(menu.etas, menu.rs, available, g)
            assert tuple(np.flatnonzero(taken[:, r])) == items
            assert oracles.surplus_max_menu_purchase(menu, available, g[::-1])[0] == set(items)
            tied += optima > 1
    assert tied > 500  # most instances exercise the tie-break, not just the optimum


_VALUE = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0]), st.floats(0.0, 6.0))
_ETA = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))


@given(
    etas=st.lists(_ETA, min_size=1, max_size=5),
    vals=st.lists(_VALUE, min_size=1, max_size=3),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_menu_purchase_matches_brute_force_property(etas, vals, data):
    etas = sorted(etas, reverse=True)
    menu = build_menu(Exponential(1.0), 6, etas)
    available = sorted(data.draw(st.sets(st.integers(0, len(etas) - 1))))
    fast = oracles.surplus_max_menu_purchase(menu, available, vals)
    brute = oracles.brute_force_menu_purchase(menu, available, vals)
    assert fast[0] <= set(available)
    assert fast[2] == pytest.approx(brute[2], abs=1e-9)


@given(vals=st.lists(st.floats(0.0, 6.0), min_size=1, max_size=4))
@settings(max_examples=50, deadline=None)
def test_menu_purchase_surplus_nonnegative_and_feasible(vals):
    purchase, assignment, surplus = oracles.surplus_max_menu_purchase(MENU, range(3), vals)
    assert surplus >= -1e-12
    assert set(assignment.values()) <= purchase
    assert len(set(assignment.values())) == len(assignment)
    gross = sum(vals[b] * MENU.etas[j] for b, j in assignment.items())
    cost = sum(MENU.rs[j] for j in purchase)
    assert surplus == pytest.approx(gross - cost, abs=1e-9)
