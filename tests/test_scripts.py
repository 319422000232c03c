import csv
import re
import runpy
import sys
from pathlib import Path

from ipmlab import cli, simulation

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
CONFIGS = SCRIPTS.parent / "configs"

SWEEP_ROW = "exp:1, 0, 6, 3, {s}, surplus, ipm, 2000, 1.97025, 0.0627198459178, {wel}, 4.85, 0.406237113402, 0.232544157935, "


def _simulate_at_2000_reps(name: str) -> list[str]:
    """`ipmlab simulate` on a 2000-replicate copy of a shipped config in the
    working directory; the CSV it writes, line by line."""
    text = re.sub(r"^reps = \d+$", "reps = 2000", (CONFIGS / name).read_text(), flags=re.M)
    Path(name).write_text(text)
    assert cli.main(["simulate", name]) == 0, name
    return Path(cli.parse_config(text).output).read_text().splitlines()


def test_paper_figures_at_small_sizes(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # the reports stay out of the checkout
    # The posted price ignores how buyers are grouped: same revenue bits.
    assert _simulate_at_2000_reps("theorem1.cfg")[:5] == [
        "scenario_id, dist, lambda, n, k, structure, model, mechanism, reps, "
        "mean_rev, ci95, mean_wel, analytic_wel, ratio, bound, passed",
        "exp-competition, " + SWEEP_ROW.format(s="competition", wel="3.29335485779"),
        "exp-monopsony, " + SWEEP_ROW.format(s="monopsony", wel="3.31369297222"),
        "exp-balanced, " + SWEEP_ROW.format(s="balanced:2", wel="3.30705807175"),
        "exp-random-split, " + SWEEP_ROW.format(s="random:3:7", wel="3.30636821259"),
    ]

    def rows(name):
        return {r["scenario_id"]: r for r in csv.DictReader(_simulate_at_2000_reps(name), skipinitialspace=True)}

    # n = 60: item revenue, bundle revenue, acceptance (2 x the bundle's
    # ratio) and the gap ratio.
    gap = rows("item_vs_bundle.cfg")
    item, bundle = float(gap["item-n60"]["mean_rev"]), float(gap["bundle-n60"]["mean_rev"])
    acceptance = 2 * float(gap["bundle-n60"]["ratio"])
    assert f"{item:.6g}, {bundle:.6g}, {acceptance:.6g}, {bundle / item:.6g}" == "60, 124.912, 1, 2.08187"

    # Each benchmark's revenue against the posted price's.
    fail = rows("benchmark_failures.cfg")
    pairs = [("kplus1-n16", "ipm-n16"), ("kplus1-n64", "ipm-n64"), ("kplus1-n256", "ipm-n256"),
             ("bundle-competition", "ipm-competition")]
    assert [f"{float(fail[a]['mean_rev']):.6g}, {float(fail[b]['mean_rev']):.6g}" for a, b in pairs] == [
        "0.999, 1.45202", "1, 1.97583", "1, 2.62734", "0, 7.9805"]


# `row_digests.py` on configs/theorem1.cfg at 9000 replicates (two batches)
# and 1000 for het_ipm: label, csv_row sha256, row digest.  Row digests
# re-recorded when the order-statistic rule's panels widened from
# min(1/8, sd/(4 mean)) to min(1/2, sd/mean) in log s: all seven moved
# (replicate values by at most 4.0e-16 relative), no csv_row.
ROW_DIGESTS = [
    "exp-competition, 595b35970fe02015, bddd2efb63626a25",
    "exp-monopsony, 578109bfefbda41f, 02d7eee795f3adf0",
    "exp-balanced, ff31505b407608b1, aea6b6cd5deef5eb",
    "exp-random-split, 450abb9ae402182c, 0c9f221239bb84c3",
    "exp-monopolist, de29d9cc92fd6687, 4f878b13380ead32",
    "pareto-half-regular, 32c121bc8d030cdb, e5b830a632c8e33e",
    "exp-heterogeneous, 5fe5ff5d297c105c, 6f6076deaae30b47",
]


def test_row_digests_prints_each_scenarios_bits(monkeypatch, capsys, tmp_path):
    text = (SCRIPTS.parent / "configs" / "theorem1.cfg").read_text()
    config = tmp_path / "small.cfg"
    config.write_text(text.replace("reps = 200000", "reps = 9000").replace("reps = 50000", "reps = 1000"))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("IPMLAB_THREADS", "2")  # the script runs at one thread whatever is set
    path = SCRIPTS / "row_digests.py"
    monkeypatch.setattr(sys, "argv", [str(path), str(config)])
    monkeypatch.setattr(simulation, "_batch_fn", simulation._batch_fn)  # the script wraps it; restored after
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out == "\n".join(ROW_DIGESTS) + "\n"
    assert [p.name for p in tmp_path.iterdir()] == ["small.cfg"]


# `row_digests.py` on configs/menu_sale.cfg, recorded before the menu sale ran
# in rounds of listed steps: `het_ipm` at m = 2 to 256 intermediaries.  Row
# digests re-recorded when the order-statistic rule's panels widened from
# min(1/8, sd/(4 mean)) to min(1/2, sd/mean) in log s: all six moved
# (replicate values by at most 9.9e-16 relative), no csv_row.
MENU_SALE_DIGESTS = [
    "m2-fixed, acd274217f75a53c, f557ed25949ffc4e",
    "m9-zero-weight, ad0a5e204b2ae2d5, 286ab448d0b7ee55",
    "m16-wide, 8df2fd976022b153, fe410c3394226a9d",
    "m32-signed, 4029d88a1e12dbaf, 99d3dacb5b17aa66",
    "m32-signed-fixed, babe6b1be8bc2bee, 93a187aa5d2e31d9",
    "m256-competition, 47668dc2645bf260, ccae027db31ab952",
]


def test_row_digests_of_the_menu_sale_config(monkeypatch, capsys):
    monkeypatch.setenv("IPMLAB_THREADS", "1")  # the script sets it; restored after
    path = SCRIPTS / "row_digests.py"
    monkeypatch.setattr(sys, "argv", [str(path), str(SCRIPTS.parent / "configs" / "menu_sale.cfg")])
    monkeypatch.setattr(simulation, "_batch_fn", simulation._batch_fn)  # the script wraps it; restored after
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out == "\n".join(MENU_SALE_DIGESTS) + "\n"
