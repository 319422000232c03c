import runpy
import sys
from pathlib import Path

from ipmlab import simulation

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

SWEEP_ROW = "exp:1, 0, 6, 3, {s}, surplus, ipm, 2000, 1.97025, 0.0627198459178, {wel}, 4.85, 0.406237113402, 0.232544157935, "

# Each script's whole stdout at these sizes, byte for byte.
EXPECTED = [
    ("run_structure_sweep.py", ["--reps", "2000"], [
        "scenario_id, dist, lambda, n, k, structure, model, mechanism, reps, "
        "mean_rev, ci95, mean_wel, analytic_wel, ratio, bound, passed",
        "ipm-exp:1-n6k3-competition-surplus, " + SWEEP_ROW.format(s="competition", wel="3.29335485779"),
        "ipm-exp:1-n6k3-monopsony-surplus, " + SWEEP_ROW.format(s="monopsony", wel="3.31369297222"),
        "ipm-exp:1-n6k3-balanced:2-surplus, " + SWEEP_ROW.format(s="balanced:2", wel="3.30705807175"),
        "ipm-exp:1-n6k3-random:3:7-surplus, " + SWEEP_ROW.format(s="random:3:7", wel="3.30636821259"),
    ]),
    ("run_item_vs_bundle.py", ["--ns", "60", "--reps", "2000"], [
        "n, item_revenue, bundle_revenue, acceptance, gap_ratio",
        "60, 60, 124.912, 1, 2.08187",
    ]),
    ("run_benchmark_failures.py", ["--reps", "2000"], [
        "# (k+1)-auction, monopsony, Exponential(1), k=1: revenue vs posted price",
        "n, auction_revenue, posted_price_revenue",
        "16, 0.999, 1.45202",
        "64, 1, 1.97583",
        "256, 1, 2.62734",
        "",
        "# bundle price tuned for monopsony, run under competition, Uniform[0,1], k=n=32",
        "bundle revenue 0 (price 14.4) vs posted-price revenue 7.9805",
    ]),
]


def test_scripts_run_at_small_sizes(monkeypatch, capsys, tmp_path):
    monkeypatch.chdir(tmp_path)  # anything a script writes stays out of the checkout
    for name, argv, lines in EXPECTED:
        path = SCRIPTS / name
        monkeypatch.setattr(sys, "argv", [str(path), *argv])
        try:
            runpy.run_path(str(path), run_name="__main__")
            code = 0
        except SystemExit as exc:
            code = exc.code
        assert code in (0, None), name
        assert capsys.readouterr().out == "\n".join(lines) + "\n", name
    assert not any(tmp_path.iterdir())


# `row_digests.py` on configs/theorem1.cfg at 9000 replicates (two batches)
# and 1000 for het_ipm: label, csv_row sha256, row digest.
ROW_DIGESTS = [
    "exp-competition, 595b35970fe02015, 5f64d30c6233ad53",
    "exp-monopsony, 578109bfefbda41f, 93dce46ba3dfc7bb",
    "exp-balanced, ff31505b407608b1, a8ca0412a27ed07d",
    "exp-random-split, 450abb9ae402182c, 1e9fa812a76b22c7",
    "exp-monopolist, de29d9cc92fd6687, 78597f67dc9bd85f",
    "pareto-half-regular, 32c121bc8d030cdb, 15fa796bfd7e8592",
    "exp-heterogeneous, 5fe5ff5d297c105c, 03479fec3b349e12",
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
# in rounds of listed steps: `het_ipm` at m = 2 to 256 intermediaries.
MENU_SALE_DIGESTS = [
    "m2-fixed, acd274217f75a53c, 1f60af23a08f27a6",
    "m9-zero-weight, ad0a5e204b2ae2d5, 621514b4d9546f15",
    "m16-wide, 8df2fd976022b153, 82cabc6f4c12fc5b",
    "m32-signed, 4029d88a1e12dbaf, 6c4ea5e096774954",
    "m32-signed-fixed, babe6b1be8bc2bee, 843775a9ed555ae7",
    "m256-competition, 47668dc2645bf260, ed56e7f03c62c72f",
]


def test_row_digests_of_the_menu_sale_config(monkeypatch, capsys):
    monkeypatch.setenv("IPMLAB_THREADS", "1")  # the script sets it; restored after
    path = SCRIPTS / "row_digests.py"
    monkeypatch.setattr(sys, "argv", [str(path), str(SCRIPTS.parent / "configs" / "menu_sale.cfg")])
    monkeypatch.setattr(simulation, "_batch_fn", simulation._batch_fn)  # the script wraps it; restored after
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out == "\n".join(MENU_SALE_DIGESTS) + "\n"
