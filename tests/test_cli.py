import os
import subprocess
import sys
import textwrap

import pytest

from ipmlab import cli, simulation


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_price_homogeneous(capsys):
    code, out, _ = run(["price", "--dist", "exp:1", "--n", "6", "--k", "3"], capsys)
    assert code == 0
    assert out.strip() == "p_R = 1.5"


def test_price_uniform(capsys):
    code, out, _ = run(["price", "--dist", "uniform:0:1", "--n", "4", "--k", "2"], capsys)
    assert code == 0
    assert out.strip() == "p_R = 0.666667"


def test_price_menu_table(capsys):
    code, out, _ = run(["price", "--dist", "exp:1", "--n", "4", "--etas", "1,0.5"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "j, eta_j, u_j, r_j"
    assert lines[1].startswith("1, 1, 2.08333")
    assert "1.79166" in lines[1]
    assert lines[2].startswith("2, 0.5, 1.49999")
    assert "0.74999" in lines[2]


def test_price_parse_error_exit_code(capsys):
    for dist in ("gauss:0:1", "weibull:1:0.5"):
        code, _, err = run(["price", "--dist", dist, "--n", "4", "--k", "2"], capsys)
        assert code == 2
        assert "error" in err


def test_price_numeric_failure_exit_code(capsys):
    # Price out of the virtual-value range surfaces as a numeric failure.
    code, _, err = run(["price", "--dist", "exp:1", "--n", "4"], capsys)
    assert code == 2  # neither --k nor --etas


CONFIG = textwrap.dedent("""\
    seed = 11
    reps = 5000
    output = {out}

    [scenario]
    id = smoke
    dist = exp:1
    n = 4
    k = 2
    structure = competition
    model = surplus
    mechanism = ipm
    reps = 20000
""")


def test_simulate_writes_csv_and_passes(tmp_path, capsys):
    out_csv = tmp_path / "r.csv"
    cfg = tmp_path / "c.cfg"
    cfg.write_text(CONFIG.format(out=out_csv))
    code, out, _ = run(["simulate", str(cfg)], capsys)
    assert code == 0
    assert "PASS smoke" in out
    text = out_csv.read_text()
    assert text.splitlines()[0].startswith("scenario_id, dist, lambda")
    assert len(text.splitlines()) == 2


def test_simulate_rerun_is_byte_identical(tmp_path, capsys):
    out_csv = tmp_path / "r.csv"
    cfg = tmp_path / "c.cfg"
    cfg.write_text(CONFIG.format(out=out_csv))
    run(["simulate", str(cfg)], capsys)
    first = out_csv.read_bytes()
    run(["simulate", str(cfg)], capsys)
    assert out_csv.read_bytes() == first


def test_simulate_gives_no_verdict_below_replicate_floor(tmp_path, capsys):
    # 5000 replicates: the bound is printed but not judged, so no FAIL and
    # no bound-failure exit code.
    out_csv = tmp_path / "r.csv"
    cfg = tmp_path / "c.cfg"
    cfg.write_text(CONFIG.format(out=out_csv).replace("reps = 20000\n", ""))
    code, out, _ = run(["simulate", str(cfg)], capsys)
    assert code == 0
    assert out.startswith("---- smoke: ratio ")
    assert "vs bound 0.232544" in out
    assert out_csv.read_text().splitlines()[1].endswith(", ")


def test_simulate_rejects_unknown_order_policy(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(CONFIG.format(out=tmp_path / "r.csv") + "order = randmo\n")
    code, _, err = run(["simulate", str(cfg)], capsys)
    assert code == 2
    assert "randmo" in err


def test_simulate_kplus1_reserve_at_support_lower_end(tmp_path, capsys):
    # pareto:3:1 has phi(1) = 2/3 > 0, so phi never reaches 0 on the
    # support and the Myerson reserve is the support's lower end.
    text = CONFIG.format(out=tmp_path / "r.csv").replace("dist = exp:1", "dist = pareto:3:1")
    text = text.replace("mechanism = ipm", "mechanism = kplus1")
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text)
    code, out, _ = run(["simulate", str(cfg)], capsys)
    assert code == 0
    assert "smoke" in out
    (s,) = cli.parse_config(text).build_scenarios()
    assert simulation.run_scenario(s).extra["reserve"] == 1.0


def test_simulate_rejects_zero_reps(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("seed = 1\nreps = 0\n")
    code, _, err = run(["simulate", str(cfg)], capsys)
    assert code == 2


def test_simulate_requires_seed(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("reps = 100\n")
    code, _, _ = run(["simulate", str(cfg)], capsys)
    assert code == 2


def test_simulate_missing_file(capsys):
    code, _, _ = run(["simulate", "/no/such/file.cfg"], capsys)
    assert code == 2


def test_config_roundtrip(tmp_path):
    cfg = cli.parse_config(CONFIG.format(out=tmp_path / "x.csv"))
    again = cli.parse_config(cfg.serialize())
    assert [s.label for s in again.build_scenarios()] == [s.label for s in cfg.build_scenarios()]
    assert again.seed == cfg.seed and again.reps == cfg.reps


def test_check_filter_and_exit(capsys):
    code, out, _ = run(["check", "--only", "optprog"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "name, worst_margin, at, passed"
    assert all(line.startswith("optprog") for line in out.strip().splitlines()[1:])


def test_check_unknown_name(capsys):
    code, _, err = run(["check", "--only", "nonexistent"], capsys)
    assert code == 5
    assert "unknown" in err


def test_check_negative_controls_reported_separately(capsys):
    code, out, _ = run(["check", "--only", "negcontrol_optprog"], capsys)
    assert code == 0  # control misbehavior never fails the run via this row
    assert "negative controls behaving as designed: 1/1" in out


def test_program_subcommand(capsys):
    code, out, _ = run(["program", "--r", "3,2,1", "--n", "10", "--lam", "0"], capsys)
    assert code == 0
    assert "optprog" in out
    code2, _, _ = run(["program", "--r", "1,1", "--n", "10", "--lam", "0"], capsys)
    assert code2 == 4


def test_cli_import_leaves_scipy_stats_unloaded():
    # The analytic side needs only scipy.integrate and scipy.special;
    # importing scipy.stats would add its setup time and memory to every run.
    code = "import ipmlab.cli, sys; assert 'scipy.stats' not in sys.modules"
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120, env=env)
