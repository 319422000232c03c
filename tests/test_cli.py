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
    # u_1 = H_4 = 25/12, u_2 = H_2 = 3/2; r_2 = u_2 / 2, r_1 = r_2 + u_1 / 2.
    assert lines[1] == "1, 1, 2.08333333333, 1.79166666667"
    assert lines[2] == "2, 0.5, 1.5, 0.75"


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
    (s,) = cli.parse_config(text).scenarios
    assert simulation.run_scenario(s).extra["reserve"] == 1.0


def test_simulate_rejects_zero_reps(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("seed = 1\nreps = 0\n")
    code, _, err = run(["simulate", str(cfg)], capsys)
    assert code == 2


def test_simulate_rejects_checks_key(tmp_path, capsys):
    # `checks` selected nothing in `simulate`; a config naming it is an error.
    cfg = tmp_path / "c.cfg"
    cfg.write_text("checks = fact1,no_such_check\n" + CONFIG.format(out=tmp_path / "r.csv"))
    code, _, err = run(["simulate", str(cfg)], capsys)
    assert code == 2
    assert "checks" in err
    assert not (tmp_path / "r.csv").exists()


def test_simulate_requires_seed(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("reps = 100\n")
    code, _, _ = run(["simulate", str(cfg)], capsys)
    assert code == 2


def test_simulate_missing_file(capsys):
    code, _, _ = run(["simulate", "/no/such/file.cfg"], capsys)
    assert code == 2


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


def _python(code: str, *args, cwd=None):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code, *args], timeout=300, env=env, cwd=cwd)


def test_cli_import_leaves_scipy_stats_unloaded():
    # Importing scipy.stats would add its setup time and memory to every run.
    code = "import ipmlab.cli, sys; assert 'scipy.stats' not in sys.modules"
    assert _python(code).returncode == 0


def test_cli_import_loads_no_scipy():
    # The runtime needs numpy alone; scipy is a test-only oracle.
    code = "import ipmlab.cli, sys; assert not any(m.split('.')[0] == 'scipy' for m in sys.modules)"
    assert _python(code).returncode == 0


# Every mechanism, the monopolist model and both price paths.
NO_SCIPY_CONFIG = textwrap.dedent("""\
    seed = 3
    reps = 2000
    output = r.csv

    [scenario]
    id = ipm-monopolist
    dist = pareto:3:1
    n = 6
    k = 2
    structure = balanced:2
    model = monopolist
    mechanism = ipm

    [scenario]
    id = item
    dist = weibull:1:2
    n = 6
    k = 2
    structure = competition
    model = surplus
    mechanism = item_price

    [scenario]
    id = kplus1
    dist = exp:1
    n = 6
    k = 2
    structure = balanced:3
    model = surplus
    mechanism = kplus1

    [scenario]
    id = bundle
    dist = uniform:0:1
    n = 6
    k = 2
    structure = monopsony
    model = surplus
    mechanism = bundle

    [scenario]
    id = het
    dist = ter:100
    n = 6
    etas = 1,0.5
    structure = balanced:2
    model = surplus
    mechanism = het_ipm
""")

BLOCK_SCIPY = """\
import sys


class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"scipy is blocked: {name}")
        return None


sys.meta_path.insert(0, BlockScipy())
from ipmlab import cli

sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["price", "--dist", "pareto:2:1", "--n", "8", "--k", "4"],
        ["price", "--dist", "weibull:1:2", "--n", "6", "--etas", "1,0.5,0.25"],
        ["check"],
        ["simulate", "no_scipy.cfg"],
    ],
    ids=["price", "price-etas", "check", "simulate"],
)
def test_cli_runs_with_scipy_blocked(argv, tmp_path):
    # An import of scipy anywhere, also inside a function, fails the run.
    (tmp_path / "no_scipy.cfg").write_text(NO_SCIPY_CONFIG)
    assert _python(BLOCK_SCIPY, *argv, cwd=tmp_path).returncode == 0
