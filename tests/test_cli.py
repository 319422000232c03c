import hashlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from ipmlab import cli, simulation

from oracles import install_py312_sum


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


@pytest.mark.parametrize("k", ["3", "1"])
def test_price_rejects_a_k_that_is_not_the_number_of_weights(capsys, k):
    # The menu sells one item per weight, so a --k beside the weights must be
    # their count, as in a config.
    code, out, err = run(["price", "--dist", "exp:1", "--n", "4", "--k", k, "--etas", "1,0.5"], capsys)
    assert (code, out) == (2, "")
    assert "etas" in err
    code, out, _ = run(["price", "--dist", "exp:1", "--n", "4", "--k", "2", "--etas", "1,0.5"], capsys)
    assert code == 0 and out.startswith("j, eta_j, u_j, r_j")


def test_price_rejects_prices_rising_over_a_negative_max(capsys):
    code, out, err = run(["price", "--dist", "uniform:-3:-1", "--n", "4", "--etas", "1,0.5"], capsys)
    assert (code, out) == (2, "")
    assert "negative expected max" in err


def test_price_parse_error_exit_code(capsys):
    for dist in ("gauss:0:1", "weibull:1:0.5"):
        code, _, err = run(["price", "--dist", dist, "--n", "4", "--k", "2"], capsys)
        assert code == 2
        assert "error" in err


def test_price_numeric_failure_exit_code(capsys):
    # Price out of the virtual-value range surfaces as a numeric failure.
    code, _, err = run(["price", "--dist", "exp:1", "--n", "4"], capsys)
    assert code == 2  # neither --k nor --etas


@pytest.mark.parametrize(
    "argv",
    [
        ["--dist", "exp:1", "--etas", "1,nan"],
        ["--dist", "exp:1", "--etas", "inf,1"],
        ["--dist", "exp:nan", "--k", "2"],
        ["--dist", "uniform:0:inf", "--k", "2"],
        ["--dist", "weibull:inf:2", "--k", "2"],
        ["--dist", "pareto:inf:1", "--k", "2"],
    ],
    ids=["etas-nan", "etas-inf", "exp-nan", "uniform-inf", "weibull-inf", "pareto-inf"],
)
def test_price_rejects_non_finite_inputs(argv, capsys):
    # A NaN or infinite weight or family parameter is a parse error, not a
    # NaN price, a numeric failure or a price at a degenerate family.
    code, out, err = run(["price", "--n", "4", *argv], capsys)
    assert code == 2
    assert out == "" and "error" in err


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


def test_simulate_prices_a_monopolist_deep_in_a_pareto_tail(tmp_path, capsys):
    # At n = 15, k = 1 the monopolist's threshold solves phi(v) = 1467 near
    # v = 1.5e5, where 1 - F(v) of pareto:1.01:1 is about 6e-6: taken as
    # 1 - cdf it kept too few digits to pin phi, and the run exited 3.
    text = CONFIG.format(out=tmp_path / "r.csv").replace("dist = exp:1", "dist = pareto:1.01:1")
    for old, new in (("n = 4", "n = 15"), ("k = 2", "k = 1"), ("surplus", "monopolist"), ("20000", "2000")):
        text = text.replace(old, new)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text)
    code, out, err = run(["simulate", str(cfg)], capsys)
    assert (code, err) == (0, "")
    assert out.startswith("---- smoke: ratio ")


@pytest.mark.parametrize(
    "edit",
    [
        # The menu sells one item per weight: k = 3 would be a false label.
        {"mechanism = ipm": "mechanism = het_ipm", "k = 2": "k = 3\netas = 1,0.5"},
        # Only het_ipm reads weights; ipm would ignore them silently.
        {"k = 2": "k = 2\netas = 1,0.5"},
    ],
    ids=["het_ipm-k-mismatch", "ipm-with-etas"],
)
def test_simulate_rejects_weights_that_do_not_fit(tmp_path, capsys, edit):
    text = CONFIG.format(out=tmp_path / "r.csv")
    for old, new in edit.items():
        text = text.replace(old, new)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text)
    code, _, err = run(["simulate", str(cfg)], capsys)
    assert code == 2
    assert "etas" in err
    assert not (tmp_path / "r.csv").exists()


def test_simulate_rejects_non_finite_weights(tmp_path, capsys):
    text = CONFIG.format(out=tmp_path / "r.csv").replace("mechanism = ipm", "mechanism = het_ipm")
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text.replace("k = 2", "k = 2\netas = 1,nan"))
    code, _, err = run(["simulate", str(cfg)], capsys)
    assert code == 2
    assert "etas" in err
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("epsilon", ["nan", "inf", "-inf"])
def test_simulate_rejects_non_finite_epsilon(tmp_path, capsys, epsilon):
    # A NaN or infinite slack would price the bundle at NaN or -inf.
    text = CONFIG.format(out=tmp_path / "r.csv")
    for old, new in {"n = 4": "n = 8", "competition": "monopsony", "mechanism = ipm": "mechanism = bundle"}.items():
        text = text.replace(old, new)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text + f"epsilon = {epsilon}\n")
    code, _, err = run(["simulate", str(cfg)], capsys)
    assert code == 2
    assert "epsilon" in err
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize(
    "edit,key",
    [
        # Only the bundle price reads the slack.
        ({"reps = 20000": "reps = 20000\nepsilon = 0.5"}, "epsilon"),
        # Only the uniform-price engine reads the model; these would run the
        # scenario as `surplus` and print `monopolist`.
        ({"surplus": "monopolist", "mechanism = ipm": "mechanism = het_ipm", "k = 2": "k = 2\netas = 1,0.5"},
         "monopolist"),
        ({"surplus": "monopolist", "mechanism = ipm": "mechanism = kplus1"}, "monopolist"),
        ({"surplus": "monopolist", "mechanism = ipm": "mechanism = bundle"}, "monopolist"),
        # Only het_ipm's sequential sale visits intermediaries in an order.
        ({"reps = 20000": "reps = 20000\norder = fixed"}, "order"),
        ({"mechanism = ipm": "mechanism = kplus1", "reps = 20000": "reps = 20000\norder = random"}, "order"),
    ],
    ids=["ipm-with-epsilon", "het_ipm-monopolist", "kplus1-monopolist", "bundle-monopolist",
         "ipm-with-order", "kplus1-with-order"],
)
def test_simulate_rejects_keys_the_mechanism_ignores(tmp_path, capsys, edit, key):
    text = CONFIG.format(out=tmp_path / "r.csv")
    for old, new in edit.items():
        text = text.replace(old, new)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text)
    code, _, err = run(["simulate", str(cfg)], capsys)
    assert code == 2
    assert key in err
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("model", ["alpha:0.5", "surplusmax", "surplus_max", "monopoly"])
def test_simulate_rejects_models_other_than_surplus_and_monopolist(tmp_path, capsys, model):
    # A bargaining split changes no purchase: it runs as `surplus`, so it
    # has no model of its own, and the two models have one spelling each.
    cfg = tmp_path / "c.cfg"
    cfg.write_text(CONFIG.format(out=tmp_path / "r.csv").replace("model = surplus", f"model = {model}"))
    code, _, err = run(["simulate", str(cfg)], capsys)
    assert code == 2
    assert "surplus" in err and "monopolist" in err
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("structure", ["balanced:2:99", "random:3", "random:3:x"])
def test_simulate_rejects_a_structure_with_wrong_fields(tmp_path, capsys, structure):
    # balanced:2:99 would run as balanced:2 and name it so in the CSV.
    cfg = tmp_path / "c.cfg"
    cfg.write_text(CONFIG.format(out=tmp_path / "r.csv").replace("competition", structure))
    code, _, err = run(["simulate", str(cfg)], capsys)
    assert code == 2
    assert repr(structure) in err
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize(
    "key,old,line", [("k", "k = 2", 10), ("reps", "reps = 5000", 3)], ids=["scenario-key", "global-key"],
)
def test_simulate_rejects_a_repeated_key(tmp_path, capsys, key, old, line):
    # A key appears once per block; a second value would win silently.
    cfg = tmp_path / "c.cfg"
    cfg.write_text(CONFIG.format(out=tmp_path / "r.csv").replace(old, f"{old}\n{key} = 1"))
    code, _, err = run(["simulate", str(cfg)], capsys)
    assert code == 2
    assert f"line {line}: key {key!r}" in err
    assert not (tmp_path / "r.csv").exists()


def test_simulate_rejects_a_comma_in_an_id(tmp_path, capsys):
    # The id is the report row's first field: a comma would split it.
    cfg = tmp_path / "c.cfg"
    cfg.write_text(CONFIG.format(out=tmp_path / "r.csv").replace("id = smoke", "id = a, b"))
    code, _, err = run(["simulate", str(cfg)], capsys)
    assert code == 2
    assert "'a, b'" in err and "comma" in err
    assert not (tmp_path / "r.csv").exists()


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


@pytest.mark.parametrize("path", sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.cfg")),
                         ids=lambda p: p.name)
def test_shipped_configs_parse_with_unique_ids(path):
    ids = [s.scenario_id for s in cli.parse_config(path.read_text()).scenarios]
    assert ids and len(set(ids)) == len(ids)


def test_check_filter_and_exit(capsys):
    code, out, _ = run(["check", "--only", "optprog"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "name, worst_margin, at, passed"
    assert all(line.startswith("optprog") for line in out.strip().splitlines()[1:])


def test_check_unknown_name(capsys):
    code, _, err = run(["check", "--only", "nonexistent"], capsys)
    assert code == 5
    assert "unknown" in err
    # Every unknown name is reported before any check runs.
    code, out, err = run(["check", "--only", "nope,optprog,nada"], capsys)
    assert (code, out) == (5, "")
    assert "nope" in err and "nada" in err and "optprog" not in err


@pytest.mark.parametrize("only", ["", ",", " "], ids=["empty", "comma", "blank"])
def test_check_only_must_name_a_check(capsys, only):
    # An --only that names no check would run none, or all of them.
    code, out, err = run(["check", "--only", only], capsys)
    assert (code, out) == (2, "")
    assert "--only" in err


def test_check_negative_controls_reported_separately(capsys):
    code, out, _ = run(["check", "--only", "negcontrol_optprog"], capsys)
    assert code == 0  # control misbehavior never fails the run via this row
    assert "negative controls behaving as designed: 1/1" in out


# The report of the nine checks that predate `regularity`, recorded before
# lemma_main's cross-check shared one ranked draw across the families, and
# re-recorded when virtual values took Pareto's survival without
# cancellation: only the `monopolist_tau` row moved, from a margin of
# -8.88178e-16 at p=2 to -8.60423e-16 at p=1.02598, both rounding of the
# exact identity tau = c(lambda).  Re-recorded again when every 1 - F read
# the survival, exact for exp and weibull too: two `monopolist_tau` rows
# moved, pareto:2:1 to -7.77156e-16 at the same p, and exp:1 from
# -8.32667e-16 at p=2.30259 to -1.66533e-16 at p=0.287682.  Re-recorded
# again when lemma_main's Monte Carlo cross-check gave way to `top_k_sums`:
# the five `lemma_main` rows moved, each detail from `max|z|=` (1.4, 0.72,
# 1.2, 1.4, 1.7 for exp:1, uniform:0:1, weibull:1:2, pareto:2:1, ter:100) to
# `max rel diff=` (3.4e-16, 5.9e-16, 6.7e-16, 6.4e-16, 1.2e-15), with the
# same margins and worst cases; no `facts_2_3` row moved when the max's
# tail came to read the survival.  Re-recorded again when `fact1` came to
# test the max's own margin (Fact 1 as stated) instead of the convexity of
# g_lambda(F^n): the five `fact1_convexity` rows moved, each detail from
# `n=… x=…` to `n=… lam=…`: exp:1 -4.44089e-16 to -2.22045e-16 (n=1),
# uniform:0:1 1.58017e-16 to 1.41248e-08 (n=8), weibull:1:2 1.90914e-17 to
# 3.1912e-08 (n=8), pareto:2:1 -1.5854e-13 to -1.77636e-18 (n=1) and
# ter:100 1.58424e-16 (n=8) to 4.98094e-07 (n=1); `negcontrol_fact1` moved
# from -0.110507 at x=19.971 to -0.980029, its detail from
# `pareto:2:1 at lam=0 n=1 x=19.971` to `pareto:2:1 n=1 lam=0`.  The exact
# survival of ter:100 moved no row.  Re-recorded again when the
# order-statistic rule's panels widened from min(1/8, sd/(4 mean)) to
# min(1/2, sd/mean) in log s: three `lemma_main` details moved (exp:1 3.4e-16
# to 4.4e-16, uniform:0:1 5.9e-16 to 7.9e-16, pareto:2:1 6.4e-16 to
# 4.9e-16), and two `facts_2_3` margins at t=1 (exp:1 0 to 5.55112e-17,
# pareto:2:1 1.11022e-16 to -1.11022e-16; Fact 2 is tight for Pareto at
# t = 1).
CHECK_REPORT_ONLY = "fact1,lamb_aux,optprog,lemma_main,facts23,tau,claim1,negcontrol_fact1,negcontrol_optprog"
CHECK_REPORT_SHA256 = "8f2f7a66d41f93ff5176217de5bd5062d77e561478677243abf83cb1224ac59c"


def test_check_report_is_pinned(capsys):
    code, out, _ = run(["check", "--only", CHECK_REPORT_ONLY], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CHECK_REPORT_SHA256


def test_check_report_bits_hold_under_python_312_sum(monkeypatch, capsys):
    # From Python 3.12 the builtin sum compensates float sums; the checks
    # add left to right, so the pin holds there too.
    install_py312_sum(monkeypatch)
    test_check_report_is_pinned(capsys)


def test_program_subcommand(capsys):
    code, out, _ = run(["program", "--r", "3,2,1", "--n", "10", "--lam", "0"], capsys)
    assert code == 0
    assert "optprog" in out
    code2, _, _ = run(["program", "--r", "1,1", "--n", "10", "--lam", "0"], capsys)
    assert code2 == 4
    # e^n overflows a float beyond n = 709; nothing in the check may need it.
    code3, out3, _ = run(["program", "--r", "3,2,1", "--n", "800"], capsys)
    assert code3 == 0 and out3.splitlines()[1].endswith("k=3 n=800 lam=0, True")
    # The exact solver is polynomial in the number of weights.
    geometric = ",".join(str(2.0**-j) for j in range(64))
    code4, out4, _ = run(["program", "--r", geometric, "--n", "10", "--lam", "0.25"], capsys)
    assert code4 == 0 and "k=64" in out4
    code5, _, _ = run(["program", "--r", ",".join(["1"] * 64), "--n", "10", "--lam", "0.25"], capsys)
    assert code5 == 4


def _python(code: str, *args, **run):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code, *args], timeout=300, env=env, **run)


def test_python_m_ipmlab_runs_the_cli():
    # What `python -m ipmlab ARGS` runs, with its exit code.
    code = "import runpy; runpy.run_module('ipmlab', run_name='__main__', alter_sys=True)"
    assert _python(code, "check", "--only", "tau").returncode == 0
    assert _python(code, "check", "--only", "nope").returncode == 5


def test_cli_import_leaves_scipy_stats_unloaded():
    # Importing scipy.stats would add its setup time and memory to every run.
    code = "import ipmlab.cli, sys; assert 'scipy.stats' not in sys.modules"
    assert _python(code).returncode == 0


def test_cli_import_loads_no_fractions():
    # The 1/e core is checked in integers: `fractions`, and the `decimal`
    # it loads, would only add import time to every run.
    code = "import ipmlab.cli, sys; assert not {'fractions', 'decimal'} & set(sys.modules)"
    assert _python(code).returncode == 0


def test_cli_import_loads_no_scipy():
    # The runtime needs numpy alone; scipy is a test-only oracle.
    code = "import ipmlab.cli, sys; assert not any(m.split('.')[0] == 'scipy' for m in sys.modules)"
    assert _python(code).returncode == 0


def test_cli_import_loads_no_numpy_polynomial():
    # The Gauss-Legendre rule is written out: numpy.polynomial's nine
    # modules would only add import time to every run.
    code = "import ipmlab.cli, sys; assert not any(m.startswith('numpy.polynomial') for m in sys.modules)"
    assert _python(code).returncode == 0


TASKS = "import os, ipmlab; print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))"
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _tasks_after_import():
    proc = _python(TASKS, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
def test_import_starts_no_blas_thread(monkeypatch):
    # OpenBLAS's idle worker pool would spin for about 100 ms of CPU.
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    assert _tasks_after_import() == ["1", "None"]


def test_import_leaves_the_environment_as_it_was(monkeypatch):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    code = "import os; before = dict(os.environ); import ipmlab; assert dict(os.environ) == before"
    assert _python(code).returncode == 0


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
@pytest.mark.skipif(CPUS < 2, reason="OpenBLAS runs one thread on one CPU")
def test_import_keeps_the_callers_blas_threads(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    assert _tasks_after_import() == ["2", "2"]


def test_check_loads_no_simulator():
    # `check` builds no scenario: the simulator and its thread pool stay
    # unloaded, and their import time out of its run.
    code = (
        "import contextlib, io, sys\n"
        "import ipmlab.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert ipmlab.cli.main(['check', '--only', 'tau']) == 0\n"
        "assert 'ipmlab.simulation' not in sys.modules\n"
        "assert 'concurrent.futures' not in sys.modules"
    )
    assert _python(code).returncode == 0


def test_parsing_a_config_loads_the_simulator(tmp_path):
    # `simulate` imports the simulator while it parses the config, before
    # any scenario runs.
    cfg = tmp_path / "c.cfg"
    cfg.write_text(CONFIG.format(out=tmp_path / "r.csv"))
    code = (
        "import sys\n"
        "import ipmlab.cli\n"
        "assert 'ipmlab.simulation' not in sys.modules\n"
        "ipmlab.cli.parse_config(open(sys.argv[1]).read())\n"
        "assert 'ipmlab.simulation' in sys.modules"
    )
    assert _python(code, str(cfg)).returncode == 0


def test_check_draws_no_random_number():
    # Every check is deterministic quadrature or exact arithmetic: a full
    # `ipmlab check` never loads numpy's random module.
    code = (
        "import contextlib, io, sys\n"
        "import ipmlab.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert ipmlab.cli.main(['check']) == 0\n"
        "assert 'numpy.random' not in sys.modules"
    )
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


# A reduced-reps copy of configs/theorem1.cfg with a market_wide-style group
# of four n = 256 scenarios, one of them among the theorem1 ones, whose reps
# differ.  The CSV digest and the summary were recorded before scenarios
# sharing a stream ran together.
GROUPED_CONFIG = """\
seed = 20240817
reps = 20000
output = pin.csv

[scenario]
id = exp-competition
dist = exp:1
n = 6
k = 3
structure = competition
model = surplus
mechanism = ipm

[scenario]
id = exp-monopsony
dist = exp:1
n = 6
k = 3
structure = monopsony
model = surplus
mechanism = ipm

[scenario]
id = wide-ipm
dist = exp:1
n = 256
k = 16
structure = competition
model = surplus
mechanism = ipm
reps = 2000

[scenario]
id = exp-balanced
dist = exp:1
n = 6
k = 3
structure = balanced:2
model = surplus
mechanism = ipm

[scenario]
id = exp-random-split
dist = exp:1
n = 6
k = 3
structure = random:3:7
model = surplus
mechanism = ipm

[scenario]
id = exp-monopolist
dist = exp:1
n = 6
k = 3
structure = balanced:2
model = monopolist
mechanism = ipm

[scenario]
id = pareto-half-regular
dist = pareto:2:1
n = 8
k = 4
structure = competition
model = surplus
mechanism = ipm

[scenario]
id = exp-heterogeneous
dist = exp:1
n = 6
etas = 1,0.5,0.25
structure = balanced:2
model = surplus
mechanism = het_ipm
reps = 5000

[scenario]
id = wide-item
dist = exp:1
n = 256
k = 16
structure = competition
model = surplus
mechanism = item_price
reps = 1500

[scenario]
id = wide-kplus1
dist = exp:1
n = 256
k = 16
structure = balanced:16
model = surplus
mechanism = kplus1
reps = 2000

[scenario]
id = wide-bundle
dist = exp:1
n = 256
k = 16
structure = monopsony
model = surplus
mechanism = bundle
reps = 700
"""

GROUPED_CSV_SHA256 = "2f5e5b65b16df4660f5cfddcbe2438b0a80597bab879d2d0c9e87df0331263f7"
GROUPED_SUMMARY = """\
PASS exp-competition: ratio 0.406253 vs bound 0.232544 (rev 1.97033 +- 0.0198884)
PASS exp-monopsony: ratio 0.406253 vs bound 0.232544 (rev 1.97033 +- 0.0198884)
---- wide-ipm: ratio 0.49107 vs bound 0.232544 (rev 29.414 +- 0.414359)
PASS exp-balanced: ratio 0.406253 vs bound 0.232544 (rev 1.97033 +- 0.0198884)
PASS exp-random-split: ratio 0.406253 vs bound 0.232544 (rev 1.97033 +- 0.0198884)
PASS exp-monopolist: ratio 0.151856 vs bound 0.0855482 (rev 0.7365 +- 0.0139289)
PASS pareto-half-regular: ratio 0.270567 vs bound 0.15803 (rev 3.01387 +- 0.0359492)
---- exp-heterogeneous: ratio 0.414122 vs bound 0.106205 (rev 1.41319 +- 0.0322499)
---- wide-item: ratio 0.267121 vs bound n/a (rev 16 +- 1.79792e-16)
---- wide-kplus1: ratio 0.731264 vs bound n/a (rev 43.8012 +- 0.164969)
---- wide-bundle: ratio 0.512857 vs bound n/a (rev 30.719 +- 2.21791)
wrote pin.csv (11 scenarios)
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_simulate_grouped_config_is_pinned(threads, monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("IPMLAB_THREADS", threads)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pin.cfg").write_text(GROUPED_CONFIG)
    code, out, _ = run(["simulate", "pin.cfg"], capsys)
    assert code == 0
    assert out == GROUPED_SUMMARY
    assert hashlib.sha256((tmp_path / "pin.csv").read_bytes()).hexdigest() == GROUPED_CSV_SHA256
