"""ipmlab benchmark: runs the real CLI in fresh processes and checks its output.

    python3 perfbench/run.py --workload theorem1 --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; the program is imported from
`src/`.  Every measurement is one fresh `python3` process calling
`ipmlab.cli.main` on inputs generated from the seed, so each pays the cold
order-statistic quadrature a user pays.  The run repeats such processes
until `--seconds` have passed and prints, as its last stdout line, one JSON
object with the medians:

* `--trace 0`: the end-to-end metrics cpu_s, setup_s, peak_rss_mb, ok_frac;
  the times are CPU times scaled to a reference host speed (README.md).
* `--trace 1`: per-layer metrics from a traced process (see tracing.py),
  next to untraced processes of the same input for the tracing overhead and
  the thread speed-up.

Every process's report is checked (verify.py) and compared byte for byte
with the first one of the run; each mismatch or wrong result counts as a
failed operation.  Reports are written in a temporary directory inside the
checkout, removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import calibrate
import verify
from child import IMPORT_FAILED

HERE = os.path.dirname(os.path.abspath(__file__))

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
CHILD_TIMEOUT_S = 150
# Fewest processes whose median a timed run reports.
MIN_PROCESSES = 3
REPORT = "report.csv"
WIDE_THREADS = min(2, os.cpu_count() or 1)

WORKLOADS = {
    # The paper's Theorem-1 verification: many small n <= 8 batches and the
    # pure-Python menu purchase of het_ipm.
    "theorem1": {"config": "theorem1.cfg", "threads": None, "calibration": "mix"},
    # Wide n = 256 batches through every uniform-price-family engine.  Its
    # CPU time follows the host's memory traffic at two threads, which the
    # mixed calibration does not see.
    "market_wide": {"config": "market_wide.cfg", "threads": WIDE_THREADS, "calibration": "wide"},
    # The full inequality-checker registry: cold quadrature and grid oracles.
    "checks": {"config": None, "threads": None, "calibration": "mix"},
}


def make_input(workload: str, seed: int, workdir: str) -> dict:
    """The program's input for one run; the same seed gives the same input."""
    rng = random.Random(f"{workload}:{seed}")
    spec = WORKLOADS[workload]
    if spec["config"] is None:
        names = list(verify.CHECK_ROWS)
        rng.shuffle(names)
        return {"argv": ["check", "--only", ",".join(names)], "names": names,
                "calibration": spec["calibration"]}
    with open(os.path.join(HERE, "workloads", spec["config"])) as fh:
        lines = fh.read().splitlines()
    master_seed = rng.getrandbits(62)
    text = "\n".join(
        f"seed = {master_seed}" if line.startswith("seed =")
        else f"output = {REPORT}" if line.startswith("output =")
        else line
        for line in lines
    ) + "\n"
    path = os.path.join(workdir, "input.cfg")
    with open(path, "w") as fh:
        fh.write(text)
    globals_, scenarios = verify.parse_config(text)
    return {"argv": ["simulate", path], "globals": globals_, "scenarios": scenarios,
            "calibration": spec["calibration"]}


class Fatal(Exception):
    """The program could not be run at all; no result is printed."""


def run_child(inp: dict, workdir: str, threads: int | None, trace: bool, calibrations=()) -> dict:
    """One ipmlab process; with `calibrations`, each of those kernels is
    timed right before the process starts and right after it ends."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("IPMLAB_THREADS", None)
    if threads is not None:
        env["IPMLAB_THREADS"] = str(threads)
    result_path = os.path.join(workdir, "child.json")
    spec = {"argv": inp["argv"], "trace": trace, "result": result_path, "src": SRC}
    calibration_s = {name: [calibrate.KERNELS[name]()] for name in calibrations}
    spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, CHILD, json.dumps(spec)],
        cwd=workdir, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    for name, times in calibration_s.items():
        times.append(calibrate.KERNELS[name]())
    if proc.returncode == IMPORT_FAILED:
        raise Fatal(err.strip())
    try:
        with open(result_path) as fh:
            res = json.load(fh)
        os.remove(result_path)
    except FileNotFoundError:
        sys.stderr.write(err)
        res = {"exit_code": proc.returncode}
    res["calibration_s"] = calibration_s
    res["setup_wall_s"] = res["ready"] - spawn if "ready" in res else None
    res["wall_s"] = res["done"] - res["ready"] if "done" in res else None
    report_path = os.path.join(workdir, REPORT)
    if os.path.exists(report_path):
        with open(report_path) as fh:
            res["report"] = fh.read()
        os.remove(report_path)
    else:
        res["report"] = out if inp["argv"][0] == "check" else ""
    return res


class Tally:
    """Operations attempted and failed over every process of one run."""

    def __init__(self, inp: dict):
        self.inp = inp
        self.first_report: str | None = None
        self.attempted = 0
        self.failed = 0

    def add(self, res: dict) -> None:
        inp, report = self.inp, res["report"]
        if inp["argv"][0] == "check":
            attempted, failed = verify.check_failures(report, inp["names"], res["exit_code"])
        else:
            attempted = len(inp["scenarios"])
            failed = verify.simulate_failures(report, inp["globals"], inp["scenarios"], res["exit_code"])
        if self.first_report is None:
            self.first_report = report
        elif report != self.first_report:
            mine, first = report.splitlines(), self.first_report.splitlines()
            differ = sum(1 for a, b in zip(mine, first) if a != b) + abs(len(mine) - len(first))
            failed = min(attempted, failed + max(differ, 1))
            print(f"determinism: report differs from the run's first in {differ} line(s)", file=sys.stderr)
        self.attempted += attempted
        self.failed += failed


def repeat(step, seconds: float, at_least: int) -> int:
    """Call step() at least `at_least` times, then while the next call is
    expected to end within `seconds` of the start; returns the call count."""
    start = time.monotonic()
    durations: list[float] = []
    while len(durations) < at_least or (
        time.monotonic() - start + statistics.median(durations) <= seconds
    ):
        t0 = time.monotonic()
        step()
        durations.append(time.monotonic() - t0)
    return len(durations)


def timed_run(inp, workdir, threads, seconds, tally) -> dict:
    calibration = inp["calibration"]
    kernels = sorted({"mix", calibration})
    for name in kernels:
        calibrate.KERNELS[name]()  # warm up
    samples = []

    def step():
        res = run_child(inp, workdir, threads, trace=False, calibrations=kernels)
        tally.add(res)
        samples.append(res)

    repeat(step, seconds, MIN_PROCESSES)
    finished = [s for s in samples if s["wall_s"] is not None]
    if not finished:
        raise Fatal(f"none of {len(samples)} processes finished")
    for s in finished:
        for name in kernels:
            s[f"calibration_{name}_s"] = statistics.fmean(s["calibration_s"][name])
        s["reference_cpu_s"] = s["cpu_s"] * calibrate.REFERENCE_S[calibration] / s[f"calibration_{calibration}_s"]
        s["reference_setup_s"] = s["setup_s"] * calibrate.REFERENCE_S["mix"] / s["calibration_s"]["mix"][0]
    for name in ("reference_cpu_s", "cpu_s", "wall_s", "reference_setup_s", "setup_s", "setup_wall_s",
                 *(f"calibration_{k}_s" for k in kernels)):
        values = sorted(s[name] for s in finished)
        print(f"{len(samples)} processes; {name} min {values[0]:.4f} median {statistics.median(values):.4f} "
              f"max {values[-1]:.4f}", file=sys.stderr)
    ok = 1.0 - tally.failed / tally.attempted
    return {
        # CPU time, not wall time: on a shared host the wall time of the same
        # process varies by tens of percent with what else runs.  Scaled to
        # the reference host, because the host's own speed drifts as much.
        "cpu_s": {"value": statistics.median(s["reference_cpu_s"] for s in finished), "unit": "s"},
        "setup_s": {"value": statistics.median(s["reference_setup_s"] for s in finished), "unit": "s"},
        # Peak memory of a 2-thread run takes a few discrete levels, so the
        # mean is steadier than the median.
        "peak_rss_mb": {"value": statistics.fmean(s["maxrss_kb"] for s in finished) * 1024 / 1e6, "unit": "MB"},
        "ok_frac": {"value": ok, "unit": "frac"},
    }


def traced_run(inp, workdir, threads, seconds, tally) -> dict:
    """Per-layer metrics: medians over groups of (untraced, [untraced at 1
    thread,] traced at 1 thread) processes on the same input."""
    groups = []

    def step():
        plain = run_child(inp, workdir, threads, trace=False)
        single = plain if threads in (None, 1) else run_child(inp, workdir, 1, trace=False)
        traced = run_child(inp, workdir, 1, trace=True)
        for res in {id(r): r for r in (plain, single, traced)}.values():
            tally.add(res)
        if traced.get("trace") is None or single["wall_s"] is None or plain["wall_s"] is None:
            return
        summary = traced["trace"]
        metrics = dict(summary["metrics"])
        metrics["cli.import_s"] = traced["import_s"]
        metrics["cli.wall_s"] = plain["wall_s"]
        metrics["trace.wall_s"] = traced["wall_s"]
        metrics["trace.overhead_s"] = traced["wall_s"] - single["wall_s"]
        metrics["simulation.thread_speedup"] = single["wall_s"] / plain["wall_s"]
        for name in summary["dropped"]:
            print(f"tracing: dropped {name}: its function is gone", file=sys.stderr)
        groups.append(metrics)

    attempts = repeat(step, seconds, 1)
    if not groups:
        raise Fatal(f"none of {attempts} traced processes finished")
    units = unit_table()
    names = [n for n in units if all(n in g for g in groups)]
    worst = max(g["trace.accounting_err"] for g in groups)
    print(f"{len(groups)} traced processes; self times + untraced remainder within "
          f"{100 * worst:.2f}% of traced wall_s; thread_speedup base: wall at 1 thread / wall at "
          f"{threads or 1} thread(s)", file=sys.stderr)
    return {n: {"value": statistics.median(g[n] for g in groups), "unit": units[n]} for n in names}


def unit_table() -> dict:
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer"]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "ipmlab", "cli.py")):
        print(f"no ipmlab source under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        inp = make_input(args.workload, args.seed, workdir)
        tally = Tally(inp)
        threads = WORKLOADS[args.workload]["threads"]
        measure = traced_run if args.trace else timed_run
        metrics = measure(inp, workdir, threads, args.seconds, tally)
    except Fatal as exc:
        print(f"cannot run ipmlab: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
