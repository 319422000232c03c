"""Record reference revenues for the scenarios without a closed form.

    python3 perfbench/make_references.py     # from the root of a checkout

Runs every `kplus1`, `bundle` and `het_ipm` scenario of the workload configs
once with REFERENCE_REPS replicates through `ipmlab simulate` and writes
their mean revenue and ci95 to perfbench/references.json.  verify.py then
accepts a benchmark run within three times the combined ci95, so a later
change of RNG stream still passes while a change of the mechanism does not.
"""

import json
import os
import subprocess
import sys
import tempfile

import verify

HERE = os.path.dirname(os.path.abspath(__file__))

REFERENCE_REPS = 2**21
REFERENCE_SEED = 7_777_777
NO_CLOSED_FORM = ("kplus1", "bundle", "het_ipm")
SPEC_KEYS = ("dist", "n", "structure", "model", "mechanism")


def main() -> int:
    blocks = []
    for cfg in sorted(os.listdir(os.path.join(HERE, "workloads"))):
        with open(os.path.join(HERE, "workloads", cfg)) as fh:
            _, scenarios = verify.parse_config(fh.read())
        blocks += [sc for sc in scenarios if sc["mechanism"] in NO_CLOSED_FORM]
    text = f"seed = {REFERENCE_SEED}\nreps = {REFERENCE_REPS}\noutput = ref.csv\n"
    for sc in blocks:
        sc = {key: val for key, val in sc.items() if key != "reps"}
        text += "\n[scenario]\n" + "".join(f"{key} = {val}\n" for key, val in sc.items())
    env = dict(os.environ, PYTHONPATH=os.path.join(os.getcwd(), "src"), IPMLAB_THREADS=str(os.cpu_count() or 1))
    with tempfile.TemporaryDirectory(prefix=".perfbench-ref-", dir=os.getcwd()) as work:
        with open(os.path.join(work, "ref.cfg"), "w") as fh:
            fh.write(text)
        subprocess.run([sys.executable, "-m", "ipmlab.cli", "simulate", "ref.cfg"], cwd=work, env=env, check=True)
        with open(os.path.join(work, "ref.csv")) as fh:
            lines = fh.read().splitlines()
    refs = {}
    for sc, line in zip(blocks, lines[1:]):
        row = dict(zip(verify.CSV_FIELDS, line.split(", ")))
        refs[sc["id"]] = {key: sc[key] for key in SPEC_KEYS}
        refs[sc["id"]].update(
            seed=REFERENCE_SEED, reps=int(row["reps"]),
            mean_rev=float(row["mean_rev"]), ci95=float(row["ci95"]),
        )
    with open(os.path.join(HERE, "references.json"), "w") as fh:
        json.dump(refs, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
