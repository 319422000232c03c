"""One fresh ipmlab process of the benchmark.

Run as `python3 child.py SPEC_JSON` with the package's `src` directory on
PYTHONPATH.  It imports ipmlab, parses the workload's input the way the CLI
will, optionally installs tracing, then calls `ipmlab.cli.main` once with a
cold order-statistic cache.  Its measurements go to the JSON file named by
the spec; the CLI's own output goes to stdout as usual.

Exit codes: the CLI's exit code, or 97 if ipmlab cannot be imported from
the expected source tree.
"""

import json
import os
import resource
import sys
import time

IMPORT_FAILED = 97


def main() -> int:
    spec = json.loads(sys.argv[1])
    t0 = time.perf_counter()
    try:
        import ipmlab
        from ipmlab import cli
    except ImportError as exc:
        print(f"cannot import ipmlab: {exc}", file=sys.stderr)
        return IMPORT_FAILED
    import_s = time.perf_counter() - t0
    src = os.path.realpath(spec["src"])
    if not os.path.realpath(ipmlab.__file__).startswith(src + os.sep):
        print(f"ipmlab imported from {ipmlab.__file__}, not from {src}", file=sys.stderr)
        return IMPORT_FAILED

    argv = spec["argv"]
    if argv[0] == "simulate":
        with open(argv[1]) as fh:
            cli.parse_config(fh.read())
    else:
        cli.build_parser().parse_args(argv)

    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    setup_cpu_s = time.thread_time()
    before = resource.getrusage(resource.RUSAGE_SELF)
    ready = time.monotonic()
    code = cli.main(argv)
    done = time.monotonic()
    after = resource.getrusage(resource.RUSAGE_SELF)
    sys.stdout.flush()

    result = {
        "ready": ready,
        "done": done,
        "import_s": import_s,
        "exit_code": code,
        # CPU times leave out the time the process waited for a processor.
        # Setup counts the main thread only: numpy's worker threads spin for
        # a while after they start, as long as the scheduler lets them.
        "setup_s": setup_cpu_s,
        "cpu_s": (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime),
        "maxrss_kb": after.ru_maxrss,
    }
    if tracer is not None:
        result["trace"] = tracer.summary(done - ready)
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
