"""One fresh benchmark process: set up a workload, then measure or trace it.

Modes (``--mode``):

setup    build the inputs and report the set-up time only;
measure  set up, solve unit 0 once to warm up, then time every unit of the
         run in ``--passes`` round-robin passes, checking that each unit's
         output digest repeats;
trace    set up one unit, solve it once to warm up, then alternate
         untraced and traced solves and report the per-layer metrics.

Set-up time runs from the first statement of this file, so it includes the
import of numpy, scipy and curvelab.  Every mode then times the reference
kernels of ``reference.py`` SETUP_REFS times, so ``run.py`` can rescale the
set-up time to the reference machine speed.  The last line of standard
output is one JSON object for ``run.py``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

TRACE_REPS = 2
SETUP_REFS = 5


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--units", type=int, required=True)
    parser.add_argument("--passes", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import numpy
    import scipy
    import curvelab

    if not os.path.abspath(curvelab.__file__).startswith(os.path.abspath(src) + os.sep):
        sys.exit(f"curvelab imported from {curvelab.__file__}, not from {src}")
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.units, args.workdir)
    setup_s = time.perf_counter() - T0
    import reference

    # machine speed at the end of set-up, to rescale setup_s; the first
    # sample warms the kernels up and is dropped
    result = {"setup_s": setup_s, "setup_ref": [reference.sample() for _ in range(SETUP_REFS + 1)][1:]}
    if args.mode == "setup":
        print(json.dumps(result))
        return

    nproc = len(os.sched_getaffinity(0))
    result["env"] = {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    ledger = Ledger()
    if args.mode == "measure":
        # an untimed warm-up solve, then round-robin passes over the units;
        # the reference kernels run before every solve and give the
        # machine speed over the same stretch of time
        warm = ledger.add("warm-up unit 0", workload.solve(0))
        times = [[] for _ in range(args.units)]
        first = []
        refs = []
        for step in range(args.passes):
            for unit in range(args.units):
                refs.append(reference.sample())
                start = time.perf_counter()
                outcome = workload.solve(unit)
                times[unit].append(time.perf_counter() - start)
                ledger.add(f"pass {step} unit {unit}", outcome)
                if step == 0:
                    first.append(outcome)
                else:
                    ledger.same(f"unit {unit} digest repeats", first[unit], outcome)
        ledger.same("unit 0 digest repeats after warm-up", warm, first[0])
        result["unit_pass_s"] = times
        result["solve_ref"] = refs
        # read before the multi-threaded check below adds its thread arenas
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.workload == "verify-fuzz":
            parallel = ledger.add(f"unit 0 at {nproc} threads", workload.solve(0, threads=nproc))
            ledger.same(f"verify.csv identical at 1 and {nproc} threads", first[0], parallel)
    else:
        result.update(trace(args.workload, workload, ledger, nproc))

    result.update(attempted=ledger.attempted, failed=ledger.failed, problems=ledger.problems)
    print(json.dumps(result))


class Ledger:
    """Ops attempted and failed; every digest comparison is one more op."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, label, outcome):
        self.attempted += outcome.ops
        self.failed += outcome.failed
        self.problems += [f"{label}: {p}" for p in outcome.problems]
        return outcome

    def same(self, label, first, second):
        self.attempted += 1
        if first.digest != second.digest:
            self.failed += 1
            self.problems.append(f"{label}: digests differ")


def trace(name, workload, ledger, nproc):
    """Per-layer metrics of unit 0, from the last of TRACE_REPS traced solves.

    Untraced and traced solves alternate; the tracing overhead is the
    difference of their fastest times.
    """
    import layers
    from tracer import Tracer

    reference = ledger.add("warm-up unit 0", workload.solve(0))
    tracer = Tracer()
    plain_s, traced_s = [], []
    for rep in range(TRACE_REPS):
        start = time.perf_counter()
        plain = ledger.add(f"untraced unit 0, repeat {rep}", workload.solve(0))
        plain_s.append(time.perf_counter() - start)
        ledger.same("untraced unit 0 digest repeats", reference, plain)
        tracer.clear()
        tracer.install(layers.hooks())
        try:
            start = time.perf_counter()
            traced = ledger.add(f"traced unit 0, repeat {rep}", workload.solve(0))
            traced_s.append(time.perf_counter() - start)
        finally:
            tracer.uninstall()
        ledger.same("traced unit 0 digest repeats", reference, traced)

    metrics = layers.layer_metrics(tracer)
    metrics["trace.overhead_s"] = min(traced_s) - min(plain_s)
    metrics["cli.verify.parallel_efficiency"] = 0.0
    mismatches = layers.prediction_mismatches(tracer, name)
    if name == "verify-fuzz":
        serial = sum(tracer.durations("cli.verify"))
        tracer.clear()
        tracer.install(layers.hooks())
        try:
            parallel = ledger.add(f"traced unit 0 at {nproc} threads", workload.solve(0, threads=nproc))
        finally:
            tracer.uninstall()
        ledger.same(f"verify.csv identical at 1 and {nproc} threads", reference, parallel)
        metrics["cli.verify.parallel_efficiency"] = serial / (nproc * sum(tracer.durations("cli.verify")))
    return {"layers": metrics, "missing": tracer.missing, "prediction_mismatches": mismatches}


if __name__ == "__main__":
    main()
