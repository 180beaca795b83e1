"""curvelab benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; curvelab is imported from ``src/``.
Every process this script starts is a fresh interpreter with the BLAS and
OpenMP thread counts pinned to 1, so module caches, set-up cost and peak
memory never carry over from one measurement to the next.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json:

setup_s      median set-up time over SETUP_PROCS + 1 fresh processes
             (import, grid, seeded inputs, profile validation);
solve_s      wall time of one unit of the workload's main job: after one
             untimed warm-up solve, every unit runs in PASSES round-robin
             passes, and the run reports the mean over all timed solves;
peak_rss_mb  peak resident memory of the measuring process.

Both times are rescaled to the reference machine speed of reference.py,
measured in the same process; the wall times and speed factors are printed
on the line before the result.

``--trace 1`` reports the per-layer metrics from one traced unit (see
layers.py).  Each run's size is fixed by ``--seconds`` and a per-workload
nominal unit cost measured at the commit that defined this benchmark, so a
faster program solves the same inputs in less time.  ``attempted`` and
``failed`` count ops: a flow run, a fuzz sample, an algebra vector or
matrix, or a digest comparison.  A failed op makes the run incorrect.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import reference

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_PROCS = 2
DEADLINE_S = 170.0
# seconds per unit at the commit that defined this benchmark (2-CPU x86 VM)
NOMINAL_UNIT_S = {"radial-axisym": 0.5, "support-s2": 1.9, "verify-fuzz": 0.45, "algebra": 0.6}
PASSES = 3
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def worker(args, mode, units, workdir, deadline):
    """Run worker.py in a fresh interpreter; return its result line."""
    env = dict(os.environ, CURVELAB_THREADS="1", PYTHONHASHSEED="0")
    env.update({name: "1" for name in PINNED})
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--units", str(units), "--passes", str(PASSES), "--mode", mode,
           "--root", str(ROOT), "--workdir", workdir]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"{mode} process for {args.workload} ran past the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0:
        fail(f"{mode} process for {args.workload} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    if not (ROOT / "src" / "curvelab" / "__init__.py").is_file():
        fail(f"no curvelab sources under {ROOT / 'src'}")
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        if args.trace:
            res = worker(args, "trace", 1, workdir, deadline)
            metrics = {m["name"]: {"value": res["layers"].get(m["name"], 0.0), "unit": m["unit"]}
                       for m in spec["per_layer"]}
            detail = {k: res[k] for k in ("env", "missing", "prediction_mismatches", "problems")}
        else:
            units = max(1, round(args.seconds / (PASSES * NOMINAL_UNIT_S[args.workload])))
            # set-up samples before and after the measuring process, so they
            # span the run rather than one phase of a shared machine
            setups = [worker(args, "setup", units, workdir, deadline)
                      for _ in range(SETUP_PROCS // 2)]
            res = worker(args, "measure", units, workdir, deadline)
            setups.append(res)
            setups += [worker(args, "setup", units, workdir, deadline)
                       for _ in range(SETUP_PROCS - SETUP_PROCS // 2)]
            setup_speed = [reference.speed(s["setup_ref"]) for s in setups]
            solve_speed = reference.speed(res["solve_ref"])
            solve_wall_s = statistics.fmean(t for unit in res["unit_pass_s"] for t in unit)
            values = {
                "setup_s": statistics.median(s["setup_s"] * v for s, v in zip(setups, setup_speed)),
                "solve_s": solve_wall_s * solve_speed,
                "peak_rss_mb": res["peak_rss_mb"],
            }
            metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                       for m in spec["end_to_end"]}
            detail = {"env": res["env"], "units": units,
                      "setup_wall_s": [s["setup_s"] for s in setups], "setup_speed": setup_speed,
                      "solve_wall_s": solve_wall_s, "solve_speed": solve_speed,
                      "unit_pass_s": res["unit_pass_s"], "solve_ref": res["solve_ref"],
                      "problems": res["problems"]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"workload": args.workload, "seed": args.seed, **detail}))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
