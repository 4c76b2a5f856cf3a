"""critlab benchmark: one workload per process, closed loop, in-process API.

Run from the root of a source checkout:

    python3 critbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

The run imports critlab from ``src/`` of the checkout (there is nothing to
build), makes the workload's shared inputs (set-up), then runs whole rounds
of the workload until ``--seconds`` would be exceeded (at least one round),
checks every round's outputs, and prints one JSON object as the last line of
standard output.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics (see tracing.py).  Exits 2 without a result when the
checkout has no critlab sources.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

T_SCRIPT = time.perf_counter()

# one Python thread per core in multistart is the whole thread budget;
# BLAS helper threads would oversubscribe the cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_ROOT = ".critbench_out"


def import_critlab(root: str) -> None:
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "critlab", "__init__.py")):
        print(f"critbench: no critlab sources under {src}; run from a checkout root",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import critlab

    if not os.path.abspath(critlab.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"critbench: imported {critlab.__file__}, not the checkout", file=sys.stderr)
        sys.exit(2)


def digest(workload: str, res: dict) -> str:
    """Hash of the values a traced run must reproduce exactly."""
    if workload == "constants":
        keys = [[r["a_star"], r["l2_sq"], r["grad_sq"]] for r in res["table"]]
        payload = [keys, res["probe_eigenvalue"], res["nonexist_energy"], res["gn_min_ratio"]]
    else:
        # multistart results arrive in completion order
        payload = sorted(zip(res["iterations"], res["energy"]))
    return hashlib.sha256(repr(payload).encode()).hexdigest()[:16]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("sweep", "multistart", "constants"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    root = os.getcwd()
    import_critlab(root)
    import checks
    import workloads

    tracer = None
    if args.trace:
        import tracing

        # spans from here on: set-up and the first round, one cold pass
        tracer = tracing.Tracer()
        tracing.install(tracer)

    n_cores = len(os.sched_getaffinity(0))
    state = workloads.SETUP[args.workload](args.seed, n_cores)
    setup_s = time.perf_counter() - T_SCRIPT

    os.makedirs(os.path.join(root, OUT_ROOT), exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(root, OUT_ROOT))
    try:
        rounds, round_s, solve_s = [], [], []
        layer = None
        t_start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            res = workloads.ROUND[args.workload](state, os.path.join(run_dir, f"round-{len(rounds)}"))
            t1 = time.perf_counter()
            if tracer is not None and layer is None:
                layer = tracer.metrics()
            rounds.append(res)
            round_s.append(t1 - t0)
            solve_s.extend(res["solve_s"])
            # start another round only if it should end within the budget
            if (t1 - t_start) + (t1 - t0) > args.seconds:
                break

        ref = workloads.REFERENCE[args.workload](state, rounds[0])
        correct = True
        for k, res in enumerate(rounds):
            for name, ok, detail in checks.CHECKS[args.workload](res, ref):
                correct &= bool(ok)
                if k == 0 or not ok:
                    print(f"check round {k} {'PASS' if ok else 'FAIL'} {name}: {detail}")
            print(f"round {k} digest {digest(args.workload, res)} wall {round_s[k]:.3f} s")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if tracer is not None:
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in tracing.UNITS.items()}
        trace_path = os.path.join(root, OUT_ROOT, f"trace-{args.workload}-seed{args.seed}.json")
        with open(trace_path, "w") as fh:
            json.dump({"setup_and_first_round": layer, "round_s": round_s}, fh, indent=1)
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "run_s": {"value": statistics.median(round_s), "unit": "s"},
            "solve_p50_ms": {"value": 1e3 * statistics.median(solve_s), "unit": "ms"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": len(solve_s), "failed": 0,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
