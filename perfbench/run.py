"""kaclab benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a kaclab checkout.  Each workload runs in fresh worker
processes (worker.py) with kaclab imported from src/.  With --trace 0 the
last stdout line carries the end-to-end metrics setup_s, items_per_s and
peak_rss_mb; with --trace 1 it carries the per-layer metrics of a traced run.
setup_s is the median over SETUP_SAMPLES processes: SETUP_SAMPLES - 1 that
only set up, then the one that measures.  A summary with the machine facts
and, when traced, the spans goes to perfbench/results/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 3
TIME_LIMIT_S = 170.0


def run_worker(args, deadline, setup_only):
    """Run one worker to completion and return its JSON report."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    # kaclab's heavy calls (SuperLU, ARPACK, small dense eigh) run on one
    # thread; an OpenBLAS pool beside them only adds CPU time and spread
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    # compile kaclab afresh in every process so setup_s never depends on a
    # bytecode cache left by an earlier run
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    # the same str/bytes hashing in every process: one random factor less
    env["PYTHONHASHSEED"] = "0"
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--spawned-at", repr(time.time()),
    ]
    if setup_only:
        cmd.append("--setup-only")
    # subprocess.run kills and reaps the worker if it overruns the deadline
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="ensemble_small, sparse_2d, sparse_3d or oracle_exact")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "kaclab", "__init__.py")):
        print(f"error: no kaclab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        setups = [] if args.trace else [
            run_worker(args, deadline, setup_only=True)["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)
        ]
        report = run_worker(args, deadline, setup_only=False)
    except (subprocess.TimeoutExpired, RuntimeError, ValueError, IndexError) as exc:
        print(f"error: {args.workload} run failed: {exc}", file=sys.stderr)
        return 1
    setups.append(report["setup_s"])

    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in report["per_layer"].items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "items_per_s": {"value": report["items_per_s"], "unit": "1/s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
    result = {
        "correct": not report["problems"],
        "attempted": report["items"],
        "failed": report["failed"],
        "metrics": metrics,
    }

    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"args": vars(args), "setup_samples_s": setups, "worker": report,
                   "result": result}, fh)

    for failure in report["failures"][:5]:
        print(f"failed item: {failure}")
    for problem in report["problems"][:20]:
        print(f"wrong output: {problem}")
    print(f"{args.workload}: {report['items']} items in {len(report['pass_times_s'])} passes, "
          f"{report['elapsed_s']:.2f} s timed; setup samples "
          f"{', '.join(f'{s:.3f}' for s in setups)} s; machine {json.dumps(report['machine'])}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
