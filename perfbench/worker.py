"""One benchmark process: set up a workload, time it, check it, report JSON.

Started by run.py, which sets the environment: PYTHONPATH pointing at the
checkout's src/ and BLAS pinned to one thread.  The last stdout line is a
JSON object.
"""

import argparse
import ctypes
import gc
import glob
import json
import os
import platform
import resource
import sys
import time

import numpy
import scipy

import workloads
from tracer import Tracer

_BLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def blas_threads() -> dict:
    """Thread count of each OpenBLAS bundled with numpy and scipy."""
    out = {}
    for pkg in (numpy, scipy):
        libs = os.path.join(os.path.dirname(pkg.__file__), os.pardir, pkg.__name__ + ".libs")
        for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            for symbol in _BLAS_THREAD_SYMBOLS:
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    out[f"{pkg.__name__}:{os.path.basename(path)}"] = fn()
                    break
    return out


def machine_facts() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.time() just before this process was started")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.warm_up()
    # wall clock, because the start was stamped in the parent process
    setup_s = time.time() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    gc.collect()
    results, pass_times = [], []
    start = time.perf_counter()
    elapsed = 0.0
    while elapsed < args.seconds:
        pass_start = time.perf_counter()
        results += workload.run_pass()
        pass_times.append(time.perf_counter() - pass_start)
        elapsed = time.perf_counter() - start
    if tracer:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures, problems = workload.check(results)
    report = {
        "setup_s": setup_s,
        "items": len(results),
        "failed": len(failures),
        "failures": failures,
        "problems": problems,
        "pass_times_s": pass_times,
        "elapsed_s": elapsed,
        "items_per_s": (len(results) - len(failures)) / elapsed,
        "peak_rss_mb": peak_rss_mb,
        "machine": machine_facts(),
    }
    if tracer:
        report["per_layer"] = tracer.per_layer(len(results), elapsed)
        report["trace"] = tracer.summary()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
