"""Runs one workload in this process and writes its raw measurements as JSON.

Started by run.py, one process per workload run, with the BLAS thread count
already fixed in its environment.  Modes:

* ``timed``: set up ``SETUPS`` times, then repeat the operation list until
  ``--seconds`` would be exceeded (at least once);
* ``once``: set up once, run the operation list once untimed, then once
  measured;
* ``traced``: as ``once``, with tracing wrappers installed before set-up
  and recording during set-up and the measured round.

Usage: python3 bench/worker.py --workload NAME --seed N --seconds S
       --mode timed|once|traced --result FILE [--spans FILE]
"""

import argparse
import ctypes
import gc
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUPS = 3


def import_gdlkit():
    """Import the package from this checkout's ``src``; never another copy."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    start = perf_counter()
    try:
        import gdlkit.cli  # noqa: F401  (imports every module of the package)
    except ImportError as exc:
        sys.exit(f"worker: cannot import gdlkit from {src}: {exc}")
    elapsed = perf_counter() - start
    import gdlkit
    if os.path.dirname(os.path.dirname(os.path.abspath(gdlkit.__file__))) != src:
        sys.exit(f"worker: gdlkit resolved to {gdlkit.__file__}, not under {src}")
    return elapsed


def blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, if it can be asked."""
    import numpy as np
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                return getter()
    return None


def environment(seed):
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        cpu = platform.processor()
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "seed": seed}


def run_round(ops, inputs, tracer):
    """Run every operation once; checks run outside the timed region."""
    import checks  # not at module level: import_s must include numpy and scipy
    gc.collect()
    times, failures = {}, []
    for op in ops:
        if tracer is not None:
            tracer.operation = op.name
        start = perf_counter()
        try:
            result = op.run(inputs)
        except Exception as exc:  # a raising operation is a failed operation; the run goes on
            times[op.name] = perf_counter() - start
            failures.append((op, f"raised {type(exc).__name__}: {exc}"))
            continue
        times[op.name] = perf_counter() - start
        if tracer is not None:
            tracer.active = False
        try:
            op.check(inputs, result)
        except checks.Wrong as exc:
            failures.append((op, str(exc)))
        except Exception as exc:  # a check that cannot digest the result rejects it
            failures.append((op, f"check raised {type(exc).__name__}: {exc}"))
        finally:
            if tracer is not None:
                tracer.active = True
        del result
    return times, failures


def measure(workload, seed, seconds, mode, outdir, tracer=None):
    """Set up and run ``workload`` as ``mode`` says; returns the raw record.
    CLI reports go to a scratch directory under ``outdir``."""
    setup_s, inputs = [], None
    for _ in range(SETUPS if mode == "timed" else 1):
        inputs = None
        gc.collect()
        start = perf_counter()
        inputs = workload.setup(seed)
        setup_s.append(perf_counter() - start)

    inputs["outdir"] = tempfile.mkdtemp(prefix="reports-", dir=outdir)
    rounds, failures = [], []
    try:
        if mode != "timed":
            # an untimed round first, so both passes compare warm rounds
            if tracer is not None:
                tracer.active = False
            run_round(workload.ops, inputs, None)
            if tracer is not None:
                tracer.active = True
        start = perf_counter()
        while True:
            times, failed = run_round(workload.ops, inputs, tracer)
            rounds.append(times)
            failures += failed
            elapsed = perf_counter() - start
            if mode != "timed" or elapsed + elapsed / len(rounds) > seconds:
                break
    finally:
        shutil.rmtree(inputs["outdir"], ignore_errors=True)

    kinds = {op.name: op.kind for op in workload.ops}
    result = {
        "mode": mode, "environment": environment(seed), "setup_s": setup_s,
        "rounds": [{kind: sum(t for name, t in times.items() if kinds[name] == kind)
                    for kind in ("cli", "lib")} for times in rounds],
        "operations": {op.name: {"kind": op.kind,
                                 "median_s": statistics.median(r[op.name] for r in rounds)}
                       for op in workload.ops},
        "attempted": len(workload.ops) * len(rounds),
        "failures": [{"operation": op.name, "reason": reason, "known": op.known_failure}
                     for op, reason in failures],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_table()
    return result


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("timed", "once", "traced"), required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()

    import_s = import_gdlkit()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"worker: unknown workload {args.workload!r}")
    workload = workloads.WORKLOADS[args.workload]()
    tracer = None
    if args.mode == "traced":
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    result = measure(workload, args.seed, args.seconds, args.mode,
                     os.path.dirname(args.result), tracer)
    result.update(workload=args.workload, import_s=import_s)
    if tracer is not None and args.spans:
        tracer.write(args.spans)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)


if __name__ == "__main__":
    main()
