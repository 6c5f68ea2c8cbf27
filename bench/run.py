"""gdlkit benchmark runner.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Runs each workload in its own worker process (bench/worker.py) with the
BLAS thread count fixed, prints the run environment and every metric by
name with its unit, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json from a timed
run.  ``--trace 1`` reports the per-layer metrics: one untraced and one
traced pass over the operation list, each in its own process; the spans go
to ``.bench_out/<workload>-seed<N>.spans.jsonl``, apart from the metrics.
Every number the workers measured is kept in ``.bench_out``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("mesh-spectral", "message-passing", "groups-grids")
# One BLAS thread, the same for every commit measured: on a shared 2-core
# host, two threads made single eigensolves up to 50% slower now and then.
BLAS_THREADS = "1"
RUN_TIMEOUT_S = 170


def worker(workload, seed, seconds, mode, timeout):
    """Run bench/worker.py in a fresh process and return its result."""
    stem = os.path.join(OUT, f"{workload}-seed{seed}")
    result_path = f"{stem}-{mode}.json"
    if os.path.exists(result_path):
        os.remove(result_path)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    env.pop("GDLKIT_SEED", None)
    cmd = [sys.executable, os.path.join(ROOT, "bench", "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
           "--result", result_path, "--spans", f"{stem}.spans.jsonl"]
    # subprocess.run kills and reaps the worker if it overruns
    proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=timeout,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def operation_sum(result, kind):
    """Sum over one kind of operation of each operation's median time."""
    return sum(op["median_s"] for op in result["operations"].values() if op["kind"] == kind)


def end_to_end(result):
    failed = len(result["failures"])
    return {
        "setup_s": result["import_s"] + statistics.median(result["setup_s"]),
        "verdict_s": operation_sum(result, "cli"),
        "layers_s": operation_sum(result, "lib"),
        "peak_rss_mb": result["peak_rss_mb"],
        "pass_frac": 1.0 - failed / result["attempted"],
    }


def per_layer(plain, traced, names):
    table = traced["layers"]
    values = {name: table.get(name, 0.0) for name in names}
    untraced = operation_sum(plain, "cli") + operation_sum(plain, "lib")
    values["bench.trace_overhead_frac"] = (
        operation_sum(traced, "cli") + operation_sum(traced, "lib") - untraced) / untraced
    return values


def measure(workload, seed, seconds, trace, spec):
    """Returns (metrics, attempted, failures, environment) of one workload."""
    if trace:
        half = RUN_TIMEOUT_S // 2
        plain = worker(workload, seed, seconds, "once", half)
        result = worker(workload, seed, seconds, "traced", half)
        values = per_layer(plain, result, spec)
    else:
        result = worker(workload, seed, seconds, "timed", RUN_TIMEOUT_S)
        values = end_to_end(result)
    metrics = {}
    for name, unit in spec.items():
        value = values[name]
        metrics[name] = {"value": int(value) if unit in ("count", "bytes") else value,
                         "unit": unit}
    return metrics, result["attempted"], result["failures"], result["environment"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        config = json.load(fh)
    spec = {m["name"]: m["unit"] for m in config["per_layer" if args.trace else "end_to_end"]}
    os.makedirs(OUT, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failures = {}, 0, []
    for name in names:
        try:
            values, tried, failed, env = measure(name, args.seed, args.seconds, args.trace, spec)
        except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
            sys.exit(f"bench: {name}: {exc}")
        print("environment", json.dumps(env, sort_keys=True))
        for failure in failed:
            print(f"failed {name}: {failure['operation']}: {failure['reason']}"
                  + (f" [known: {failure['known']}]" if failure["known"] else ""))
        for metric, entry in values.items():
            print(f"{name:16} {metric:56} {entry['value']:>16.6g} {entry['unit']}")
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + metric: entry for metric, entry in values.items()})
        attempted += tried
        failures += failed
    print(json.dumps({"correct": all(f["known"] for f in failures), "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))


if __name__ == "__main__":
    main()
