"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Each run starts the workload in fresh
interpreters with a fixed ``PYTHONHASHSEED``: one that times operations for
``--seconds`` (in whole rounds, and at least 100 operations) and checks
every output, and ``SETUP_PROBES`` before and after it that stop after
set-up. The last line of standard output is one JSON object: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a traced run.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
HASH_SEED = "0"  # the mixed-cycle search iterates over sets of strings
SETUP_PROBES = 5
WORKER_TIMEOUT_S = 150
OUT_DIR = ".bench_out"


def run_worker(args, workdir: str, env: dict, extra=()) -> dict:
    spawned_at = time.perf_counter()
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", workdir,
        "--spawned-at", repr(spawned_at),
        *extra,
    ]
    # own process group, so a worker that overruns is stopped with its children
    proc = subprocess.Popen(
        cmd, env=env, cwd=workdir, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}: {stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def end_to_end(result: dict, setups: list[float]) -> dict:
    lat = result["latencies"]
    return {
        "ops_per_s": {"value": len(lat) / sum(lat), "unit": "1/s"},
        "latency_p50_ms": {"value": statistics.median(lat) * 1000, "unit": "ms"},
        "latency_p90_ms": {"value": statistics.quantiles(lat, n=10)[-1] * 1000, "unit": "ms"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }


def src_lines(src: str) -> int:
    """Lines of the package's Python sources, the figure to shrink."""
    total = 0
    for path in glob.glob(os.path.join(src, "admgci", "**", "*.py"), recursive=True):
        with open(path) as fh:
            total += sum(1 for _ in fh)
    return total


def layer_units(layers: dict) -> dict:
    return {k: {"value": v, "unit": "ms" if k.endswith("_ms") else "count"} for k, v in layers.items()}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "admgci", "__init__.py")):
        print(f"error: no admgci sources under {src}; run from the repository root", file=sys.stderr)
        return 2

    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=HASH_SEED)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(root, OUT_DIR, f"{tag}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.trace:
            trace_out = os.path.join(root, OUT_DIR, f"trace-{tag}.json")
            result = run_worker(args, workdir, env, ["--trace-out", trace_out])
            layers = result["layers"]
            import tracing

            layers.update(tracing.process_metrics(sys.executable, env, workdir))
            metrics = layer_units(layers)
        else:
            # probes on both sides of the timed run, so that the median spans
            # more of the machine's drift than a few seconds at the start
            probe = lambda: run_worker(args, workdir, env, ["--setup-only"])["setup_s"]
            setups = [probe() for _ in range(SETUP_PROBES // 2)]
            result = run_worker(args, workdir, env)
            setups += [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
            metrics = end_to_end(result, setups + [result["setup_s"]])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in result["problems"] + result["errors"]:
        print(f"problem: {line}")
    print(f"src lines: {src_lines(src)}")
    print(
        json.dumps(
            {
                "correct": not result["problems"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
