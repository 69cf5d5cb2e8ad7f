"""Steadiness check: two sets of runs of the same commit.

    python3 perfbench/steadiness.py

Run from the repository root. For every workload in BENCHMARK.json it runs
two sets of ten untraced runs, each run with its own seed (set 1 uses seeds
1..10, set 2 seeds 1001..1010), at the run length and with the bounds in
BENCHMARK.json. For every workload and end-to-end metric it prints each
set's median and quartiles, the spread (Q3 - Q1) / median, the relative
difference of the two medians, and whether the sets agree: both spreads and
the absolute median difference within the metric's bound. Results also go
to ``.bench_out/steadiness.json``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS = 10
SETS = 2


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: {proc.stderr.strip()[-1000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2, "values": values}


def main() -> int:
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    report: dict = {}
    agree_all = True
    for workload in (w["name"] for w in bench["workloads"]):
        sets = [
            [one_run(workload, k * 1000 + i + 1, bench["run_seconds"]) for i in range(RUNS)]
            for k in range(SETS)
        ]
        runs = sets[0] + sets[1]
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        correct = all(r["correct"] for r in runs)
        agree_all &= correct and len(shares) == 1
        print(f"{workload}: correct={correct} failed shares={shares}")
        report[workload] = {"correct": correct, "failed_shares": shares}
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            first, second = (summary([r["metrics"][name]["value"] for r in s]) for s in sets)
            diff = (second["median"] - first["median"]) / first["median"]
            ok = abs(diff) <= bound and first["spread"] <= bound and second["spread"] <= bound
            agree_all &= ok
            report[workload][name] = {"sets": [first, second], "diff": diff, "bound": bound, "agree": ok}
            cells = "  ".join(
                f"med {r['median']:.4g} [{r['q1']:.4g}, {r['q3']:.4g}] spread {r['spread']:.3f}"
                for r in (first, second)
            )
            print(f"  {name:16s} {cells}  diff {diff:+.3f}  bound {bound}  {'agree' if ok else 'DISAGREE'}")
    os.makedirs(".bench_out", exist_ok=True)
    with open(os.path.join(".bench_out", "steadiness.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    print("all agree" if agree_all else "some metrics disagree")
    return 0 if agree_all else 1


if __name__ == "__main__":
    sys.exit(main())
