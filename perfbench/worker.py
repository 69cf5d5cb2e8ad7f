"""One workload in one fresh interpreter: set up, time, check, report.

Started by ``run.py``; prints one JSON object as its last line. With
``--setup-only`` it stops before the first timed operation and reports only
the set-up time.
"""

from __future__ import annotations

import argparse
import functools
import glob
import json
import os
import resource
import sys
import time

MIN_OPERATIONS = 100  # at least ten samples beyond p90


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned-at", type=float, required=True, help="parent's perf_counter at spawn")
    p.add_argument("--workdir", required=True)
    p.add_argument("--trace-out")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    import workloads

    w = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    w.warm_up()
    if args.setup_only:
        print(json.dumps({"setup_s": time.perf_counter() - args.spawned_at}))
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        if args.workload == "cli_session":
            here = os.path.dirname(os.path.abspath(__file__))
            w.prefix = [
                sys.executable,
                "-c",
                f"import sys; sys.path.insert(0, {here!r}); import tracing; "
                "sys.exit(tracing.traced_cli(sys.argv[1:]))",
            ]

    ops = w.round()
    first: dict = {}
    latencies: list[float] = []
    errors: list[str] = []
    mismatched: set = set()
    child_spans: list[dict] = []
    attempted = 0
    setup_s = time.perf_counter() - args.spawned_at
    start = time.perf_counter()
    while True:
        for key, op in ops:
            if tracer is not None:
                tracer.op = attempted
                op = functools.partial(tracer.call, "op", op)
            attempted += 1
            t0 = time.perf_counter()
            try:
                out = op()
            except Exception as exc:  # a failed operation is counted, not fatal
                errors.append(f"{key}: {exc!r}")
                continue
            latencies.append(time.perf_counter() - t0)
            if tracer is not None:
                child_spans += _collect_child_spans(args.workdir, attempted - 1)
            if key not in first:
                first[key] = out
            elif out != first[key]:
                mismatched.add(key)
        if time.perf_counter() - start >= args.seconds and attempted >= MIN_OPERATIONS:
            break
    usage = resource.RUSAGE_CHILDREN if args.workload == "cli_session" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024
    if tracer is not None:  # the checks below call the program too; keep them out
        spans = [dict(s, process=0, index=i) for i, s in enumerate(tracer.as_json())] + child_spans

    problems = [f"{key}: output changed between repeats" for key in mismatched]
    problems += w.check(first)
    result = {
        "attempted": attempted,
        "failed": len(errors),
        "problems": problems,
        "errors": errors[:5],
        "latencies": latencies,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(spans, attempted)
        if args.trace_out:
            with open(args.trace_out, "w") as fh:
                json.dump(spans, fh)
    print(json.dumps(result))
    return 0


def _collect_child_spans(workdir: str, op: int) -> list[dict]:
    """Spans that a traced CLI process left behind, tagged with the operation."""
    out = []
    for k, path in enumerate(sorted(glob.glob(os.path.join(workdir, "spans-*.json")))):
        with open(path) as fh:
            spans = json.load(fh)
        os.remove(path)
        out += [dict(s, op=op, process=f"cli-{op}-{k}", index=i) for i, s in enumerate(spans)]
    return out


if __name__ == "__main__":
    sys.exit(main())
