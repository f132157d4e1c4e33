"""Benchmark of prymlab's exact h0 engine: three workloads, timed or traced.

    python3 perfbench/run.py --workload classify --seed 1 --seconds 40 --trace 0

`--trace 0` runs the workload untraced: ten set-up-only processes around one
measured process, each a fresh interpreter with cold memo tables.  The
measured process repeats the workload's batch of ops in rounds, each on a
fresh cold copy; throughput is the median over rounds, latency quantiles are
over every op of the run.  It prints the end-to-end
metrics with their sample counts, the failure fraction and the output digest,
then one JSON line with the metrics.

`--trace 1` runs one round twice, untraced and traced, and prints the
per-layer metrics of the traced process plus the tracing overhead.  See
README.md for what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("classify", "engine", "scroll")
SETUP_REPS = 10  # set-up-only processes, half before and half after the measured one
TIME_LIMIT_S = 170.0


class WorkerError(RuntimeError):
    pass


def spawn(args, mode: str, deadline: float) -> dict:
    """Run one worker process to completion and return its JSON line, with
    its set-up time measured from just before the process was started."""
    cmd = [sys.executable, str(WORKER), args.workload, str(args.seed), str(args.seconds), mode]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{mode} worker exceeded the time limit") from None
    finally:  # on every way out, including SIGTERM and Ctrl-C, the worker ends first
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise WorkerError(f"{mode} worker exited with {proc.returncode}:\n{err.strip()}")
    result = json.loads(out.splitlines()[-1])
    result["setup_s"] = result["ready_monotonic"] - start
    return result


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


def timed(args, deadline: float) -> tuple[dict, dict]:
    setups = [spawn(args, "setup", deadline)["setup_s"] for _ in range(SETUP_REPS // 2)]
    run = spawn(args, "timed", deadline)
    setups.append(run["setup_s"])
    setups += [spawn(args, "setup", deadline)["setup_s"] for _ in range(SETUP_REPS - SETUP_REPS // 2)]
    lat_ms = [ns / 1e6 for ns in run["latencies_ns"]]
    n = f"{len(lat_ms)} ops in {run['rounds']} rounds"
    metrics = {
        "setup_s": (statistics.median(setups), "s", f"{len(setups)} set-ups"),
        "ops_per_s": (run["batch_ops"] / statistics.median(run["round_s"]), "1/s", f"{run['rounds']} rounds"),
        "op_p50_ms": (statistics.median(lat_ms), "ms", n),
        "op_p90_ms": (p90(lat_ms), "ms", n),
        "peak_rss_mb": (run["peak_rss_kb"] / 1024, "MB", "1 process"),
    }
    return run, metrics


def traced(args, deadline: float) -> tuple[dict, dict]:
    plain = spawn(args, "plain", deadline)
    run = spawn(args, "traced", deadline)
    # the same ops ran in both processes; a median of per-op ratios resists
    # the bursts of a shared machine better than a ratio of totals
    ratios = [t / p for t, p in zip(run["latencies_ns"], plain["latencies_ns"])]
    metrics = {name: (value, unit, f"{run['attempted']} ops") for name, (value, unit) in run["layers"].items()}
    metrics["trace.overhead_ratio"] = (statistics.median(ratios) - 1, "ratio", f"{len(ratios)} ops")
    if plain["digest"] != run["digest"]:
        run["failed"] += 1
        run["errors"].append("tracing changed the output digest")
    run["attempted"] += plain["attempted"]
    run["failed"] += plain["failed"]
    run["errors"] += plain["errors"]
    return run, metrics


def _terminated(signum, frame):
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    signal.signal(signal.SIGTERM, _terminated)
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        run, metrics = (traced if args.trace else timed)(args, deadline)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted, failed = run["attempted"], run["failed"]
    print(
        f"workload {args.workload}  genus {run['genus']}  seed {args.seed}  "
        f"trace {args.trace}  fail_frac {failed / attempted:.4g} ({failed}/{attempted} ops)"
    )
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:32} {value:14.6g} {unit:9} n = {samples}")
    print(f"  output digest ({run['batch_ops']} ops of one round): sha256:{run['digest']}")
    for note in run["errors"]:
        print(f"failed op: {note}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
