"""One benchmark process: set up a workload, then run its ops.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS MODE

MODE is `setup` (set up and exit), `timed` (rounds of the workload's
`batch_ops` ops, untraced, until SECONDS have passed, at least MIN_ROUNDS of
them), `plain` (one round, untraced) or `traced` (one round under the
tracer, whose spans are written to `.perfbench_traces/WORKLOAD-SEED.jsonl`).

Every round runs on a fresh copy of the workload, built from the same seed,
so its memo tables start cold and its ops are the same as in every other
round.  A timed run reports every op's time and each round's total, so that
`run.py` can take medians over the whole run: the host this runs on is
shared, and a spell of it running slower or faster than usual then moves
only the rounds it overlaps.

The worker prints one JSON line with its results, including the monotonic
clock reading at the end of set-up; `run.py` subtracts the reading it took
just before starting the process, so set-up includes interpreter start and
`import prymlab`.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench_traces"
MIN_ROUNDS = 3


def main(argv: list[str]) -> int:
    workload, seed, seconds, mode = argv[0], int(argv[1]), float(argv[2]), argv[3]
    sys.path.insert(0, str(SRC))
    import prymlab

    if Path(prymlab.__file__).resolve().parent != SRC / "prymlab":
        print(f"prymlab imported from {prymlab.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    make = workloads.WORKLOADS[workload]
    work = make(seed)
    ready = time.monotonic()
    if mode == "setup":
        print(json.dumps({"ready_monotonic": ready}))
        return 0

    tracer = None
    if mode == "traced":
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    rounds = []
    start = time.monotonic()
    try:
        while True:
            rounds.append(workloads.run_loop(work, work.batch_ops, tracer))
            elapsed = time.monotonic() - start
            if mode != "timed" or (len(rounds) >= MIN_ROUNDS and elapsed * (len(rounds) + 1) / len(rounds) > seconds):
                break
            work = None
            gc.collect()
            work = make(seed)
    finally:
        if tracer is not None:
            tracer.uninstall()

    digests = {r.digest.hexdigest() for r in rounds}
    errors = [note for r in rounds for note in r.errors][:5]
    failed = sum(r.failed for r in rounds)
    if len(digests) > 1:  # the same ops gave different output in another round
        failed += 1
        errors.append("rounds of the same ops printed different output")
    out = {
        "ready_monotonic": ready,
        "genus": work.genus,
        "rounds": len(rounds),
        "batch_ops": work.batch_ops,
        "attempted": sum(r.attempted for r in rounds),
        "failed": failed,
        "errors": errors,
        "latencies_ns": [ns for r in rounds for ns in r.latencies_ns],
        "round_s": [sum(r.latencies_ns) / 1e9 for r in rounds],
        "digest": rounds[0].digest.hexdigest(),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        out["layers"] = tracer.metrics(work.batch_ops, work.memo_entries())
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.write_spans(TRACE_DIR / f"{workload}-{seed}.jsonl")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
