"""Tests of the benchmark itself: seeding, the exactness gate, the tracer."""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402
from prymlab import riemann_roch  # noqa: E402

# ops per workload: enough to reach every op kind, small enough to be quick
SMALL = {"classify": 2, "engine": 12, "scroll": 6}


def _run(name: str, seed: int, tracer=None) -> workloads.LoopResult:
    work = workloads.WORKLOADS[name](seed)
    return workloads.run_loop(work, SMALL[name], tracer)


@contextlib.contextmanager
def _planted_h0():
    """Replace h0 with one that is off by one, in every module binding it."""
    original = riemann_roch.h0

    def wrong(curve, divisor):
        return original(curve, divisor) + 1

    patched = [m for n, m in sys.modules.items() if n.startswith("prymlab") and getattr(m, "h0", None) is original]
    for module in patched:
        module.h0 = wrong
    try:
        yield
    finally:
        for module in patched:
            module.h0 = original


def planted_failures() -> dict:
    """Failed ops per workload with a wrong h0 planted; used in-process and
    under `python -O`."""
    with _planted_h0():
        return {name: _run(name, 3).failed for name in SMALL}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_same_seed_same_inputs_and_digest(name):
    a, b, c = (workloads.WORKLOADS[name](seed) for seed in (5, 5, 6))
    inputs = [[repr(w.next_input(i)) for i in range(SMALL[name])] for w in (a, b, c)]
    assert inputs[0] == inputs[1]
    assert inputs[0] != inputs[2]
    first, second = _run(name, 5), _run(name, 5)
    assert first.failed == second.failed == 0
    assert first.digest.hexdigest() == second.digest.hexdigest()


def test_planted_wrong_h0_fails_every_workload():
    failures = planted_failures()
    assert all(count > 0 for count in failures.values()), failures


def test_planted_wrong_h0_fails_under_optimize():
    code = (
        f"import json, sys; sys.path.insert(0, {str(HERE)!r}); "
        "from test_perfbench import planted_failures; "
        "print(json.dumps([sys.flags.optimize, planted_failures()]))"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=120, check=True
    )
    optimize, failures = json.loads(out.stdout.splitlines()[-1])
    assert optimize == 1
    assert all(count > 0 for count in failures.values()), failures


def _bindings():
    names = {attr for _, attr, _ in tracing.SPAN_FUNCTIONS + tracing.COUNTED_FUNCTIONS}
    found = {
        (module_name, attr): getattr(module, attr)
        for module_name, module in sys.modules.items()
        if module_name.startswith("prymlab")
        for attr in names
        if hasattr(module, attr)
    }
    for cls, attr, _ in tracing.COUNTED_METHODS:
        found[(cls.__name__, attr)] = cls.__dict__[attr]
    found[("CurveFunction", "make")] = riemann_roch.CurveFunction.__dict__["make"]
    return found


def test_tracer_restores_originals_and_accounts_for_op_time():
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert riemann_roch.h0 is not before[("prymlab.riemann_roch", "h0")]
        results = {name: _run(name, 2, tracer) for name in SMALL}
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert all(r.failed == 0 for r in results.values())

    n_ops = sum(SMALL.values())
    metrics = {name: value for name, (value, _) in tracer.metrics(n_ops, 0).items()}
    assert metrics["riemann_roch.h0_calls"] > 0
    assert metrics["jacobian.cantor_calls"] > 0
    assert metrics["series.branch_calls"] > 0
    self_total = sum(v for name, v in metrics.items() if name.startswith("self_s."))
    assert self_total == pytest.approx(metrics["trace.op_s"], rel=1e-9)


def test_run_without_the_package_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "engine", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_timed_run_prints_every_end_to_end_metric():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "engine", "--seed", "1", "--seconds", "0.1", "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    # the minimum number of rounds, every one of them a full batch
    assert result["attempted"] == 3 * workloads.Engine.batch_ops
    expected = {entry["name"] for entry in json.loads((HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]}
    assert set(result["metrics"]) == expected
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
