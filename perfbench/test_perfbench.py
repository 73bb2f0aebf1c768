"""Self-checks of the benchmark: tracing counts right and is deterministic.

    python3 -m pytest perfbench -q

The determinism check runs every workload twice, traced, at the same seed
and the shortest run length (one or two cycles), so it takes about a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import entromin  # noqa: E402
from entromin import sequences  # noqa: E402
from tracing import Tracer  # noqa: E402

# counts the ROADMAP makes the gate on a 2-core machine
GATE_COUNTS = (
    "series.passes",
    "sequences.terms",
    "series.phi.calls",
    "rootfind.iterations",
    "series.budget_errors",
    "solver.inverse_failures",
)


@pytest.fixture(scope="module")
def tracer():
    t = Tracer()
    t.install()
    return t


def test_nested_family_call_counts_once(tracer):
    fam = sequences.ShiftedSigma(entromin.Arithmetic(0.0, 1.0), -1.0)
    tracer.reset_counters()
    tracer.active = True
    try:
        fam.log_terms(-0.5, 1, 64)
        fam.log_terms(-0.5, 65, 128)
    finally:
        tracer.active = False
    calls, _, counts = tracer.totals()
    assert calls["sequences.log_terms"] == 2
    assert counts["sequences.terms"] == 128
    assert counts["series.passes"] == 1


def test_counts_are_thread_safe(tracer):
    fam = entromin.Arithmetic(0.0, 1.0)
    interval = sys.getswitchinterval()
    tracer.reset_counters()
    tracer.active = True
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=lambda: [fam.log_terms(-1.0, 1, 8) for _ in range(2000)])
            for _ in range(4)
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
        assert not any(th.is_alive() for th in threads)
    finally:
        sys.setswitchinterval(interval)
        tracer.active = False
    calls, _, counts = tracer.totals()
    assert calls["sequences.log_terms"] == 8000
    assert counts["sequences.terms"] == 64000


def test_self_time_excludes_children(tracer):
    solver = entromin.EmpSolver(entromin.Arithmetic(0.0, 1.0))
    tracer.reset_counters()
    tracer.active = True
    t = time.perf_counter()
    try:
        solver.solve_mb(1.0, 2.0)
    finally:
        tracer.active = False
    wall = time.perf_counter() - t
    _, self_s, _ = tracer.totals()
    assert 0.0 < self_s["solver.solve_mb"] < wall
    assert sum(self_s.values()) <= wall


def _traced_run(workload: str, seed: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", "1", "--trace", "1",
        "--t0", repr(time.perf_counter()),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1][len("PERFBENCH "):])


@pytest.mark.parametrize("workload", ["mb-point", "bf-roundtrip", "slow-levels", "cli-batch"])
def test_traced_counts_repeat_exactly(workload):
    first, second = _traced_run(workload, 7), _traced_run(workload, 7)
    assert first["failed"] == second["failed"] == 0, first["failures"] + second["failures"]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert sorted(m["name"] for m in declared) == sorted(first["per_layer"])
    for name, (value, unit) in first["per_layer"].items():
        if unit.startswith("count"):
            assert second["per_layer"][name][0] == value, name
    for name in GATE_COUNTS:
        assert name in first["per_layer"]
