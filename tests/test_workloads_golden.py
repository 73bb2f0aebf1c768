"""The outputs of perfbench's own requests, bit for bit.

tests/golden/workloads.json holds, for numpy seed 9001, the outputs of the
first 150 mb-point and the first 150 bf-roundtrip requests of the cycle and
of cli-batch's three verify runs, each as scripts/output_digest.py's
`outputs` and `fields` give them, with every float as its float.hex.  Its
requests come from perfbench/workloads.py, which the test only reads.  The
test runs no warm-up request, since no output depends on what the caches
hold; run with them, output_digest.py gives the same outputs.

Under "counts" it also holds each subset's work: every key of the work
record that the library fills (entromin._work, as scripts/bench.py reads
it), its passes as series_passes, of a cold run and of a warm rerun.  So
each count is a Tier-1 gate: a bracket call, a BudgetError, a Newton or
proposal point, a ladder lookup, a member or a window that a change adds
moves it, and the keys that read 0 (budget_errors, terms_built, and on
the warm mb-point and bf-roundtrip runs tables_built and windows_built)
are zero guards.  The cold run builds fresh families, whose
records (sigma-min set, profile, slope ladder, normal form, epsilon
prefixes) start empty, from an emptied specfile._shared_family, which
cli-batch's specs read their families from; the warm rerun reuses its
solvers and families.  A change that adds or saves a pass moves them.
The same two subsets, run cold from four threads that share their
solvers, give the pinned outputs too.  The
counts were pinned when each family's slope ladder began to serve every
tolerance; on the tree before, where each (family, tol, ceiling) filled
its own ladder entries, cli-batch's cold run took 209 passes and 373,056
terms (162 and 365,248 then), and every other count was the same.

The pins are bit patterns of one platform: python 3.11.7, numpy 2.4.6 and
glibc's libm, as for the other goldens.  A change that moves an output
re-pins the file, `PYTHONPATH=src python tests/test_workloads_golden.py`
from the repository root, and names each move in CHANGES.md; a change
meant to keep every figure must leave it as it is.  Pinned when the slope
ladder's entries became one rough pass each, re-pinned when a warm
root's Newton point began to be a Taylor step from its start (step_points,
one bracket and one model point per warm root), and when each ladder point
kept one model rung for every tolerance: cli-batch's cold run, whose
verify roots at 1e-5 had filled their own rungs, fell from 173 to 162
passes, 366,336 to 365,248 terms and 547 to 523 bracket calls.  Re-pinned
when cli verify's beyond-theta2 check began to read the boundary
candidate's second moment from the profile, in place of a pass of 131,072
terms: cli-batch's cold run fell from 162 to 161 passes and 365,248 to
234,176 terms, its warm rerun from 43 to 42 passes and 136,256 to 5,184
terms, and both made fewer array, reduce and bracket calls, slope passes
and windows.
"""

import dataclasses
import importlib.util
import json
import sys
import threading
from pathlib import Path

import numpy as np

import entromin
from entromin import _work, specfile

ROOT = Path(__file__).resolve().parent.parent
_PINNED = Path(__file__).resolve().parent / "golden" / "workloads.json"
_SEED, _FIRST = 9001, 150


def _module(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


output_digest = _module("output_digest", ROOT / "scripts" / "output_digest.py")
sys.path.insert(0, str(ROOT / "perfbench"))  # workloads and the oracles it imports
try:
    import workloads
finally:
    sys.path.remove(str(ROOT / "perfbench"))


class _Subset:
    """A workload whose cycle holds only the requests `keep` picks from its
    own, with no warm-up requests, and whose first prepare, which builds
    fresh families, serves every run: a rerun reads what the first filled."""

    def __init__(self, wl, keep):
        self._wl, self._keep, self._ctx = wl, keep, None

    def __getattr__(self, name):
        return getattr(self._wl, name)

    def prepare(self, entromin, out_dir, requests):
        if self._ctx is None:
            self._ctx = self._wl.prepare(entromin, out_dir, requests)
        return self._ctx

    def requests(self, rng):
        return self._keep(self._wl.requests(rng))

    def warmups(self):
        return []


_PICKS = {
    "mb-point": lambda reqs: reqs[:_FIRST],
    "bf-roundtrip": lambda reqs: reqs[:_FIRST],
    "cli-batch": lambda reqs: [r for r in reqs if r.args[0] == "verify"],
}


def _hex(value):
    return value.hex() if isinstance(value, float) else value


def _fields(name, out):
    return [[field, _hex(value)] for field, value in output_digest.fields(name, out)]


def _cold_subset(name):
    """The workload's subset, its shared-family cache emptied for a cold run."""
    specfile._shared_family.cache_clear()
    return _Subset(workloads.WORKLOADS[name], _PICKS[name])


def _run(name, wl, out_dir):
    """([[field, value] of each output], floats as float.hex, and every
    key of the work record, its passes as series_passes) of one run of the
    workload's subset wl."""
    with _work.counting() as work:
        got = [_fields(name, out) for out in output_digest.outputs(entromin, np, wl, _SEED, out_dir)]
    counts = dataclasses.asdict(work)
    return got, {"series_passes": counts.pop("passes"), **counts}


def workload_record(out_dir) -> dict:
    """{workload: its outputs from a cold run, "counts": {"cold" and
    "warm": {workload: its work record}}}."""
    got, counts = {}, {"cold": {}, "warm": {}}
    for name in _PICKS:
        wl = _cold_subset(name)
        got[name], counts["cold"][name] = _run(name, wl, out_dir)
        counts["warm"][name] = _run(name, wl, out_dir)[1]
    return {**got, "counts": counts}


def _threaded(name, threads=4):
    """The outputs of one cold run of the workload's subset, its requests
    dealt in turn to `threads` threads that share its solvers, in request
    order."""
    wl = _cold_subset(name)
    requests = wl.requests(np.random.default_rng(_SEED))
    ctx = wl.prepare(entromin, None, requests)
    seen = output_digest._recorded(ctx) if name == "bf-roundtrip" else None
    got, errors = [None] * len(requests), []
    barrier = threading.Barrier(threads)

    def work(first):
        try:
            barrier.wait()
            for i in range(first, len(requests), threads):
                got[i] = _fields(name, output_digest.line(entromin, wl, ctx, seen, requests[i]))
        except Exception as exc:  # reported below, from the test's thread
            errors.append(exc)

    pool = [threading.Thread(target=work, args=(k,)) for k in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # the threads interleave inside each request
    try:
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in pool)
    assert not errors, errors
    return got


def test_outputs_and_counts_match_the_pins(tmp_path):
    assert workload_record(tmp_path) == json.loads(_PINNED.read_text())


def test_a_cold_run_from_four_threads_gets_the_pinned_outputs():
    pinned = json.loads(_PINNED.read_text())
    for name in ("mb-point", "bf-roundtrip"):
        assert _threaded(name) == pinned[name]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        _PINNED.write_text(json.dumps(workload_record(Path(tmp)), indent=0) + "\n")
