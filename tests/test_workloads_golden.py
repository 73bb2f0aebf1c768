"""The outputs of perfbench's own requests, bit for bit.

tests/golden/workloads.json holds, for numpy seed 9001, the outputs of the
first 150 mb-point and the first 150 bf-roundtrip requests of the cycle and
of cli-batch's three verify runs, each as scripts/output_digest.py's
`outputs` and `fields` give them, with every float as its float.hex.  Its
requests come from perfbench/workloads.py, which the test only reads.  The
test runs no warm-up request, since no output depends on what the caches
hold; run with them, output_digest.py gives the same outputs.

Under "counts" it also holds each subset's work: the series passes and the
terms they sum (the passes and series_terms of the work record that the
library fills, entromin._work, as scripts/bench.py reads them) of a cold
run, from the caches that scripts/bench.py's _clear_family_caches empties,
and of a warm rerun.  A change that adds or saves a pass moves them.  The
counts were pinned when each family's slope ladder began to serve every
tolerance; on the tree before, where each (family, tol, ceiling) filled
its own ladder entries, cli-batch's cold run took 209 passes and 373,056
terms (173 and 366,336 now), and every other count was the same.

The pins are bit patterns of one platform: python 3.11.7, numpy 2.4.6 and
glibc's libm, as for the other goldens.  A change that moves an output
re-pins the file, `PYTHONPATH=src python tests/test_workloads_golden.py`
from the repository root, and names each move in CHANGES.md; a change
meant to keep every figure must leave it as it is.  Pinned when the slope
ladder's entries became one rough pass each.
"""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

import entromin
from entromin import _work

ROOT = Path(__file__).resolve().parent.parent
_PINNED = Path(__file__).resolve().parent / "golden" / "workloads.json"
_SEED, _FIRST = 9001, 150


def _module(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


output_digest = _module("output_digest", ROOT / "scripts" / "output_digest.py")
bench = _module("bench", ROOT / "scripts" / "bench.py")
sys.path.insert(0, str(ROOT / "perfbench"))  # workloads and the oracles it imports
try:
    import workloads
finally:
    sys.path.remove(str(ROOT / "perfbench"))


class _Subset:
    """A workload whose cycle holds only the requests `keep` picks from its
    own, with no warm-up requests."""

    def __init__(self, wl, keep):
        self._wl, self._keep = wl, keep

    def __getattr__(self, name):
        return getattr(self._wl, name)

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


def _run(name, out_dir):
    """([[field, value] of each output], floats as float.hex, and the
    passes and terms) of one run of the workload's subset."""
    wl = _Subset(workloads.WORKLOADS[name], _PICKS[name])
    with _work.counting() as work:
        got = [
            [[field, _hex(value)] for field, value in output_digest.fields(name, out)]
            for out in output_digest.outputs(entromin, np, wl, _SEED, out_dir)
        ]
    return got, {"series_passes": work.passes, "series_terms": work.series_terms}


def workload_record(out_dir) -> dict:
    """{workload: its outputs from a cold run, "counts": {"cold" and
    "warm": {workload: its passes and terms}}}."""
    got, counts = {}, {"cold": {}, "warm": {}}
    for name in _PICKS:
        bench._clear_family_caches()
        got[name], counts["cold"][name] = _run(name, out_dir)
        counts["warm"][name] = _run(name, out_dir)[1]
    return {**got, "counts": counts}


def test_outputs_and_counts_match_the_pins(tmp_path):
    assert workload_record(tmp_path) == json.loads(_PINNED.read_text())


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        _PINNED.write_text(json.dumps(workload_record(Path(tmp)), indent=0) + "\n")
