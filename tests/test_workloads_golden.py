"""The outputs of perfbench's own requests, bit for bit.

tests/golden/workloads.json holds, for numpy seed 9001, the outputs of the
first 150 mb-point and the first 150 bf-roundtrip requests of the cycle and
of cli-batch's three verify runs, each as scripts/output_digest.py's
`outputs` and `fields` give them, with every float as its float.hex.  Its
requests come from perfbench/workloads.py, which the test only reads.  The
test runs no warm-up request, since no output depends on what the caches
hold; run with them, output_digest.py gives the same outputs.

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


def workload_outputs(out_dir) -> dict:
    """{workload: [[field, value] of each output]}, floats as float.hex."""
    got = {}
    for name, keep in _PICKS.items():
        wl = _Subset(workloads.WORKLOADS[name], keep)
        got[name] = [
            [[field, _hex(value)] for field, value in output_digest.fields(name, out)]
            for out in output_digest.outputs(entromin, np, wl, _SEED, out_dir)
        ]
    return got


def test_outputs_match_the_pinned_bits(tmp_path):
    assert workload_outputs(tmp_path) == json.loads(_PINNED.read_text())


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        _PINNED.write_text(json.dumps(workload_outputs(Path(tmp)), indent=0) + "\n")
