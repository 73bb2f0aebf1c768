#!/usr/bin/env python3
"""One sha256 per (workload, seed) over the outputs of perfbench's requests.

For each of mb-point, bf-roundtrip and cli-batch on seeds 9001-9003, the
script builds the workload's cycle of requests exactly as perfbench does
(perfbench/workloads.py), runs its warm-up requests and then every request
of the cycle once, in order, and hashes the repr of each output's `digest`
(what perfbench requires a repetition of the request to reproduce).  A
request that raises contributes the type and message of its exception.
Two source trees that print the same lines give bit-identical outputs on
every request.

Usage, from the repository root:
    python scripts/output_digest.py [--src PATH] [--workload NAME ...]

--src points at another checkout's src/ (default: this checkout's), e.g. a
parent commit exported next to this one.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("mb-point", "bf-roundtrip", "cli-batch")
SEEDS = (9001, 9002, 9003)


def digest(entromin, np, wl, seed, out_dir) -> str:
    """sha256 over the digests of one cycle of wl's requests at seed."""
    requests = wl.requests(np.random.default_rng(seed))
    ctx = wl.prepare(entromin, out_dir, requests)
    for req in wl.warmups():
        wl.run(ctx, req)
    h = hashlib.sha256()
    for req in requests:
        try:
            line = repr(wl.digest(wl.run(ctx, req)))
        except Exception as exc:  # a request that raises is part of the output
            line = f"raised {type(exc).__name__}: {exc}"
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default="src", help="entromin source tree (default: this checkout's)")
    ap.add_argument("--workload", nargs="*", choices=WORKLOADS, default=list(WORKLOADS))
    args = ap.parse_args(argv)

    sys.path.insert(0, str((ROOT / args.src).resolve()))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import numpy as np

    import entromin
    import workloads

    print(f"src {Path(entromin.__file__).resolve().parent}")
    with tempfile.TemporaryDirectory() as tmp:
        for name in args.workload:
            wl = workloads.WORKLOADS[name]
            for seed in SEEDS:
                print(f"{name} {seed} {digest(entromin, np, wl, seed, Path(tmp))}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
