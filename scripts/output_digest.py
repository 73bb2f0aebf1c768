#!/usr/bin/env python3
"""One sha256 per (workload, seed) over the outputs of perfbench's requests,
or, with --against, what moved between two source trees.

For each of mb-point, bf-roundtrip and cli-batch on seeds 9001-9003, the
script builds the workload's cycle of requests exactly as perfbench does
(perfbench/workloads.py), runs its warm-up requests and then every request
of the cycle once, in order, and hashes the repr of each output's `digest`
(what perfbench requires a repetition of the request to reproduce).  On
bf-roundtrip, whose digest is (status, multipliers), an output also holds
the forward solution's u, v and value and the inverse solution's value,
recorded from the solver's own returns, so that a change to the dual
sums' rows shows even where the multipliers round back the same.  A
request that raises contributes the type and message of its exception.
Two source trees that print the same lines give bit-identical outputs on
every request.

With --against PATH the script runs the same requests on --src and on the
source tree at PATH, each in a process of its own, and prints per workload
and seed how many outputs moved and, per field, the largest relative move
|a - b| / max(|a|, |b|) of the outputs that moved (inf where a field
changed type, sign of infinity or text).  The fields are region, H, x, y,
n and objective on mb-point (the solution and its converged truncation),
status, x, y, message, forward u, forward v, forward value and inverse
value on bf-roundtrip, and the exit code and every
field of the written file on cli-batch (JSON keys, list indices dropped,
or CSV columns), where a text field moves by its numbers.

Usage, from the repository root:
    python scripts/output_digest.py [--src PATH] [--workload NAME ...] [--against PATH]

--src points at another checkout's src/ (default: this checkout's), e.g. a
parent commit exported next to this one.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import multiprocessing
import re
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("mb-point", "bf-roundtrip", "cli-batch")
SEEDS = (9001, 9002, 9003)
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|inf|nan)")


def _import(src):
    """numpy, entromin from the tree at src, and perfbench's workloads."""
    sys.path.insert(0, str((ROOT / src).resolve()))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import numpy as np

    import entromin
    import workloads

    return np, entromin, workloads


def _recorded(ctx):
    """Make each of ctx's solvers record what its last forward_solve and
    inverse_solve_bf on the calling thread returned, as attributes of those
    names of the threading.local returned."""
    seen = threading.local()
    for es in ctx["solvers"].values():
        for name in ("forward_solve", "inverse_solve_bf"):
            def record(*args, _method=getattr(es, name), _name=name):
                out = _method(*args)
                setattr(seen, _name, out)
                return out

            setattr(es, name, record)
    return seen


def line(entromin, wl, ctx, seen, req):
    """One request's line: its output's digest (on bf-roundtrip, where seen
    is _recorded(ctx), followed by the forward solution's (u, v, value) and
    the inverse solution's value, None for a failure), or the text 'raised
    <type>: <message>' (a str)."""
    try:
        out = wl.digest(wl.run(ctx, req))
    except Exception as exc:  # a request that raises is part of the output
        return f"raised {type(exc).__name__}: {exc}"
    if seen is not None:
        fwd, inv = seen.forward_solve, seen.inverse_solve_bf
        inverse = None if isinstance(inv, entromin.InverseFailure) else inv.value
        out = (*out, (fwd.u, fwd.v, fwd.value), inverse)
    return out


def outputs(entromin, np, wl, seed, out_dir):
    """The line of each request of one cycle of wl at seed, in order, after
    the workload's warm-up requests."""
    requests = wl.requests(np.random.default_rng(seed))
    ctx = wl.prepare(entromin, out_dir, requests)
    seen = _recorded(ctx) if wl.name == "bf-roundtrip" else None
    for req in wl.warmups():
        wl.run(ctx, req)
    for req in requests:
        yield line(entromin, wl, ctx, seen, req)


def digest(entromin, np, wl, seed, out_dir) -> str:
    """sha256 over the lines of one cycle of wl's requests at seed."""
    h = hashlib.sha256()
    for out in outputs(entromin, np, wl, seed, out_dir):
        line = out if isinstance(out, str) else repr(out)
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def _file_fields(text):
    """(name, value) of a written file: JSON leaves under their keys, or
    CSV cells under their column."""
    if text.lstrip().startswith("{"):
        def walk(obj, path):
            if isinstance(obj, dict):
                for k, v in obj.items():
                    yield from walk(v, f"{path}.{k}" if path else k)
            elif isinstance(obj, list):
                for v in obj:
                    yield from walk(v, path)
            else:
                yield path, obj

        yield from walk(json.loads(text), "")
    else:
        for row in csv.DictReader(io.StringIO(text)):
            yield from row.items()


def fields(name, out):
    """(field, value) pairs of one output line of workload `name`."""
    if isinstance(out, str):
        return [("raised", out)]
    if name == "bf-roundtrip":
        status, payload, (u, v, value), inverse = out
        pairs = [("status", status)] + (
            [("x", payload[0]), ("y", payload[1])] if status == "ok" else [("message", payload)]
        )
        pairs += [("forward u", u), ("forward v", v), ("forward value", value)]
        return pairs + ([("inverse value", inverse)] if status == "ok" else [])
    if name == "cli-batch":
        code, text = out
        return [("exit code", code), *_file_fields(text)]
    region, value, mult, member = out
    pairs = [("region", region), ("H", value)]
    pairs += [("x", mult[0]), ("y", mult[1])] if mult else []
    pairs += [("n", member[0]), ("objective", member[1])] if member else []
    return pairs


def collect(src, names):
    """{(workload, seed): [fields of each output]} on the tree at src."""
    np, entromin, workloads = _import(src)
    found = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            wl = workloads.WORKLOADS[name]
            for seed in SEEDS:
                found[name, seed] = [
                    fields(name, out) for out in outputs(entromin, np, wl, seed, Path(tmp))
                ]
    return found


def _move(a, b) -> float:
    """The relative move from a to b: 0 when equal (nan equals nan), inf
    where they differ in type, sign of infinity or text, and the largest
    move of their numbers where two texts differ in numbers alone."""
    if a == b or a != a and b != b:
        return 0.0
    if isinstance(a, str) and isinstance(b, str):
        if _NUMBER.sub("#", a) != _NUMBER.sub("#", b):
            return math.inf
        pairs = zip(_NUMBER.findall(a), _NUMBER.findall(b))
        return max(_move(float(x), float(y)) for x, y in pairs)
    numbers = (int, float)
    if not (isinstance(a, numbers) and isinstance(b, numbers)) or isinstance(a, bool):
        return math.inf
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def compare(mine, theirs) -> list[str]:
    """One line per (workload, seed) of what moved from theirs to mine."""
    lines = []
    for key, outs in mine.items():
        moved, worst = 0, {}
        for got, want in zip(outs, theirs[key]):
            if got == want:
                continue
            moved += 1
            if [f for f, _ in got] != [f for f, _ in want]:
                worst["fields"] = math.inf
                continue
            for (field, a), (_, b) in zip(got, want):
                worst[field] = max(worst.get(field, 0.0), _move(a, b))
        if len(outs) != len(theirs[key]):
            worst["outputs"] = math.inf
        moves = ", ".join(f"{f} {m:.2g}" for f, m in worst.items() if m > 0.0)
        lines.append(f"{key[0]} {key[1]}: {moved} of {len(outs)} outputs moved"
                     + (f"; largest relative move: {moves}" if moves else ""))
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default="src", help="entromin source tree (default: this checkout's)")
    ap.add_argument("--workload", nargs="*", choices=WORKLOADS, default=list(WORKLOADS))
    ap.add_argument("--against", help="another entromin source tree to compare outputs with")
    args = ap.parse_args(argv)

    if args.against:
        # each tree in a process of its own: both are the package entromin
        spawn = multiprocessing.get_context("spawn")
        results = []
        for src in (args.src, args.against):
            with spawn.Pool(1) as pool:
                results.append(pool.apply(collect, (src, args.workload)))
        print(f"src {(ROOT / args.src).resolve()} against {(ROOT / args.against).resolve()}")
        for line in compare(*results):
            print(line)
        return 0

    np, entromin, workloads = _import(args.src)
    print(f"src {Path(entromin.__file__).resolve().parent}")
    with tempfile.TemporaryDirectory() as tmp:
        for name in args.workload:
            wl = workloads.WORKLOADS[name]
            for seed in SEEDS:
                print(f"{name} {seed} {digest(entromin, np, wl, seed, Path(tmp))}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
