"""Run one workload of the entromin benchmark and print its metrics.

    python3 perfbench/run.py --workload mb-point --seed 1 --seconds 15 --trace 0

From the repository root.  With --trace 0 it prints the end-to-end metrics
(setup_s, requests_per_s, latency_ms_p50, latency_ms_tail, peak_rss_mb and
failed_frac), with --trace 1 the per-layer metrics of a traced run.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it, "perfbench-meta {...}",
holds the run's metadata.  Both are also written to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import KERNELS_AROUND_SETUP, kernel_seconds, speed_factor

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOAD_NAMES = ("mb-point", "bf-roundtrip", "slow-levels", "cli-batch")
END_TO_END = ("latency_ms_p50", "latency_ms_tail", "requests_per_s", "peak_rss_mb", "setup_s")
# setup_s is the median over this many fresh interpreters that only set up,
# plus the measuring one
SETUP_PROBES = 6
BUDGET_S = 170  # a run, probes included, ends within this


def _worker(args, deadline, *extra):
    """Start a fresh interpreter on worker.py and return its PERFBENCH record,
    its setup time scaled by kernels run just before the start and just
    after the setup."""
    kernels = [kernel_seconds() for _ in range(KERNELS_AROUND_SETUP)]
    t0 = time.perf_counter()  # CLOCK_MONOTONIC: the child reads the same clock
    cmd = [
        sys.executable, str(WORKER),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--t0", repr(t0), *extra,
    ]
    timeout = max(1.0, deadline - t0)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("PERFBENCH "):
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"worker exited with {proc.returncode} and no result")
    rec = json.loads(lines[-1][len("PERFBENCH "):])
    rec["setup_s_wall"] = rec["setup_s"]
    rec["setup_s"] *= speed_factor(kernels + rec["setup_kernels"])
    return rec


def _commit():
    """HEAD of the repository, or None in an exported checkout."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="entromin benchmark: one workload run")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "entromin" / "__init__.py").is_file():
        print(f"error: no entromin sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        deadline = time.perf_counter() + BUDGET_S
        probes = [] if args.trace else [
            _worker(args, deadline, "--setup-only") for _ in range(SETUP_PROBES)
        ]
        res = _worker(args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    setups = [r["setup_s"] for r in probes + [res]]
    n = res["attempted"]
    if args.trace:
        metrics = res["per_layer"]
    else:
        metrics = dict(res["metrics"])
        metrics["setup_s"] = (statistics.median(setups), "s")
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "src_sha256": hashlib.sha256(
            b"".join(p.read_bytes() for p in sorted((ROOT / "src").rglob("*.py")))
        ).hexdigest(),
        "python": res["versions"]["python"],
        "numpy": res["versions"]["numpy"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "n": n,
        "cycles": res["cycles"],
        "requests_per_cycle": res["requests_per_cycle"],
        "elapsed_s": res["elapsed_s"],
        "latency_ms_tail_percentile": res["tail_percentile"],
        "setup_s_samples": setups,
        "setup_s_wall_samples": [r["setup_s_wall"] for r in probes + [res]],
        "speed_factor_median": res["speed_factor_median"],
        "wall_clock": res["wall_clock"],
        "failed_frac": res["failed"] / n,
        "failures": res["failures"],
    }
    for key in ("not_applicable", "breakdown", "spans"):
        if key in res:
            meta[key] = res[key]

    print(
        f"{args.workload} seed {args.seed}: {n} requests "
        f"({res['cycles']} cycles of {res['requests_per_cycle']}) in {res['elapsed_s']:.2f} s, "
        f"tail = p{res['tail_percentile']}"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:45s} {value:.6g} {unit}")
    for reason in res["failures"]:
        print(f"  FAILED {reason}")
    final = {
        "correct": res["failed"] == 0,
        "attempted": n,
        "failed": res["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
            if args.trace or name in END_TO_END
        },
    }
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"result-{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps({"meta": meta, "result": final}, indent=2) + "\n")
    print("perfbench-meta " + json.dumps(meta))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
