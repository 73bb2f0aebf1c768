"""One benchmark process: set up, run one workload's cycles, check outputs.

Started by run.py in a fresh interpreter, with --t0 set to the parent's
monotonic clock just before the start, so that setup_s covers interpreter
start, importing entromin, building each EmpSolver and one warm-up request
per family.  Prints one line "PERFBENCH <json>" as its last line.

    python3 perfbench/worker.py --workload mb-point --seed 1 --seconds 15 \
        --trace 0 --t0 <perf_counter of the parent>
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least 10 samples beyond it."""
    return math.floor(100 * (n - 10) / n)


def nearest_rank(sorted_values, pct: float) -> float:
    k = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[k - 1]


def _import_entromin():
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    import entromin

    if Path(entromin.__file__).resolve().parent != ROOT / "src" / "entromin":
        raise ImportError(f"entromin imported from {entromin.__file__}, not from {ROOT / 'src'}")
    return entromin


def per_layer_metrics(tracer, setup_self_s, n, requests_per_s, records):
    """The per-layer metrics of a traced run: counts and self seconds per
    request, ratios at the layer where the work happens."""
    calls, self_s, counts = tracer.totals()

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for layer in (
        "sequences.log_terms",
        "sequences.tail_interval",
        "sequences.boundary_bracket",
        "series.phi",
        "series.phi_inverse",
        "series.lnf_conjugate",
        "series.eval_f",
        "series.eval_h",
        "series.grad_h",
        "series.hessian_h",
        "rootfind.solve_bracketed",
        "solver.classify",
        "finite.solve_two_mb_be",
    ):
        m[f"{layer}.calls"] = (calls[layer] / n, "count/req")
    for layer in (
        "sequences.log_terms",
        "sequences.tail_interval",
        "series.phi_inverse",
        "series.lnf_conjugate",
        "series.eval_h",
        "series.grad_h",
        "series.hessian_h",
        "solver.solve_mb",
        "solver.value_mb",
        "solver.forward_solve",
        "solver.inverse_solve_bf",
        "solver.epsilon_converge",
        "solver.objective_value",
        "finite.solve_two_mb_be",
        "specfile.parse_spec",
    ):
        m[f"{layer}.self_s"] = (self_s[layer] / n, "s/req")
    m["sequences.terms"] = (counts["sequences.terms"] / n, "count/req")
    m["series.passes"] = (counts["series.passes"] / n, "count/req")
    m["series.terms_per_pass"] = (ratio(counts["sequences.terms"], counts["series.passes"]), "count")
    m["series.phi_per_root"] = (ratio(calls["series.phi"], calls["series.phi_inverse"]), "count")
    m["series.profile.self_s"] = (setup_self_s["series.profile"], "s")
    m["series.budget_errors"] = (counts["series.budget_errors"] / n, "count/req")
    m["rootfind.iterations"] = (counts["rootfind.iterations"] / n, "count/req")
    m["solver.inverse_solve_bf.hessians_per_call"] = (
        ratio(calls["series.hessian_h"], calls["solver.inverse_solve_bf"]),
        "count",
    )
    m["solver.inverse_failures"] = (counts["solver.inverse_failures"] / n, "count/req")
    sweeps = [r for r in records if r["rows"]]
    verifies = [r for r in records if r["label"].endswith("/cli-verify")]
    m["cli.sweep_rows_per_s"] = (
        ratio(sum(r["rows"] for r in sweeps), sum(r["latency_s"] for r in sweeps)),
        "1/s",
    )
    m["cli.verify_s"] = (ratio(sum(r["latency_s"] for r in verifies), len(verifies)), "s")
    m["cli.overhead_s"] = (ratio(self_s["cli.main"], calls["cli.main"]), "s")
    m["trace.requests_per_s"] = (requests_per_s, "1/s")

    # a metric whose layer never ran is reported as 0 and listed here
    layer_of = {
        "sequences.terms": "sequences.log_terms",
        "series.passes": "sequences.log_terms",
        "series.terms_per_pass": "sequences.log_terms",
        "series.phi_per_root": "series.phi_inverse",
        "rootfind.iterations": "rootfind.solve_bracketed",
        "solver.inverse_solve_bf.hessians_per_call": "solver.inverse_solve_bf",
        "solver.inverse_failures": "solver.inverse_solve_bf",
        "cli.overhead_s": "cli.main",
    }
    not_applicable = [
        name
        for name in m
        if name.endswith((".calls", ".self_s")) and calls[name.rsplit(".", 1)[0]] == 0
        or name in layer_of and calls[layer_of[name]] == 0
    ]
    not_applicable += [name for name, rs in (("cli.sweep_rows_per_s", sweeps), ("cli.verify_s", verifies)) if not rs]
    return m, sorted(not_applicable)


def breakdown(records):
    """Per (family, operation, region) figures of a traced run."""
    groups = defaultdict(list)
    for r in records:
        groups[r["label"]].append(r)
    out = {}
    for label, rs in sorted(groups.items()):
        n = len(rs)
        row = {
            "requests": n,
            "latency_ms_mean": 1e3 * sum(r["latency_s"] for r in rs) / n,
            "passes_mean": sum(r["series.passes"] for r in rs) / n,
            "terms_mean": sum(r["sequences.terms"] for r in rs) / n,
            "terms_max": max(r["sequences.terms"] for r in rs),
            "phi_calls_mean": sum(r["series.phi.calls"] for r in rs) / n,
        }
        rows = sum(r["rows"] for r in rs)
        if rows:
            row["sweep_rows_per_s"] = rows / sum(r["latency_s"] for r in rs)
        out[label] = row
    return out


def run_cycles(wl, ctx, requests, cycles, tracer, kernel_seconds):
    """The timed loop: `cycles` passes over `requests`, a calibration kernel
    before each request and one after the last.  Returns the latencies, the
    kernel times, (request index, error) per request, the first output of
    each request index, and per-request trace records."""
    keys = ("series.passes", "sequences.terms", "series.phi.calls")
    latencies, kernels, statuses, records = [], [], [], []
    first = {}  # request index -> (digest, output) of its first successful run
    for _ in range(cycles):
        for i, req in enumerate(requests):
            kernels.append(kernel_seconds())
            if tracer is not None:
                tracer.request = len(latencies)
                before = tracer.counts_now()
            t = time.perf_counter()
            try:
                out, error = wl.run(ctx, req), None
            except Exception as exc:  # a request that raises is a failed request
                out, error = None, f"raised {type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - t)
            if error is None:
                digest = wl.digest(out)
                if i not in first:
                    first[i] = (digest, out)
                elif first[i][0] != digest:
                    error = "output differs from the first run of this request"
            statuses.append((i, error))
            if tracer is not None:
                after = tracer.counts_now()
                rec = {k: after[k] - before[k] for k in keys}
                rec["label"] = wl.label(req, out) if out is not None else req.label()
                rec["rows"] = wl.rows(req)
                records.append(rec)
    kernels.append(kernel_seconds())
    return latencies, kernels, statuses, first, records


def failures_of(wl, requests, statuses, first):
    """One line per failed request; oracles run once per distinct request,
    on its first output, outside the timed region."""
    verdict = {i: wl.check(requests[i], out) for i, (_, out) in first.items()}
    failures = []
    for i, error in statuses:
        reason = error or verdict[i]
        if reason:
            req = requests[i]
            inputs = req.args[0] if req.op == "cli" else req.args
            failures.append(f"{req.label()} {inputs}: {reason}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    entromin = _import_entromin()
    import numpy as np

    import workloads
    from calibration import KERNELS_AROUND_SETUP, kernel_seconds, speed_factor
    from tracing import Tracer

    wl = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        tracer.active = True
    requests = wl.requests(np.random.default_rng(args.seed))
    OUT_DIR.mkdir(exist_ok=True)
    ctx = wl.prepare(entromin, OUT_DIR, requests)
    for req in wl.warmups():
        wl.run(ctx, req)
    setup_s = time.perf_counter() - args.t0
    setup_kernels = [kernel_seconds() for _ in range(KERNELS_AROUND_SETUP)]
    if args.setup_only:
        print("PERFBENCH " + json.dumps({"setup_s": setup_s, "setup_kernels": setup_kernels}))
        return 0

    if tracer is not None:
        setup_self_s = tracer.totals()[1]
        tracer.reset_counters()
    cycles = wl.cycles(args.seconds, len(requests))
    t_loop = time.perf_counter()
    latencies, kernels, statuses, first, records = run_cycles(
        wl, ctx, requests, cycles, tracer, kernel_seconds
    )
    elapsed = time.perf_counter() - t_loop
    if tracer is not None:
        tracer.active = False
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures = failures_of(wl, requests, statuses, first)

    # request i ran between kernels i and i + 1: its speed factor is the
    # median of the two kernels on each side
    factors = [speed_factor(kernels[max(0, i - 1) : i + 3]) for i in range(len(latencies))]
    scaled = [dt * f for dt, f in zip(latencies, factors)]
    n = len(latencies)
    pct = tail_percentile(n)
    lat, raw = sorted(scaled), sorted(latencies)
    result = {
        "setup_s": setup_s,
        "setup_kernels": setup_kernels,
        "attempted": n,
        "failed": len(failures),
        "failures": sorted(set(failures))[:10],
        "elapsed_s": elapsed,
        "cycles": cycles,
        "requests_per_cycle": len(requests),
        "tail_percentile": pct,
        "speed_factor_median": statistics.median(factors),
        "metrics": {
            "requests_per_s": (n / sum(scaled), "1/s"),
            "latency_ms_p50": (1e3 * nearest_rank(lat, 50), "ms"),
            "latency_ms_tail": (1e3 * nearest_rank(lat, pct), "ms"),
            "failed_frac": (len(failures) / n, "fraction"),
            "peak_rss_mb": (rss_mb, "MB"),
        },
        "wall_clock": {
            "requests_per_s": n / sum(latencies),
            "latency_ms_p50": 1e3 * nearest_rank(raw, 50),
            "latency_ms_tail": 1e3 * nearest_rank(raw, pct),
        },
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__},
    }
    if tracer is not None:
        for rec, dt in zip(records, scaled):
            rec["latency_s"] = dt
        metrics, not_applicable = per_layer_metrics(
            tracer, setup_self_s, n, n / sum(scaled), records
        )
        spans_path = OUT_DIR / f"spans-{args.workload}.npz"
        result["per_layer"] = metrics
        result["not_applicable"] = not_applicable
        result["breakdown"] = breakdown(records)
        result["spans"] = {"count": tracer.span_count(), "file": str(spans_path.relative_to(ROOT))}
        tracer.dump(spans_path)
    print("PERFBENCH " + json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
