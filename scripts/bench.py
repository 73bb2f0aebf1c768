#!/usr/bin/env python3
"""Per-layer benchmark: work counts and wall time of the solver paths.

Cases, with targets drawn exactly as perfbench's workloads draw them
(perfbench/workloads.py, one cycle per seed in SEEDS):

  epsilon_converge     EpsilonFamily.converge(1e-3) on every beyond-theta2
                       target of mb-point (WeightedGeometric(1, 3), slopes
                       1.4 to 2.0);
  lattice_interior     solve_mb on every interior Lattice3D(1) target of
                       mb-point;
  mb_interior          solve_mb on every interior target of mb-point's three
                       families (Arithmetic(0, 1), WeightedGeometric(1, 3)
                       and Lattice3D(1)), reported overall and per family;
  bf_roundtrip         every bf-roundtrip target: forward_solve(kind, x, y)
                       and then inverse_solve_bf(kind, u, v, 1e-10), BE and
                       FD on Arithmetic(0, 1), WeightedGeometric(1, 3) and
                       Lattice3D(1);
  finite_truncation    the finite solves of the CLI's truncation check on
                       mb-point's three families: solve_two_mb_be(MB, p,
                       sigma, 1, w) on the first n terms, n = 8, 16, ... up
                       to cli._max_finite_prefix, at w = cli._interior_slope,
                       reported overall and per family.

Work counts are deterministic and come from wrapping the library from
outside; nothing in src/ counts.  All but the first come from perfbench's
tracer (perfbench/tracing.py):

  prefix_passes        np.exp calls made by entromin.solver during one
                       converge: one per evaluation of the prefix slope
                       phi_n, plus any that build a member after its root
                       search (its terms, in trees that do not take them
                       from the root's last pass);
  prefix_terms         elements those calls exponentiate;
  prefix_terms_per_n   prefix_terms over the returned member's n;
  members              truncations tried (one log_terms(0, 1, n) each);
  series_passes        log_terms calls starting at n = 1 during one
                       solve_mb or round trip: one per certified series
                       pass;
  series_terms         elements all log_terms calls return;
  newton_points        points at which the inverse solve's damped Newton
                       evaluates its dual potential (the start and every
                       line-search point inside the domain), counted
                       through the callback that returns the potential;
  root_iterations      iterations of rootfind.solve_bracketed, one phi_n
                       evaluation each (the bracket expansion before it is
                       not counted).

Wall time is the median (with quartiles) over targets of each target's
median of REPEATS calls, after one untimed warm-up call per target.  All
timing runs before the tracer is installed, so the counts see whatever a
tree caches across calls warm, as a long-running process does (the
endpoint slopes phi_n(0) and phi_n(-alpha) of the epsilon family, per
family and n, where the tree caches them).

Usage, from the repository root:
    python scripts/bench.py --out BENCH.json [--src PATH]

--src points at another checkout's src/ to measure it with the same bench
code, e.g. a parent commit exported next to this one.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import platform
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (9001, 9002, 9003)
REPEATS = 5


class _CountingNumpy:
    """numpy as seen by one module, counting exp calls and their sizes."""

    def __init__(self, np, counts):
        self._np = np
        self._counts = counts

    def __getattr__(self, name):
        return getattr(self._np, name)

    def exp(self, x, *args, **kwargs):
        self._counts["prefix_passes"] += 1
        self._counts["prefix_terms"] += self._np.size(x)
        return self._np.exp(x, *args, **kwargs)


def _quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def _summary(per_target):
    keys = per_target[0].keys()
    return {
        k: {
            "mean": statistics.fmean(t[k] for t in per_target),
            "max": max(t[k] for t in per_target),
            "total": sum(t[k] for t in per_target),
        }
        for k in keys
    }


def _timed(fn):
    fn()
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _counted(tracer, fn, keys):
    """fn()'s result and {out: tracer count named key} for that one call."""
    tracer.reset_counters()
    result = fn()
    counts = tracer.counts_now()
    return result, {out: counts[key] for out, key in keys.items()}


def _targets(workloads, np):
    wl = workloads.MbPoint()
    return [r for seed in SEEDS for r in wl.requests(np.random.default_rng(seed))]


def _families(entromin, workloads, reqs):
    """Epsilon families of the beyond-theta2 weighted-geometric targets."""
    es = entromin.EmpSolver(workloads.build_family(entromin, "weighted-geometric"))
    fams = [
        es.solve_mb(*r.args).epsilon_family
        for r in reqs
        if r.family == "weighted-geometric"
    ]
    return [f for f in fams if f is not None]


def _lattice(entromin, workloads, reqs):
    """The Lattice3D solver and its interior targets."""
    es = entromin.EmpSolver(workloads.build_family(entromin, "lattice3d"))
    targets = [
        r.args
        for r in reqs
        if r.family == "lattice3d" and es.classify(*r.args).value == "interior"
    ]
    return es, targets


def count_converge(tracer, np, fams):
    from entromin import solver

    per_target, results = [], []
    for fam in fams:
        exps = Counter()
        solver.np = _CountingNumpy(np, exps)
        try:
            member, counts = _counted(
                tracer, lambda f=fam: f.converge(1e-3), {"members": "sequences.log_terms.calls"}
            )
        finally:
            solver.np = np
        per_n = exps["prefix_terms"] / member.n
        per_target.append({**exps, "prefix_terms_per_n": per_n, **counts})
        results.append(member.n)
    return {
        "counts_per_converge": _summary(per_target),
        "n_returned": dict(sorted(Counter(results).items())),
    }


def count_lattice(tracer, es, targets):
    keys = {"series_passes": "series.passes", "series_terms": "sequences.terms"}
    per_target = [
        _counted(tracer, lambda u=u, v=v: es.solve_mb(u, v), keys)[1] for u, v in targets
    ]
    return {"counts_per_solve": _summary(per_target)}


def _interior(entromin, workloads, reqs):
    """(family key, solver, u, v) for every interior mb-point target."""
    solvers = {
        fam: entromin.EmpSolver(workloads.build_family(entromin, fam))
        for fam in workloads.MbPoint.families
    }
    return [
        (r.family, solvers[r.family], *r.args)
        for r in reqs
        if solvers[r.family].classify(*r.args).value == "interior"
    ]


def _by_family(targets, values):
    out = {}
    for (fam, *_), value in zip(targets, values):
        out.setdefault(fam, []).append(value)
    return out


def _per_family(targets, per_target, times):
    """Each family's target count, count summary and wall times; targets
    start with their family key, per_target and times follow their order."""
    counts, walls = _by_family(targets, per_target), _by_family(targets, times)
    return {
        fam: {
            "targets": len(counts[fam]),
            "counts_per_solve": _summary(counts[fam]),
            "wall_ms_per_solve": _wall(walls[fam]),
        }
        for fam in counts
    }


def count_interior(tracer, targets, times):
    """mb_interior's counts and wall times, overall and per family; times
    holds each target's time in seconds, in the order of targets."""
    keys = {"series_passes": "series.passes", "series_terms": "sequences.terms"}
    per_target = [
        _counted(tracer, lambda es=es, u=u, v=v: es.solve_mb(u, v), keys)[1]
        for _, es, u, v in targets
    ]
    return {"counts_per_solve": _summary(per_target),
            "per_family": _per_family(targets, per_target, times)}


def _roundtrips(entromin, workloads, np):
    """(solver, kind, x, y) for every bf-roundtrip target."""
    wl = workloads.BfRoundtrip()
    kinds = {"be": entromin.Entropy.BOSE_EINSTEIN, "fd": entromin.Entropy.FERMI_DIRAC}
    reqs = [r for seed in SEEDS for r in wl.requests(np.random.default_rng(seed))]
    solvers = {
        fam: entromin.EmpSolver(workloads.build_family(entromin, fam)) for fam in wl.families
    }
    return [(solvers[r.family], kinds[r.args[0]], *r.args[1:]) for r in reqs]


def _roundtrip(es, kind, x, y):
    fwd = es.forward_solve(kind, x, y)
    return es.inverse_solve_bf(kind, fwd.u, fwd.v, 1e-10)


class _CountingNewton:
    """solver.minimize_convex_2d counting calls of the callback that returns
    the potential: `evaluate` (F, gradient and Hessian at one point), or
    `potential` in trees whose Newton takes separate callbacks."""

    def __init__(self, fn, counts):
        self._fn = fn
        self._sig = inspect.signature(fn)
        self._counts = counts

    def __call__(self, *args, **kwargs):
        bound = self._sig.bind(*args, **kwargs)
        name = "evaluate" if "evaluate" in bound.arguments else "potential"
        inner = bound.arguments[name]

        def counted(*a):
            self._counts["newton_points"] += 1
            return inner(*a)

        bound.arguments[name] = counted
        return self._fn(*bound.args, **bound.kwargs)


def count_roundtrips(tracer, entromin, trips):
    from entromin import solver

    keys = {"series_passes": "series.passes", "series_terms": "sequences.terms"}
    newton = solver.minimize_convex_2d
    per_target, failures = [], 0
    for trip in trips:
        points = Counter()
        solver.minimize_convex_2d = _CountingNewton(newton, points)
        try:
            result, counts = _counted(tracer, lambda t=trip: _roundtrip(*t), keys)
        finally:
            solver.minimize_convex_2d = newton
        failures += isinstance(result, entromin.InverseFailure)
        per_target.append({**counts, "newton_points": points["newton_points"]})
    return {"counts_per_roundtrip": _summary(per_target), "inverse_failures": failures}


def _truncations(entromin, workloads):
    """(family key, p, sigma, w) for every finite solve of the CLI's
    truncation check on mb-point's families."""
    from entromin import cli

    out = []
    for key in workloads.MbPoint.families:
        es = entromin.EmpSolver(workloads.build_family(entromin, key))
        fam, w = es.family, cli._interior_slope(es.profile)
        n, n_max = 8, cli._max_finite_prefix(fam)
        while n <= n_max:
            p = [fam.p(k) for k in range(1, n + 1)]
            sigma = [fam.sigma(k) for k in range(1, n + 1)]
            out.append((key, p, sigma, w))
            n *= 2
    return out


def _truncated(entromin, p, sigma, w):
    return entromin.solve_two_mb_be(entromin.Entropy.MAXWELL_BOLTZMANN, p, sigma, 1.0, w)


def count_truncations(tracer, entromin, solves, times):
    """finite_truncation's counts and wall times, overall and per family."""
    keys = {"root_iterations": "rootfind.iterations"}
    per_target = [
        _counted(tracer, lambda t=t: _truncated(entromin, *t[1:]), keys)[1] for t in solves
    ]
    return {"counts_per_solve": _summary(per_target),
            "per_family": _per_family(solves, per_target, times)}


def _wall(times):
    return {k: 1e3 * v for k, v in _quartiles(times).items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--src", default="src", help="entromin source tree (default: this checkout's)")
    args = ap.parse_args(argv)

    sys.path.insert(0, str((ROOT / args.src).resolve()))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import numpy as np

    import entromin
    import tracing
    import workloads

    reqs = _targets(workloads, np)
    fams = _families(entromin, workloads, reqs)
    es, lattice = _lattice(entromin, workloads, reqs)
    interior = _interior(entromin, workloads, reqs)
    trips = _roundtrips(entromin, workloads, np)
    truncations = _truncations(entromin, workloads)
    converge_ms = _wall([_timed(lambda f=f: f.converge(1e-3)) for f in fams])
    lattice_ms = _wall([_timed(lambda u=u, v=v: es.solve_mb(u, v)) for u, v in lattice])
    interior_s = [_timed(lambda es=es, u=u, v=v: es.solve_mb(u, v)) for _, es, u, v in interior]
    roundtrip_ms = _wall([_timed(lambda t=t: _roundtrip(*t)) for t in trips])
    truncation_s = [_timed(lambda t=t: _truncated(entromin, *t[1:])) for t in truncations]

    tracer = tracing.Tracer()
    tracer.install()
    tracer.active = True
    converge = {"targets": len(fams), **count_converge(tracer, np, fams),
                "wall_ms_per_converge": converge_ms}
    lattice = {"targets": len(lattice), **count_lattice(tracer, es, lattice),
               "wall_ms_per_solve": lattice_ms}
    interior = {"targets": len(interior), **count_interior(tracer, interior, interior_s),
                "wall_ms_per_solve": _wall(interior_s)}
    roundtrip = {"targets": len(trips), **count_roundtrips(tracer, entromin, trips),
                 "wall_ms_per_roundtrip": roundtrip_ms}
    truncation = {"targets": len(truncations),
                  **count_truncations(tracer, entromin, truncations, truncation_s),
                  "wall_ms_per_solve": _wall(truncation_s)}
    tracer.active = False

    record = {
        "src": args.src,
        "seeds": list(SEEDS),
        "repeats": REPEATS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cases": {
            "epsilon_converge": converge,
            "lattice_interior": lattice,
            "bf_roundtrip": roundtrip,
            "mb_interior": interior,
            "finite_truncation": truncation,
        },
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    for name, case in record["cases"].items():
        wall = next(v for k, v in case.items() if k.startswith("wall_ms"))
        counts = next(v for k, v in case.items() if k.startswith("counts"))
        means = ", ".join(f"{k} {v['mean']:.1f}" for k, v in counts.items())
        print(f"{name}: {case['targets']} targets; {means}; "
              f"median {wall['median']:.3f} ms [{wall['q1']:.3f}, {wall['q3']:.3f}]")
        for fam, sub in case.get("per_family", {}).items():
            means = ", ".join(f"{k} {v['mean']:.2f}" for k, v in sub["counts_per_solve"].items())
            print(f"  {fam}: {sub['targets']} targets; {means}; "
                  f"median {sub['wall_ms_per_solve']['median']:.3f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
