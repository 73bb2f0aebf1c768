#!/usr/bin/env python3
"""Per-layer benchmark: work counts and wall time of the solver paths.

Cases, with targets drawn exactly as perfbench's workloads draw them
(perfbench/workloads.py, one cycle per seed in SEEDS):

  epsilon_converge     EpsilonFamily.converge(1e-3) on every beyond-theta2
                       target of mb-point (WeightedGeometric(1, 3), slopes
                       1.4 to 2.0), counted three ways: warm on targets
                       converged before (counts_per_converge), over a cold
                       first cycle from a cleared prefix cache
                       (counts_per_cold_converge), and on the targets of
                       seeds 9002-9003 after a converge on each of seed
                       9001's (counts_per_unseen_converge);
  mb_interior          solve_mb on every interior target of mb-point's three
                       families (Arithmetic(0, 1), WeightedGeometric(1, 3)
                       and Lattice3D(1)), reported overall and per family;
  shifted_interior     solve_mb on Arithmetic(-3, 1) at every interior
                       Arithmetic(0, 1) target (u, w u) of mb-point, moved
                       to (u, (w - 3) u): the same normal form, reached
                       through the solver's shift of the levels by -3;
  bf_roundtrip         every bf-roundtrip target: forward_solve(kind, x, y)
                       and then inverse_solve_bf(kind, u, v, 1e-10), BE and
                       FD on Arithmetic(0, 1), WeightedGeometric(1, 3) and
                       Lattice3D(1), reported overall and per family;
  finite_truncation    the finite solves of the CLI's truncation check on
                       mb-point's three families: solve_two_mb_be(MB, p,
                       sigma, 1, w) on the first n terms, n = 8, 16, ... up
                       to cli._max_finite_prefix, at w = cli._interior_slope,
                       reported overall and per family;
  finite_fd            solve_two_fd(p, sigma, u, v) with p_k = 1 and sigma
                       evenly spaced on [0, 10] at n = 64 and 2048, u = n/4,
                       n/3 and n/2, at face targets (v on the lower
                       envelope) and interior ones (v = 6 u), reported
                       overall and per n and kind of target;
  slow_value           value_mb(1, w) on slowly spaced levels, whose tight
                       targets lie beyond the term budget: LogLevels(1) at
                       w = 1.19, 3.19 and 5.19 and PowerLaw(1, 0.5) at
                       w = 1.5, 3.5 and 5.5, reported overall and per family;
  slow_roundtrip       the inverse half of three LogLevels(1) round trips
                       near the domain endpoint, where tight Newton-point
                       sums lie beyond the term budget: forward_solve(kind,
                       x, y) once in setup, then inverse_solve_bf(kind, u,
                       v, 1e-10) at (BE, -1.572..., -1.685...), (FD,
                       2.567..., -1.617...) and (FD, 2.536..., -2.264...)
                       (SLOW_TRIPS), reported overall and per round trip;
  cli_verify           cli._cmd_verify on the verify spec that perfbench's
                       cli-batch writes for each of mb-point's families,
                       with a solver built from that spec, reported per
                       family with the entropy calls, the inverse solves'
                       Newton points and each check's time of one profiled
                       verify, and the term tables and windows of a warm
                       verify;
  rule_prefix          SequenceRule.prefix(100_000) of the interior
                       solutions solve_mb(1, 2) on Arithmetic(0, 1) and
                       solve_mb(1, 3.19) on LogLevels(1), reported per
                       family;
  explicit_solver      EmpSolver(ExplicitPrefix((1, 2), (1, 2),
                       WeightedGeometric(1, 3))) and EmpSolver of its tail
                       alone, each built cold: on a new family instance,
                       whose records (its term table, sigma-min set,
                       profile and normal form) start empty.

Apart from the cases, ladder_build reports per family what filling its
slope ladder, the store of slope-root starts, costs for the mb_interior
and the bf_roundtrip targets: the entries and model rungs a run over the
family's targets leaves in the empty ladder of a fresh instance of the
family (its solver built first, so only the ladder starts empty), the
passes and terms that run spends beyond a warm rerun of the same targets,
the passes and terms of the whole cold run (cold_series_passes and
cold_series_terms: for mb_interior, the interior solves of every seed's
cycle on one fresh instance), and the passes and terms of the entries it
fills (entry_passes and entry_terms) and of the model rungs
(model_rung_passes and model_rung_terms), read from the records the ladder
keeps: one pass per entry and per model rung that is not None, of the kept
slope's f.truncation_n terms; under total their sums over the families.
Results do not
depend on which entries are cached, so the difference is the build alone.
mb_interior also reports zero_pass_solves, the warm solves that make no
series pass.
cold_cycle reports per seed the series passes and terms of one whole
mb-point cycle, every request in order on fresh families, with the prefix
cache (solver._cached_prefix) cleared, as a new perfbench process runs it,
and the entry and model-rung fills its families' ladders keep, as above.
dual_rows reports the wall time of one call of series._mult_arrays, which
makes the bose-einstein and fermi-dirac dual's rows (W*, (W*)' and (W*)'',
as finite._finite_dual asks for them), and of one finite._finite_dual, on
the first n = 64 and 4096 terms of the family at every bf_roundtrip target
(x, y), per entropy: the median and quartiles over targets, in
microseconds.

Work counts are deterministic, and the script patches no library name.
The solver's own work comes from the work record that the library fills
while a block of entromin._work.counting() is open on the calling thread
(each key counted where the library does that work); the ladder fills
from the records a ladder keeps; prefix_builds and log_terms_calls from
perfbench's tracer (perfbench/tracing.py); py_calls, entropy_*_calls and
the check times from cProfile:

  prefix_passes        Gibbs passes during one converge (finite._gibbs_pass
                       calls, one exp of the prefix weights each): one per
                       evaluation of the prefix slope phi_n;
  prefix_terms         the terms those passes exponentiate;
  prefix_terms_per_n   prefix_terms over the returned member's n;
  members              truncations tried: EpsilonFamily._member calls;
  prefix_builds        log_terms calls during one converge: the member
                       prefixes built, none for a prefix kept from an
                       earlier call;
  terms_built          tuples of member terms made during one converge:
                       one per member whose terms are read
                       (EpsilonMember.terms, made on first read);
  series_passes        certified series passes (series._block_sums calls)
                       during one solve_mb or round trip;
  series_terms         the terms those passes sum;
  array_calls          their family.log_terms calls: one per array pass
                       over a stretch of terms;
  bracket_calls        the library's tail brackets during the same call
                       (series._tails calls, the one place outside
                       sequences.py that calls family.tail_intervals): the
                       kernel's, a slope model's one per point it tries, a
                       model rung's one for its bounds, the profile probe's
                       and the boundary checks' (calls the families make
                       from inside one do not count);
  model_points         slope-root iterates certified from the Taylor model
                       of an earlier pass and one bracket, with no pass of
                       their own, during one solve_mb (mb_interior and
                       shifted_interior);
  step_points          slope-root iterates certified by a Taylor step from
                       the iterate before them, with no bracket, during the
                       same solve_mb;
  slope_passes         series._eval_many calls under maxwell-boltzmann
                       during one round trip: the passes of a slope root
                       and of f at it that start the inverse's Newton (the
                       round trip's other passes are under its own entropy);
  newton_points        certified Newton points of the inverse solves during
                       one round trip or verify: points at which the damped
                       Newton of inverse_solve_bf evaluates its dual
                       potential (the start and every line-search point
                       inside the domain), each one series._dual_point pass;
  proposal_points      the points of the uncertified finite-sum Newton that
                       proposes where the certified one starts
                       (finite._minimize_dual), which make no pass;
  rows_builds          finite._dual_rows calls during one round trip: the
                       proposal's rows (1, sigma_k, sigma_k^2) built, none
                       for rows kept per (family, n) from an earlier call;
  exp_calls            Gibbs passes during one finite solve: every
                       evaluation of phi_n in its slope root;
  exp_terms            the terms those passes exponentiate;
  py_calls             Python-level calls during one warm solve_mb or
                       solve_two_fd, one prefix or one cold solver build,
                       as cProfile counts them (functions and builtins, the
                       call itself included, the profiler's own disable
                       call not), measured before the tracer is installed
                       (mb_interior, shifted_interior, finite_fd,
                       rule_prefix and explicit_solver);
  log_terms_calls      log_terms calls during one prefix, outermost only
                       (rule_prefix);
  reduce_calls         the kernel's reductions of its block of term rows
                       during the same call, one per block (and one per
                       array for a slope model's rows; one per slice of
                       series._BLOCK_WIDTH columns in arrays wider than
                       that);
  ladder_lookups       reads of the family's slope ladder during the same
                       call (one per bracket);
  windows_built        term windows built past a family's 2^13-term table
                       (SequenceFamily._tabled), a wrapper's and its
                       base's each, during the same call or one warm
                       verify (cli_verify's warm-up run, after the counted
                       one, which parses its spec again): a read inside
                       the table is a slice and builds none;
  tables_built         term tables built during one warm verify (none
                       where the spec's family is the one the last run
                       built);
  budget_errors        BudgetErrors constructed during one slow_value call
                       or round trip, raised or caught;
  entropy_*_calls      calls of each entropy function (entropy_value,
                       entropy_derivative, entropy_conjugate,
                       entropy_conjugate_derivative) during one profiled
                       verify, whatever module makes them, and
                       entropy_calls their sum.

A check's time in cli_verify (profiled_ms_per_check) is its cumulative
time in that profiled verify, so it carries the profiler's overhead.

Wall time is the median (with quartiles) over targets of each target's
median of REPEATS calls, after one untimed warm-up call per target.  All
timing and the py_calls profiles run before the tracer is installed, so
the counts see what the library caches across calls warm, as a
long-running process does (the slope ladder, and the epsilon family's
prefix arrays, their rungs of target-free passes and the proposal's rows,
per family and n); only epsilon_converge's cold and unseen counts, taken
after every other case, start from a cleared prefix cache.

Usage, from the repository root:
    python scripts/bench.py --out BENCH.json [--src PATH]

--src points at another checkout's src/ to measure it with the same bench
code, e.g. a parent commit exported next to this one; the work record
(entromin._work) and the records a family keeps (SequenceFamily._ladder)
must exist there as they do in this tree.  Where that tree's work record
lacks a key the script reads, it exits with status 2 before any case and
names the keys; measure such a tree with its own scripts/bench.py.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import dataclasses
import io
import json
import math
import os
import platform
import pstats
import statistics
import sys
import time
import types
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (9001, 9002, 9003)
REPEATS = 5


ENTROPY_FUNCTIONS = (
    "entropy_value",
    "entropy_derivative",
    "entropy_conjugate",
    "entropy_conjugate_derivative",
)


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
    return statistics.median(_runs(fn))


def _profiled(fn, *args):
    """fn(*args) and the cProfile.Profile of that one call."""
    prof = cProfile.Profile()
    return prof.runcall(fn, *args), prof


def _py_calls(fn, *args):
    """Calls that cProfile sees during fn(*args), fn's own included: the sum
    over its entries, one per code object.  pstats keys them by file, line
    and name, so it keeps one of the entries that share a key (each
    dataclass's generated __init__ is ('<string>', 2, '__init__'))."""
    entries = _profiled(fn, *args)[1].getstats()
    return sum(entry.callcount for entry in entries) - 1  # not the profiler's disable()


SERIES_KEYS = {"series_passes": "passes", "series_terms": "series_terms"}
PASS_KEYS = {**SERIES_KEYS, "array_calls": "array_calls", "bracket_calls": "bracket_calls"}
SOLVE_KEYS = {**PASS_KEYS, "model_points": "model_points", "step_points": "step_points"}
READ_KEYS = {"reduce_calls": "reduce_calls", "ladder_lookups": "ladder_lookups",
             "windows_built": "windows_built"}
NEWTON_KEYS = {"newton_points": "newton_points", "proposal_points": "proposal_points"}
BUDGET_KEYS = {"budget_errors": "budget_errors"}
TRIP_KEYS = {**PASS_KEYS, "slope_passes": "slope_passes", **NEWTON_KEYS,
             "rows_builds": "rows_builds", **READ_KEYS, **BUDGET_KEYS}
GIBBS_KEYS = {"exp_calls": "gibbs_passes", "exp_terms": "gibbs_terms"}
CONVERGE_KEYS = {"prefix_passes": "gibbs_passes", "prefix_terms": "gibbs_terms",
                 "members": "members", "prefix_builds": "sequences.log_terms.calls",
                 "terms_built": "terms_built"}
TABLE_KEYS = {"tables_built": "tables_built", "windows_built": "windows_built"}


def read_keys():
    """The keys of the work record (entromin._work.Work) that the script
    reads: the undotted values of its *_KEYS maps (a dotted one is the
    tracer's)."""
    return {key for name, keys in globals().items() if name.endswith("_KEYS")
            for key in keys.values() if "." not in key}


def missing_keys():
    """The keys of read_keys() that the imported entromin's work record
    lacks, sorted: all of them where it has no entromin._work."""
    try:
        from entromin import _work
    except ImportError:
        return sorted(read_keys())
    return sorted(read_keys() - {f.name for f in dataclasses.fields(_work.Work)})


def _counted(tracer, fn, keys):
    """fn()'s result and {out: the count named key} for that one call: the
    tracer's count where key has a dot, else the field key of the work
    record that the library fills (entromin._work)."""
    from entromin import _work

    tracer.reset_counters()
    with _work.counting() as work:
        result = fn()
    traced = tracer.counts_now()
    return result, {out: traced[key] if "." in key else getattr(work, key)
                    for out, key in keys.items()}


def _targets(workloads, np, seeds=SEEDS):
    wl = workloads.MbPoint()
    return [r for seed in seeds for r in wl.requests(np.random.default_rng(seed))]


def _families(entromin, workloads, reqs):
    """Epsilon families of the beyond-theta2 weighted-geometric targets."""
    es = entromin.EmpSolver(workloads.build_family(entromin, "weighted-geometric"))
    fams = [
        es.solve_mb(*r.args).epsilon_family
        for r in reqs
        if r.family == "weighted-geometric"
    ]
    return [f for f in fams if f is not None]


def _converge_counts(tracer, fams):
    """The counts of converge(1e-3) on each of fams, in their order, and
    the n each returned."""
    per_target, results = [], []
    for fam in fams:
        member, counts = _counted(tracer, lambda f=fam: f.converge(1e-3), CONVERGE_KEYS)
        per_target.append({**counts, "prefix_terms_per_n": counts["prefix_terms"] / member.n})
        results.append(member.n)
    return per_target, results


def count_converge(tracer, fams):
    """counts_per_converge: the counts of a converge on each of fams with
    the prefix records of earlier converges on the same targets kept."""
    per_target, results = _converge_counts(tracer, fams)
    return {
        "counts_per_converge": _summary(per_target),
        "n_returned": dict(sorted(Counter(results).items())),
    }


def count_fresh_converge(tracer, fams, seen, unseen):
    """counts_per_cold_converge: a first cycle of converges on fams from a
    cleared prefix cache; counts_per_unseen_converge: converges on unseen
    after one uncounted converge on each of seen from a cleared cache.
    The cache is left holding what those converges filled."""
    from entromin import solver

    solver._cached_prefix.cache_clear()
    cold = _converge_counts(tracer, fams)[0]
    solver._cached_prefix.cache_clear()
    for fam in seen:
        fam.converge(1e-3)
    return {"counts_per_cold_converge": _summary(cold),
            "counts_per_unseen_converge": _summary(_converge_counts(tracer, unseen)[0])}


def _shifted(entromin, interior):
    """The Arithmetic(-3, 1) solver and the shifted_interior targets."""
    es = entromin.EmpSolver(entromin.Arithmetic(-3.0, 1.0))
    return es, [(u, v - 3.0 * u) for fam, _, u, v in interior if fam == "arithmetic"]


def count_solves(tracer, es, targets, py_calls):
    """The counts of es.solve_mb at each target, with py_calls, each
    target's calls measured without the tracer, in the order of targets."""
    per_target = [
        {**_counted(tracer, lambda u=u, v=v: es.solve_mb(u, v), SOLVE_KEYS)[1], "py_calls": c}
        for (u, v), c in zip(targets, py_calls)
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


def count_interior(tracer, targets, times, py_calls):
    """mb_interior's counts and wall times, and its solves that make no
    series pass, overall and per family; times and py_calls hold each
    target's time in seconds and its calls measured without the tracer, in
    the order of targets."""
    per_target = [
        {**_counted(tracer, lambda es=es, u=u, v=v: es.solve_mb(u, v), {**SOLVE_KEYS, **READ_KEYS})[1],
         "py_calls": c}
        for (_, es, u, v), c in zip(targets, py_calls)
    ]
    zero = _by_family(targets, [t["series_passes"] == 0 for t in per_target])
    return {"counts_per_solve": _summary(per_target),
            "zero_pass_solves": sum(map(sum, zero.values())),
            "per_family": {fam: {**sub, "zero_pass_solves": sum(zero[fam])}
                           for fam, sub in _per_family(targets, per_target, times).items()}}


def _roundtrips(entromin, workloads, np):
    """(family key, solver, kind, x, y) for every bf-roundtrip target."""
    wl = workloads.BfRoundtrip()
    kinds = {"be": entromin.Entropy.BOSE_EINSTEIN, "fd": entromin.Entropy.FERMI_DIRAC}
    reqs = [r for seed in SEEDS for r in wl.requests(np.random.default_rng(seed))]
    solvers = {
        fam: entromin.EmpSolver(workloads.build_family(entromin, fam)) for fam in wl.families
    }
    return [(r.family, solvers[r.family], kinds[r.args[0]], *r.args[1:]) for r in reqs]


def _roundtrip(es, kind, x, y):
    fwd = es.forward_solve(kind, x, y)
    return _inverse(es, kind, fwd.u, fwd.v)


def _inverse(es, kind, u, v):
    return es.inverse_solve_bf(kind, u, v, 1e-10)


def count_roundtrips(tracer, entromin, trips, call=_roundtrip):
    """The counts of call(*trip[1:]) for each trip, in their order, and how
    many of them returned an InverseFailure."""
    per_target, failures = [], 0
    for trip in trips:
        result, counts = _counted(tracer, lambda t=trip: call(*t[1:]), TRIP_KEYS)
        failures += isinstance(result, entromin.InverseFailure)
        per_target.append(counts)
    return per_target, failures


DUAL_ROWS_N = (64, 4096)


def dual_rows_case(np, trips):
    """dual_rows: per function, n in DUAL_ROWS_N and entropy, the wall time
    in microseconds of one call of series._mult_arrays (the rows that
    finite._finite_dual asks for, from its arguments) and of one
    finite._finite_dual, on the first n terms of the trip's family at each
    bf_roundtrip target (x, y): the median and quartiles over targets of
    each target's median of REPEATS calls."""
    from entromin import finite, series

    times = {"mult_arrays": {}, "finite_dual": {}}
    for n in DUAL_ROWS_N:
        prefixes = {}
        for _, es, kind, x, y in trips:
            fam = es.normal_family
            if fam not in prefixes:
                log_p, s = fam.log_terms(0.0, 1, n), fam.sigma_array(1, n)
                prefixes[fam] = (log_p, finite._dual_rows(s))
            log_p, rows = prefixes[fam]
            s, _, span = rows
            t = x + s * y
            lt = log_p + t
            t_hi = x + (span[1] if y > 0.0 else span[0]) * y
            base = np.exp(lt)
            key = f"{kind.name.lower()}, n={n}"
            times["mult_arrays"].setdefault(key, []).append(_timed(
                lambda: series._mult_arrays(kind, finite._DUAL_MULTS, t, t_hi, base, lt, log_p)))
            times["finite_dual"].setdefault(key, []).append(_timed(
                lambda: finite._finite_dual(kind, log_p, *rows, x, y)))
    return {fn: {key: {k: 1e6 * v for k, v in _quartiles(ts).items()} for key, ts in by.items()}
            for fn, by in times.items()}


SLOW_TRIPS = (
    ("be", -1.5724672244573579, -1.685160659795017),
    ("fd", 2.567434108467147, -1.6177673101565806),
    ("fd", 2.5365574570108045, -2.2643561422253207),
)


def _slow_trips(entromin, workloads):
    """(family key, solver, kind, u, v) for every slow_roundtrip target,
    (u, v) from the forward solve at its multipliers."""
    es = entromin.EmpSolver(workloads.build_family(entromin, "loglevels"))
    kinds = {"be": entromin.Entropy.BOSE_EINSTEIN, "fd": entromin.Entropy.FERMI_DIRAC}
    out = []
    for k, x, y in SLOW_TRIPS:
        fwd = es.forward_solve(kinds[k], x, y)
        out.append(("loglevels", es, kinds[k], fwd.u, fwd.v))
    return out


SLOW_SLOPES = {"loglevels": (1.19, 3.19, 5.19), "powerlaw": (1.5, 3.5, 5.5)}


def _slow(entromin, workloads):
    """(family key, solver, u, v) for every slow_value target."""
    out = []
    for key, slopes in SLOW_SLOPES.items():
        es = entromin.EmpSolver(workloads.build_family(entromin, key))
        out += [(key, es, 1.0, w) for w in slopes]
    return out


def count_slow_values(tracer, targets, times):
    """slow_value's counts and wall times, overall and per family."""
    per_target = [_counted(tracer, lambda es=es, u=u, v=v: es.value_mb(u, v),
                           {**PASS_KEYS, **BUDGET_KEYS})[1] for _, es, u, v in targets]
    return {"counts_per_solve": _summary(per_target),
            "per_family": _per_family(targets, per_target, times)}


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
    per_target = [_counted(tracer, lambda t=t: _truncated(entromin, *t[1:]), GIBBS_KEYS)[1]
                  for t in solves]
    return {"counts_per_solve": _summary(per_target),
            "per_family": _per_family(solves, per_target, times)}


def _fd_solves():
    """(target key, p, sigma, u, v) for every finite_fd solve: the face
    target's v is the lower envelope at u, the greedy fill of the lowest
    levels."""
    out = []
    for n in (64, 2048):
        p, sigma = [1.0] * n, [10.0 * k / (n - 1) for k in range(n)]
        for u in (n / 4, n / 3, n / 2):
            m = int(u)
            face = math.fsum(sigma[:m]) + (u - m) * sigma[m]
            out += [(f"n{n}-face", p, sigma, u, face), (f"n{n}-interior", p, sigma, u, 6.0 * u)]
    return out


def count_fd(solves, py_calls, times):
    """finite_fd's py_calls and wall times, overall and per n and kind."""
    per_target = [{"py_calls": c} for c in py_calls]
    return {"counts_per_solve": _summary(per_target),
            "per_family": _per_family(solves, per_target, times)}


def _ladder_fills(ladders):
    """The passes and terms of the entries and model rungs that ladders keep:
    one pass each (tests/test_series.py::TestSlopeLadder::
    test_each_fill_is_one_kept_pass), its terms the kept slope's
    f.truncation_n; a model rung kept as None made none."""
    rungs = [r.slope for ladder in ladders for r in ladder.rungs.values()]
    models = [m for ladder in ladders for m in ladder.models.values() if m is not None]
    return {"entry_passes": len(rungs), "entry_terms": sum(s.f.truncation_n for s in rungs),
            "model_rung_passes": len(models),
            "model_rung_terms": sum(m.f.truncation_n for m in models)}


def count_ladder_build(tracer, targets, call):
    """Per family key of targets (key, solver, *args), and their total:
    the entries and model rungs that one run of call(fresh, *args) over
    the family's targets leaves in the slope ladder of fresh, a solver of a
    new instance of the family whose ladder starts empty, the passes and
    terms it spends beyond a warm rerun and in all, and the passes and
    terms of the entries and of the model rungs it fills (_ladder_fills)."""
    def run(calls):
        total = Counter()
        for fn in calls:
            total.update(_counted(tracer, fn, SERIES_KEYS)[1])
        return total

    out = {}
    for fam, group in _by_family(targets, [rest for _, *rest in targets]).items():
        es = group[0][0]
        fresh = type(es)(dataclasses.replace(es.family), es.tol)
        calls = [lambda args=args: call(fresh, *args) for _, *args in group]
        cold = run(calls)
        ladder = fresh.normal_family._ladder
        entries, models, fills = len(ladder.rungs), len(ladder.models), _ladder_fills([ladder])
        warm = run(calls)
        out[fam] = {"entries": entries, "model_rungs": models,
                    **{k: cold[k] - warm[k] for k in SERIES_KEYS},
                    **{f"cold_{k}": cold[k] for k in SERIES_KEYS}, **fills}
    out["total"] = {k: sum(b[k] for b in out.values()) for k in next(iter(out.values()))}
    return out


def count_cold_cycle(tracer, entromin, workloads, np):
    """Per seed: the series passes and terms of one mb-point cycle, every
    request in order on the fresh families of a new prepare, the prefix
    cache cleared, as in a new perfbench process, and the passes and terms
    among them that fill the slope ladder's entries and model rungs."""
    from entromin import solver

    wl, out = workloads.MbPoint(), {}
    for seed in SEEDS:
        solver._cached_prefix.cache_clear()
        ctx = wl.prepare(entromin, None, [])
        total = Counter()
        for req in wl.requests(np.random.default_rng(seed)):
            total.update(_counted(tracer, lambda req=req: wl.run(ctx, req), SERIES_KEYS)[1])
        ladders = [es.normal_family._ladder for es in ctx["solvers"].values()]
        out[seed] = {**{k: total[k] for k in SERIES_KEYS}, **_ladder_fills(ladders)}
    return out


def _verify_runs(entromin, workloads):
    """(family key, run) for each of mb-point's families: run() parses the
    verify spec cli-batch writes for it, builds its solver and returns
    cli._cmd_verify's exit code, its printed report discarded."""
    from entromin import cli, specfile

    def run(text):
        spec = specfile.parse_spec(text)
        solver = entromin.EmpSolver(spec.build_family(), spec.tol)
        with contextlib.redirect_stdout(io.StringIO()):
            return cli._cmd_verify(solver, spec, types.SimpleNamespace(out=None))

    return [
        (fam, lambda t=workloads._spec_text(fam, {"mode": "verify"}): run(t))
        for fam in workloads.MbPoint.families
    ]


def _verify_profile(prof):
    """From the cProfile.Profile of a verify: the calls of each entropy function
    ({name}_calls, whoever makes them) and the cumulative time of each
    check that ran, in ms, keyed by its name after cli's _check_."""
    calls, checks = dict.fromkeys((f"{name}_calls" for name in ENTROPY_FUNCTIONS), 0), {}
    for (path, _, name), (_, ncalls, _, cumtime, _) in pstats.Stats(prof).stats.items():
        module = Path(path).parent.name, Path(path).name
        if module == ("entromin", "entropies.py") and name in ENTROPY_FUNCTIONS:
            calls[f"{name}_calls"] += ncalls
        elif module == ("entromin", "cli.py") and name.startswith("_check_"):
            checks[name[len("_check_"):]] = 1e3 * cumtime
    return calls, checks


def verify_case(runs):
    """cli_verify: per family, the wall time of one verify (median and
    quartiles over REPEATS runs after one warm-up); the entropy calls, the
    inverse Newton points and each check's time of one profiled verify,
    whose counts repeat exactly; and the tables and windows the warm-up
    verify builds."""
    from entromin import _work

    per_target, times, per_family = [], [], {}
    for fam, run in runs:
        with _work.counting() as work:
            code, prof = _profiled(run)
        counts, checks = _verify_profile(prof)
        counts["entropy_calls"] = sum(counts.values())
        counts.update({out: getattr(work, key) for out, key in NEWTON_KEYS.items()})
        with _work.counting() as work:  # the warm-up run: a warm verify
            run()
        counts.update({out: getattr(work, key) for out, key in TABLE_KEYS.items()})
        runs_s = [_seconds(run) for _ in range(REPEATS)]
        times.append(statistics.median(runs_s))
        per_target.append(counts)
        per_family[fam] = {
            "exit_code": code,
            "counts_per_verify": counts,
            "wall_ms_per_verify": _wall(runs_s),
            "profiled_ms_per_check": checks,
        }
    return {"targets": len(runs), "counts_per_verify": _summary(per_target),
            "wall_ms_per_verify": _wall(times), "per_family": per_family}


def _wall(times):
    return {k: 1e3 * v for k, v in _quartiles(times).items()}


def _seconds(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _runs(fn, setup=lambda: None):
    """REPEATS wall times of fn() in seconds after one untimed warm-up,
    each call after setup()."""
    setup()
    fn()
    times = []
    for _ in range(REPEATS):
        setup()
        times.append(_seconds(fn))
    return times


PREFIX_COUNT = 100_000


def _prefix_rules(entromin):
    """(family key, rule) for every rule_prefix case."""
    targets = (("arithmetic", entromin.Arithmetic(0.0, 1.0), 2.0),
               ("loglevels", entromin.LogLevels(1.0), 3.19))
    return [(key, entromin.EmpSolver(fam).solve_mb(1.0, w).solution) for key, fam, w in targets]


def prefix_case(tracer, rules, py_calls, runs):
    """rule_prefix: per family, the py_calls and log_terms calls of one
    prefix(PREFIX_COUNT) and the wall times of runs."""
    per_target, per_family = [], {}
    keys = {"log_terms_calls": "sequences.log_terms.calls"}
    for (fam, rule), calls, times in zip(rules, py_calls, runs):
        counts = _counted(tracer, lambda r=rule: r.prefix(PREFIX_COUNT), keys)[1]
        counts["py_calls"] = calls
        per_target.append(counts)
        per_family[fam] = {"targets": 1, "counts_per_prefix": _summary([counts]),
                           "wall_ms_per_prefix": _wall(times)}
    return {"targets": len(rules), "counts_per_prefix": _summary(per_target),
            "wall_ms_per_prefix": _wall([statistics.median(t) for t in runs]),
            "per_family": per_family}


def explicit_case(entromin):
    """explicit_solver: per family, the py_calls of one cold EmpSolver build
    and the wall times of REPEATS cold builds, each of a family instance
    made for it (outside the timing), which keeps nothing yet."""
    def tail():
        return entromin.WeightedGeometric(1, 3)

    builds = [("explicit", lambda: entromin.ExplicitPrefix((1, 2), (1, 2), tail())), ("tail", tail)]
    per_target, medians, per_family = [], [], {}
    for key, make in builds:
        made = []
        times = _runs(lambda: entromin.EmpSolver(made.pop()), lambda m=make: made.append(m()))
        counts = {"py_calls": _py_calls(entromin.EmpSolver, make())}
        per_target.append(counts)
        medians.append(statistics.median(times))
        per_family[key] = {"targets": 1, "counts_per_build": _summary([counts]),
                           "wall_ms_per_build": _wall(times)}
    return {"targets": len(builds), "counts_per_build": _summary(per_target),
            "wall_ms_per_build": _wall(medians), "per_family": per_family}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--src", default="src", help="entromin source tree (default: this checkout's)")
    args = ap.parse_args(argv)

    sys.path.insert(0, str((ROOT / args.src).resolve()))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import numpy as np

    import entromin

    missing = missing_keys()
    if missing:
        print(f"{args.src}: entromin._work.Work lacks {', '.join(missing)}; measure that tree "
              "with its own scripts/bench.py", file=sys.stderr)
        return 2
    import tracing
    import workloads

    explicit_solver = explicit_case(entromin)
    reqs = _targets(workloads, np)
    fams = _families(entromin, workloads, reqs)
    seen_fams = _families(entromin, workloads, _targets(workloads, np, SEEDS[:1]))
    unseen_fams = _families(entromin, workloads, _targets(workloads, np, SEEDS[1:]))
    interior = _interior(entromin, workloads, reqs)
    shifted_es, shifted = _shifted(entromin, interior)
    trips = _roundtrips(entromin, workloads, np)
    slow_trips = _slow_trips(entromin, workloads)
    truncations = _truncations(entromin, workloads)
    slow = _slow(entromin, workloads)
    converge_ms = _wall([_timed(lambda f=f: f.converge(1e-3)) for f in fams])
    interior_s = [_timed(lambda es=es, u=u, v=v: es.solve_mb(u, v)) for _, es, u, v in interior]
    shifted_ms = _wall([_timed(lambda u=u, v=v: shifted_es.solve_mb(u, v)) for u, v in shifted])
    roundtrip_s = [_timed(lambda t=t: _roundtrip(*t[1:])) for t in trips]
    slow_trip_s = [_timed(lambda t=t: _inverse(*t[1:])) for t in slow_trips]
    truncation_s = [_timed(lambda t=t: _truncated(entromin, *t[1:])) for t in truncations]
    fd_solves = _fd_solves()
    fd_s = [_timed(lambda t=t: entromin.solve_two_fd(*t[1:])) for t in fd_solves]
    slow_s = [_timed(lambda es=es, u=u, v=v: es.value_mb(u, v)) for _, es, u, v in slow]
    cli_verify = verify_case(_verify_runs(entromin, workloads))
    rules = _prefix_rules(entromin)
    prefix_runs = [_runs(lambda r=rule: r.prefix(PREFIX_COUNT)) for _, rule in rules]
    interior_calls = [_py_calls(es.solve_mb, u, v) for _, es, u, v in interior]
    shifted_calls = [_py_calls(shifted_es.solve_mb, u, v) for u, v in shifted]
    fd_calls = [_py_calls(entromin.solve_two_fd, *t[1:]) for t in fd_solves]
    prefix_calls = [_py_calls(rule.prefix, PREFIX_COUNT) for _, rule in rules]
    dual_rows = dual_rows_case(np, trips)

    tracer = tracing.Tracer()
    tracer.install()
    tracer.active = True
    converge = {"targets": len(fams), **count_converge(tracer, fams),
                "wall_ms_per_converge": converge_ms}
    shifted = {"targets": len(shifted),
               **count_solves(tracer, shifted_es, shifted, shifted_calls),
               "wall_ms_per_solve": shifted_ms}
    mb_interior = {"targets": len(interior),
                   **count_interior(tracer, interior, interior_s, interior_calls),
                   "wall_ms_per_solve": _wall(interior_s)}
    per_trip, failures = count_roundtrips(tracer, entromin, trips)
    roundtrip = {"targets": len(trips), "counts_per_roundtrip": _summary(per_trip),
                 "inverse_failures": failures, "wall_ms_per_roundtrip": _wall(roundtrip_s),
                 "per_family": _per_family(trips, per_trip, roundtrip_s)}
    per_trip, failures = count_roundtrips(tracer, entromin, slow_trips, _inverse)
    slow_roundtrip = {
        "targets": len(slow_trips), "counts_per_roundtrip": _summary(per_trip),
        "inverse_failures": failures, "wall_ms_per_roundtrip": _wall(slow_trip_s),
        "per_roundtrip": [
            {"kind": k, "x": x, "y": y, "wall_ms": 1e3 * t, **counts}
            for (k, x, y), t, counts in zip(SLOW_TRIPS, slow_trip_s, per_trip)
        ],
    }
    truncation = {"targets": len(truncations),
                  **count_truncations(tracer, entromin, truncations, truncation_s),
                  "wall_ms_per_solve": _wall(truncation_s)}
    finite_fd = {"targets": len(fd_solves), **count_fd(fd_solves, fd_calls, fd_s),
                 "wall_ms_per_solve": _wall(fd_s)}
    slow_value = {"targets": len(slow), **count_slow_values(tracer, slow, slow_s),
                  "wall_ms_per_solve": _wall(slow_s)}
    build = {
        "mb_interior": count_ladder_build(tracer, interior, lambda es, u, v: es.solve_mb(u, v)),
        "bf_roundtrip": count_ladder_build(tracer, trips, _roundtrip),
    }
    cold_cycle = count_cold_cycle(tracer, entromin, workloads, np)
    rule_prefix = prefix_case(tracer, rules, prefix_calls, prefix_runs)
    # last: it empties the prefix cache that the cases above read warm
    converge.update(count_fresh_converge(tracer, fams, seen_fams, unseen_fams))
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
            "bf_roundtrip": roundtrip,
            "mb_interior": mb_interior,
            "shifted_interior": shifted,
            "finite_truncation": truncation,
            "finite_fd": finite_fd,
            "slow_value": slow_value,
            "slow_roundtrip": slow_roundtrip,
            "cli_verify": cli_verify,
            "rule_prefix": rule_prefix,
            "explicit_solver": explicit_solver,
        },
        "ladder_build": build,
        "cold_cycle": cold_cycle,
        "dual_rows": dual_rows,
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    for name, case in record["cases"].items():
        wall = next(v for k, v in case.items() if k.startswith("wall_ms"))
        counts = [(k, v) for k, v in case.items() if k.startswith("counts")]
        means = ", ".join(f"{k} {v['mean']:.1f}" for k, v in counts[0][1].items())
        print(f"{name}: {case['targets']} targets; {means}; "
              f"median {wall['median']:.3f} ms [{wall['q1']:.3f}, {wall['q3']:.3f}]")
        for key, more in counts[1:]:
            print(f"  {key}: " + ", ".join(f"{k} {v['mean']:.2f}" for k, v in more.items()))
        for fam, sub in case.get("per_family", {}).items():
            if "counts_per_verify" in sub:
                counts = ", ".join(f"{k} {v}" for k, v in sub["counts_per_verify"].items())
                checks = ", ".join(f"{k} {v:.2f}" for k, v in sub["profiled_ms_per_check"].items())
                print(f"  {fam}: {counts}; median {sub['wall_ms_per_verify']['median']:.2f} ms "
                      f"(profiled: {checks} ms)")
                continue
            counts = next(v for k, v in sub.items() if k.startswith("counts"))
            wall = next(v for k, v in sub.items() if k.startswith("wall_ms"))
            means = ", ".join(f"{k} {v['mean']:.2f}" for k, v in counts.items())
            print(f"  {fam}: {sub['targets']} targets; {means}; median {wall['median']:.3f} ms")
        for trip in case.get("per_roundtrip", []):
            print("  " + ", ".join(f"{k} {v}" for k, v in trip.items()))
    for name, per_family in build.items():
        print(f"ladder_build, {name}: " + "; ".join(
            f"{fam} {b['entries']} entries ({b['entry_passes']} passes, {b['entry_terms']} "
            f"terms) + {b['model_rungs']} model rungs "
            f"({b['model_rung_passes']} passes, {b['model_rung_terms']} terms), "
            f"{b['series_passes']} passes, {b['series_terms']} terms beyond warm, cold "
            f"{b['cold_series_passes']} passes, {b['cold_series_terms']} terms"
            for fam, b in per_family.items()))
    for seed, c in cold_cycle.items():
        print(f"cold_cycle, mb-point {seed}: " + ", ".join(f"{k} {v}" for k, v in c.items()))
    for fn, by in dual_rows.items():
        print(f"dual_rows, {fn}: " + "; ".join(
            f"{key} {q['median']:.1f} us [{q['q1']:.1f}, {q['q3']:.1f}]" for key, q in by.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
