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
                       family with the wall time of each check, the
                       inverse solves' Newton points and the term-array
                       calls of a warm verify;
  rule_prefix          SequenceRule.prefix(100_000) of the interior
                       solutions solve_mb(1, 2) on Arithmetic(0, 1) and
                       solve_mb(1, 3.19) on LogLevels(1), reported per
                       family;
  explicit_solver      EmpSolver(ExplicitPrefix((1, 2), (1, 2),
                       WeightedGeometric(1, 3))) and EmpSolver of its tail
                       alone, each built cold (the module caches
                       sigma_min_set, series.profile, the slope ladder and
                       solver._cached_prefix cleared first; what a family
                       instance keeps, its term table, stays), before
                       any other case runs, and the caches
                       cleared again after.

Apart from the cases, ladder_build reports per family what filling the
cache of slope-root starts costs for the mb_interior and the bf_roundtrip
targets: the entries and model rungs a run over the family's targets from
a cleared cache leaves cached (those of the slope ladders the run made
that the cache still holds), the passes and terms that run spends beyond a
warm rerun of the same targets, the passes and terms of the whole cold run
(cold_series_passes and cold_series_terms: for mb_interior, the interior
solves of every seed's cycle from a cleared cache), and the passes and
terms of the entries it fills (entry_passes and entry_terms:
series._block_sums calls made inside series._Ladder.rung) and of the model
rungs (model_rung_passes and model_rung_terms: series._block_sums calls
that keep series._MODEL_PARTIALS partial moments), and under total their
sums over the families.  Results do not depend on which entries are
cached, so the difference is the build alone.  mb_interior also reports
zero_pass_solves, the warm solves that make no series pass.
cold_cycle reports per seed the series passes and terms of one whole
mb-point cycle, every request in order from cleared family caches as a new
perfbench process runs it, and its entry and model-rung fills as above.
dual_rows reports the wall time of one call of series._mult_arrays, which
makes the bose-einstein and fermi-dirac dual's rows (W*, (W*)' and (W*)'',
as finite._finite_dual asks for them), and of one finite._finite_dual, on
the first n = 64 and 4096 terms of the family at every bf_roundtrip target
(x, y), per entropy: the median and quartiles over targets, in
microseconds.

Work counts are deterministic and come from wrapping the library from
outside, each wrap installed and removed by _patched; nothing in src/
counts.  prefix_builds, series_passes and log_terms_calls come from
perfbench's tracer (perfbench/tracing.py), members and terms_built from
solver.EpsilonFamily and solver.EpsilonMember, series_terms, array_calls
and bracket_calls from the family that series._eval_many and
series._model_moments see, model_points from series._certified_slope, the
exp counts from the numpy that entromin.solver and entromin.finite see,
slope_passes from the arguments of series._eval_many, newton_points and
proposal_points from the minimize_convex_2d that entromin.solver and
entromin.finite call and from series._dual_point, rows_builds from
entromin.finite._dual_rows, scalar_reads and sigma_builds from the
sigma_array and log_terms of the family classes, reduce_calls from
series._add_reduce and ladder_lookups from series._ladder, the cache of
slope ladders:

  prefix_passes        np.exp calls made by entromin.solver and
                       entromin.finite during one converge, one exp of the
                       prefix weights each: one per evaluation of the
                       prefix slope phi_n, plus any that build a member
                       after its root search;
  prefix_terms         elements those calls exponentiate;
  prefix_terms_per_n   prefix_terms over the returned member's n;
  members              truncations tried: EpsilonFamily._member calls;
  prefix_builds        log_terms calls during one converge: the member
                       prefixes built, none for a prefix kept from an
                       earlier call;
  terms_built          tuples of member terms made during one converge:
                       one per member whose terms are read
                       (EpsilonMember.terms, made on first read);
  series_passes        log_terms calls starting at n = 1 during one
                       solve_mb or round trip: one per certified series
                       pass;
  series_terms         elements the kernel's log_terms calls return (those
                       of series._eval_many and series._model_moments, not
                       a family's own reads inside a tail bracket);
  array_calls          log_terms calls that series._eval_many makes during
                       one solve_mb, round trip or value_mb: one per array
                       pass over a stretch of terms;
  bracket_calls        tail_interval and tail_intervals calls that
                       series._eval_many and series._model_moments make
                       during the same call: the kernel's tail brackets and
                       a slope model's one per point it tries (calls the
                       families make from inside one, and brackets taken
                       elsewhere, do not count);
  model_points         slope-root iterates certified from the Taylor model
                       of an earlier pass, with no pass of their own, during
                       one solve_mb: series._certified_slope calls that
                       return without an _eval_many call (mb_interior and
                       shifted_interior);
  slope_passes         series._eval_many calls under maxwell-boltzmann
                       during one round trip: the passes of a slope root
                       and of f at it that start the inverse's Newton (the
                       round trip's other passes are under its own entropy);
  newton_points        certified Newton points of the inverse solves during
                       one round trip or verify: points at which a damped
                       Newton evaluates its dual potential (the start and
                       every line-search point inside the domain), counted
                       through its `evaluate` callback, that make a
                       series._dual_point pass;
  proposal_points      the other such points: those of the uncertified
                       finite-sum Newton that proposes where the certified
                       one starts (finite._minimize_dual), which make no
                       pass;
  rows_builds          finite._dual_rows calls during one round trip: the
                       proposal's rows (1, sigma_k, sigma_k^2) built, none
                       for rows kept per (family, n) from an earlier call;
  exp_calls            np.exp calls made by entromin.solver and
                       entromin.finite during one finite solve: every
                       evaluation of phi_n in its slope root, and any exp
                       that builds the optimum after it;
  exp_terms            elements those calls exponentiate;
  py_calls             Python-level calls during one warm solve_mb or
                       solve_two_fd, one prefix or one cold solver build,
                       as cProfile counts them (functions and builtins, the
                       call itself included, the profiler's own disable
                       call not), measured before the tracer is installed
                       (mb_interior, shifted_interior, finite_fd,
                       rule_prefix and explicit_solver);
  log_terms_calls      log_terms calls during one prefix, outermost only
                       (rule_prefix);
  scalar_reads         sigma_array and log_terms calls of one or two
                       elements, made by any family class during one warm
                       solve_mb (mb_interior) or round trip (bf_roundtrip,
                       slow_roundtrip): reads of single levels and log
                       weights not kept from an earlier call;
  sigma_builds         sigma_array calls made by any family class during
                       one warm solve_mb (mb_interior) or round trip
                       (bf_roundtrip, slow_roundtrip), a wrapper's call of
                       its base's included: level arrays built;
  reduce_calls         series._add_reduce calls during the same call: the
                       kernel's reductions of its block of term rows, one
                       per block (and one per array for a slope model's
                       rows; one per slice of series._BLOCK_WIDTH columns
                       in arrays wider than that);
  ladder_lookups       reads of the slope ladder's cache during the same
                       call: series._ladder calls (one ladder per bracket);
  budget_errors        BudgetErrors constructed during one slow_value call
                       or round trip, raised or caught, counted through the
                       class's __init__;
  term_arrays_*        _term_arrays calls of any family class during one
                       warm verify (cli_verify's warm-up run, after the
                       counted one), which parses its spec again and asks
                       it for its family: term_arrays_in_table those whose
                       window ends at or below 2^13, the terms of a
                       family's term table (table builds, none where the
                       spec's family is the one the last run built),
                       term_arrays_past_table the windows past it, built
                       per call;
  entropy_*_calls      Python-level calls of each entropy function
                       (entropy_value, entropy_derivative, entropy_conjugate,
                       entropy_conjugate_derivative) during one verify,
                       whatever module makes them, and entropy_calls their
                       sum.

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
code, e.g. a parent commit exported next to this one; the wrapped names
must exist there as they do in this tree.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import inspect
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
import weakref
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (9001, 9002, 9003)
REPEATS = 5


_INHERITED = object()  # what _patched saves for a name its owner only inherits


@contextlib.contextmanager
def _patched(sites):
    """Replace each (owner, name, wrap) of sites, in order, by wrap(owner.name)
    while the block runs, and put back what owner itself held, in reverse
    order, when the block ends, also when it raises: a name owner only
    inherited is deleted again.  One (owner, name) may come more than once,
    each wrap wrapping the one before."""
    saved = []
    try:
        for owner, name, wrap in sites:
            wrapped = wrap(getattr(owner, name))
            saved.append((owner, name, vars(owner).get(name, _INHERITED)))
            setattr(owner, name, wrapped)
        yield
    finally:
        for owner, name, held in reversed(saved):
            if held is _INHERITED:
                delattr(owner, name)
            else:
                setattr(owner, name, held)


def _count(counts, key, amount=None):
    """A wrap for _patched: fn becomes a function that adds
    amount(*args, **kwargs) of its arguments, or 1 without amount, to
    counts[key] and then returns fn(*args, **kwargs)."""

    def wrap(fn):
        def counting(*args, **kwargs):
            counts[key] += 1 if amount is None else amount(*args, **kwargs)
            return fn(*args, **kwargs)

        return counting

    return wrap


class _CountingNumpy:
    """numpy as seen by one module, counting exp calls and their sizes."""

    def __init__(self, np, counts):
        self._np = np
        self._counts = counts

    def __getattr__(self, name):
        return getattr(self._np, name)

    def exp(self, x, *args, **kwargs):
        self._counts["exp_calls"] += 1
        self._counts["exp_terms"] += self._np.size(x)
        return self._np.exp(x, *args, **kwargs)


def _counting_exp(counts):
    """Sites that count the exp calls of entromin.solver and entromin.finite
    into counts."""
    from entromin import finite, solver

    return [(module, "np", lambda np: _CountingNumpy(np, counts)) for module in (solver, finite)]


def _counting_members(counts):
    """Sites that count epsilon-family members tried (EpsilonFamily._member
    calls) and tuples of member terms made into counts."""
    from entromin.solver import EpsilonFamily, EpsilonMember

    lazy = vars(EpsilonMember)["terms"]  # a cached_property: made on first read
    return [(EpsilonFamily, "_member", _count(counts, "members")),
            (lazy, "func", _count(counts, "terms_built"))]


def _counting_rows_builds(counts):
    """Sites that count finite._dual_rows calls into counts["rows_builds"]."""
    from entromin import finite

    return [(finite, "_dual_rows", _count(counts, "rows_builds"))]


def _counting_scalar_reads(counts):
    """Sites that count into counts["scalar_reads"] the sigma_array and
    log_terms calls of at most two elements that any family class makes:
    the scalar reads of levels and log weights (sigma, log_p and the
    brackets' t_n and t_(n+1)) that are not kept from an earlier call; and
    into counts["sigma_builds"] every sigma_array call."""
    from entromin import sequences

    sites = []
    for cls in vars(sequences).values():
        if not (isinstance(cls, type) and issubclass(cls, sequences.SequenceFamily)):
            continue
        if "sigma_array" in vars(cls):
            sites += [(cls, "sigma_array",
                       _count(counts, "scalar_reads", lambda self, lo, hi: hi - lo <= 1)),
                      (cls, "sigma_array", _count(counts, "sigma_builds"))]
        if "log_terms" in vars(cls):
            sites.append((cls, "log_terms", _count(
                counts, "scalar_reads", lambda self, y, lo, hi, *arrays: hi - lo <= 1)))
    return sites


TABLE_TERMS = 2**13  # the terms of a family's term table


def _counting_term_arrays(counts):
    """Sites that count into counts the _term_arrays calls of every family
    class: those whose window ends at or below TABLE_TERMS
    (term_arrays_in_table) and those past it (term_arrays_past_table)."""
    from entromin import sequences

    return [(cls, "_term_arrays", _count(counts, key, amount))
            for cls in vars(sequences).values()
            if isinstance(cls, type) and "_term_arrays" in vars(cls)
            for key, amount in (("term_arrays_in_table", lambda self, lo, hi: hi <= TABLE_TERMS),
                                ("term_arrays_past_table", lambda self, lo, hi: hi > TABLE_TERMS))]


def _counting_kernel_reads(counts):
    """Sites that count into counts the kernel's reductions (series._add_reduce
    calls, reduce_calls) and the slope ladder's cache reads (series._ladder
    calls, ladder_lookups)."""
    from entromin import series

    return [(series, "_add_reduce", _count(counts, "reduce_calls")),
            (series, "_ladder", _count(counts, "ladder_lookups"))]


def _counting_budget_errors(counts):
    """Sites that count every BudgetError constructed into counts."""
    from entromin.errors import BudgetError

    return [(BudgetError, "__init__", _count(counts, "budget_errors"))]


ENTROPY_FUNCTIONS = (
    "entropy_value",
    "entropy_derivative",
    "entropy_conjugate",
    "entropy_conjugate_derivative",
)


def _counting_entropy_calls(counts):
    """Sites that count into counts every call of the four entropy
    functions, through each name that an entromin module binds to one of
    them."""
    from entromin import entropies

    modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "entromin"]
    return [(module, name, _count(counts, f"{name}_calls"))
            for name in ENTROPY_FUNCTIONS for module in modules
            if vars(module).get(name) is getattr(entropies, name)]


KERNEL_CALLS = {
    "log_terms": "array_calls",
    "tail_interval": "bracket_calls",
    "tail_intervals": "bracket_calls",
}
PASS_KEYS = {
    "series_passes": "series.passes",
    "series_terms": "series_terms",
    "array_calls": "array_calls",
    "bracket_calls": "bracket_calls",
}
SOLVE_KEYS = {**PASS_KEYS, "model_points": "model_points"}


class _CountingFamily:
    """A family as series._eval_many sees it, counting into counts the
    kernel's calls of the methods in KERNEL_CALLS, and as series_terms the
    elements its log_terms calls return.  It equals and hashes as the
    family, so that the family's caches (sigma_min_set) see the family."""

    def __init__(self, family, counts):
        self._family = family
        self._counts = counts

    def __repr__(self):
        return repr(self._family)

    def __eq__(self, other):
        return self._family == (other._family if isinstance(other, _CountingFamily) else other)

    def __hash__(self):
        return hash(self._family)

    def __getattr__(self, name):
        attr = getattr(self._family, name)
        key = KERNEL_CALLS.get(name)
        if key is None:
            return attr

        def counted(*args, **kwargs):
            self._counts[key] += 1
            if name == "log_terms":  # (y, lo, hi)
                self._counts["series_terms"] += args[2] - args[1] + 1
            return attr(*args, **kwargs)

        return counted


def _count_kernel(counts):
    """Sites that wrap series._eval_many and series._model_moments so that
    the family each works on counts its calls into counts, and count the
    kernel's maxwell-boltzmann calls as slope_passes and the model's slopes
    as model_points: series._certified_slope calls that return without an
    _eval_many call."""
    from entromin import series

    calls, sig = Counter(), inspect.signature(series._eval_many)

    def slope_pass(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments["kind"] is series._MB

    def counted_family(fn):
        return lambda family, *args, **kwargs: fn(_CountingFamily(family, counts), *args, **kwargs)

    def model_point(slope):
        def counting(*args, **kwargs):
            before = calls["eval_many"]
            out = slope(*args, **kwargs)
            counts["model_points"] += calls["eval_many"] == before
            return out

        return counting

    return [(series, "_eval_many", counted_family),
            (series, "_eval_many", _count(counts, "slope_passes", slope_pass)),
            (series, "_eval_many", _count(calls, "eval_many")),
            (series, "_model_moments", counted_family),
            (series, "_certified_slope", model_point)]


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


def _py_calls(fn, *args):
    """Calls that cProfile sees during fn(*args), fn's own included."""
    prof = cProfile.Profile()
    prof.runcall(fn, *args)
    return pstats.Stats(prof).total_calls - 1  # not the profiler's disable()


_KERNEL_COUNTS = Counter()


def _counted(tracer, fn, keys):
    """fn()'s result and {out: tracer or kernel count named key} for that
    one call."""
    tracer.reset_counters()
    _KERNEL_COUNTS.clear()
    result = fn()
    counts = tracer.counts_now() + _KERNEL_COUNTS
    return result, {out: counts[key] for out, key in keys.items()}


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
        made = Counter()
        with _patched(_counting_exp(made) + _counting_members(made)):
            member, counts = _counted(
                tracer, lambda f=fam: f.converge(1e-3),
                {"prefix_builds": "sequences.log_terms.calls"},
            )
        per_target.append({"prefix_passes": made["exp_calls"], "prefix_terms": made["exp_terms"],
                           "prefix_terms_per_n": made["exp_terms"] / member.n,
                           "members": made["members"], **counts,
                           "terms_built": made["terms_built"]})
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
    per_target = []
    for (_, es, u, v), c in zip(targets, py_calls):
        reads = Counter()
        with _patched(_counting_scalar_reads(reads) + _counting_kernel_reads(reads)):
            counts = _counted(tracer, lambda es=es, u=u, v=v: es.solve_mb(u, v), SOLVE_KEYS)[1]
        per_target.append({**counts, "py_calls": c,
                           **{k: reads[k] for k in ("scalar_reads", *READ_KEYS)}})
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


def _counting_newton(counts):
    """Sites that count into counts the points at which the damped Newtons
    of solver and finite evaluate their dual potential (calls of the
    `evaluate` callback of minimize_convex_2d as either module calls it):
    newton_points where the point makes a certified series._dual_point
    pass, proposal_points where it makes none.  The latter are the
    inverse's uncertified finite-sum proposal, finite._minimize_dual; no
    case runs a finite bose-einstein or fermi-dirac solve."""
    from entromin import finite, series, solver

    passes = Counter()

    def counting_newton(newton):
        def counting(evaluate, *args, **kwargs):
            def counted(*point):
                before = passes["dual_point"]
                try:
                    return evaluate(*point)
                finally:
                    counts["newton_points" if passes["dual_point"] > before else "proposal_points"] += 1

            return newton(counted, *args, **kwargs)

        return counting

    return [(series, "_dual_point", _count(passes, "dual_point")),
            (solver, "minimize_convex_2d", counting_newton),
            (finite, "minimize_convex_2d", counting_newton)]


TRIP_KEYS = {**PASS_KEYS, "slope_passes": "slope_passes"}
NEWTON_KEYS = ("newton_points", "proposal_points")
READ_KEYS = ("sigma_builds", "reduce_calls", "ladder_lookups")
TRIP_COUNTS = (*NEWTON_KEYS, "budget_errors", "rows_builds", "scalar_reads", *READ_KEYS)


def count_roundtrips(tracer, entromin, trips, call=_roundtrip):
    """The counts of call(*trip[1:]) for each trip, in their order, and how
    many of them returned an InverseFailure."""
    per_target, failures = [], 0
    for trip in trips:
        counted = Counter()
        with _patched(_counting_newton(counted) + _counting_budget_errors(counted)
                      + _counting_rows_builds(counted) + _counting_scalar_reads(counted)
                      + _counting_kernel_reads(counted)):
            result, counts = _counted(tracer, lambda t=trip: call(*t[1:]), TRIP_KEYS)
        failures += isinstance(result, entromin.InverseFailure)
        per_target.append({**counts, **{k: counted[k] for k in TRIP_COUNTS}})
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
    per_target = []
    for _, es, u, v in targets:
        built = Counter()
        with _patched(_counting_budget_errors(built)):
            counts = _counted(tracer, lambda: es.value_mb(u, v), PASS_KEYS)[1]
        per_target.append({**counts, "budget_errors": built["budget_errors"]})
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


def count_truncations(entromin, solves, times):
    """finite_truncation's counts and wall times, overall and per family."""
    per_target = []
    for t in solves:
        exps = Counter()
        with _patched(_counting_exp(exps)):
            _truncated(entromin, *t[1:])
        per_target.append({"exp_calls": exps["exp_calls"], "exp_terms": exps["exp_terms"]})
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


def _ladders_made(made):
    """Sites that add every slope ladder made (series._Ladder) to the
    WeakSet made: only the cache keeps one alive, so the set holds the
    ladders made that are still cached."""
    from entromin import series

    def recording(init):
        def record(self, *args):
            init(self, *args)
            made.add(self)

        return record

    return [(series._Ladder, "__init__", recording)]


def _counting_model_rungs(counts):
    """Sites that count into counts the passes that fill the slope
    ladder's entries and model rungs: series._block_sums calls made inside
    series._Ladder.rung as entry_passes, and those that keep
    series._MODEL_PARTIALS partial moments (none on a tree without model
    rungs) as model_rung_passes, with their terms as entry_terms and
    model_rung_terms."""
    from entromin import series

    sig, partials = inspect.signature(series._block_sums), getattr(series, "_MODEL_PARTIALS", None)
    filling = []  # the entries being computed, innermost last

    def counting(fn):
        def count(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            if filling:
                key = "entry"
            elif partials is not None and bound.arguments.get("model") == partials:
                key = "model_rung"
            else:
                key = None
            if key:
                counts[f"{key}_passes"] += 1
                counts[f"{key}_terms"] += bound.arguments["n"]
            return fn(*args, **kwargs)

        return count

    def entry(rung):
        def fill(self, k):
            filling.append(k)
            try:
                return rung(self, k)
            finally:
                filling.pop()

        return fill

    return [(series, "_block_sums", counting), (series._Ladder, "rung", entry)]


def count_ladder_build(tracer, groups):
    """Per family key of groups (key -> calls), and their total: the
    entries and model rungs that one run of the calls from a cleared ladder
    cache leaves cached, the passes and terms it spends beyond a warm rerun
    and in all, and the passes and terms of the entries and of the model
    rungs it fills."""
    from entromin import series

    keys = {"series_passes": "series.passes", "series_terms": "series_terms"}

    def run(calls):
        total = Counter()
        for fn in calls:
            total.update(_counted(tracer, fn, keys)[1])
        return total

    out = {}
    for fam, calls in groups.items():
        series._ladder.cache_clear()
        made = weakref.WeakSet()
        rungs = Counter(entry_passes=0, entry_terms=0, model_rung_passes=0, model_rung_terms=0)
        with _patched(_ladders_made(made) + _counting_model_rungs(rungs)):
            cold = run(calls)
        entries = sum(len(ladder.rungs) for ladder in made)
        models = sum(len(getattr(ladder, "models", ())) for ladder in made)
        warm = run(calls)
        out[fam] = {"entries": entries, "model_rungs": models,
                    **{k: cold[k] - warm[k] for k in keys},
                    **{f"cold_{k}": cold[k] for k in keys}, **rungs}
    out["total"] = {k: sum(b[k] for b in out.values()) for k in next(iter(out.values()))}
    return out


def count_cold_cycle(tracer, entromin, workloads, np):
    """Per seed: the series passes and terms of one mb-point cycle, every
    request in order from cleared family caches as in a new perfbench
    process, and the passes and terms among them that fill the slope
    ladder's entries and model rungs."""
    wl, out = workloads.MbPoint(), {}
    keys = {"series_passes": "series.passes", "series_terms": "series_terms"}
    for seed in SEEDS:
        _clear_family_caches()
        ctx = wl.prepare(entromin, None, [])
        total = Counter()
        fills = Counter(entry_passes=0, entry_terms=0, model_rung_passes=0, model_rung_terms=0)
        with _patched(_counting_model_rungs(fills)):
            for req in wl.requests(np.random.default_rng(seed)):
                total.update(_counted(tracer, lambda req=req: wl.run(ctx, req), keys)[1])
        out[seed] = {**{k: total[k] for k in keys}, **fills}
    return out


def _grouped(targets, call):
    """{family key: [call(*rest) as a thunk]} over targets (key, *rest)."""
    return _by_family(targets, [lambda rest=rest: call(*rest) for _, *rest in targets])


VERIFY_CHECKS = (
    "_check_fenchel_young",
    "_check_truncation",
    "_check_roundtrips",
    "_check_weak_duality",
    "_check_beyond_theta2",
    "_check_degenerate",
)


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


def _timing_checks(times):
    """Sites that append each verify check's wall time in seconds to
    times[check]."""
    from entromin import cli

    def timed(key):
        def wrap(fn):
            def timing(*args):
                t0 = time.perf_counter()
                try:
                    return fn(*args)
                finally:
                    times.setdefault(key, []).append(time.perf_counter() - t0)

            return timing

        return wrap

    return [(cli, name, timed(name[len("_check_"):])) for name in VERIFY_CHECKS]


def verify_case(runs):
    """cli_verify: per family, the wall time of one verify and of each
    check (median and quartiles over REPEATS runs after one warm-up), the
    entropy calls and inverse Newton points of one verify, which repeat
    exactly, and the term-array calls of the warm-up verify."""
    per_target, times, per_family = [], [], {}
    for fam, run in runs:
        counts, points = Counter({f"{name}_calls": 0 for name in ENTROPY_FUNCTIONS}), Counter()
        with _patched(_counting_entropy_calls(counts) + _counting_newton(points)):
            code = run()
        counts["entropy_calls"] = sum(counts.values())
        counts.update({k: points[k] for k in NEWTON_KEYS})
        counts.update(term_arrays_in_table=0, term_arrays_past_table=0)
        checks, runs_s = {}, []
        with _patched(_counting_term_arrays(counts)):  # the warm-up run: a warm verify
            run()
        with _patched(_timing_checks(checks)):
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                run()
                runs_s.append(time.perf_counter() - t0)
        times.append(statistics.median(runs_s))
        per_target.append(dict(counts))
        per_family[fam] = {
            "exit_code": code,
            "counts_per_verify": dict(counts),
            "wall_ms_per_verify": _wall(runs_s),
            "wall_ms_per_check": {k: _wall(v) for k, v in checks.items()},
        }
    return {"targets": len(runs), "counts_per_verify": _summary(per_target),
            "wall_ms_per_verify": _wall(times), "per_family": per_family}


def _wall(times):
    return {k: 1e3 * v for k, v in _quartiles(times).items()}


def _runs(fn, setup=lambda: None):
    """REPEATS wall times of fn() in seconds after one untimed warm-up,
    each call after setup()."""
    setup()
    fn()
    times = []
    for _ in range(REPEATS):
        setup()
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
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


def _clear_family_caches():
    """Empty the caches that a solver build fills per family, also where
    the tracer wraps them."""
    from entromin import sequences, series, solver

    for cache in (sequences.sigma_min_set, series.profile, series._ladder, solver._cached_prefix):
        while not hasattr(cache, "cache_clear"):
            cache = cache.__wrapped__
        cache.cache_clear()


def explicit_case(entromin):
    """explicit_solver: per family, the py_calls of one cold EmpSolver build
    and the wall times of REPEATS cold builds; the caches are left empty."""
    tail = entromin.WeightedGeometric(1, 3)
    builds = [("explicit", entromin.ExplicitPrefix((1, 2), (1, 2), tail)), ("tail", tail)]
    per_target, medians, per_family = [], [], {}
    for key, fam in builds:
        times = _runs(lambda f=fam: entromin.EmpSolver(f), _clear_family_caches)
        _clear_family_caches()
        counts = {"py_calls": _py_calls(entromin.EmpSolver, fam)}
        _clear_family_caches()
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
    import tracing
    import workloads

    explicit_solver = explicit_case(entromin)  # first: it empties the caches
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
    with _patched(_count_kernel(_KERNEL_COUNTS)):
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
                      **count_truncations(entromin, truncations, truncation_s),
                      "wall_ms_per_solve": _wall(truncation_s)}
        finite_fd = {"targets": len(fd_solves), **count_fd(fd_solves, fd_calls, fd_s),
                     "wall_ms_per_solve": _wall(fd_s)}
        slow_value = {"targets": len(slow), **count_slow_values(tracer, slow, slow_s),
                      "wall_ms_per_solve": _wall(slow_s)}
        build = {
            "mb_interior": count_ladder_build(
                tracer, _grouped(interior, lambda es, u, v: es.solve_mb(u, v))),
            "bf_roundtrip": count_ladder_build(tracer, _grouped(trips, _roundtrip)),
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
                checks = ", ".join(f"{k} {v['median']:.2f}" for k, v in sub["wall_ms_per_check"].items())
                print(f"  {fam}: {counts}; median {sub['wall_ms_per_verify']['median']:.2f} ms "
                      f"({checks} ms)")
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
