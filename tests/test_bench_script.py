"""scripts/bench.py counts by wrapping private library names from outside,
and reads the rest from the work record that the library fills
(entromin._work).  For every list of sites the script builds: each (owner,
name) resolves on this tree, a call through a counting site adds to its
key, and leaving _patched puts back the identical object, also when the
block raises.  A renamed library name then fails here rather than reading 0
in a bench run; so does a renamed key of the record."""

import dataclasses
import importlib.util
import re
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import entromin
from entromin import _work, cli, finite, series, solver
from entromin.errors import BudgetError

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench)

MB, BE = entromin.Entropy.MAXWELL_BOLTZMANN, entromin.Entropy.BOSE_EINSTEIN
_MISSING = object()


def _exp():
    for module in (solver, finite):
        module.np.exp(np.zeros(3))
    return {"exp_calls": 2, "exp_terms": 6}


def _members():
    fam = entromin.EmpSolver(entromin.WeightedGeometric(1.0, 3.0)).solve_mb(1.0, 1.8).epsilon_family
    fam.converge(1e-3).terms
    return {"members": None, "terms_built": None}


def _rows_builds():
    finite._dual_rows(np.array([0.0, 1.0, 2.0]))
    return {"rows_builds": 1}


def _scalar_reads():
    family = entromin.WeightedGeometric(1.0, 3.0)
    family.sigma_array(1, 2)
    family.sigma_array(1, 10)
    family.log_terms(0.0, 5, 5)
    family.log_terms(0.0, 1, 10)
    return {"scalar_reads": 2, "sigma_builds": 2}


def _term_arrays():
    family = entromin.Arithmetic(0.0, 1.0)
    family._term_arrays(1, 2)
    family._term_arrays(9000, 9001)
    return {"term_arrays_in_table": 1, "term_arrays_past_table": 1}


def _kernel_reads():
    # a pass of 4 arrays up to n = 32768, reduced at the 7 block ends of the
    # first and once per slice of at most 8192 terms after (1 + 1 + 2), and a
    # slope pass of 1 array up to 2048 that keeps 18 partials, reduced at its
    # 6 block ends and once for the higher rows
    family = entromin.LogLevels(1)
    series._eval_many(family, -2.0, {(None, 0): 1e-9})
    series._eval_many(family, -3.0, {(None, 0): 1e-9, (None, 1): 1e-9, (None, 2): 1e9}, model=18)
    return {"passes": 2, "series_terms": 32768 + 2048, "array_calls": 5, "reduce_calls": 7 + 4 + 6 + 1,
            "bracket_calls": 10 + 6, "slope_passes": 2}


def _budget_errors():
    BudgetError("one")
    return {"budget_errors": 1}


def _entropy_calls():
    sites = bench._counting_entropy_calls(Counter())
    for module, name, _ in sites:
        getattr(module, name)(MB, 0.5)
    return {f"{name}_calls": sum(n == name for _, n, _ in sites) for name in bench.ENTROPY_FUNCTIONS}


def _newton():
    es = entromin.EmpSolver(entromin.Arithmetic(0.0, 1.0))
    fwd = es.forward_solve(BE, -1.0, -1.0)
    es.inverse_solve_bf(BE, fwd.u, fwd.v, 1e-10)
    return {"newton_points": None, "proposal_points": None}


def _kernel():
    # a warm interior solve makes no pass: on a fresh family, whose ladder
    # starts empty, the solve sums its ladder entries and model rung
    entromin.EmpSolver(entromin.Arithmetic(0.0, 1.0)).solve_mb(1.0, 2.0)
    keys = ("passes", "slope_passes", "model_points", "array_calls", "bracket_calls", "series_terms")
    return {**dict.fromkeys(keys), "ladder_lookups": 1}


def _model_rungs():
    # the model rung of a fresh family reads the entry at k = 0 first: one
    # pass each
    entromin.Arithmetic(0.0, 1.0)._ladder.model(0, 1e-10, 1.0)
    return {"entry_passes": 1, "entry_terms": None,
            "model_rung_passes": 1, "model_rung_terms": None}


# each site list's builder: (its argument, a thunk that calls through its
# sites and returns {key: the amount it adds, None for at least 1})
SITE_LISTS = {
    "_counting_exp": (Counter, _exp),
    "_counting_scalar_reads": (Counter, _scalar_reads),
    "_counting_term_arrays": (Counter, _term_arrays),
    "_counting_budget_errors": (Counter, _budget_errors),
    "_counting_entropy_calls": (Counter, _entropy_calls),
    "_counting_model_rungs": (Counter, _model_rungs),
    "_timing_checks": (dict, None),
}


def _sites(builder):
    make, _ = SITE_LISTS[builder]
    arg = make()
    return arg, getattr(bench, builder)(arg)


def _held(sites):
    """What each owner itself holds under each name, and what it reads."""
    return [(vars(owner).get(name, _MISSING), getattr(owner, name)) for owner, name, _ in sites]


def _identical(a, b):
    return all(x is y for pair_a, pair_b in zip(a, b) for x, y in zip(pair_a, pair_b))


def test_every_site_list_of_the_script_is_covered():
    source = (ROOT / "scripts" / "bench.py").read_text()
    built = set()
    for args in re.findall(r"_patched\((.*?)\):", source, re.S):
        built |= set(re.findall(r"(\w+)\(", args))
    assert built == set(SITE_LISTS)


@pytest.mark.parametrize("builder", SITE_LISTS)
def test_every_site_resolves(builder):
    _, sites = _sites(builder)
    assert sites
    for owner, name, wrap in sites:
        getattr(owner, name)
        assert callable(wrap)


@pytest.mark.parametrize("builder", SITE_LISTS)
def test_leaving_puts_back_the_identical_objects(builder):
    _, sites = _sites(builder)
    before = _held(sites)
    with bench._patched(sites):
        inside = _held(sites)
    assert _identical(_held(sites), before)
    assert all(got is not held for (_, got), (_, held) in zip(inside, before))
    with pytest.raises(RuntimeError, match="inside"):
        with bench._patched(sites):
            raise RuntimeError("inside")
    assert _identical(_held(sites), before)


@pytest.mark.parametrize("builder", [b for b, (_, call) in SITE_LISTS.items() if call])
def test_a_call_through_a_counting_site_adds_to_its_key(builder):
    counts, sites = _sites(builder)
    with bench._patched(sites):
        want = SITE_LISTS[builder][1]()
    for key, amount in want.items():
        if amount is None:
            assert counts[key] >= 1, key
        else:
            assert counts[key] == amount, key


# the calls that the work record counts: {key: the amount each adds, None
# for at least 1}
RECORD_CALLS = (_kernel, _kernel_reads, _newton, _rows_builds, _members)


@pytest.mark.parametrize("call", RECORD_CALLS)
def test_a_call_adds_to_its_keys_of_the_work_record(call):
    with _work.counting() as work:
        want = call()
    for key, amount in want.items():
        assert getattr(work, key) >= 1 if amount is None else getattr(work, key) == amount, key


def test_the_script_reads_every_key_of_the_work_record_and_no_other():
    read = {key for name, keys in vars(bench).items() if name.endswith("_KEYS")
            for key in keys.values() if "." not in key}  # a dotted key is the tracer's
    assert read == {field.name for field in dataclasses.fields(_work.Work)}


def test_threads_counting_at_once_get_disjoint_records():
    # between the barriers both blocks are open: each thread counts its own
    # call while the main thread, in no block, makes both calls
    barrier, works = threading.Barrier(3, timeout=60), {}

    def run(call):
        with _work.counting() as work:
            barrier.wait()
            works[call] = work, call()
            barrier.wait()

    threads = [threading.Thread(target=run, args=(call,)) for call in (_rows_builds, _kernel_reads)]
    for t in threads:
        t.start()
    barrier.wait()
    assert _work.on == 2 and _work.local.record is None
    _rows_builds()
    _kernel_reads()
    barrier.wait()
    for t in threads:
        t.join()
    assert len(works) == 2
    for work, want in works.values():
        assert work == _work.Work(**want)


def test_a_nested_block_counts_apart_and_restores_the_outer_record():
    with _work.counting() as outer:
        _rows_builds()
        with _work.counting() as inner:
            _rows_builds()
            _rows_builds()
        assert _work.local.record is outer
        _rows_builds()  # not counted by the closed inner block
    assert outer == inner == _work.Work(rows_builds=2)
    assert _work.local.record is None and _work.on == 0


def test_timing_checks_time_every_check(capsys):
    times, sites = _sites("_timing_checks")
    with bench._patched(sites):
        for spec in ("lattice_verify.emp", "weighted_geometric_verify.emp"):
            assert cli.main(["--spec", str(ROOT / "specs" / spec)]) == 0
        cli._check_degenerate(entromin.EmpSolver(entromin.Arithmetic(0.0, 1.0)))
    capsys.readouterr()
    assert set(times) == {name[len("_check_"):] for name in bench.VERIFY_CHECKS}
    assert all(ts and all(t >= 0.0 for t in ts) for ts in times.values())
