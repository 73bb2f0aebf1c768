"""scripts/bench.py counts by wrapping private library names from outside.
For every list of sites the script builds: each (owner, name) resolves on
this tree, a call through a counting site adds to its key, and leaving
_patched puts back the identical object, also when the block raises.  A
renamed library name then fails here rather than reading 0 in a bench run."""

import importlib.util
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import entromin
from entromin import cli, finite, series, solver
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
    series._add_reduce(np.ones((2, 4)), axis=-1)
    series._ladder(entromin.Arithmetic(0.0, 1.0))
    return {"reduce_calls": 1, "ladder_lookups": 1}


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
    # a warm interior solve makes no pass: from a cleared ladder cache the
    # solve sums its ladder entries and model rung
    series._ladder.cache_clear()
    entromin.EmpSolver(entromin.Arithmetic(0.0, 1.0)).solve_mb(1.0, 2.0)
    keys = ("slope_passes", "model_points", "array_calls", "bracket_calls", "series_terms")
    return dict.fromkeys(keys)


def _model_rungs():
    # the model rung reads the entry at k = 0 first: one pass each
    series._ladder.cache_clear()
    series._ladder(entromin.Arithmetic(0.0, 1.0)).model(0, 1e-10, 1.0)
    return {"entry_passes": 1, "entry_terms": None,
            "model_rung_passes": 1, "model_rung_terms": None}


# each site list's builder: (its argument, a thunk that calls through its
# sites and returns {key: the amount it adds, None for at least 1})
SITE_LISTS = {
    "_counting_exp": (Counter, _exp),
    "_counting_members": (Counter, _members),
    "_counting_rows_builds": (Counter, _rows_builds),
    "_counting_scalar_reads": (Counter, _scalar_reads),
    "_counting_term_arrays": (Counter, _term_arrays),
    "_counting_kernel_reads": (Counter, _kernel_reads),
    "_counting_budget_errors": (Counter, _budget_errors),
    "_counting_entropy_calls": (Counter, _entropy_calls),
    "_counting_newton": (Counter, _newton),
    "_count_kernel": (Counter, _kernel),
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


def test_timing_checks_time_every_check(capsys):
    times, sites = _sites("_timing_checks")
    with bench._patched(sites):
        for spec in ("lattice_verify.emp", "weighted_geometric_verify.emp"):
            assert cli.main(["--spec", str(ROOT / "specs" / spec)]) == 0
        cli._check_degenerate(entromin.EmpSolver(entromin.Arithmetic(0.0, 1.0)))
    capsys.readouterr()
    assert set(times) == {name[len("_check_"):] for name in bench.VERIFY_CHECKS}
    assert all(ts and all(t >= 0.0 for t in ts) for ts in times.values())
