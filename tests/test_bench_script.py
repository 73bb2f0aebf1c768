"""scripts/bench.py reads every count of the solver's work from the work
record that the library fills (entromin._work), and patches no library
name.  Each key the script reads is a field of the record, a call adds to
its keys, and records of threads and nested blocks count apart.  The
script stops before any case on a tree whose record lacks a key it reads,
and its reading of a profiled verify finds every entropy function and
check."""

import dataclasses
import importlib.util
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import entromin
from entromin import _work, cli, entropies, finite, series
from entromin.errors import BudgetError

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench)

MB, BE = entromin.Entropy.MAXWELL_BOLTZMANN, entromin.Entropy.BOSE_EINSTEIN


def _members():
    fam = entromin.EmpSolver(entromin.WeightedGeometric(1.0, 3.0)).solve_mb(1.0, 1.8).epsilon_family
    fam.converge(1e-3).terms
    return {"members": None, "terms_built": None, "gibbs_passes": None, "gibbs_terms": None}


def _gibbs():
    # one Gibbs pass per slope-root point of a finite solve (t = 0 and four
    # Newton steps), each over all 5 terms
    entromin.solve_two_mb_be(MB, [1.0] * 5, [0.0, 1.0, 2.0, 3.0, 4.0], 1.0, 1.5)
    return {"gibbs_passes": 5, "gibbs_terms": 25}


def _rows_builds():
    finite._dual_rows(np.array([0.0, 1.0, 2.0]))
    return {"rows_builds": 1}


def _kernel_reads():
    # a pass of 4 arrays up to n = 32768, reduced at the 7 block ends of the
    # first and once per slice of at most 8192 terms after (1 + 1 + 2), and a
    # slope pass of 1 array up to 2048 that keeps 18 partials, reduced at its
    # 6 block ends and once for the higher rows; the table is built once, and
    # the two arrays past it are windows
    family = entromin.LogLevels(1)
    series._eval_many(family, -2.0, {(None, 0): 1e-9})
    series._eval_many(family, -3.0, {(None, 0): 1e-9, (None, 1): 1e-9, (None, 2): 1e9}, model=18)
    return {"passes": 2, "series_terms": 32768 + 2048, "array_calls": 5, "reduce_calls": 7 + 4 + 6 + 1,
            "bracket_calls": 10 + 6, "slope_passes": 2, "tables_built": 1, "windows_built": 2}


def _budget_errors():
    BudgetError("one")
    try:
        raise BudgetError("two")
    except BudgetError:
        pass
    return {"budget_errors": 2}


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
    return {**dict.fromkeys(keys), "ladder_lookups": 1, "tables_built": 1}


# each call returns {key: the amount it adds, None for at least 1}
RECORD_CALLS = (_kernel, _kernel_reads, _newton, _rows_builds, _members, _gibbs, _budget_errors)


@pytest.mark.parametrize("call", RECORD_CALLS)
def test_a_call_adds_to_its_keys_of_the_work_record(call):
    with _work.counting() as work:
        want = call()
    for key, amount in want.items():
        assert getattr(work, key) >= 1 if amount is None else getattr(work, key) == amount, key


def test_the_script_reads_every_key_of_the_work_record_and_no_other():
    assert bench.read_keys() == {field.name for field in dataclasses.fields(_work.Work)}
    assert bench.missing_keys() == []


@pytest.mark.parametrize("has", [{"passes"}, None], ids=["a-key", "no-record"])
def test_a_tree_lacking_a_key_stops_before_any_case(tmp_path, has):
    # a tree whose work record holds only passes, and one with no record
    package = tmp_path / "entromin"
    package.mkdir()
    (package / "__init__.py").write_text("")
    if has:
        (package / "_work.py").write_text(
            "from dataclasses import dataclass\n\n\n@dataclass\nclass Work:\n    passes: int = 0\n")
    out = tmp_path / "bench.json"
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / "bench.py"), "--out", str(out),
                          "--src", str(tmp_path)], capture_output=True, text=True, timeout=120)
    assert run.returncode == 2, run.stderr
    named = run.stderr.split(" lacks ")[1].split(";")[0].split(", ")
    assert set(named) == bench.read_keys() - (has or set()) and not out.exists()


@pytest.mark.parametrize("family, slopes", [
    (entromin.Arithmetic(0.0, 1.0), (1.02, 9.0)), (entromin.WeightedGeometric(1.0, 3.0), (1.02, 1.34)),
    (entromin.Lattice3D(1.0), (3.1, 12.0))], ids=repr)
def test_the_passes_of_cold_interior_solves_are_the_ladder_fills_read(family, slopes):
    # ladder_build and cold_cycle read fills from the ladder's records: on a
    # fresh family every pass of an interior solve fills an entry or a rung
    es = entromin.EmpSolver(dataclasses.replace(family))
    with _work.counting() as work:
        for w in np.geomspace(*slopes, 40):
            es.solve_mb(1.0, float(w))
    fills = bench._ladder_fills([es.normal_family._ladder])
    assert work.passes == fills["entry_passes"] + fills["model_rung_passes"] > 0
    assert work.series_terms == fills["entry_terms"] + fills["model_rung_terms"]


def test_a_profiled_verify_gives_every_entropy_function_and_check():
    def verify():
        for spec in ("lattice_verify.emp", "weighted_geometric_verify.emp"):
            assert cli.main(["--spec", str(ROOT / "specs" / spec)]) == 0
        cli._check_degenerate(entromin.EmpSolver(entromin.Arithmetic(0.0, 1.0)))
        for name in bench.ENTROPY_FUNCTIONS:
            getattr(entropies, name)(MB, 0.5)

    calls, checks = bench._verify_profile(bench._profiled(verify)[1])
    assert set(calls) == {f"{name}_calls" for name in bench.ENTROPY_FUNCTIONS}
    assert all(n >= 1 for n in calls.values())
    assert set(checks) == {name[len("_check_"):] for name in vars(cli) if name.startswith("_check_")}
    assert all(ms > 0.0 for ms in checks.values())


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
