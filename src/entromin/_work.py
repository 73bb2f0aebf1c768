"""The solver's work per thread, the one source of scripts/bench.py's counts
and the tests' work pins.  counting() opens a Work record on the calling
thread, and the library adds to that thread's innermost open record where it
does the work each key names.  A site tests the flag `on` (the open records)
before it reads `local.record`, so it makes no call while nobody counts."""

import contextlib
import threading
from dataclasses import dataclass


@dataclass
class Work:
    passes: int = 0  # certified series passes (series._block_sums calls)
    series_terms: int = 0  # the terms they sum
    array_calls: int = 0  # their family.log_terms calls, one per array of terms
    reduce_calls: int = 0  # their row reductions (series._add_reduce calls)
    bracket_calls: int = 0  # the library's tail brackets (series._tails calls)
    slope_passes: int = 0  # series._eval_many calls under maxwell-boltzmann
    model_points: int = 0  # slopes certified from a model and one bracket, with no pass
    step_points: int = 0  # slopes certified by a Taylor step from the one before: no bracket
    ladder_lookups: int = 0  # reads of a family's slope ladder (SequenceFamily._ladder)
    newton_points: int = 0  # points of the certified inverse Newton (inverse_solve_bf)
    proposal_points: int = 0  # points of the finite dual Newton (finite._minimize_dual)
    rows_builds: int = 0  # finite._dual_rows calls
    members: int = 0  # epsilon-family members tried (EpsilonFamily._member calls)
    terms_built: int = 0  # tuples of member terms made (EpsilonMember.terms)
    gibbs_passes: int = 0  # finite._gibbs_pass calls: one exp over a finite prefix each
    gibbs_terms: int = 0  # the terms they exponentiate
    budget_errors: int = 0  # BudgetErrors constructed, raised or caught
    tables_built: int = 0  # term tables built (SequenceFamily._term_table)
    windows_built: int = 0  # term windows built past the table (SequenceFamily._tabled)


class _Local(threading.local):
    record = None  # the thread's innermost open Work


local, on, _lock = _Local(), 0, threading.Lock()


@contextlib.contextmanager
def counting():
    """A new Work that the calling thread adds to until the block ends; a
    nested block counts apart, and leaving it restores the outer one."""
    global on
    outer, local.record = local.record, Work()
    with _lock:
        on += 1
    try:
        yield local.record
    finally:
        local.record = outer
        with _lock:
            on -= 1
