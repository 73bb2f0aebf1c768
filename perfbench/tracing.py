"""Outside-in tracing of entromin's layers.

`Tracer.install()` wraps the public functions of each module (module
attributes, wherever another entromin module imported them by name) and the
methods of the family and solver classes.  Nothing under src/ changes.

Every wrapped call that runs while the tracer is active records a span
(name, start, end, parent span, request id) and bumps per-name call counts
and self time, where self time is the span's duration minus the time its
child spans cover.  A span opened on a thread with no open span of its own
(the CLI sweep's worker threads) is a child of the innermost span open on
the main thread; overlapping children on several threads are merged before
they are subtracted.

Family methods count only the outermost call per thread, so a family that
delegates to a wrapped base family (ShiftedSigma) is not counted twice.

Counters live in per-thread records that are summed on read, so counting
needs no lock; spans are kept in memory and written out by `dump`.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
from array import array
from collections import Counter, defaultdict
from time import perf_counter_ns

import numpy as np

FAMILY_METHODS = ("log_terms", "tail_interval", "boundary_bracket")
MODULE_FUNCTIONS = {
    "series": (
        "eval_f",
        "phi",
        "phi_inverse",
        "lnf_conjugate",
        "eval_h",
        "grad_h",
        "hessian_h",
        "profile",
    ),
    "rootfind": ("solve_bracketed",),
    "finite": ("solve_two_mb_be",),
    "specfile": ("parse_spec",),
    "cli": ("main",),
}
SOLVER_METHODS = (
    "solve_mb",
    "value_mb",
    "classify",
    "forward_solve",
    "inverse_solve_bf",
    "objective_value",
)


class _ThreadRecord:
    """Counters and spans of one thread."""

    def __init__(self):
        self.stack = []  # open frames: [name id, start ns, child ns, span id, foreign children]
        self.inside = set()  # name ids of outermost-only methods open on this thread
        self.calls = Counter()
        self.self_ns = Counter()
        self.counts = Counter()
        self.span_id = array("q")
        self.parent = array("q")
        self.name = array("i")
        self.request = array("i")
        self.start = array("q")
        self.end = array("q")


def _covered(intervals) -> int:
    """Length of the union of (start, end) intervals."""
    total = 0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


class Tracer:
    def __init__(self):
        self.active = False
        self.request = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._records: list[_ThreadRecord] = []
        self._lock = threading.Lock()
        self._main = self._record()

    # -- per-thread state -------------------------------------------------------

    def _record(self) -> _ThreadRecord:
        rec = getattr(self._local, "rec", None)
        if rec is None:
            rec = self._local.rec = _ThreadRecord()
            with self._lock:
                self._records.append(rec)
        return rec

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # -- wrapping ------------------------------------------------------------------

    def wrap(self, fn, name, *, outermost_only=False, before=None, after=None):
        """`fn` recording a span named `name`; `before(counts, args, kwargs)`
        and `after(counts, result)` add workload counts."""
        nid = self._name_id(name)
        tracer = self
        from entromin.errors import BudgetError

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            rec = tracer._record()
            if outermost_only:
                if nid in rec.inside:
                    return fn(*args, **kwargs)
                rec.inside.add(nid)
            if rec.stack:
                parent, foreign = rec.stack[-1], False
            else:
                main_stack = tracer._main.stack
                parent = main_stack[-1] if main_stack and rec is not tracer._main else None
                foreign = parent is not None
            if before is not None:
                before(rec.counts, args, kwargs)
            frame = [nid, 0, 0, next(tracer._ids), None]
            rec.stack.append(frame)
            t0 = frame[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BudgetError as exc:
                if not getattr(exc, "_perfbench_counted", False):
                    exc._perfbench_counted = True
                    rec.counts["series.budget_errors"] += 1
                raise
            finally:
                t1 = perf_counter_ns()
                rec.stack.pop()
                if outermost_only:
                    rec.inside.discard(nid)
                child = frame[2]
                if frame[4]:
                    child += _covered(frame[4])
                rec.calls[nid] += 1
                rec.self_ns[nid] += t1 - t0 - child
                if parent is not None:
                    if foreign:
                        with tracer._lock:
                            if parent[4] is None:
                                parent[4] = []
                            parent[4].append((t0, t1))
                    else:
                        parent[2] += t1 - t0
                rec.span_id.append(frame[3])
                rec.parent.append(parent[3] if parent is not None else -1)
                rec.name.append(nid)
                rec.request.append(tracer.request)
                rec.start.append(t0)
                rec.end.append(t1)
            if after is not None:
                after(rec.counts, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap entromin's layers in place (idempotent per process)."""
        import entromin
        from entromin import sequences, solver

        if getattr(entromin, "__perfbench_traced__", False):
            return
        entromin.__perfbench_traced__ = True

        def count_terms(counts, args, kwargs):
            lo, hi = args[2:4]  # (family, y, lo, hi): the library passes them positionally
            counts["sequences.terms"] += hi - lo + 1
            if lo == 1:
                counts["series.passes"] += 1

        for cls in vars(sequences).values():
            if not (isinstance(cls, type) and issubclass(cls, sequences.SequenceFamily)):
                continue
            for meth in FAMILY_METHODS:
                if meth in cls.__dict__:
                    before = count_terms if meth == "log_terms" else None
                    setattr(
                        cls,
                        meth,
                        self.wrap(
                            cls.__dict__[meth],
                            f"sequences.{meth}",
                            outermost_only=True,
                            before=before,
                        ),
                    )

        def count_iterations(counts, result):
            counts["rootfind.iterations"] += result.iterations

        def count_failures(counts, result):
            if isinstance(result, solver.InverseFailure):
                counts["solver.inverse_failures"] += 1

        after = {
            "rootfind.solve_bracketed": count_iterations,
            "solver.inverse_solve_bf": count_failures,
        }
        for mod_name in MODULE_FUNCTIONS:
            importlib.import_module(f"entromin.{mod_name}")
        modules = [m for n, m in sys.modules.items() if n == "entromin" or n.startswith("entromin.")]
        for mod_name, funcs in MODULE_FUNCTIONS.items():
            mod = sys.modules[f"entromin.{mod_name}"]
            for fname in funcs:
                orig = getattr(mod, fname)
                name = f"{mod_name}.{fname}"
                wrapped = self.wrap(orig, name, after=after.get(name))
                for other in modules:
                    for attr, val in list(vars(other).items()):
                        if val is orig:
                            setattr(other, attr, wrapped)
        for meth in SOLVER_METHODS:
            name = f"solver.{meth}"
            setattr(
                solver.EmpSolver,
                meth,
                self.wrap(getattr(solver.EmpSolver, meth), name, after=after.get(name)),
            )
        solver.EpsilonFamily.converge = self.wrap(
            solver.EpsilonFamily.converge, "solver.epsilon_converge"
        )

    # -- reading -------------------------------------------------------------------

    def totals(self):
        """(calls by name, self seconds by name, workload counts), summed over
        threads."""
        calls, self_s, counts = Counter(), defaultdict(float), Counter()
        with self._lock:
            records = list(self._records)
        for rec in records:
            for nid, c in rec.calls.items():
                calls[self.names[nid]] += c
            for nid, ns in rec.self_ns.items():
                self_s[self.names[nid]] += ns * 1e-9
            counts.update(rec.counts)
        return calls, self_s, counts

    def counts_now(self) -> Counter:
        """Workload counts plus call counts, for per-request deltas."""
        calls, _, counts = self.totals()
        out = Counter(counts)
        for name, c in calls.items():
            out[name + ".calls"] = c
        return out

    def reset_counters(self) -> None:
        with self._lock:
            for rec in self._records:
                rec.calls.clear()
                rec.self_ns.clear()
                rec.counts.clear()

    def span_count(self) -> int:
        return sum(len(rec.span_id) for rec in self._records)

    def dump(self, path) -> None:
        """Write every recorded span as arrays (ns timestamps) to an .npz."""
        with self._lock:
            records = list(self._records)

        def cat(field, dtype):
            return np.concatenate(
                [np.zeros(0, dtype)] + [np.frombuffer(getattr(r, field), dtype) for r in records]
            )

        start = cat("start", np.int64)
        order = np.argsort(start, kind="stable")
        np.savez(
            path,
            names=np.array(self.names),
            span_id=cat("span_id", np.int64)[order],
            parent=cat("parent", np.int64)[order],
            name=cat("name", np.int32)[order],
            request=cat("request", np.int32)[order],
            start_ns=start[order],
            end_ns=cat("end", np.int64)[order],
        )
