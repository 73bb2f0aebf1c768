"""Command-line front end: solve, classify, forward, sweep and verify modes
driven by a problem-spec file.

solve, classify and forward write one record in --format to --out, or to
stdout.  A sweep's rows are CSV whatever --format says; verify writes its
record only with --out.  A failed BE/FD inverse prints its message and last
iterate and writes nothing.

Exit codes: 0 success, 2 parse/configuration error, 3 only-infeasible
results under --strict-feasible, 4 numerical failure or failed checks.
Set EMP_LOG=DEBUG|INFO|... for diagnostics.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from .entropies import Entropy, entropy_conjugate, entropy_derivative, entropy_value
from .errors import (
    BudgetError,
    ConfigurationError,
    EmpError,
    UnsupportedFamilyError,
)
from .finite import solve_two_mb_be
from .solver import EmpSolution, EmpSolver, InverseFailure, Region
from .specfile import ParseError, ProblemSpec, parse_spec
from . import series

log = logging.getLogger("entromin")

_INFEASIBLE = {
    Region.INFEASIBLE_NEGATIVE,
    Region.BELOW_CONE,
    Region.ZERO_WITH_POSITIVE_V,
}


def _fmt(x: float) -> str:
    if math.isinf(x):
        return "+inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return repr(float(x))


def _sanitize(obj):
    """Make records JSON-safe: non-finite floats become their CSV tokens."""
    if isinstance(obj, float):
        return _fmt(obj) if not math.isfinite(obj) else obj
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


_CSV_HEADER = "u,v,region,value,attained\n"


def _write(payload: str, args) -> None:
    if args.out:
        Path(args.out).write_text(payload)
    else:
        sys.stdout.write(payload)


def _emit(record, rows_csv, args) -> None:
    """Write the machine-readable record to --out (or stdout) in the chosen
    format; `rows_csv` is the CSV rendering, record the JSON one."""
    if args.format == "json":
        rows_csv = json.dumps(_sanitize(record), indent=2, sort_keys=True) + "\n"
    _write(rows_csv, args)


def _csv_row(sol: EmpSolution) -> str:
    cells = (_fmt(sol.u), _fmt(sol.v), sol.region.value, _fmt(sol.value), str(sol.attained).lower())
    return ",".join(cells) + "\n"


def _cmd_target(solver: EmpSolver, spec: ProblemSpec, args) -> int:
    """solve, classify and forward: one EmpSolution, printed, recorded and
    written once; classify reports its region and value alone."""
    kind = Entropy(spec.entropy)
    if spec.mode == "forward":
        sol = solver.forward_solve(kind, spec.x, spec.y)
        print(f"u         : {sol.u!r}")
        print(f"v         : {sol.v!r}")
    elif spec.mode == "classify" or kind is Entropy.MAXWELL_BOLTZMANN:
        sol = solver.solve_mb(spec.u, spec.v)
    else:
        print(
            f"note: {spec.entropy} inverse solves are best-effort "
            "(no complete inverse theory); reporting the Newton outcome."
        )
        sol = solver.inverse_solve_bf(kind, spec.u, spec.v, spec.tol)
        if isinstance(sol, InverseFailure):
            print(f"numerical failure: {sol.message}")
            print(f"last iterate: x = {sol.last_iterate[0]!r}, y = {sol.last_iterate[1]!r}")
            return 4
    rec = {
        "mode": spec.mode,
        "u": sol.u,
        "v": sol.v,
        "region": sol.region.value,
        "value": sol.value,
        "h_star": sol.h_star,
        "attained": sol.attained,
    }
    if spec.mode == "classify":
        print(f"region  : {sol.region.value}")
        print(f"value   : {_fmt(sol.value)}")
        print(f"h*      : {_fmt(sol.h_star)}")
    else:
        print(f"region    : {sol.region.value}")
        print(f"value     : {_fmt(sol.value)}")
        print(f"h*        : {_fmt(sol.h_star)}")
        print(f"attained  : {str(sol.attained).lower()}")
        rec["entropy"] = spec.entropy
        rec["multipliers"] = None
        if sol.multipliers is not None:
            print(f"multipliers: x = {sol.multipliers[0]!r}, y = {sol.multipliers[1]!r}")
            rec["multipliers"] = dict(zip("xy", sol.multipliers))
        if sol.solution is not None:
            rec["terms"] = sol.solution.prefix(args.terms)
            print(f"terms     : {', '.join(repr(t) for t in rec['terms'])}, ...")
        if sol.epsilon_family is not None:
            print("no minimizer exists; epsilon-optimal truncations available")
    _emit(rec, _CSV_HEADER + _csv_row(sol), args)
    # a forward request is a pair of multipliers, feasible whatever (u, v)
    # its certified sums reach; a requested (u, v) may not be
    return 3 if args.strict_feasible and spec.u is not None and sol.region in _INFEASIBLE else 0


def _cmd_sweep(solver: EmpSolver, spec: ProblemSpec, args) -> int:
    """The sweep's rows, written as CSV whatever --format says."""
    if spec.entropy != "mb":
        raise ConfigurationError("sweep mode computes the maxwell-boltzmann value; set entropy = mb")
    u0, u1, nu, v0, v1, nv = spec.grid
    us = np.linspace(u0, u1, nu)
    vs = np.linspace(v0, v1, nv)
    sols = [solver.solve_mb(float(u), float(v)) for u in us for v in vs]  # lexicographic
    _write(_CSV_HEADER + "".join(_csv_row(sol) for sol in sols), args)
    return 3 if args.strict_feasible and all(sol.region in _INFEASIBLE for sol in sols) else 0


# ---------------------------------------------------------------------------
# verify mode


def _check_fenchel_young(solver, rng):
    worst_eq = 0.0
    for kind in Entropy:
        hi = 0.999 if kind is Entropy.FERMI_DIRAC else 8.0
        u = np.linspace(0.001, hi, 200)
        t = entropy_derivative(kind, u)
        gap = entropy_value(kind, u) + entropy_conjugate(kind, t) - u * t
        worst_eq = max(worst_eq, float(np.abs(gap).max()))
    worst_ineq = 0.0
    for kind in Entropy:
        hi = 1.0 if kind is Entropy.FERMI_DIRAC else 10.0
        us = rng.uniform(0.0, hi, 2000)
        ts = rng.uniform(-30.0, -0.01 if kind is Entropy.BOSE_EINSTEIN else 5.0, 2000)
        gap = entropy_value(kind, us) + entropy_conjugate(kind, ts) - us * ts
        worst_ineq = min(worst_ineq, float(gap.min()))
    ok = worst_eq <= 1e-10 and worst_ineq >= -1e-12
    return ok, f"equality gap {worst_eq:.2e}, worst inequality {worst_ineq:.2e}"


def _interior_slope(prof, f=0.25, c=1.0):
    """theta1 + f (theta2 - theta1), or theta1 + f c theta1 where theta2 is
    infinite.  The default stays near theta1, so the optimal sequence decays
    fast enough for the finite truncations to converge within the scanned
    prefix."""
    width = prof.theta2 - prof.theta1 if math.isfinite(prof.theta2) else c * prof.theta1
    return prof.theta1 + f * width


def _max_finite_prefix(family, n_cap=2048):
    p = family.p_array(1, n_cap)
    n = 1
    while n < n_cap and math.isfinite(p[2 * n - 1]):
        n *= 2
    return n


def _check_truncation(solver, spec):
    prof = solver.profile
    w = _interior_slope(prof)
    target = solver.value_mb(1.0, w)
    fam = solver.family
    n_max = _max_finite_prefix(fam)
    p = fam.p_array(1, n_max)
    sig = fam.sigma_array(1, n_max)
    prev = math.inf
    val = math.inf
    n = 8
    while n <= n_max:
        val = solve_two_mb_be(Entropy.MAXWELL_BOLTZMANN, p[:n], sig[:n], 1.0, w).value
        if val > prev + 1e-10:
            return False, f"truncated values not monotone at n={n}"
        prev = val
        n *= 2
    ok = val - target <= 1e-6 and val >= target - 1e-8
    return ok, f"finite n={n // 2} value {val:.12g} vs closed form {target:.12g}"


def _check_roundtrips(solver, spec):
    # point selection only needs a rough slope inversion; the round-trip
    # comparison itself is in value space, which is robust to the residual
    # of the inverted root (second order) across every family
    prof = solver.profile
    worst_val = 0.0
    for wf in (0.25, 0.6, 0.85):
        y = series.phi_inverse(solver.normal_family, _interior_slope(prof, wf, 2.0), 1e-5)
        for x in (-0.5, 0.3):
            sol = solver.forward_solve(Entropy.MAXWELL_BOLTZMANN, *solver.multipliers_from_normal(x, y))
            back = solver.solve_mb(sol.u, sol.v)
            gap = abs(back.value - sol.value) / max(1.0, abs(sol.value))
            worst_val = max(worst_val, gap)
    if worst_val > 1e-9:
        return False, f"worst mb value round-trip error {worst_val:.2e}"
    worst_bf = 0.0
    for kind in (Entropy.BOSE_EINSTEIN, Entropy.FERMI_DIRAC):
        for wf in (0.25, 0.5):
            y = series.phi_inverse(solver.normal_family, _interior_slope(prof, wf), 1e-5)
            x = -1.0 if kind is Entropy.FERMI_DIRAC else min(-1.0, prof.theta1 * (-y) - 1.0)
            xo, yo = solver.multipliers_from_normal(x, y)
            fwd = solver.forward_solve(kind, xo, yo)
            inv = solver.inverse_solve_bf(kind, fwd.u, fwd.v, 1e-11)
            if isinstance(inv, InverseFailure):
                return False, f"{kind.value} inverse failed: {inv.message}"
            worst_bf = max(
                worst_bf,
                abs(inv.multipliers[0] - xo),
                abs(inv.multipliers[1] - yo),
            )
    ok = worst_bf <= 1e-7  # slow families certify only looser Newton targets
    return ok, (
        f"round-trip errors: mb value {worst_val:.2e}, "
        f"be/fd multipliers {worst_bf:.2e}"
    )


def _check_weak_duality(solver, rng):
    # 50 samples keep the check responsive on slowly spaced level families,
    # where each certified value costs millions of series terms
    fam = solver.family
    worst = math.inf
    for _ in range(50):
        k = int(rng.integers(2, 10))
        terms = rng.uniform(0.0, 1.0, k)
        u = float(terms.sum())
        v = float(sum(t * s for t, s in zip(terms, fam.sigma_array(1, k))))
        if u <= 0.0:
            continue
        obj = solver.objective_value(Entropy.MAXWELL_BOLTZMANN, list(terms))
        val = solver.value_mb(u, v)
        worst = min(worst, obj - val)
    return worst >= -1e-8, f"min(objective - value) = {worst:.3e}"


def _check_beyond_theta2(solver, spec):
    prof = solver.profile
    sol = solver.solve_mb(1.0, 1.3 * prof.theta2)
    if sol.attained or sol.epsilon_family is None:
        return False, "beyond-theta2 target misclassified"
    try:
        # the truncation gap closes like log(n)/n, so cap the request at the
        # level reachable within the n <= 2^15 schedule
        member = sol.epsilon_family.converge(max(spec.epsilon, 1e-3), n_max=2**15)
    except BudgetError as exc:
        return False, str(exc)
    x_n = math.log(1.0 / prof.f_at_boundary)
    _, v_cand = series.grad_h(
        solver.normal_family, Entropy.MAXWELL_BOLTZMANN, x_n, -prof.alpha, 1e-10
    )
    gap = abs(v_cand - 1.3 * prof.theta2)
    ok = gap > 1e-6
    detail = (
        f"epsilon family reached {member.objective:.9g} (value {sol.value:.9g}) "
        f"at n={member.n}; boundary candidate misses second constraint by {gap:.3e}"
    )
    return ok, detail


def _check_degenerate(solver):
    ray = solver.family.constant_sigma
    if ray:
        w, expected = solver.family.sigma(1), Region.DEGENERATE_CONSTANT_SIGMA
    else:
        t1 = solver.normal_family._sigma_min.theta1
        w, expected = 2.0 * t1, Region.DEGENERATE_ALL_DIVERGENT
    region = solver.classify(1.0, w)
    value = solver.value_mb(1.0, w)
    lhs, rhs = solver.biconjugate_check(0.0, -1.0, 256)
    ok = region is expected and value == -math.inf and math.isinf(rhs)
    ok = ok and (math.isinf(lhs) or not ray)  # on the ray both sides are infinite
    label = "ray" if ray else "cone"
    return ok, f"{label} region {region.value}, value {_fmt(value)}, h = {_fmt(rhs)}"


def _cmd_verify(solver: EmpSolver, spec: ProblemSpec, args) -> int:
    rng = np.random.default_rng(20240801)
    checks = [("fenchel-young", lambda: _check_fenchel_young(solver, rng))]
    if solver.profile is not None:
        checks += [
            ("truncation-convergence", lambda: _check_truncation(solver, spec)),
            ("forward-inverse-roundtrips", lambda: _check_roundtrips(solver, spec)),
            ("weak-duality", lambda: _check_weak_duality(solver, rng)),
        ]
        if math.isfinite(solver.profile.theta2):
            checks.append(("beyond-theta2-dichotomy", lambda: _check_beyond_theta2(solver, spec)))
    else:
        checks.append(("degenerate-detection", lambda: _check_degenerate(solver)))

    results = []
    failed = False
    for name, fn in checks:
        try:
            ok, detail = fn()
        except EmpError as exc:
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append({"check": name, "pass": ok, "detail": detail})
        failed |= not ok
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    rec = {"mode": "verify", "entropy": spec.entropy, "checks": results}
    rows = "check,pass\n" + "".join(
        f"{r['check']},{str(r['pass']).lower()}\n" for r in results
    )
    if args.out:
        _emit(rec, rows, args)
    return 4 if failed else 0


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="entromin",
        description="Entropy minimization solver for countable moment problems.",
    )
    parser.add_argument("--spec", required=True, help="problem-spec file path")
    parser.add_argument("--out", default=None, help="write the machine-readable result here")
    parser.add_argument("--format", choices=("csv", "json"), default="json")
    parser.add_argument("--terms", type=int, default=10, help="solution terms to report")
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="accepted for compatibility and ignored: sweeps run serially",
    )
    parser.add_argument(
        "--strict-feasible",
        action="store_true",
        help="exit 3 when every requested point is infeasible",
    )
    args = parser.parse_args(argv)
    level = os.environ.get("EMP_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))

    try:
        text = Path(args.spec).read_text()
    except OSError as exc:
        print(f"error: cannot read spec: {exc}", file=sys.stderr)
        return 2
    try:
        spec = parse_spec(text)
        family = spec.build_family()
        log.info("parsed %s problem: mode=%s entropy=%s", spec.family_name, spec.mode, spec.entropy)
        solver = EmpSolver(family, spec.tol)
        if solver.profile is not None:
            log.debug(
                "profile: alpha=%g case=%s theta1=%g theta2=%g",
                solver.profile.alpha,
                solver.profile.boundary_case.value,
                solver.profile.theta1,
                solver.profile.theta2,
            )
    except (ParseError, ConfigurationError, UnsupportedFamilyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        if spec.mode == "sweep":
            return _cmd_sweep(solver, spec, args)
        if spec.mode == "verify":
            return _cmd_verify(solver, spec, args)
        return _cmd_target(solver, spec, args)
    except (ParseError, ConfigurationError, UnsupportedFamilyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EmpError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
