"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured figures.  Tolerances are pinned here and nowhere looser.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines.
"""

import math
import time

import numpy as np
import pytest

from entromin import (
    Arithmetic,
    EmpSolution,
    EmpSolver,
    Entropy,
    ExplosiveWeights,
    Lattice3D,
    Region,
    WeightedGeometric,
    entropy_conjugate,
    entropy_derivative,
    entropy_value,
    kkt_residual,
    lattice_levels,
    profile,
    solve_two_fd,
    solve_two_mb_be,
)
from entromin.finite import BoundaryFlag

from conftest import brute_force_oracle, lattice_triples, zeta_oracle

MB = Entropy.MAXWELL_BOLTZMANN
BE = Entropy.BOSE_EINSTEIN
FD = Entropy.FERMI_DIRAC


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_geometric_fixture():
    t0 = time.perf_counter()
    solver = EmpSolver(Arithmetic(0.0, 1.0))
    sol = solver.solve_mb(1.0, 2.0)

    value_err = abs(sol.value - (-1.0 - 2.0 * math.log(2.0)))
    term_err = max(abs(sol.solution.term(n) - 2.0 ** -n) for n in range(1, 21))
    terms = sol.solution.prefix(200)
    u_err = abs(math.fsum(terms) - 1.0)
    v_err = abs(math.fsum((k + 1) * t for k, t in enumerate(terms)) - 2.0)

    fam = solver.family
    p60 = [fam.p(n) for n in range(1, 61)]
    s60 = [fam.sigma(n) for n in range(1, 61)]
    trunc = solve_two_mb_be(MB, p60, s60, 1.0, 2.0).value
    trunc_err = abs(trunc - sol.value)
    elapsed = time.perf_counter() - t0

    ok = (
        value_err <= 1e-9
        and term_err <= 1e-12
        and u_err <= 1e-10
        and v_err <= 1e-10
        and trunc_err <= 1e-9
        and elapsed < 1.0
    )
    _report(
        1,
        ok,
        f"geometric solve(1,2): value err {value_err:.1e}, term err {term_err:.1e}, "
        f"constraint errs ({u_err:.1e}, {v_err:.1e}), n=60 truncation err "
        f"{trunc_err:.1e}, {elapsed:.2f}s",
    )


def test_criterion_2_zeta_fixture():
    t0 = time.perf_counter()
    family = WeightedGeometric(1.0, 3.0)
    solver = EmpSolver(family)
    prof = solver.profile

    z3 = zeta_oracle(3.0)
    z2 = zeta_oracle(2.0)
    theta2_err = abs(prof.theta2 - z2 / z3)
    ok_profile = prof.alpha == 1.0 and prof.theta1 == 1.0 and theta2_err <= 1e-8

    sol_edge = solver.solve_mb(1.0, prof.theta2)
    term_err = max(
        abs(sol_edge.solution.term(n) - n ** -3.0 / z3) for n in range(1, 40)
    )

    sol_beyond = solver.solve_mb(1.0, 2.0)
    value_err = abs(sol_beyond.value - (-3.0 - math.log(z3)))
    member = sol_beyond.epsilon_family.converge(1e-3, n_max=2**15)
    eps_gap = abs(member.objective - sol_beyond.value)
    elapsed = time.perf_counter() - t0

    ok = (
        ok_profile
        and term_err <= 1e-10
        and (not sol_beyond.attained)
        and value_err <= 1e-9
        and eps_gap <= 1e-3
        and member.n <= 2**15
        and elapsed < 10.0
    )
    _report(
        2,
        ok,
        f"zeta fixture: theta2 err {theta2_err:.1e}, edge term err {term_err:.1e}, "
        f"beyond value err {value_err:.1e}, eps gap {eps_gap:.1e} at n={member.n}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_3_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    count = 0
    worst_gap = 0.0
    worst_kkt = 0.0
    for kind in (MB, BE, FD):
        for n in (2, 3, 4):
            for _ in range(12):
                p = tuple(float(x) for x in rng.uniform(1.0, 3.0, n))
                sigma = tuple(
                    float(x)
                    for x in np.sort(rng.uniform(0.2, 5.0, n) + np.arange(n) * 0.3)
                )
                caps = p if kind is FD else (2.0,) * n
                fr = rng.uniform(0.15, 0.85, n)
                ubar = [f * c for f, c in zip(fr, caps)]
                u = sum(ubar)
                v = sum(s * x for s, x in zip(sigma, ubar))
                if kind is FD:
                    sol = solve_two_fd(p, sigma, u, v)
                else:
                    sol = solve_two_mb_be(kind, p, sigma, u, v)
                ref = brute_force_oracle(kind, p, sigma, u, v, 4000)
                worst_gap = max(worst_gap, abs(sol.value - ref))
                if sol.boundary_flag is BoundaryFlag.INTERIOR_KKT:
                    worst_kkt = max(
                        worst_kkt, kkt_residual(kind, p, sigma, sol.u_bar, *sol.multipliers)
                    )
                count += 1
    elapsed = time.perf_counter() - t0
    ok = count >= 100 and worst_gap <= 1e-4 and worst_kkt <= 1e-8 and elapsed < 60.0
    _report(
        3,
        ok,
        f"{count} randomized instances: worst oracle gap {worst_gap:.2e}, "
        f"worst KKT residual {worst_kkt:.2e}, {elapsed:.1f}s",
    )


def test_criterion_4_fenchel_young_suites():
    worst_eq = 0.0
    for kind in (MB, BE, FD):
        hi = 1.0 - 1e-6 if kind is FD else 20.0
        for u in np.linspace(1e-6, hi, 1000):
            t = entropy_derivative(kind, float(u))
            gap = entropy_value(kind, float(u)) + entropy_conjugate(kind, t) - u * t
            worst_eq = max(worst_eq, abs(gap))

    rng = np.random.default_rng(4)
    worst_ineq = 0.0
    for _ in range(10_000):
        kind = (MB, BE, FD)[int(rng.integers(0, 3))]
        u = float(rng.uniform(0.0, 1.0 if kind is FD else 30.0))
        t = float(rng.uniform(-40.0, -1e-6 if kind is BE else 6.0))
        w = entropy_value(kind, u)
        ws = entropy_conjugate(kind, t)
        if math.isinf(w) or math.isinf(ws):
            continue
        worst_ineq = min(worst_ineq, w + ws - u * t)
    ok = worst_eq <= 1e-10 and worst_ineq >= -1e-12
    _report(
        4,
        ok,
        f"equality gap {worst_eq:.2e} over 3x1000 interior points, worst "
        f"inequality slack {worst_ineq:.2e} over 10^4 pairs",
    )


def test_criterion_5_round_trips():
    rng = np.random.default_rng(5)
    worst_mb = 0.0
    # y ranges keep phi(y) resolvably inside (theta1, theta2) for each family
    for family, y_lo, y_hi in (
        (Arithmetic(0.0, 1.0), -2.5, -0.15),
        (Lattice3D(1.0), -1.8, -0.1),
    ):
        solver = EmpSolver(family)
        for _ in range(50):
            x = float(rng.uniform(-1.0, 1.0))
            y = float(rng.uniform(y_lo, y_hi))
            fwd = solver.forward_solve(MB, x, y)
            back = solver.solve_mb(fwd.u, fwd.v)
            worst_mb = max(
                worst_mb,
                abs(back.multipliers[0] - x),
                abs(back.multipliers[1] - y),
            )

    solver = EmpSolver(Arithmetic(0.0, 1.0))
    worst_bf = 0.0
    for kind in (BE, FD):
        for _ in range(50):
            y = float(rng.uniform(-2.5, -0.3))
            x_hi = -solver.profile.theta1 * y - 0.3 if kind is BE else 1.0
            x = float(rng.uniform(-1.5, min(x_hi, 1.0)))
            fwd = solver.forward_solve(kind, x, y)
            inv = solver.inverse_solve_bf(kind, fwd.u, fwd.v, 1e-12)
            assert isinstance(inv, EmpSolution), f"{kind} inverse failed at {(x, y)}"
            worst_bf = max(
                worst_bf,
                abs(inv.multipliers[0] - x),
                abs(inv.multipliers[1] - y),
            )
    ok = worst_mb <= 1e-8 and worst_bf <= 1e-8
    _report(
        5,
        ok,
        f"100 MB round trips (geometric+lattice) worst err {worst_mb:.2e}; "
        f"2x50 BE/FD inverse round trips worst err {worst_bf:.2e}",
    )


def test_criterion_6_weak_duality():
    rng = np.random.default_rng(6)
    worst = math.inf
    checked = 0
    for family in (Arithmetic(0.0, 1.0), WeightedGeometric(1.0, 3.0), Lattice3D(1.0)):
        solver = EmpSolver(family)
        for _ in range(1000):
            k = int(rng.integers(2, 11))
            terms = [float(t) for t in rng.uniform(0.0, 1.0, k)]
            u = math.fsum(terms)
            v = math.fsum(family.sigma(i + 1) * t for i, t in enumerate(terms))
            if u <= 1e-9:
                continue
            obj = solver.objective_value(MB, terms)
            val = solver.value_mb(u, v)
            worst = min(worst, obj - val)
            checked += 1
    ok = checked >= 2900 and worst >= -1e-8
    _report(
        6,
        ok,
        f"{checked} random feasible truncations over 3 families: "
        f"min(objective - value) = {worst:.3e}",
    )


def test_criterion_7_degenerate_detection():
    const = EmpSolver(Arithmetic(5.0, 0.0))
    ok_const = (
        const.classify(1.0, 5.0) is Region.DEGENERATE_CONSTANT_SIGMA
        and const.value_mb(1.0, 5.0) == -math.inf
        and const.value_mb(2.5, 12.5) == -math.inf
        and const.value_mb(0.0, 0.0) == 0.0
        and const.value_mb(1.0, 6.0) == math.inf
    )
    _, rhs_c = const.biconjugate_check(0.2, -1.0, 256)

    div = EmpSolver(ExplosiveWeights())
    ok_div = (
        div.classify(1.0, 2.0) is Region.DEGENERATE_ALL_DIVERGENT
        and div.value_mb(1.0, 2.0) == -math.inf
        and div.value_mb(3.0, 17.0) == -math.inf
        and div.value_mb(1.0, 0.5) == math.inf
    )
    _, rhs_d = div.biconjugate_check(0.0, -2.0, 256)

    ok = ok_const and ok_div and math.isinf(rhs_c) and math.isinf(rhs_d)
    _report(
        7,
        ok,
        f"constant and divergent families: H = -inf on documented regions, "
        f"biconjugate rhs = ({rhs_c}, {rhs_d})",
    )


def test_criterion_8_convexity_probe():
    rng = np.random.default_rng(8)
    solver = EmpSolver(Arithmetic(0.0, 1.0))
    worst = 0.0
    for _ in range(1000):
        u1, u2 = rng.uniform(0.2, 3.0, 2)
        w1, w2 = rng.uniform(1.05, 7.0, 2)
        p1 = (float(u1), float(w1 * u1))
        p2 = (float(u2), float(w2 * u2))
        mid = (0.5 * (p1[0] + p2[0]), 0.5 * (p1[1] + p2[1]))
        gap = solver.value_mb(*mid) - 0.5 * (
            solver.value_mb(*p1) + solver.value_mb(*p2)
        )
        worst = max(worst, gap)
    ok = worst <= 1e-9
    _report(8, ok, f"midpoint convexity over 10^3 cone pairs: worst excess {worst:.2e}")


def test_criterion_9_lattice_ingestion():
    table = lattice_triples(30)
    expected = sorted(table.items())[:12]
    got = [(d, int(level)) for d, level in lattice_levels(1.0, 12)]
    ok_levels = got == [(d, v) for v, d in expected]

    solver = EmpSolver(Lattice3D(1.0))
    u, v = 1.0, 5.0
    sol = solver.solve_mb(u, v)
    fam = solver.family
    p60 = [fam.p(n) for n in range(1, 61)]
    s60 = [fam.sigma(n) for n in range(1, 61)]
    trunc = solve_two_mb_be(MB, p60, s60, u, v)
    trunc_err = abs(trunc.value - sol.value)
    res = kkt_residual(MB, p60, s60, trunc.u_bar, *trunc.multipliers)
    ok = ok_levels and sol.region is Region.INTERIOR and trunc_err <= 1e-9 and res <= 1e-8
    _report(
        9,
        ok,
        f"12 levels match brute force: {ok_levels}; interior solve truncation "
        f"err {trunc_err:.2e}, KKT residual {res:.2e}",
    )
