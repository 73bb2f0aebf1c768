"""Partition series analysis: certified values of f and its derivatives,
endpoint profiles, the slope bijection and its inverse, the conjugate of
ln f, and the dual sums h_W with gradients and boundary subdifferentials."""

import math
import sys
import threading
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entromin import (
    Arithmetic,
    BoundaryCase,
    BudgetError,
    ConfigurationError,
    DivergenceError,
    DomainError,
    EmpSolver,
    Entropy,
    ExplicitPrefix,
    Lattice3D,
    LogLevels,
    PowerLaw,
    RangeError,
    Region,
    SequenceFamily,
    ShiftedSigma,
    UnsupportedFamilyError,
    WeightedGeometric,
    eval_f,
    eval_h,
    grad_h,
    lnf_conjugate,
    phi,
    phi_inverse,
    profile,
)
from entromin import series
from entromin.series import _HESSIAN, _dual_point, _dual_sums, _invert_slope, hessian_h

from conftest import (
    LN2,
    ZETA2,
    ZETA3,
    boundary_subdifferential,
    brute_force_series,
    eval_f_derivatives,
    ref_eval_many,
    zeta_oracle,
)
from test_sequences import _FAMILY_POINTS

MB = Entropy.MAXWELL_BOLTZMANN
BE = Entropy.BOSE_EINSTEIN
FD = Entropy.FERMI_DIRAC

# independent oracle value of sum_{n>=1} -ln(1 - 2^-n)
BE_H_AT_0_LN2 = 1.2420620948124146


def test_zeta_reference_constants_match_oracle():
    assert zeta_oracle(3.0) == pytest.approx(ZETA3, abs=1e-13)
    assert zeta_oracle(2.0) == pytest.approx(ZETA2, abs=1e-10)
    assert ZETA2 == pytest.approx(math.pi**2 / 6.0, abs=1e-15)


class TestEvalF:
    def test_geometric_closed_form(self, geometric):
        r = eval_f(geometric, -LN2, 1e-12)
        assert r.value == pytest.approx(1.0, abs=1e-12)
        assert r.tail_bound_used <= 1e-12

    def test_geometric_third(self, geometric):
        assert eval_f(geometric, -math.log(3.0), 1e-12).value == pytest.approx(0.5, abs=1e-12)

    def test_zeta_value(self, zeta_family):
        assert eval_f(zeta_family, -1.0, 1e-10).value == pytest.approx(
            zeta_oracle(3.0), abs=1e-10
        )

    def test_divergence_beyond_endpoint(self, zeta_family):
        with pytest.raises(DivergenceError):
            eval_f(zeta_family, -0.5, 1e-10)

    def test_divergence_at_open_boundary(self, geometric):
        with pytest.raises(DivergenceError):
            eval_f(geometric, 0.0, 1e-10)

    def test_boundary_rejected_for_log_levels(self):
        # f(-alpha) is a harmonic series: certified divergent
        with pytest.raises(DivergenceError):
            eval_f(LogLevels(1.0), -1.0, 1e-8)

    def test_case_b_boundary_value(self, case_b_family):
        got = eval_f(case_b_family, -1.0, 1e-8).value
        assert got == pytest.approx(zeta_oracle(1.5, 2_000_000), abs=1e-8)

    def test_prefix_end_takes_the_tail_familys_bracket(self):
        # the tail beyond a 64-term prefix is the tail family's own; a ratio
        # bound from the prefix's last term (level 1000) missed 0.795 of it
        levels = tuple(float(n) for n in range(1, 64)) + (1000.0,)
        fam = ExplicitPrefix((1.0,) * 64, levels, Arithmetic(0.0, 1.0))
        got = eval_f(fam, -0.05, 1e-10)
        rho = math.exp(-0.05)
        direct = math.fsum(math.exp(-0.05 * s) for s in levels) + rho**65 / (1.0 - rho)
        assert abs(got.value - direct) <= got.tail_bound_used + 1e-13


class TestDerivatives:
    def test_geometric(self, geometric):
        f0, f1, f2 = eval_f_derivatives(geometric, -LN2, 1e-12)
        assert f0 == pytest.approx(1.0, abs=1e-12)
        assert f1 == pytest.approx(2.0, abs=1e-12)
        assert f2 == pytest.approx(6.0, abs=1e-12)

    def test_all_vanish_far_left(self, geometric):
        f0, f1, f2 = eval_f_derivatives(geometric, -30.0, 1e-14)
        assert max(f0, f1, f2) < 1e-11

    def test_zeta_first_derivative_vs_brute_force(self, zeta_family):
        y = -1.05
        _, f1, _ = eval_f_derivatives(zeta_family, y, 1e-10)
        brute = math.fsum(n ** -2.0 * math.exp((y + 1.0) * n) for n in range(1, 200_000))
        assert f1 == pytest.approx(brute, abs=1e-9)

    def test_interior_only(self, zeta_family):
        with pytest.raises(DomainError):
            eval_f_derivatives(zeta_family, -1.0, 1e-8)


@dataclass(frozen=True)
class _NoAlpha(SequenceFamily):
    """Unit weights and sigma_n = n, with no declared alpha."""

    def p(self, n):
        return 1.0

    def sigma(self, n):
        return float(n)


class TestProfile:
    def test_geometric(self, geometric):
        prof = profile(geometric)
        assert prof.alpha == 0.0
        assert prof.boundary_case is BoundaryCase.OPEN_A
        assert prof.theta1 == 1.0
        assert math.isinf(prof.theta2)

    def test_zeta(self, zeta_family):
        prof = profile(zeta_family)
        assert prof.alpha == 1.0
        assert prof.boundary_case is BoundaryCase.CLOSED_GAMMA_FINITE_C
        assert prof.f_at_boundary == pytest.approx(ZETA3, abs=1e-10)
        assert prof.gamma == pytest.approx(ZETA2, abs=1e-10)
        assert prof.theta2 == pytest.approx(ZETA2 / ZETA3, abs=1e-9)

    def test_log_levels_boundary_is_open(self):
        # f(-alpha) diverges (harmonic), so dom f is open and theta2 = inf
        prof = profile(LogLevels(1.0))
        assert prof.alpha == 1.0
        assert prof.boundary_case is BoundaryCase.OPEN_A
        assert math.isinf(prof.theta2)

    def test_case_b(self, case_b_family):
        prof = profile(case_b_family)
        assert prof.boundary_case is BoundaryCase.CLOSED_GAMMA_INFINITE_B
        assert prof.f_at_boundary is not None and prof.gamma is None
        assert math.isinf(prof.theta2)

    def test_lattice(self, lattice):
        prof = profile(lattice)
        assert prof.alpha == 0.0
        assert prof.theta1 == 3.0
        assert prof.boundary_case is BoundaryCase.OPEN_A

    def test_family_without_alpha_is_unsupported(self):
        # an undeclared dom-f endpoint is refused, not estimated: no solve
        # could use a profile built on an estimate
        with pytest.raises(UnsupportedFamilyError, match="no dom-f endpoint"):
            profile(_NoAlpha())
        with pytest.raises(UnsupportedFamilyError, match="no dom-f endpoint"):
            EmpSolver(_NoAlpha())


class TestPhi:
    def test_values(self, geometric):
        assert phi(geometric, -LN2, 1e-12) == pytest.approx(2.0, abs=1e-11)
        assert phi(geometric, -math.log(3.0), 1e-12) == pytest.approx(1.5, abs=1e-11)

    def test_limit_is_theta1(self, geometric):
        assert phi(geometric, -25.0, 1e-13) == pytest.approx(1.0, abs=1e-9)

    def test_domain(self, geometric):
        with pytest.raises(DomainError):
            phi(geometric, 0.5, 1e-10)

    def test_negative_levels(self):
        # levels n - 1000: f'/f = 1/(1 - e^-0.05) - 1000; the moment-1 tail
        # is certified only beyond the last negative level
        rho = math.exp(-0.05)
        got = phi(Arithmetic(-1000.0, 1.0), -0.05, 1e-10)
        assert got == pytest.approx(1.0 / (1.0 - rho) - 1000.0, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-8.0, -0.05), st.floats(0.01, 3.0))
    def test_strictly_increasing(self, geometric, y, gap):
        assert phi(geometric, y, 1e-12) < phi(geometric, y + min(gap, -y / 2), 1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(-6.0, -1.001))
    def test_range_and_roundtrip(self, zeta_family, y):
        prof = profile(zeta_family)
        w = phi(zeta_family, y, 1e-11)
        assert prof.theta1 < w < prof.theta2
        back = phi_inverse(zeta_family, w, 1e-11)
        assert abs(phi(zeta_family, back, 1e-12) - w) <= 1e-10


    @pytest.mark.parametrize("y", [-0.5, -0.2])
    def test_one_sided_bracket_against_nsum(self, y):
        # PowerLaw's block-doubling tail bound has lower end 0, so the
        # certificate of phi rests on an upper bound alone.  mpmath's default
        # nsum (Richardson + Shanks) is off by 4e-6 at y = -0.2; its
        # Euler-Maclaurin method agrees with a direct 4e6-term sum
        mpmath = pytest.importorskip("mpmath")

        def moment(k):
            return mpmath.nsum(
                lambda n: mpmath.sqrt(n) ** k * mpmath.exp(y * mpmath.sqrt(n)),
                [1, mpmath.inf],
                method="euler-maclaurin",
            )

        with mpmath.workdps(30):
            want = float(moment(1) / moment(0))
        assert abs(phi(PowerLaw(1.0, 0.5), y, 1e-10) - want) <= 1e-10


class TestPhiInverse:
    def test_analytic_inverse(self, geometric):
        assert phi_inverse(geometric, 2.0, 1e-12) == pytest.approx(-LN2, abs=1e-11)
        assert phi_inverse(geometric, 1.5, 1e-12) == pytest.approx(-math.log(3.0), abs=1e-11)

    def test_out_of_range(self, geometric):
        with pytest.raises(RangeError):
            phi_inverse(geometric, 0.5, 1e-10)
        with pytest.raises(RangeError):
            phi_inverse(geometric, 1.0, 1e-10)

    def test_beyond_theta2_rejected(self, zeta_family):
        prof = profile(zeta_family)
        with pytest.raises(RangeError):
            phi_inverse(zeta_family, prof.theta2 + 0.01, 1e-10)

    def test_monotone_in_w(self, zeta_family):
        ws = [1.05, 1.15, 1.25, 1.35]
        ys = [phi_inverse(zeta_family, w, 1e-11) for w in ws]
        assert all(a < b for a, b in zip(ys, ys[1:]))


def _certified_root(family, w, tol):
    """phi_inverse at tol, checked against an independent phi evaluation."""
    y = phi_inverse(family, w, tol)
    assert y < -profile(family).alpha
    assert abs(phi(family, y, 1e-13) - w) <= tol
    return y


class TestNewtonInversion:
    @pytest.mark.parametrize("w", [1.0 + 1e-6, 1.01, 1.5, 3.0, 40.0, 1e3])
    def test_geometric_closed_form(self, geometric, w):
        # phi(y) = 1/(1 - e^y), phi'(y) = w(w - 1) at the root
        y = _certified_root(geometric, w, 1e-12)
        assert y == pytest.approx(math.log(1.0 - 1.0 / w), abs=2e-12 / (w * (w - 1.0)) + 1e-13)

    def test_steep_slope_meets_tol(self, geometric):
        # phi' = w (w - 1) is large here: a step floor of 1e-13 in y jumped
        # over the whole tolerance window from w = 11.1 on and returned a
        # root up to 3.9e-10 off in phi
        for w in np.geomspace(1.5, 100.0, 150):
            y = phi_inverse(geometric, float(w), 1e-12)
            assert abs(-1.0 / math.expm1(y) - w) <= 1e-12

    def test_steep_slope_meets_tol_above_100(self, geometric):
        # near y = -0.01 the tail holds most of each moment: forming its
        # closed form from 1 - e^y lost digits, and 5 of these roots missed
        # tol by up to 1.5e-12
        for w in np.geomspace(100.0, 130.0, 200):
            y = phi_inverse(geometric, float(w), 1e-12)
            assert abs(-1.0 / math.expm1(y) - w) <= 1e-12

    @pytest.mark.parametrize("w", [1.01, 2.0, 40.0])
    def test_root_pass_f_certified(self, geometric, w):
        # f(y) = e^y / (1 - e^y) = w - 1 at the root y = ln(1 - 1/w)
        y, f_y = _invert_slope(geometric, w, 1e-12)
        exact = math.exp(y) / -math.expm1(y)
        assert abs(f_y.value - exact) <= f_y.tail_bound_used + 1e-15 * exact
        assert f_y.tail_bound_used <= 1e-12 * exact

    @pytest.mark.parametrize("y0", [-6.0, -2.0, -1.2, -1.02])
    def test_zeta_oracle(self, zeta_family, y0):
        n = 4000  # the last term is below e^(-0.02 n) of the first
        f0, f1, f2 = (brute_force_series(zeta_family, y0, n, k) for k in (0, 1, 2))
        w = f1 / f0
        slope = f2 / f0 - w * w
        y = _certified_root(zeta_family, w, 1e-11)
        assert y == pytest.approx(y0, abs=2e-11 / slope + 1e-13)

    @pytest.mark.parametrize(
        "family, ws",
        [
            (Arithmetic(0.0, 1.0), [1.0 + 1e-9, 1.001, 1.2, 2.0, 9.0, 80.0, 500.0]),
            (Lattice3D(1.0), [3.0 + 1e-6, 3.1, 4.0, 12.0, 40.0, 100.0]),
        ],
    )
    def test_monotone_across_w(self, family, ws):
        ys = [_certified_root(family, w, 1e-10) for w in ws]
        assert all(a < b for a, b in zip(ys, ys[1:]))

    @pytest.mark.parametrize("w", [3.1, 12.0, 40.0, 100.0])
    def test_lattice_near_minus_alpha(self, lattice, w):
        # alpha = 0; at large w the root sits within (3/2)/w of the endpoint,
        # where the sums need thousands of levels
        y = _certified_root(lattice, w, 1e-10)
        if w >= 40.0:
            assert -2.0 / w < y < -1.0 / w

    @pytest.mark.parametrize(
        "family",
        [
            Arithmetic(0.0, 1.0),
            PowerLaw(1.0, 2.0),
            PowerLaw(1.0, 0.5),
            LogLevels(1.0),
            WeightedGeometric(1.0, 3.0),
            Lattice3D(1.0),
            ExplicitPrefix((2.0, 1.0), (0.5, 3.0), Arithmetic(1.0, 1.0)),
        ],
        ids=repr,
    )
    def test_just_above_theta1(self, family):
        prof = profile(family)
        y = _certified_root(family, prof.theta1 * (1.0 + 1e-6), 1e-10)
        assert y < -prof.alpha - 1.0

    @pytest.mark.parametrize(
        "family, v",
        [(Arithmetic(0.0, 1.0), 3.0), (WeightedGeometric(1.0, 3.0), 1.2), (Lattice3D(1.0), 12.0)],
        ids=repr,
    )
    def test_interior_solve_pass_budget(self, monkeypatch, family, v):
        # a pass is one certified sum from n = 1; the secant/bisection
        # inversion took 120-150 of them per interior solve_mb
        solver = EmpSolver(family)
        cls = type(family)
        log_terms = cls.log_terms
        passes = []

        def counting(self, y, lo, hi):
            if lo == 1:
                passes.append(y)
            return log_terms(self, y, lo, hi)

        monkeypatch.setattr(cls, "log_terms", counting)
        sol = solver.solve_mb(1.0, v)
        assert sol.region.value == "interior"
        assert len(passes) <= 20


def _count_passes(monkeypatch, family) -> list:
    """A list that gains the y of every certified series pass (one
    log_terms call from n = 1) on family's class."""
    cls = type(family)
    log_terms = cls.log_terms
    passes = []

    def counting(self, y, lo, hi):
        if lo == 1:
            passes.append(y)
        return log_terms(self, y, lo, hi)

    monkeypatch.setattr(cls, "log_terms", counting)
    return passes


_LADDER_CASES = [
    # family, two interior slopes, and the interior slope range
    (Arithmetic(0.0, 1.0), 3.0, 6.5, (1.02, 9.0)),
    (WeightedGeometric(1.0, 3.0), 1.2, 1.05, (1.02, 1.34)),
    (Lattice3D(1.0), 12.0, 4.5, (3.1, 12.0)),
]


class TestSlopeLadder:
    """Every slope inversion starts from the cached certified slopes at
    y_k = -alpha - 2^(k/4) that bracket its target; an entry depends on
    (family, tol, k, ceiling) alone, and one that raises is not cached."""

    @pytest.mark.parametrize("family, v1, v2, slopes", _LADDER_CASES, ids=repr)
    def test_results_do_not_depend_on_the_filled_entries(self, family, v1, v2, slopes):
        solver = EmpSolver(family)
        lo, hi = slopes
        others = [
            (u, u * float(w)) for u, w in zip([0.5, 1.0, 2.0, 3.5] * 50, np.geomspace(lo, hi, 200))
        ]
        series._ladder_entry.cache_clear()
        cold = repr(solver.solve_mb(1.0, v1))
        for t in others:
            solver.solve_mb(*t)
        warm = repr(solver.solve_mb(1.0, v1))
        series._ladder_entry.cache_clear()
        for t in reversed(others):
            solver.solve_mb(*t)
        reverse = repr(solver.solve_mb(1.0, v1))
        assert warm == cold
        assert reverse == cold

    @pytest.mark.parametrize("family, v1, v2, slopes", _LADDER_CASES, ids=repr)
    def test_cold_and_warm_results_are_identical(self, family, v1, v2, slopes):
        solver = EmpSolver(family)
        calls = [
            lambda: solver.solve_mb(1.0, v1),
            lambda: lnf_conjugate(family, v2, 1e-11),
            lambda: phi_inverse(family, v2, 1e-10),
            lambda: solver.inverse_solve_bf(BE, 1.0, v1),
            lambda: solver.inverse_solve_bf(FD, 1.0, v2),
        ]
        for call in calls:
            series._ladder_entry.cache_clear()
            cold = call()
            misses = series._ladder_entry.cache_info().misses
            warm = call()
            assert series._ladder_entry.cache_info().misses == misses
            assert repr(warm) == repr(cold)

    @pytest.mark.parametrize("family, v1, v2, slopes", _LADDER_CASES, ids=repr)
    def test_a_warm_interior_solve_takes_few_passes(self, monkeypatch, family, v1, v2, slopes):
        # from y = -alpha - 1 alone an interior solve took 5 to 8 passes
        solver = EmpSolver(family)
        for v in (v1, v2):
            solver.solve_mb(1.0, v)
        passes = _count_passes(monkeypatch, family)
        for v in (v1, v2):
            passes.clear()
            assert solver.solve_mb(1.0, v).region.value == "interior"
            assert len(passes) <= 4

    @pytest.mark.parametrize("family, v1, v2, slopes", _LADDER_CASES, ids=repr)
    def test_a_warm_interior_solve_takes_two_passes(self, monkeypatch, family, v1, v2, slopes):
        # a Newton step from the nearer bracketing entry alone took 2.96 to
        # 3.32 passes per solve on these families, at most 4
        solver = EmpSolver(family)
        ws = [float(w) for w in np.geomspace(*slopes, 200)]
        for w in ws:
            solver.solve_mb(1.0, w)
        passes = _count_passes(monkeypatch, family)
        counts = []
        for w in ws:
            passes.clear()
            assert solver.solve_mb(1.0, w).region is Region.INTERIOR
            counts.append(len(passes))
        assert max(counts) <= 3
        assert sum(counts) / len(counts) <= 2.5

    @pytest.mark.parametrize("family, v1, v2, slopes", _LADDER_CASES, ids=repr)
    def test_the_start_lies_inside_the_ladder_bracket(self, monkeypatch, family, v1, v2, slopes):
        # each root starts strictly inside its two bracketing entries, or
        # at the nearer entry; a target at an entry's slope starts and ends
        # there with no new pass
        tol = 1e-10
        starts = []
        newton_root = series.newton_root

        def recording(evaluate, x, first, r_tol, lo, hi, lo_ok, hi_ok):
            starts.append((x, lo, hi))
            return newton_root(evaluate, x, first, r_tol, lo, hi, lo_ok, hi_ok)

        monkeypatch.setattr(series, "newton_root", recording)
        for w in np.geomspace(*slopes, 40):
            starts.clear()
            phi_inverse(family, float(w), tol)
            inner, outer = series._ladder_bracket(family, float(w), tol, 1.0)
            [(x, lo, hi)] = starts
            assert (lo, hi) == tuple(sorted((inner[0], outer[0])))
            assert lo < x < hi
        entry = series._ladder_entry(family, tol, 2)
        passes = _count_passes(monkeypatch, family)
        assert phi_inverse(family, entry[1], tol) == entry[0]
        assert passes == []

    def test_the_start_falls_back_without_a_usable_interpolant(self):
        # entries (y, phi, phi', ...) on Arithmetic(0, 1) (theta1 = 1, alpha = 0)
        inner, outer = (-2.0, 1.2, 0.2), (-1.0, 1.6, 0.9)
        assert -2.0 < series._hermite_start(inner, outer, 1.4, 1.0, 0.0) < -1.0
        assert math.isnan(series._hermite_start((-2.0, 1.2, 0.0), outer, 1.4, 1.0, 0.0))
        assert math.isnan(series._hermite_start((-2.0, 1.0, 0.2), outer, 1.4, 1.0, 0.0))
        assert math.isnan(series._hermite_start(inner, (-1.0, 1.2, 0.9), 1.2, 1.0, 0.0))

    def test_threads_sharing_a_solver_match_serial_results(self):
        solver = EmpSolver(Lattice3D(1.0))
        targets = [(1.0, v) for v in (3.3, 4.5, 6.0, 8.0, 12.0, 20.0)]
        serial = [repr(solver.solve_mb(u, v)) for u, v in targets]
        results = {}
        barrier = threading.Barrier(2)

        def work(name, order):
            barrier.wait()
            results[name] = {i: repr(solver.solve_mb(*targets[i])) for i in order}

        series._ladder_entry.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            n = len(targets)
            threads = [
                threading.Thread(target=work, args=("up", range(n))),
                threading.Thread(target=work, args=("down", range(n - 1, -1, -1))),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for name in ("up", "down"):
            assert [results[name][i] for i in range(len(targets))] == serial

    def test_a_budget_error_at_the_start_is_not_cached(self):
        # PowerLaw(1, 0.5) terms at y = -1 fall like e^-sqrt(n): no tail
        # bracket reaches a 1e-300 target, and the k = 0 entry gives up
        family = PowerLaw(1.0, 0.5)
        series._ladder_entry.cache_clear()
        for _ in range(2):
            with pytest.raises(BudgetError):
                phi_inverse(family, 1.5, 1e-300)
        info = series._ladder_entry.cache_info()
        assert (info.misses, info.currsize) == (2, 0)

    def test_the_ladder_ends_at_an_entry_that_raises(self):
        # at tol 2.5e-13 PowerLaw(1, 0.5) certifies its slope at y_-7 =
        # -2^(-7/4) but not at y_-15 (the terms e^(y sqrt(n)) fall too
        # slowly), where the search from k = 0 through -1, -3 and -7 goes
        # next; the root beyond y_-7 is found one-sided from there
        family, tol = PowerLaw(1.0, 0.5), 2.5e-13
        series._ladder_entry.cache_clear()
        w = series._ladder_entry(family, tol, -7)[1] + 0.1
        y = phi_inverse(family, w, tol)
        assert -(2.0 ** -1.75) < y < -0.25
        assert abs(y - _certified_root(family, w, 1e-10)) <= 1e-9
        before = series._ladder_entry.cache_info()
        with pytest.raises(BudgetError):
            series._ladder_entry(family, tol, -15)
        series._ladder_entry(family, tol, -7)
        after = series._ladder_entry.cache_info()
        assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)

    @pytest.mark.parametrize("w", [0.0101, 0.01001])
    def test_root_left_of_the_ladder(self, w):
        # on Arithmetic(0, 0.01) these roots lie near y = -462 and -691, left
        # of the ladder's last entry at y = -64: Newton runs with no left
        # bracket, its steps capped at 1, 2, 4, ...  phi(y) = 0.01/(1 - e^(0.01 y))
        family = Arithmetic(0.0, 0.01)
        y = phi_inverse(family, w, 1e-10)
        assert y < -64.0
        assert abs(-0.01 / math.expm1(0.01 * y) - w) <= 1e-10
        if w == 0.0101:
            assert EmpSolver(family).solve_mb(1.0, w).region is Region.INTERIOR


class TestLnfConjugate:
    def test_at_theta1(self, geometric):
        assert lnf_conjugate(geometric, 1.0, 1e-12) == 0.0

    def test_interior(self, geometric):
        assert lnf_conjugate(geometric, 2.0, 1e-12) == pytest.approx(-2 * LN2, abs=1e-11)

    def test_below_theta1(self, geometric):
        assert math.isinf(lnf_conjugate(geometric, 0.5, 1e-10))

    def test_beyond_theta2(self, zeta_family):
        got = lnf_conjugate(zeta_family, 2.0, 1e-10)
        assert got == pytest.approx(-2.0 - math.log(ZETA3), abs=1e-9)

    def test_right_continuity_at_theta1(self, geometric):
        branch = lnf_conjugate(geometric, 1.0, 1e-12)
        near = lnf_conjugate(geometric, 1.0 + 1e-8, 1e-12)
        assert abs(near - branch) <= 1e-5

    def test_continuity_at_theta2(self, zeta_family):
        # approaching theta2 from inside, the interior branch meets the
        # affine branch with slope -alpha (C^1 fit, second order remainder)
        prof = profile(zeta_family)
        step = 1e-4
        at = lnf_conjugate(zeta_family, prof.theta2, 1e-11)
        below = lnf_conjugate(zeta_family, prof.theta2 - step, 1e-11)
        assert abs(at - below) <= 1.01 * prof.alpha * step
        assert abs(at - below + prof.alpha * step) <= 1e-7

    @settings(max_examples=25, deadline=None)
    @given(st.floats(-5.0, -0.1), st.floats(-5.0, -0.1), st.floats(0.05, 0.95))
    def test_lnf_convexity(self, geometric, y1, y2, lam):
        mid = lam * y1 + (1 - lam) * y2
        lf = lambda y: math.log(eval_f(geometric, y, 1e-13).value)
        assert lf(mid) <= lam * lf(y1) + (1 - lam) * lf(y2) + 1e-10


class TestEvalH:
    def test_mb_factorizes(self, geometric):
        assert eval_h(geometric, MB, 0.0, -LN2, 1e-12) == pytest.approx(1.0, abs=1e-12)
        assert eval_h(geometric, MB, math.log(3.0), -LN2, 1e-11) == pytest.approx(
            3.0, abs=1e-10
        )

    def test_be_value(self, geometric):
        got = eval_h(geometric, BE, 0.0, -LN2, 1e-12)
        assert got == pytest.approx(BE_H_AT_0_LN2, abs=1e-11)

    def test_fd_outside_dom_f(self, geometric):
        assert math.isinf(eval_h(geometric, FD, 5.0, 0.0, 1e-10))

    def test_be_dom_condition(self, geometric):
        # x + theta1 y >= 0 puts the point outside dom h_BE
        assert math.isinf(eval_h(geometric, BE, 1.0, -1.0, 1e-10))

    def test_mb_equals_gradient_moment_zero(self):
        # the maxwell-boltzmann dual sum and the first gradient component
        # are the same certified sum of p_n exp(x + sigma_n y)
        fam = Arithmetic(0.0, 1.0)
        x, y = 0.231763158945975, -2.4247586250488715
        assert eval_h(fam, MB, x, y) == grad_h(fam, MB, x, y)[0]

    def test_huge_x_is_a_range_error(self, geometric):
        for kind in (MB, FD):
            with pytest.raises(RangeError):
                eval_h(geometric, kind, 800.0, -1.0)
            with pytest.raises(RangeError):
                grad_h(geometric, kind, 800.0, -1.0)

    @pytest.mark.parametrize("kind", [MB, FD])
    @pytest.mark.parametrize("which", [eval_h, grad_h])
    def test_infinite_x_is_a_range_error(self, kind, which):
        # math.exp(inf) returns inf without raising: the sums ran 4096 terms
        # and ended in a BudgetError on a nan tail width
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RangeError):
                which(Arithmetic(0.0, 1.0), kind, math.inf, -1.0)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(-2.0, 2.0), st.floats(-4.0, -0.1))
    def test_mb_factorization_property(self, geometric, x, y):
        lhs = eval_h(geometric, MB, x, y, 1e-11)
        rhs = math.exp(x) * eval_f(geometric, y, 1e-12).value
        assert lhs == pytest.approx(rhs, rel=1e-9)


class TestGradH:
    def test_mb_values(self, geometric):
        assert grad_h(geometric, MB, 0.0, -LN2, 1e-11) == pytest.approx((1.0, 2.0), abs=1e-10)
        assert grad_h(geometric, MB, math.log(3.0), -LN2, 1e-10) == pytest.approx(
            (3.0, 6.0), abs=1e-9
        )

    def test_zeta_identities(self, zeta_family):
        u, v = grad_h(zeta_family, MB, 0.0, -1.0, 1e-9)
        assert u == pytest.approx(ZETA3, abs=1e-9)
        assert v == pytest.approx(ZETA2, abs=1e-9)

    def test_domain_error_outside(self, zeta_family):
        with pytest.raises(DomainError):
            grad_h(zeta_family, MB, 0.0, -0.5, 1e-9)

    def test_case_b_boundary_gradient_diverges(self, case_b_family):
        with pytest.raises(DomainError):
            grad_h(case_b_family, MB, 0.0, -1.0, 1e-9)

    @pytest.mark.parametrize("kind,x", [(MB, 0.3), (FD, 0.3), (BE, -0.2)])
    def test_matches_finite_differences(self, geometric, kind, x):
        y, h = -0.9, 1e-5
        gu, gv = grad_h(geometric, kind, x, y, 1e-12)
        du = (eval_h(geometric, kind, x + h, y, 1e-13) - eval_h(geometric, kind, x - h, y, 1e-13)) / (2 * h)
        dv = (eval_h(geometric, kind, x, y + h, 1e-13) - eval_h(geometric, kind, x, y - h, 1e-13)) / (2 * h)
        assert abs(gu - du) <= 1e-5 and abs(gv - dv) <= 1e-5

    @pytest.mark.parametrize("kind", [MB, BE, FD])
    def test_hessian_matches_grad_differences(self, geometric, kind):
        x, y, h = -0.5, -1.1, 1e-5
        h00, h01, h11 = hessian_h(geometric, kind, x, y, 1e-12)
        gux_p = grad_h(geometric, kind, x + h, y, 1e-13)
        gux_m = grad_h(geometric, kind, x - h, y, 1e-13)
        guy_p = grad_h(geometric, kind, x, y + h, 1e-13)
        guy_m = grad_h(geometric, kind, x, y - h, 1e-13)
        assert abs((gux_p[0] - gux_m[0]) / (2 * h) - h00) <= 1e-5
        assert abs((guy_p[0] - guy_m[0]) / (2 * h) - h01) <= 1e-5
        assert abs((guy_p[1] - guy_m[1]) / (2 * h) - h11) <= 1e-5


def _close(a, b, bound):
    """|a - b| <= bound, plus the rounding of the partial sums, which the
    certified tail bounds do not cover."""
    return abs(a - b) <= bound + 8 * sys.float_info.epsilon * max(abs(a), abs(b))


class TestDualPoint:
    """One pass for h_W, its gradient and its Hessian against the separate
    passes of eval_h, grad_h and hessian_h."""

    POINTS = [
        (Arithmetic(0.0, 1.0), -0.3, -0.9),
        (WeightedGeometric(1.0, 3.0), -0.5, -1.6),
        (Lattice3D(1.0), -0.4, -0.5),
    ]

    @pytest.mark.parametrize("kind", [BE, FD])
    @pytest.mark.parametrize("family, x, y", POINTS, ids=repr)
    def test_fused_sums_match_separate_passes(self, family, x, y, kind):
        tol = 1e-11
        fused = _dual_point(family, kind, x, y, tol)
        separate = (
            _dual_sums(family, kind, x, y, {("conj", 0): tol})
            + _dual_sums(family, kind, x, y, {("grad", 0): tol, ("grad", 1): tol})
            + _dual_sums(family, kind, x, y, dict.fromkeys(_HESSIAN, tol))
        )
        assert eval_h(family, kind, x, y, tol) == separate[0].value
        assert grad_h(family, kind, x, y, tol) == (separate[1].value, separate[2].value)
        assert hessian_h(family, kind, x, y, tol) == tuple(s.value for s in separate[3:])
        for f, s in zip(fused, separate):
            assert f.tail_bound_used <= tol
            assert _close(f.value, s.value, f.tail_bound_used + s.tail_bound_used)

    @pytest.mark.parametrize("kind, x", [(MB, 0.3), (BE, -0.5), (FD, 0.2)])
    def test_case_c_forward_solve_at_the_boundary(self, zeta_family, kind, x):
        # y = -alpha: the boundary brackets, and no Hessian
        solver = EmpSolver(zeta_family)
        y = -1.0
        sol = solver.forward_solve(kind, x, y)
        h, gu, gv = _dual_point(zeta_family, kind, x, y, solver.tol, hessian=False)
        assert (sol.u, sol.v) == (gu.value, gv.value)
        assert sol.value == x * gu.value + y * gv.value - h.value
        sh = _dual_sums(zeta_family, kind, x, y, {("conj", 0): solver.tol})[0]
        su, sv = _dual_sums(zeta_family, kind, x, y, {("grad", 0): solver.tol, ("grad", 1): solver.tol})
        assert eval_h(zeta_family, kind, x, y, solver.tol) == sh.value
        assert _close(sol.u, su.value, gu.tail_bound_used + su.tail_bound_used)
        assert _close(sol.v, sv.value, gv.tail_bound_used + sv.tail_bound_used)
        bound = (
            abs(x) * (gu.tail_bound_used + su.tail_bound_used)
            + abs(y) * (gv.tail_bound_used + sv.tail_bound_used)
            + h.tail_bound_used + sh.tail_bound_used
        )
        assert _close(sol.value, x * su.value + y * sv.value - sh.value, bound)
        with pytest.raises(DomainError):
            _dual_point(zeta_family, kind, x, y, solver.tol)

    def test_maxwell_boltzmann_sums_use_no_multiplier(self, monkeypatch):
        # the f sums, slope passes among them, never touch the multiplier
        # machinery of the bose-einstein and fermi-dirac sums
        def fail(*args):
            raise AssertionError("multiplier work on a maxwell-boltzmann sum")

        monkeypatch.setattr(series, "_mult_arrays", fail)
        monkeypatch.setattr(series, "_mult_bounds", fail)
        sol = EmpSolver(WeightedGeometric(1.0, 3.0)).solve_mb(1.0, 1.2)
        assert sol.region.value == "interior"
        assert eval_f(Lattice3D(1.0), -0.8, 1e-12).tail_bound_used <= 1e-12


class TestBoundarySubdifferential:
    def test_zeta_at_origin_multiplier(self, zeta_family):
        half = boundary_subdifferential(zeta_family, MB, 0.0, 1e-10)
        assert half.u == pytest.approx(ZETA3, abs=1e-9)
        assert half.v_min == pytest.approx(ZETA2, abs=1e-9)

    def test_scaling_in_x(self, zeta_family):
        half = boundary_subdifferential(zeta_family, MB, math.log(2.0), 1e-10)
        assert half.u == pytest.approx(2 * ZETA3, abs=1e-8)
        assert half.v_min == pytest.approx(2 * ZETA2, abs=1e-8)

    def test_case_b_is_empty(self, case_b_family):
        assert boundary_subdifferential(case_b_family, MB, 0.0, 1e-9) is None

    def test_case_a_precondition(self, geometric):
        with pytest.raises(DomainError):
            boundary_subdifferential(geometric, MB, 0.0, 1e-9)

    def test_be_needs_domain(self, zeta_family):
        # x - theta1 alpha >= 0 lies outside dom h_BE
        with pytest.raises(DomainError):
            boundary_subdifferential(zeta_family, BE, 2.0, 1e-9)


_EDGE_FAMILIES = [
    Arithmetic(0.0, 1.0),
    WeightedGeometric(1.0, 3.0),
    Lattice3D(1.0),
    PowerLaw(1.0, 0.5),
]


class TestFloatEdges:
    @pytest.mark.parametrize("family", _EDGE_FAMILIES, ids=repr)
    @pytest.mark.parametrize(
        "call, args",
        [
            ("eval_f", (math.nan,)),
            *(
                (name, (kind, x, y))
                for name in ("eval_h", "grad_h", "hessian_h")
                for kind in (MB, BE, FD)
                for x, y in ((math.nan, -1.5), (0.0, math.nan))
            ),
        ],
        ids=str,
    )
    def test_nan_is_a_range_error(self, monkeypatch, family, call, args):
        # nan passed the y > -alpha tests and the exp(x) guard, so the
        # sums ran on nan terms: 4,096 terms, or the whole 2^23-term budget
        passes = _count_passes(monkeypatch, family)
        with pytest.raises(RangeError):
            getattr(series, call)(family, *args)
        assert passes == []

    @pytest.mark.parametrize(
        "family",
        [
            Lattice3D(1.0),
            ShiftedSigma(Lattice3D(1.0), 2.0),
            ShiftedSigma(WeightedGeometric(1.0, 3.0), 0.5),
            ShiftedSigma(Arithmetic(0.0, 1.0), 0.5),
            ShiftedSigma(Arithmetic(0.0, 1.0), 0.0),
        ],
        ids=repr,
    )
    def test_minus_inf_y_sums_to_zero(self, family):
        # every level is positive, so every term is 0; Lattice3D's tail
        # bound took exp(-inf + inf) = nan, and the shifted log terms
        # -inf - shift * y were nan with numpy's "invalid value" warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert eval_f(family, -math.inf).value == 0.0
            assert eval_f_derivatives(family, -math.inf) == (0.0, 0.0, 0.0)
            for kind, x in ((MB, 0.0), (BE, -1.0), (FD, 3.0)):
                assert eval_h(family, kind, x, -math.inf) == 0.0
                assert grad_h(family, kind, x, -math.inf) == (0.0, 0.0)

    @pytest.mark.parametrize("family", _EDGE_FAMILIES, ids=repr)
    @pytest.mark.parametrize("kind", [MB, BE, FD])
    @pytest.mark.parametrize("x", [0.0, -1.0, 3.0, -1.7e308])
    def test_huge_negative_y_warns_of_no_overflow(self, family, kind, x):
        # sigma_n y (and x + sigma_n y) overflow to -inf, whose terms are 0;
        # the rule's terms, its objective and the biconjugate check leaked
        # numpy's "overflow encountered in multiply"
        y = -1.7e308
        solver = EmpSolver(family)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solver.forward_solve(kind, x, y)
            assert (sol.region.value, sol.u, sol.v, sol.value) == ("origin", 0.0, 0.0, 0.0)
            assert sol.solution.prefix(3) == [0.0] * 3
            assert solver.objective_value(kind, sol.solution) == 0.0
            if kind is MB:
                assert solver.biconjugate_check(x, y, 64) == (0.0, 0.0)
            assert eval_h(family, kind, x, y) == 0.0
            assert grad_h(family, kind, x, y) == (0.0, 0.0)
            assert hessian_h(family, kind, x, y) == (0.0, 0.0, 0.0)
            if x == 0.0:
                assert eval_f(family, y).value == 0.0
                assert eval_f_derivatives(family, y) == (0.0, 0.0, 0.0)


# -- the kernel against its block-loop reference ------------------------------


def _kernel_outcome(kernel, *args):
    """repr of each SeriesEval's (value, truncation_n, tail_bound_used), or
    the type and message of the exception the kernel raised."""
    try:
        with np.errstate(all="ignore"):
            out = kernel(*args)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)
    return [repr((s.value, s.truncation_n, s.tail_bound_used)) for s in out]


_KERNEL_TOLS = (1e-15, 1e-12, 1e-10, 1e-6, 1e-3, math.inf)
_KERNEL_KEYS = st.tuples(st.sampled_from([None, "conj", "grad", "hess"]), st.integers(0, 2))


@st.composite
def _kernel_calls(draw):
    """(family, y, tols, x, kind, ceiling) for series._eval_many: a family of
    _FAMILY_POINTS at y from 0.6 to 4 times its y's distance from -alpha
    (or at -alpha where it is summable), under each entropy, with a
    tolerance set that may hold math.inf and a ceiling."""
    family, y0 = draw(st.sampled_from(_FAMILY_POINTS))
    a = family.alpha
    if family.boundary_divergent(0) is False and draw(st.booleans()):
        y = -a
    else:
        y = -a + draw(st.floats(0.6, 4.0)) * (y0 + a)
    kind = draw(st.sampled_from([MB, BE, FD]))
    if kind is BE:  # x + sigma_1 y < 0 but for a few draws
        x = -family.sigma(1) * y - draw(st.floats(-0.5, 3.0))
    else:
        x = draw(st.floats(-3.0, 2.0))
    tols = draw(st.dictionaries(_KERNEL_KEYS, st.sampled_from(_KERNEL_TOLS), min_size=1, max_size=4))
    ceiling = draw(st.sampled_from([1.0, 1.0, 1e3, 1e5]))
    return family, y, tols, x, kind, ceiling


class TestKernelMatchesReference:
    """series._eval_many walks the block ends on the brackets alone and sums
    its terms once; the block loop it replaced, tests/conftest.py's
    ref_eval_many, built every block's arrays.  Every SeriesEval must agree
    to the bit, and every error in type and message."""

    @settings(max_examples=80, deadline=None)
    @given(_kernel_calls())
    def test_random_passes(self, call):
        assert _kernel_outcome(series._eval_many, *call) == _kernel_outcome(ref_eval_many, *call)

    @pytest.mark.parametrize("family,y", _FAMILY_POINTS)
    @pytest.mark.parametrize("kind,x", [(MB, 0.0), (MB, -1.3), (BE, None), (FD, 1.5)])
    def test_family_points(self, family, y, kind, x):
        # tight and loose sums together, so passes stop past one block and
        # past 4096 terms, some at a ceiling and some with a BudgetError
        if x is None:
            x = -family.sigma(1) * y - 0.5
        keys = [(None, 0), (None, 1), (None, 2)] if kind is MB else [("conj", 0), ("grad", 1), ("hess", 2)]
        for tol in (1e-14, 1e-9):
            for ceiling in (1.0, 1e4):
                call = (family, y, dict(zip(keys, (tol, 1e-3, tol))), x, kind, ceiling)
                got = _kernel_outcome(series._eval_many, *call)
                assert got == _kernel_outcome(ref_eval_many, *call)

