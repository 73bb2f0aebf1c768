"""Partition series analysis: certified values of f and its derivatives,
endpoint profiles, the slope bijection and its inverse, the conjugate of
ln f, and the dual sums h_W with gradients and boundary subdifferentials."""

import ast
import functools
import gc
import json
import math
import sys
import threading
import warnings
import weakref
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

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
    EmpError,
    EmpSolution,
    EmpSolver,
    Entropy,
    ExplicitPrefix,
    InverseFailure,
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
from entromin import _work, sequences, series
from entromin.series import _HESSIAN, _dual_point, _dual_sums, _invert_slope, hessian_h
from entromin.sequences import sigma_min_set

from conftest import (
    LN2,
    ZETA2,
    ZETA3,
    boundary_subdifferential,
    brute_force_series,
    eval_f_derivatives,
    ref_block_sums,
    ref_conj_row,
    ref_eval_many,
    ref_ladder_bracket,
    zeta_oracle,
)
from test_sequences import _FAMILY_POINTS, _LIBRARY_FAMILIES

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

    def test_unit_arithmetic_is_exact_up_to_the_endpoint(self):
        # f(y) = e^y / (1 - e^y) within 1e-15 relative at 200 log-spaced y
        # in [-3.16, -1e-6]; while the tail took the ratio route's
        # r / (1 - r), whose 1 - r cancels near y = 0, 69 of them were off
        # by up to 4.2e-11
        mpmath = pytest.importorskip("mpmath")
        fam = Arithmetic(0.0, 1.0)
        with mpmath.workdps(40):
            for y in (-np.geomspace(1e-6, 3.16, 200)).tolist():
                want = mpmath.exp(y) / -mpmath.expm1(y)
                assert abs(eval_f(fam, y, 1e-12).value - want) <= 1e-15 * want


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

    def sigma_array(self, lo, hi):
        return np.arange(lo, hi + 1, dtype=float)

    def log_terms(self, y, lo, hi):
        return self.sigma_array(lo, hi) * y



class _DeclaredAlpha(Arithmetic):
    """Unit weights, sigma_n = n, declaring alpha = 1: its tails converge at -1/2."""

    @property
    def alpha(self):
        return 1.0


class _NoTails(Arithmetic):
    """Unit weights, sigma_n = n, with no tail bracket certified anywhere."""

    def tail_intervals(self, y, n, moments):
        return [None] * len(moments)

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


    @pytest.mark.parametrize("family, error, message", [
        (Arithmetic(1.0, 0.0), UnsupportedFamilyError, "constant levels: the problem is degenerate"),
        (sequences.ExplosiveWeights(), UnsupportedFamilyError, "dom f empty: the problem is degenerate"),
        (Arithmetic(0.0, -1.0), UnsupportedFamilyError, "levels must increase to +inf; normalize first"),
        (Arithmetic(-2.0, 1.0), UnsupportedFamilyError,
         "levels must be positive (min sigma = -1.0); shift first"),
        (_DeclaredAlpha(), ConfigurationError,
         "declared alpha=1.0 contradicted by a convergent tail at y=-0.5"),
        (_NoTails(), ConfigurationError, "f could not be certified finite at y=-1.0: series tails"),
    ])
    def test_refusals(self, family, error, message):
        with pytest.raises(error) as refused:
            profile(family)
        assert type(refused.value) is error and str(refused.value).startswith(message)

    @pytest.mark.parametrize("shift", [-745.0, -800.0, -1000.0])
    def test_underflowing_boundary_value_is_unsupported(self, shift):
        # every level raised by -shift: f(-alpha) is subnormal or 0, and
        # theta2 = gamma / f(-alpha) raised ZeroDivisionError (or, at -745,
        # came out equal to theta1 = 746)
        fam = ShiftedSigma(WeightedGeometric(1.0, 3.0), shift)
        with pytest.raises(UnsupportedFamilyError, match="underflows below the normal floats"):
            profile(fam)
        with pytest.raises(UnsupportedFamilyError, match="underflows below the normal floats"):
            EmpSolver(fam)

    def test_tiny_normal_boundary_value(self):
        fam = ShiftedSigma(WeightedGeometric(1.0, 3.0), -700.0)
        assert profile(fam).theta2 == 701.3684337781708
        assert EmpSolver(fam).profile.theta2 == 701.3684337781708


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
        root = _invert_slope(geometric, w, 1e-12)
        y, f_y = root.y, root.f
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

        def counting(self, y, lo, hi, *arrays):
            if lo == 1:
                passes.append(y)
            return log_terms(self, y, lo, hi, *arrays)

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

    def counting(self, y, lo, hi, *arrays):
        if lo == 1:
            passes.append(y)
        return log_terms(self, y, lo, hi, *arrays)

    monkeypatch.setattr(cls, "log_terms", counting)
    return passes


def _count_ladder_fills(monkeypatch) -> list:
    """A list that gains (family, k) for every slope-ladder entry computed
    from here on: each read of an entry its family's table does not hold
    (series._Ladder.rung), whether it raises or not."""
    fills = []
    rung = series._Ladder.rung

    def counting(self, k):
        if k not in self.rungs:
            fills.append((self.family, k))
        return rung(self, k)

    monkeypatch.setattr(series._Ladder, "rung", counting)
    return fills


_LADDER_CASES = [
    # family, two interior slopes, and the interior slope range
    (Arithmetic(0.0, 1.0), 3.0, 6.5, (1.02, 9.0)),
    (WeightedGeometric(1.0, 3.0), 1.2, 1.05, (1.02, 1.34)),
    (Lattice3D(1.0), 12.0, 4.5, (3.1, 12.0)),
]


def _fresh(family):
    """An equal but distinct instance of family: its sigma-min set, profile
    and slope ladder, which each instance keeps, start cold."""
    return replace(family)


class TestSlopeLadder:
    """Every slope inversion starts from the kept rough slopes at y_k =
    -alpha - 2^(k/4) that prove they bracket its target; an entry depends
    on (family, k) alone, and one that raises is not kept."""

    @pytest.mark.parametrize("family, v1, v2, slopes", _LADDER_CASES, ids=repr)
    def test_results_do_not_depend_on_the_filled_entries(self, family, v1, v2, slopes):
        solver = EmpSolver(_fresh(family))
        lo, hi = slopes
        others = [
            (u, u * float(w)) for u, w in zip([0.5, 1.0, 2.0, 3.5] * 50, np.geomspace(lo, hi, 200))
        ]
        cold = repr(solver.solve_mb(1.0, v1))
        for t in others:
            solver.solve_mb(*t)
        warm = repr(solver.solve_mb(1.0, v1))
        solver = EmpSolver(_fresh(family))
        for t in reversed(others):
            solver.solve_mb(*t)
        reverse = repr(solver.solve_mb(1.0, v1))
        assert warm == cold
        assert reverse == cold

    @pytest.mark.parametrize("family, v1, v2, slopes", _LADDER_CASES, ids=repr)
    def test_cold_and_warm_results_are_identical(self, monkeypatch, family, v1, v2, slopes):
        # each call twice on a solver of a fresh family: the second fills
        # no ladder entry and returns the first's result
        calls = [
            lambda es: es.solve_mb(1.0, v1),
            lambda es: lnf_conjugate(es.family, v2, 1e-11),
            lambda es: phi_inverse(es.family, v2, 1e-10),
            lambda es: es.inverse_solve_bf(BE, 1.0, v1),
            lambda es: es.inverse_solve_bf(FD, 1.0, v2),
        ]
        fills = _count_ladder_fills(monkeypatch)
        for call in calls:
            solver = EmpSolver(_fresh(family))
            cold = call(solver)
            misses = len(fills)
            warm = call(solver)
            assert len(fills) == misses
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
        # at the nearer entry
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
            inner, outer = family._ladder.bracket(float(w))
            [(x, lo, hi)] = starts
            assert (lo, hi) == tuple(sorted((inner[0], outer[0])))
            assert lo < x < hi

    def test_the_start_falls_back_without_a_usable_interpolant(self):
        # entries (y, phi, phi') on Arithmetic(0, 1) (theta1 = 1, alpha = 0)
        # and their Hermite nodes (series._hermite_node)
        def entry(y, p, dp):
            return series._hermite_node(series._Slope(y, p, dp, None, None, 0.0, None), 1.0, 0.0)

        inner, outer = entry(-2.0, 1.2, 0.2), entry(-1.0, 1.6, 0.9)
        assert -2.0 < series._hermite_start(inner, outer, 1.4, 1.0, 0.0) < -1.0
        assert math.isnan(series._hermite_start(entry(-2.0, 1.2, 0.0), outer, 1.4, 1.0, 0.0))
        assert math.isnan(series._hermite_start(entry(-2.0, 1.0, 0.2), outer, 1.4, 1.0, 0.0))
        assert math.isnan(series._hermite_start(inner, entry(-1.0, 1.2, 0.9), 1.2, 1.0, 0.0))

    @pytest.mark.parametrize("family", [case[0] for case in _LADDER_CASES], ids=repr)
    def test_an_entry_within_its_err_bounds_no_root(self, monkeypatch, family):
        # a rough entry's phi holds only within its err: at w = phi_k -+
        # err_k / 2, for k = 0 and for the kept entry k = 2 that the search
        # bisects to, the entry decides no side of w.  The root agrees with
        # a pass-only root (no model), and newton_root is told an end is
        # proved only where it is -inf, -alpha or an entry whose |phi - w|
        # exceeds its err
        tol, a = 1e-10, family.alpha
        ladder = family._ladder
        calls = []
        newton_root = series.newton_root

        def recording(evaluate, x, first, r_tol, lo, hi, lo_ok, hi_ok):
            calls.append((lo, hi, lo_ok, hi_ok))
            return newton_root(evaluate, x, first, r_tol, lo, hi, lo_ok, hi_ok)

        cases = []
        for k in (0, 2):
            e = ladder.rung(k)
            for w in (e.phi - 0.5 * e.slope.err, e.phi + 0.5 * e.slope.err):
                assert not abs(e.phi - w) > e.slope.err
                cases.append(w)
        monkeypatch.setattr(series, "newton_root", recording)
        roots = [phi_inverse(family, w, tol) for w in cases]
        entries = {e.y: e for e in ladder.rungs.values()}
        for w, (lo, hi, lo_ok, hi_ok) in zip(cases, calls, strict=True):
            for end, ok in ((lo, lo_ok), (hi, hi_ok)):
                if end not in (-math.inf, -a):
                    e = entries[end]
                    assert ok <= (abs(e.phi - w) > e.slope.err)
        monkeypatch.setattr(series, "_model_moments", lambda *args: None)
        for w, y in zip(cases, roots):
            y_pass = _certified_root(family, w, tol)
            assert abs(phi(family, y, 1e-14) - phi(family, y_pass, 1e-14)) <= tol

    def test_threads_sharing_a_solver_match_serial_results(self):
        # two threads share a solver of a fresh family, its ladder cold
        targets = [(1.0, v) for v in (3.3, 4.5, 6.0, 8.0, 12.0, 20.0)]
        alone = EmpSolver(Lattice3D(1.0))
        serial = [repr(alone.solve_mb(u, v)) for u, v in targets]
        solver = EmpSolver(Lattice3D(1.0))
        results = {}
        barrier = threading.Barrier(2)

        def work(name, order):
            barrier.wait()
            results[name] = {i: repr(solver.solve_mb(*targets[i])) for i in order}

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

    def test_a_budget_error_at_the_start_is_not_cached(self, monkeypatch):
        # PowerLaw(1.5, 0.195) terms at y = -1 fall like e^(-1.5 n^0.195):
        # f(-1) is certified to the profile's 1e-6, but the k = 0 entry's
        # rough pass gives up on its moments 0 to 2 at 1e-4
        family = PowerLaw(1.5, 0.195)
        fills = _count_ladder_fills(monkeypatch)
        for _ in range(2):
            with pytest.raises(BudgetError):
                phi_inverse(family, 2.0, 1e-10)
        assert (len(fills), family._ladder.rungs) == (2, {})

    def test_the_ladder_ends_at_an_entry_that_raises(self, monkeypatch):
        # on Arithmetic(12, 0.01) f(y_k) underflows to 0 at y_24 = -64
        # (every term is below e^-768), where the search from k = 0 through
        # 1, 3, 7 and 15 goes next, but not at y_15 = -2^(15/4); the root
        # beyond y_15 is found one-sided from there
        family, tol = Arithmetic(12.0, 0.01), 1e-10
        ladder = family._ladder
        w = ladder.rung(15).phi - 0.01
        y = phi_inverse(family, w, tol)
        assert -64.0 < y < -(2.0**3.75)
        assert abs(y - _certified_root(family, w, 1e-10)) <= 1e-9
        fills = _count_ladder_fills(monkeypatch)
        with pytest.raises(RangeError):
            ladder.rung(24)
        ladder.rung(15)
        assert fills == [(family, 24)]
        assert 24 not in ladder.rungs

    @pytest.mark.parametrize("family, v1, v2, slopes", _LADDER_CASES, ids=repr)
    def test_brackets_and_entries_match_the_reference_gallop(self, monkeypatch, family, v1, v2, slopes):
        # mb-point's interior slopes on the family (a stratified geometric
        # draw over the same range), as a solve's slope root reads the
        # ladder: a cold run and a warm rerun return the same (bracket,
        # start), the brackets of tests/conftest.py's ref_ladder_bracket over
        # the rough slopes (series._rough_slope), and the ladder of a fresh
        # family computes the entries that gallop computed, the warm run none
        family = _fresh(family)
        prof = profile(family)
        rng = np.random.default_rng(9001)
        edges = np.geomspace(*slopes, 241)
        ws = [float(w) for w in rng.uniform(edges[:-1], edges[1:])]
        ladder = family._ladder
        computed = {}

        def entry(k):
            if k not in computed:
                y = -family.alpha - 2.0 ** (0.25 * k)
                try:
                    computed[k] = series._rough_slope(family, y)
                except (BudgetError, RangeError):
                    computed[k] = None
            return computed[k]

        def start(w):
            (lo, hi), s, y_h, _ = series._ladder_start(ladder, prof, w)
            return lo, hi, s.y, y_h

        cold = [start(w) for w in ws]
        for w in ws:
            inner, outer = ladder.bracket(w)
            ref_inner, ref_outer = ref_ladder_bracket(entry, w)
            assert (inner.y, inner.phi, outer.y, outer.phi) == (
                ref_inner.y, ref_inner.phi, ref_outer.y, ref_outer.phi)
        assert set(ladder.rungs) == {k for k, s in computed.items() if s is not None}
        fills = _count_ladder_fills(monkeypatch)
        assert [start(w) for w in ws] == cold
        assert fills == []

    def test_threads_filling_one_ladder_match_serial_brackets(self):
        # four threads fill the one cold ladder of a fresh family at a 1 us
        # switch interval, each bracketing and inverting the slopes in its
        # own order: every bracket and root, and the entries and model rungs
        # kept, are those of a serial run on another fresh family
        tol = 1e-10
        ws = [float(w) for w in np.geomspace(1.02, 9.0, 60)]

        def ends(w):
            inner, outer = family._ladder.bracket(w)
            return inner.y, outer.y, phi_inverse(family, w, tol)

        def kept():
            return set(family._ladder.rungs), dict(family._ladder.models)

        family = Arithmetic(0.0, 1.0)
        serial = [ends(w) for w in ws]
        serial_kept = kept()
        assert serial_kept[1]
        family = Arithmetic(0.0, 1.0)
        assert kept() == (set(), {})  # made here, so every thread reads this one
        results, errors = {}, []

        def work(seed):
            try:
                order = np.random.default_rng(seed).permutation(len(ws)).tolist()
                results[seed] = {j: ends(ws[j]) for j in order}
            except Exception as exc:  # reported below, from the test's thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        for got in results.values():
            assert [got[j] for j in range(len(ws))] == serial
        assert kept() == serial_kept

    def test_every_caller_shares_one_set_of_model_rungs(self):
        # phi_inverse at 1e-5, then at 1e-10, then solve_mb on one fresh
        # family at the same 60 targets: the first fills every model rung
        # the others read, keyed by its ladder index alone, and the second
        # and third fill no entry or rung
        lo_j, hi_j = series._MODEL_J
        family = Arithmetic(0.0, 1.0)
        ladder, solver = family._ladder, EmpSolver(family)
        ws = [float(w) for w in np.geomspace(1.02, 9.0, 60)]
        callers = [
            lambda w: phi_inverse(family, w, 1e-5),
            lambda w: phi_inverse(family, w, 1e-10),
            lambda w: solver.solve_mb(1.0, w),
        ]
        kept = []
        for call in callers:
            for w in ws:
                call(w)
            kept.append((set(ladder.rungs), dict(ladder.models)))
        assert kept[0][1] and kept[1] == kept[0] and kept[2] == kept[0]
        assert all(type(j) is int and lo_j <= j <= hi_j for j in ladder.models)

    @pytest.mark.parametrize(
        "family, w",
        [(Arithmetic(0.0, 1.2345), 3.0), (WeightedGeometric(1.0, 3.0), 1.2), (Lattice3D(1.0), 6.0)],
        ids=repr,
    )
    def test_a_dropped_family_frees_its_records(self, family, w):
        # a family keeps its sigma-min set, profile, slope ladder and normal
        # form, and no module cache keeps the family: once its last
        # reference is dropped, it and they are freed
        family = _fresh(family)
        solver = EmpSolver(family)
        solver.solve_mb(1.0, w)
        phi_inverse(family, w, 1e-10)
        solver.classify(1.0, w)
        assert "_ladder" in vars(family) and "_normal" in vars(family)
        ref = weakref.ref(family)
        del family, solver
        gc.collect()
        assert ref() is None

    @pytest.mark.parametrize("family, v1, v2, slopes", _LADDER_CASES, ids=repr)
    def test_a_cold_inversion_keeps_its_entries(self, monkeypatch, family, v1, v2, slopes):
        # a cold root on a fresh family fills that family's own ladder,
        # which every reader of the family reads: its entries are read back
        tol = 1e-10
        family = _fresh(family)
        fills = _count_ladder_fills(monkeypatch)
        phi_inverse(family, v2, tol)
        assert fills and all(ladder_family is family for ladder_family, _ in fills)
        assert {k for _, k in fills} <= set(family._ladder.rungs)

    @pytest.mark.parametrize("family, v1, v2, slopes", _LADDER_CASES, ids=repr)
    def test_one_ladder_serves_every_caller_of_a_family(self, monkeypatch, family, v1, v2, slopes):
        # an interior solve_mb (its root at 2.5e-13 under a ceiling), a
        # fermi-dirac inverse (its start from entries alone) and slope roots
        # at 1e-5 and 1e-10 on one target share one ladder: on a fresh
        # family no entry y_k is filled twice, and every result is the one
        # the same call returns alone on a fresh family
        a = family.alpha
        calls = [
            lambda es: es.solve_mb(1.0, v2),
            lambda es: es.inverse_solve_bf(FD, 1.0, v2),
            lambda es: phi_inverse(es.family, v2, 1e-5),
            lambda es: phi_inverse(es.family, v2, 1e-10),
        ]
        alone = [repr(call(EmpSolver(_fresh(family)))) for call in calls]
        grid = {-a - 2.0 ** (0.25 * k) for k in range(series._LADDER_K[0], series._LADDER_K[1] + 1)}
        rough, filled = series._rough_slope, Counter()

        def counting(fam, y):
            if y in grid:
                filled[y] += 1
            return rough(fam, y)

        monkeypatch.setattr(series, "_rough_slope", counting)
        solver = EmpSolver(_fresh(family))
        shared = [repr(call(solver)) for call in calls]
        assert filled and max(filled.values()) == 1
        assert shared == alone

    @pytest.mark.parametrize("k", [-8, 1, 8])
    @pytest.mark.parametrize("family", [Arithmetic(0.0, 1.0), WeightedGeometric(1.0, 3.0),
                                        Lattice3D(1.0)], ids=repr)
    def test_each_fill_is_one_kept_pass(self, family, k):
        # scripts/bench.py reads the passes and terms of a ladder's fills from
        # the records it keeps: one pass per entry and per model rung, of the
        # kept slope's f.truncation_n terms.  The model rung at j = 4k reads
        # the entry at k, filled first.
        ladder = EmpSolver(_fresh(family)).normal_family._ladder
        assert k not in ladder.rungs and not ladder.models
        with _work.counting() as entry:
            rung = ladder.rung(k)
        with _work.counting() as model:
            slope = ladder.model(4 * k)
        assert (entry.passes, entry.series_terms) == (1, rung.slope.f.truncation_n)
        assert (model.passes, model.series_terms) == (1, slope.f.truncation_n)

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


def _reference_slope_sums(family, y):
    """(f(y), f'(y), a bound on the error of each): the closed forms
    e^y/(1 - e^y) and e^y/(1 - e^y)^2 on Arithmetic(0, 1), else one pass
    certified to 1e-15 relative."""
    if family == Arithmetic(0.0, 1.0):
        d = math.expm1(-y)
        return 1.0 / d, (d + 1.0) / (d * d), 0.0, 0.0
    rough = series._eval_moments(family, y, {(None, 0): 1e-6, (None, 1): 1e-6})
    tols = {(None, 0): 1e-15 * rough[0].value, (None, 1): 1e-15 * rough[1].value}
    s0, s1 = series._eval_moments(family, y, tols)
    return s0.value, s1.value, s0.tail_bound_used, s1.tail_bound_used


_MODEL_FAMILIES = [Arithmetic(0.0, 1.0), WeightedGeometric(1.0, 3.0), Lattice3D(1.0)]


class TestSlopeModel:
    """A slope root certifies its Hermite start and each Newton iterate
    from a kept pass's partial moments, with a proved Taylor remainder and
    one tail bracket: first those of the model rung just right of the start
    (partial moments 0 to 17), then those of its last pass (0 to 5); it
    sums a new pass only where that misses its tolerance."""

    @pytest.mark.parametrize("family, v1, v2, slopes", _LADDER_CASES, ids=repr)
    def test_a_warm_interior_solve_takes_no_pass(self, monkeypatch, family, v1, v2, slopes):
        # a pass at the Hermite start certified the Newton steps after it:
        # one pass per warm solve on these families
        solver = EmpSolver(family)
        ws = [float(w) for w in np.geomspace(*slopes, 200)]
        for w in ws:
            solver.solve_mb(1.0, w)
        passes = _count_passes(monkeypatch, family)
        for w in ws:
            assert solver.solve_mb(1.0, w).region is Region.INTERIOR
        assert passes == []

    @pytest.mark.parametrize("v, want", [
        (5000.0, (-10.517093184748905, (-8.51699317141357, -0.00020002000266706673))),
        (20000.0, (-11.903462552119452, (-9.903437551286087, -5.000125004166821e-05))),
    ])
    def test_a_warm_root_on_a_one_sided_ladder_takes_no_pass(self, v, want):
        # these roots lie right of the ladder's first entry (y = -2^-12,
        # phi = 4096.5), so the ladder is one-sided and they start at that
        # entry, certified from the model rung at its index as a Hermite
        # start is: warm, no pass, and the values of the pass-started roots
        solver = EmpSolver(Arithmetic(0.0, 1.0))
        solver.solve_mb(1.0, v)
        with _work.counting() as work:
            sol = solver.solve_mb(1.0, v)
        assert (sol.region, sol.value, sol.multipliers) == (Region.INTERIOR, *want)
        assert work.passes == 0

    @pytest.mark.parametrize("family, v1, v2, slopes", _LADDER_CASES, ids=repr)
    def test_a_point_outside_its_model_rung_falls_back_to_a_pass(self, monkeypatch, family, v1, v2,
                                                                 slopes):
        # the model rung j just right of a root's start certifies a point
        # near it; 8 rungs to either side the Taylor remainder misses, and
        # the point is one pass, whose own model the next point reads
        tol, a = 1e-10, family.alpha
        q = 0.25 * tol
        root = _invert_slope(family, v2, tol)
        j = math.floor(series._MODEL_RUNGS * math.log2(-a - root.y))
        rung = family._ladder.model(j)
        assert len(rung.model.partials) == series._MODEL_PARTIALS
        passes = _count_passes(monkeypatch, family)
        assert series._certified_slope(family, root.y, q, rung).model is rung.model
        assert passes == []
        for dj in (-8, 8):
            y = -a - 2.0 ** ((j + dj) / series._MODEL_RUNGS)
            passes.clear()
            s = series._certified_slope(family, y, q, rung)
            assert passes == [y]
            assert s.err <= q
            assert (s.model.y, len(s.model.partials)) == (y, series._SLOPE_PARTIALS)

    @pytest.mark.parametrize("family", [Arithmetic(0.0, 1.0), WeightedGeometric(1.0, 3.0)], ids=repr)
    def test_model_certified_roots_hold_against_closed_forms(self, monkeypatch, family):
        # f = e^y / (1 - e^y) and phi = 1 / (1 - e^y) on Arithmetic(0, 1);
        # f = Li3(e^(1 + y)) and f' = Li2(e^(1 + y)) on WeightedGeometric(1,
        # 3).  A warm root with no pass is certified from its model rung
        # alone: its f and phi lie within their bounds plus 4 ulp (rounding,
        # which no certificate counts yet)
        mpmath = pytest.importorskip("mpmath")
        slopes = {Arithmetic(0.0, 1.0): (1.02, 9.0), WeightedGeometric(1.0, 3.0): (1.02, 1.34)}
        t = 2.5e-13  # series._conjugate_at's root at tol 1e-12
        ws = [float(w) for w in np.geomspace(*slopes[family], 200)]
        for w in ws:
            _invert_slope(family, w, t, 1e-5 / t)
        passes = _count_passes(monkeypatch, family)
        roots = [_invert_slope(family, w, t, 1e-5 / t) for w in ws]
        assert passes == []
        with mpmath.workdps(40):
            for root in roots:
                z = mpmath.exp(mpmath.mpf(root.y) + family.alpha)
                if family.alpha == 0.0:
                    f, phi_y = z / (1 - z), 1 / (1 - z)
                else:
                    f = mpmath.polylog(3, z)
                    phi_y = mpmath.polylog(2, z) / f
                f, phi_y = float(f), float(phi_y)
                assert abs(root.f.value - f) <= root.f.tail_bound_used + 4.0 * math.ulp(f)
                assert abs(root.phi - phi_y) <= root.err + 4.0 * math.ulp(phi_y)

    def test_one_rule_serves_every_model_length(self):
        # the fewest Taylor terms that meet the tolerances: one term at the
        # pass's own point; a point 1e-2 away needs more terms than a slope
        # pass keeps, and a model rung's 18 partial moments reach it
        family = Arithmetic(0.0, 1.0)
        rough = series._rough_slope(family, -1.0)
        *_, short = series._certified_slope(family, -1.0, 1e-10, rough)
        *_, long = series._certified_slope(family, -1.0, 1e-10, rough, 1.0, series._MODEL_PARTIALS)
        assert (len(short.partials), len(long.partials)) == (6, 18)
        assert long.partials[:6] == short.partials
        iv0, iv1, iv2 = family.tail_intervals(-1.0, short.n, (0, 1, 2))
        for model in (short, long):
            s0, s1, m2 = series._model_moments(family, model, -1.0, 1e-3, 1e-3)
            assert s0.value == model.partials[0] + 0.5 * (iv0[0] + iv0[1])
            assert s1.value == model.partials[1] + 0.5 * (iv1[0] + iv1[1])
            assert m2 == model.partials[2] + 0.5 * (iv2[0] + iv2[1])
        assert series._model_moments(family, short, -1.01, 1e-12, 1e-12) is None
        s0, s1, _ = series._model_moments(family, long, -1.01, 1e-12, 1e-12)
        f, df, *_ = _reference_slope_sums(family, -1.01)
        assert 2.0 * s0.tail_bound_used <= 1e-12 and 2.0 * s1.tail_bound_used <= 1e-12
        assert abs(s0.value - f) <= s0.tail_bound_used + 1e-15
        assert abs(s1.value - df) <= s1.tail_bound_used + 1e-15

    @pytest.mark.parametrize("family, v1, v2, slopes", _LADDER_CASES, ids=repr)
    @pytest.mark.parametrize("tol", [1e-10, 1e-12])
    def test_roots_agree_with_pass_only_roots(self, monkeypatch, family, v1, v2, slopes, tol):
        ws = [float(w) for w in np.geomspace(*slopes, 25)]
        modelled = [(phi_inverse(family, w, tol), lnf_conjugate(family, w, tol)) for w in ws]
        monkeypatch.setattr(series, "_model_moments", lambda *args: None)
        for w, (y, conj) in zip(ws, modelled):
            y_pass = phi_inverse(family, w, tol)
            assert abs(phi(family, y, 1e-14) - phi(family, y_pass, 1e-14)) <= tol
            assert abs(conj - lnf_conjugate(family, w, tol)) <= tol

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        st.sampled_from(_MODEL_FAMILIES),
        st.floats(math.log(0.05), math.log(5.0)),
        st.sampled_from([1e-4, 1e-8, 1e-12]),
        st.floats(-12.0, -2.0),
        st.sampled_from([-1.0, 1.0]),
    )
    def test_the_model_brackets_f_and_its_slope(self, family, log_gap, tol, log_d, sign):
        # at any tolerance the model's f and f' hold at y0 + d or it
        # declines; rounding, which no certificate counts yet, within 1e-14
        y0 = -family.alpha - math.exp(log_gap)
        *_, model = series._certified_slope(family, y0, tol, series._rough_slope(family, y0))
        y = y0 + sign * 10.0**log_d
        got = series._model_moments(family, model, y, math.inf, math.inf)
        if got is None:
            return
        s0, s1, _ = got
        f, df, f_err, df_err = _reference_slope_sums(family, y)
        assert abs(s0.value - f) <= s0.tail_bound_used + f_err + 1e-14 * f
        assert abs(s1.value - df) <= s1.tail_bound_used + df_err + 1e-14 * df

    def test_the_model_declines_far_from_its_pass(self):
        family = Arithmetic(0.0, 1.0)
        *_, model = series._certified_slope(family, -1.0, 1e-10, series._rough_slope(family, -1.0))
        assert series._model_moments(family, model, -0.5, 1e-3, 1e-3) is None
        assert series._model_moments(family, model, -1.0 + 1e-9, 1e-3, 1e-3) is not None

    def test_the_pass_keeps_its_partial_moments(self):
        family = Arithmetic(0.0, 1.0)
        tols = {(None, 0): 1e-12, (None, 1): 1e-12, (None, 2): math.inf}
        *sums, model = series._eval_many(family, -1.0, tols, 0.0, MB, 1.0, series._SLOPE_PARTIALS)
        n = sums[0].truncation_n
        terms = np.exp(-np.arange(1.0, n + 1.0))
        sigma = np.arange(1.0, n + 1.0)
        assert (model.y, model.n, model.top) == (-1.0, n, float(n))
        for k, partial in enumerate(model.partials):
            assert partial == pytest.approx(float(np.sum(terms * sigma**k)), rel=1e-14)


class TestTaylorStep:
    """A warm root's Newton point is certified by a Taylor step from the
    point before it (series._taylor_step): that point's certified f to f'''
    and the model rung's bound F4 on f'''' left of the rung, with no tail
    bracket; the model route takes over where the step cannot."""

    def test_each_warm_arithmetic_root_makes_one_model_point(self):
        # the 200 warm roots of test_model_certified_roots_hold_against_closed_forms:
        # the model rung certifies the Hermite start, a step the Newton point
        family, t = Arithmetic(0.0, 1.0), 2.5e-13
        ws = [float(w) for w in np.geomspace(1.02, 9.0, 200)]
        for w in ws:
            _invert_slope(family, w, t, 1e-5 / t)
        counts = Counter()
        for w in ws:
            with _work.counting() as work:
                _invert_slope(family, w, t, 1e-5 / t)
            counts[work.model_points, work.bracket_calls, work.passes] += 1
            assert work.step_points >= 1
        assert counts == {(1, 1, 0): 200}

    @pytest.mark.parametrize("family", _MODEL_FAMILIES, ids=repr)
    def test_a_step_right_of_its_rung_falls_back_to_the_model(self, family):
        # from a model point 1e-6 left of the rung at y_j, a point 1e-9 left
        # of y_j is one step with no bracket; one 1e-9 right of y_j is a
        # model point with one bracket, and keeps no derivatives
        tol, a = 1e-10, family.alpha
        q = 0.25 * tol
        j = 8
        rung = family._ladder.model(j)
        y_j = rung.y
        with _work.counting() as first:
            start = series._certified_slope(family, y_j - 1e-6, q, rung)
        assert (first.model_points, first.step_points, first.bracket_calls) == (1, 0, 1)
        assert start.derivs is not None and start.model is rung.model
        for y, route in ((y_j - 1e-9, "step"), (y_j + 1e-9, "model")):
            assert y < -a
            with _work.counting() as work:
                s = series._certified_slope(family, y, q, start)
            assert s.err <= q and work.passes == 0
            if route == "step":
                assert (work.model_points, work.step_points, work.bracket_calls) == (0, 1, 0)
                assert s.derivs is not None
            else:
                assert (work.model_points, work.step_points, work.bracket_calls) == (1, 0, 1)
                assert s.derivs is None
            assert s.model is rung.model

    def test_a_lattice_root_chains_two_steps_from_one_model_point(self, monkeypatch):
        # the interior root of solve_mb(1, 6) on Lattice3D(1): the Hermite
        # start from the model rung, then two Newton points, each a step
        # from the one before, with no bracket
        solver = EmpSolver(Lattice3D(1.0))
        want = solver.solve_mb(1.0, 6.0)
        steps = []
        taylor_step = series._taylor_step

        def recording(last, y, t0, t1):
            s = taylor_step(last, y, t0, t1)
            steps.append((last, s))
            return s

        monkeypatch.setattr(series, "_taylor_step", recording)
        with _work.counting() as work:
            got = solver.solve_mb(1.0, 6.0)
        assert repr(got) == repr(want)
        assert (work.model_points, work.step_points, work.bracket_calls, work.passes) == (1, 2, 1, 0)
        (first, s1), (second, s2) = steps
        assert second is s1 and s1 is not None and s2 is not None
        assert first.model is s1.model is s2.model and first.model.bounds is not None

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        st.sampled_from(_MODEL_FAMILIES),
        st.integers(-40, 40),
        st.sampled_from([1e-6, 1e-10, 1e-12]),
        st.floats(-6.0, -2.0),
        st.floats(-9.0, -3.0),
        st.sampled_from([-1.0, 1.0]),
    )
    def test_the_step_brackets_f_and_its_derivatives(self, family, j, tol, log_gap, log_d, sign):
        # f to f''' from a step hold against one pass certified to 1e-15
        # relative, within their bounds plus rounding, which no certificate
        # counts yet (1e-14 relative); the step and its start lie left of
        # the rung
        rung = family._ladder.model(j)
        if rung is None or rung.model.bounds is None:
            return
        y0 = rung.y - 10.0**log_gap
        start = series._certified_slope(family, y0, 0.25 * tol, rung)
        y = min(y0 + sign * 10.0**log_d, rung.y)
        if start.derivs is None:
            return
        s = series._taylor_step(start, y, math.inf, math.inf)
        rough = series._eval_moments(family, y, dict.fromkeys(((None, k) for k in range(4)), 1e-6))
        tols = {(None, k): 1e-15 * r.value for k, r in enumerate(rough)}
        exact = series._eval_moments(family, y, tols)
        assert s.derivs[:2] == (s.f.value, s.f.tail_bound_used)
        for i, ref in enumerate(exact):
            value, bound = s.derivs[2 * i : 2 * i + 2]
            assert abs(value - ref.value) <= bound + ref.tail_bound_used + 1e-14 * ref.value


def test_every_library_bracket_is_counted_in_one_helper():
    # outside sequences.py, whose families combine their own brackets, the
    # library takes a tail bracket only through series._tails, which counts
    # it (bracket_calls); a call anywhere else would go uncounted
    def calls(node):
        return [n for n in ast.walk(node) if isinstance(n, ast.Call)
                and isinstance(n.func, ast.Attribute)
                and n.func.attr in ("tail_intervals", "tail_interval")]

    stray, helper = [], None
    for path in sorted(Path(series.__file__).parent.glob("*.py")):
        if path.name == "sequences.py":
            continue
        tree = ast.parse(path.read_text())
        inside = set()
        for node in ast.walk(tree):
            if path.name == "series.py" and isinstance(node, ast.FunctionDef) and node.name == "_tails":
                helper = node
                inside = {id(n) for n in calls(node)}
        stray += [f"{path.name}:{n.lineno}" for n in calls(tree) if id(n) not in inside]
    assert helper is not None and len(calls(helper)) == 1
    assert stray == []


def test_no_module_cache_is_keyed_by_a_family():
    # a family keeps what is derived from it on the instance (its cached
    # properties), so that it goes with the family; the library's functools
    # caches are keyed by a pass's sums, a lattice limit and a spec's
    # family parameters
    def caches(node):
        return any(isinstance(n, (ast.Name, ast.Attribute))
                   and getattr(n, "id", getattr(n, "attr", None)) in ("lru_cache", "cache")
                   for n in ast.walk(node))

    found = set()
    for path in sorted(Path(series.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if caches(stmt):
                name = stmt.name if hasattr(stmt, "name") else ast.unparse(stmt.targets[0])
                found.add(f"{path.stem}.{name}")
    assert found == {"series._pass_shape", "sequences._lattice_upto", "specfile._shared_family"}


class _LooseTails(Arithmetic):
    """Unit weights, sigma_n = n, with every tail bracket's upper end raised
    by 1e-5 (64 / n)^4, still a true bracket: at y = -16, where f is
    1.1e-7, the rough pass reads f as 5.1e-6, and the first slope pass,
    whose tolerances assume that f, misses its tolerance and is retried at
    the f it measured."""

    def tail_intervals(self, y, n, moments):
        pad = 1e-5 * (64 / n) ** 4
        ivs = super().tail_intervals(y, n, moments)
        return [None if iv is None else (iv[0], iv[1] + pad) for iv in ivs]


_A, _WG, _L3 = Arithmetic(0.0, 1.0), WeightedGeometric(1.0, 3.0), Lattice3D(1.0)
# (entry, family, args): interior solve_mb at (u, v), the others at their
# own arguments (a y or a slope w, and tol, but for _ladder_point's w alone)
_SLOPE_CALLS = [
    ("phi", _A, (-1.0, 1e-10)),
    ("phi", _WG, (-1.5, 1e-12)),
    ("phi", _L3, (-0.3, 1e-10)),
    ("phi", _LooseTails(), (-16.0, 1e-10)),  # a pass retried at its measured scale
    ("phi_inverse", _A, (1.5, 1e-10)),
    ("phi_inverse", _A, (6.5, 1e-12)),
    ("phi_inverse", _WG, (1.2, 1e-10)),
    ("phi_inverse", _L3, (4.5, 1e-10)),
    ("phi_inverse", _L3, (12.0, 1e-12)),
    ("phi_inverse", _A, (1.0000000000000002, 1e-15)),
    ("phi_inverse", _A, (1.000000000000001, 1e-15)),  # an entry at phi = theta1: no interpolant
    ("phi_inverse", _WG, (1.0000000000000016, 1e-10)),  # an entry within its err of w
    ("lnf_conjugate", _A, (2.0, 1e-12)),
    ("lnf_conjugate", _WG, (1.25, 1e-11)),
    ("lnf_conjugate", _L3, (8.0, 1e-10)),
    ("_ladder_point", _A, (1.5,)),
    ("_ladder_point", _WG, (1.2,)),
    ("_ladder_point", _L3, (6.0,)),
    ("_ladder_point", _A, (1.000000000000001,)),
    ("_ladder_point", _WG, (1.0000000000000016,)),
    ("solve_mb", _A, (1.0, 2.0)),
    ("solve_mb", _A, (0.5, 1.7)),
    ("solve_mb", _WG, (1.0, 1.2)),
    ("solve_mb", _WG, (3.0, 3.9)),
    ("solve_mb", _L3, (1.0, 4.5)),
    ("solve_mb", _L3, (2.0, 24.0)),
    ("solve_mb", Arithmetic(0.0, 0.01), (1.0, 0.0101)),  # left of the ladder
    ("solve_mb", PowerLaw(1.0, 0.5), (1.0, 8.0)),  # iterates stop at their ceiling
]
_SLOPE_BRANCHES = (
    "model accepted",
    "model declined",
    "pass retried",
    "iterate ceiling stop",
    "one-sided ladder",
    "entry within its err",
    "hermite outside",
)
_SLOPE_PINNED = Path(__file__).resolve().parent / "golden" / "slope_layer.json"


def _slope_layer_outputs() -> dict:
    """{call: repr of its output} over _SLOPE_CALLS: solve_mb's region,
    value and multipliers, and what the others return."""
    out = {}
    for entry, family, args in _SLOPE_CALLS:
        if entry == "solve_mb":
            sol = EmpSolver(family).solve_mb(*args)
            got = (sol.region.value, sol.value, sol.multipliers)
        else:
            got = getattr(series, entry)(family, *args)
        out[f"{entry} {family!r} {args!r}"] = repr(got)
    return out


def _count_slope_branches(monkeypatch) -> Counter:
    """A Counter of the slope layer's branches taken from here on, read
    from outside it: slope passes and their ceiling stops (series._eval_many
    with model, a None model), model tries (series._model_moments), passes
    per certified slope, slope-root iterates (the evaluate calls of
    series.newton_root), one-sided ladders and targets within a kept
    entry's err (series._Ladder.bracket) and two-sided starts with no
    Hermite start (series._ladder_start)."""
    counts, live = Counter(), {"passes": 0, "tries": 0, "iterate": False}
    kernel, moments, slope = series._eval_many, series._model_moments, series._certified_slope
    newton, bracket, start = series.newton_root, series._Ladder.bracket, series._ladder_start

    def eval_many(family, y, tols, x=0.0, kind=MB, ceiling=1.0, model=False):
        out = kernel(family, y, tols, x, kind, ceiling, model)
        if model:
            live["passes"] += 1
            counts["iterate ceiling stop"] += live["iterate"] and out[-1] is None
        return out

    def model_moments(*args):
        live["tries"] += 1
        return moments(*args)

    def certified_slope(*args):
        before = live["passes"]
        out = slope(*args)
        counts["pass retried"] += live["passes"] - before >= 2
        return out

    def newton_root(evaluate, *args):
        def iterate(y):
            passes, tries = live["passes"], live["tries"]
            live["iterate"] = True
            try:
                return evaluate(y)
            finally:
                live["iterate"] = False
                if live["tries"] > tries:
                    counts["model accepted" if live["passes"] == passes else "model declined"] += 1

        return newton(iterate, *args)

    def ladder_bracket(self, w):
        inner, outer = bracket(self, w)
        counts["one-sided ladder"] += outer is None
        counts["entry within its err"] += any(
            not abs(e.phi - w) > e.slope.err for e in self.rungs.values())
        return inner, outer

    def ladder_start(*args):
        out = start(*args)
        counts["hermite outside"] += out[3] is not None and out[2] is None
        return out

    for name, fn in [
        ("_eval_many", eval_many),
        ("_model_moments", model_moments),
        ("_certified_slope", certified_slope),
        ("newton_root", newton_root),
        ("_ladder_start", ladder_start),
    ]:
        monkeypatch.setattr(series, name, fn)
    monkeypatch.setattr(series._Ladder, "bracket", ladder_bracket)
    return counts


class TestSlopeLayerGolden:
    def test_outputs_match_the_pinned_reprs(self, monkeypatch):
        # tests/golden/slope_layer.json holds _slope_layer_outputs() at
        # commit 63298ca (json.dumps(..., indent=1) wrote it), re-pinned when
        # warm roots began to read the ladder's model rungs (13 of 28 moved,
        # by at most 2.0e-12 in a y at tol 1e-10 and 3.6e-15 elsewhere) and
        # when ladder entries became one rough pass each (5 moved: 3 by at
        # most 1.6e-14, and a root 7 ulp above theta1 and its start moved
        # from y = -33 to another root at -39.05), and when Newton points
        # began to be Taylor steps from their start (8 moved, by at most
        # 1.6e-15): the library's slope outputs to the bit, where the CLI
        # goldens print rounded figures; the calls take every branch of the
        # slope layer
        branches = _count_slope_branches(monkeypatch)
        assert _slope_layer_outputs() == json.loads(_SLOPE_PINNED.read_text())
        assert {b: branches[b] for b in _SLOPE_BRANCHES if not branches[b]} == {}


_GUARD_FAMILIES = [
    Arithmetic(0.0, 1.0),
    WeightedGeometric(1.0, 3.0),
    Lattice3D(1.0),
    LogLevels(1.0),
    PowerLaw(1.0, 0.5),
]
_EXTREME = [
    0.0, -0.0, 5e-324, -5e-324, sys.float_info.min, 1e-300, 1e300,
    sys.float_info.max, -sys.float_info.max, math.inf, -math.inf, math.nan,
]


@st.composite
def _guard_calls(draw, entries=("phi_inverse", "lnf_conjugate", "solve_mb", "value_mb")):
    """(family, entry, args): an extreme float or a slope within 1 ulp of
    theta1 or theta2 for phi_inverse and lnf_conjugate, (u, v) from extreme
    floats and those slopes for solve_mb and value_mb, an extreme float,
    -alpha - 1 or a y within 1 ulp of -alpha for phi, and a bose-einstein or
    fermi-dirac target (u, w u) with u extreme and w 1 ulp or 2e-12
    relative inside the cone for inverse_solve_bf."""
    family = draw(st.sampled_from(_GUARD_FAMILIES))
    prof = profile(family)
    entry = draw(st.sampled_from(entries))
    if entry == "phi":
        a = prof.alpha
        ys = [math.nextafter(-a, -math.inf), math.nextafter(-a, math.inf), -a - 1.0]
        return family, entry, (draw(st.sampled_from(ys + _EXTREME)),)
    edges = [t for t in (prof.theta1, prof.theta2) if math.isfinite(t)]
    if entry == "inverse_solve_bf":
        kind = draw(st.sampled_from([BE, FD]))
        # 1 ulp inside an edge the solver still puts (u, w u) on its ray,
        # which it takes within 1e-12 relative; 2e-12 inside, in the cone
        inside = [math.nextafter(prof.theta1, math.inf), prof.theta1 * (1.0 + 2e-12)]
        if math.isfinite(prof.theta2):
            inside += [math.nextafter(prof.theta2, -math.inf), prof.theta2 * (1.0 - 2e-12)]
        w = draw(st.sampled_from(inside))
        u = draw(st.sampled_from(_EXTREME))
        return family, entry, (kind, u, u * w)
    slopes = [math.nextafter(t, d) for t in edges for d in (-math.inf, math.inf)] + edges
    w = draw(st.sampled_from(slopes + _EXTREME))
    if entry in ("phi_inverse", "lnf_conjugate"):
        return family, entry, (w,)
    u = draw(st.sampled_from([1.0, *_EXTREME]))
    v = draw(st.sampled_from([u * w, *_EXTREME]))
    return family, entry, (u, v)


def _be_edge_target():
    """The bose-einstein target of the multipliers (1 - 1e-12, -1) on
    Arithmetic(0, 1): x + theta1 y = -1e-12, the first occupation near 1e12."""
    fwd = EmpSolver(Arithmetic(0.0, 1.0)).forward_solve(BE, 1.0 - 1e-12, -1.0)
    return fwd.u, fwd.v


class TestOnlyEmpErrorEscapes:
    """The slope-root entries at extreme floats and at slopes 1 ulp from
    the cone's edges return a float that is not nan, or raise EmpError; so
    do phi at extreme y and at y within 1 ulp of -alpha, and the bf inverse
    at extreme targets 1 ulp inside the cone, which may also report an
    InverseFailure, as it must where its finite proposal overflows or has
    no minimizer."""

    @staticmethod
    def _check(call):
        family, entry, args = call
        if entry in ("solve_mb", "value_mb", "inverse_solve_bf"):
            fn = getattr(EmpSolver(family), entry)
        else:
            fn = getattr(series, entry)
            args = (family, *args)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                out = fn(*args)
            except EmpError:
                return
        if isinstance(out, InverseFailure):
            return
        if entry in ("solve_mb", "inverse_solve_bf"):
            assert not math.isnan(out.value) and not math.isnan(out.h_star)
            assert not any(math.isnan(m) for m in out.multipliers or ())
        else:
            assert not math.isnan(out)

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(_guard_calls())
    def test_extreme_inputs(self, call):
        self._check(call)

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(_guard_calls(("phi", "inverse_solve_bf")))
    def test_extreme_slopes_and_bf_targets(self, call):
        self._check(call)

    @pytest.mark.parametrize(
        "kind, target",
        [
            # fermi-dirac u above sum_{n <= 64} p_n = 64: the 64-term dual
            # has no minimizer
            (FD, lambda: (100.0, 6000.0)),
            (FD, lambda: (1000.0, 1e6)),
            (BE, _be_edge_target),
            (BE, lambda: (1e300, 2e300)),
            (FD, lambda: (1e300, 2e300)),
            (BE, lambda: (1e300, 1e300 * (1.0 + 1e-9))),
        ],
    )
    def test_bf_targets_the_finite_proposal_cannot_reach(self, kind, target):
        # the inverse's uncertified proposal overflows or has no minimizer
        # there: a solution or a failure report, and no float warning
        u, v = target()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = EmpSolver(Arithmetic(0.0, 1.0)).inverse_solve_bf(kind, u, v)
        assert isinstance(out, (EmpSolution, InverseFailure))

    def test_a_huge_interior_value_overflows_to_inf(self):
        # u (ln u - 1) overflowed to +inf and u (ln f)*(w) to -inf, whose
        # sum was returned as nan
        big = sys.float_info.max
        assert EmpSolver(LogLevels(1.0)).value_mb(big, big) == math.inf


_DUAL_EXTREME = [0.0, -0.0, 5e-324, 1e300, -1e300, 700.0, -700.0, math.inf, -math.inf, math.nan]


def _dual_multipliers(family):
    """(x, y) pairs: x from _DUAL_EXTREME or -1, y from _DUAL_EXTREME, 1 ulp
    below -alpha or -alpha - 1."""
    a = profile(family).alpha
    ys = [math.nextafter(-a, -math.inf), -a - 1.0, *_DUAL_EXTREME]
    return [(x, y) for x in [-1.0, *_DUAL_EXTREME] for y in ys]


@st.composite
def _dual_calls(draw):
    """(family, entry, kind, args): forward_solve under any entropy at a
    _dual_multipliers pair, then objective_value on its rule;
    objective_value on two terms from _DUAL_EXTREME; or objective_value on
    WeightedGeometric(1, 3) at 750 to 800 terms, whose ln p_n passes 700
    near n = 720: one value throughout, 1e-3, 1 or from _DUAL_EXTREME, with
    one term before n = 720 and one after it from _DUAL_EXTREME."""
    family = draw(st.sampled_from(_GUARD_FAMILIES))
    kind = draw(st.sampled_from([MB, BE, FD]))
    entry = draw(st.sampled_from(["forward_solve", "objective_value", "long sequence"]))
    if entry == "forward_solve":
        return family, entry, kind, draw(st.sampled_from(_dual_multipliers(family)))
    if entry == "objective_value":
        return family, entry, kind, ([draw(st.sampled_from(_DUAL_EXTREME)) for _ in range(2)],)
    n = draw(st.integers(750, 800))
    terms = [draw(st.sampled_from([1e-3, 1.0, *_DUAL_EXTREME]))] * n
    for i in (draw(st.integers(0, 718)), draw(st.integers(720, n - 1))):
        terms[i] = draw(st.sampled_from(_DUAL_EXTREME))
    return WeightedGeometric(1.0, 3.0), "objective_value", kind, (terms,)


class TestDualEntriesOnlyEmpErrorEscapes:
    """forward_solve and objective_value under every entropy and
    biconjugate_check, at extreme multipliers and terms, return values that
    are not nan or raise EmpError, with no float warning."""

    @staticmethod
    def _check(call):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                out = call()
            except EmpError:
                return
        assert not any(math.isnan(o) for o in out)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_dual_calls())
    def test_forward_solve_and_objective_value(self, call):
        family, entry, kind, args = call
        solver = EmpSolver(family)

        def run():
            if entry == "objective_value":
                return (solver.objective_value(kind, *args),)
            sol = solver.forward_solve(kind, *args)
            return sol.u, sol.v, sol.value, solver.objective_value(kind, sol.solution)

        self._check(run)

    def test_a_nan_term_is_refused(self):
        # its W was +inf, and a bose-einstein term at u = inf is -inf:
        # math.fsum raised ValueError on the two
        with pytest.raises(DomainError):
            EmpSolver(Arithmetic(0.0, 1.0)).objective_value(BE, [math.inf, math.nan])

    @pytest.mark.parametrize("kind", [MB, BE, FD])
    @pytest.mark.parametrize("u", [1e-3, 0.0])
    def test_terms_whose_weight_passes_the_float_range(self, kind, u):
        # WeightedGeometric(1, 3)'s p_n reads inf in p_array where ln p_n >=
        # 700, and p_n W(u / p_n) was inf * W(0) = nan with an 'invalid
        # value' warning; such a term is its limit as p_n grows, u (ln u -
        # ln p_n - 1) under every entropy, and 0 at u = 0
        fam = WeightedGeometric(1.0, 3.0)
        log_p = fam.log_terms(0.0, 1, 800)
        first = int(np.argmax(log_p >= 700.0))  # the first such term, 0-based
        assert 600 < first < 750
        solver = EmpSolver(fam)
        got = solver.objective_value(kind, [u] * 800)
        if u == 0.0:
            assert got == 0.0
            return
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            limits = mpmath.fsum(
                u * (mpmath.log(u) - mpmath.mpf(float(lp)) - 1) for lp in log_p[first:]
            )
        before = solver.objective_value(kind, [u] * first)
        assert got - before == pytest.approx(float(limits), rel=1e-12)

    def test_infinite_terms_at_finite_and_past_range_weights_are_one_sign(self):
        # a bose-einstein term at u = inf is -inf (W(u) -> -inf), at a
        # finite weight and at one past ln p_n = 700 alike; the latter read
        # +inf, and math.fsum raised ValueError on the two
        solver = EmpSolver(WeightedGeometric(1.0, 3.0))
        terms = [math.inf] + [1e-3] * 798 + [math.inf]
        assert solver.objective_value(BE, terms) == -math.inf
        assert solver.objective_value(MB, terms) == math.inf
        assert solver.objective_value(FD, terms) == math.inf

    def test_fermi_dirac_terms_of_tiny_occupation(self):
        # u / p_n runs down to 1e-299 on WeightedGeometric(1, 3)'s first
        # 699 terms, where (1 - r) ln(1 - r) dropped its -r: the sum read
        # -237.869 for -238.527
        mpmath = pytest.importorskip("mpmath")
        fam = WeightedGeometric(1.0, 3.0)
        got = EmpSolver(fam).objective_value(FD, [1e-3] * 699)
        with mpmath.workdps(60):
            u = mpmath.mpf(1e-3)
            want = mpmath.fsum(
                p * (r * mpmath.log(r) + (1 - r) * mpmath.log1p(-r))
                for p in (mpmath.exp(n) / n**3 for n in range(1, 700))
                for r in (u / p,)
            )
        assert got == pytest.approx(float(want), rel=1e-13)

    @pytest.mark.parametrize("family", _GUARD_FAMILIES, ids=repr)
    def test_biconjugate_check(self, family, monkeypatch):
        # its sampled sup reads lnf_conjugate on a grid of slopes that
        # depends on the family alone, 0.6 s a call on LogLevels(1), whose
        # largest slopes lie near its divergent boundary: one evaluation
        # per slope serves every (x, y)
        memo = functools.lru_cache(maxsize=None)(series.lnf_conjugate)
        monkeypatch.setattr(series, "lnf_conjugate", memo)
        solver = EmpSolver(family)
        for x, y in _dual_multipliers(family):
            self._check(lambda: solver.biconjugate_check(x, y, 64))


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

    def test_fd_terms_where_e_to_the_t_overflows(self):
        # levels n - 100: t_n = 805 - n reaches 804, where p_n e^t and the
        # tail's e^t overflow; h came out +inf
        fam = Arithmetic(-100.0, 1.0)
        ws = [math.exp(-abs(805.0 - n)) for n in range(1, 6001)]
        t_plus = [max(805.0 - n, 0.0) for n in range(1, 6001)]
        h = math.fsum(t + math.log1p(w) for t, w in zip(t_plus, ws))
        occ = [1.0 / (1.0 + w) if t else w / (1.0 + w) for t, w in zip(t_plus, ws)]
        hxx = math.fsum(w / (1.0 + w) ** 2 for w in ws)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert eval_h(fam, FD, 705.0, -1.0) == pytest.approx(h, rel=1e-9)
            hu, hv = grad_h(fam, FD, 705.0, -1.0)
            assert hessian_h(fam, FD, 705.0, -1.0)[0] == pytest.approx(hxx, rel=1e-9)
        assert hu == pytest.approx(math.fsum(occ), rel=1e-9)
        assert hv == pytest.approx(math.fsum((n - 100) * o for n, o in enumerate(occ, 1)), rel=1e-9)

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

    @pytest.mark.parametrize("kind", [BE, FD])
    def test_tail_multiplier_bounds_contain_the_multipliers(self, kind):
        # the tail's bounds at t_next are the multipliers there, at one end
        # of each bound; 1 - z from a rounded z = e^t cancels as t_next ->
        # 0-, losing 1e-16 / |t_next| relative, where -expm1(t_next) keeps
        # a few ulp, which the slack covers (the ends are not rounded out)
        mpmath = pytest.importorskip("mpmath")
        slack = 4.0 * sys.float_info.epsilon
        for t_next in (-np.geomspace(1e-9, 1.0, 200)).tolist():
            bounds = series._mult_bounds(kind, t_next)
            with mpmath.workdps(50):
                z = mpmath.exp(mpmath.mpf(t_next))
                den = 1 + z if kind is FD else 1 - z
                conj = (mpmath.log(den) if kind is FD else -mpmath.log(den)) / z
                exact = {"conj": float(conj), "grad": float(1 / den), "hess": float(1 / den**2)}
            for m, want in exact.items():
                lo, hi = bounds[m]
                assert lo * (1.0 - slack) <= want <= hi * (1.0 + slack), (m, t_next, bounds[m])


class TestConjRow:
    """The W* row of series._mult_arrays, base ln(1 + z) / z (fermi-dirac) or
    base -ln(1 - z) / z (bose-einstein), z = e^t, with z clipped at 1e-300
    in place of a mask, against the masked guard it replaced (1 -+ z/2
    where z < 1e-8, conftest.ref_conj_row), at t from -1e-6 to -800."""

    T = -np.geomspace(1e-6, 800.0, 20_001)

    @staticmethod
    def _row(kind, t, lt):
        return series._mult_arrays(kind, ("conj",), t, float(t.max()), np.exp(lt), lt)["conj"]

    @pytest.mark.parametrize("kind", [BE, FD])
    def test_bit_for_bit_where_both_forms_are_exact(self, kind):
        # ln p up to 700, so that p e^t > 0 where z = e^t underflows to 0:
        # both forms give exactly 1.0 for z < 2^-53 and the same quotient
        # from z >= 1e-8 on
        t = self.T
        lt = np.linspace(0.0, 700.0, t.size) + t
        z = np.exp(t)
        assert (np.exp(lt)[z == 0.0] > 0.0).any()
        got, want = self._row(kind, t, lt), ref_conj_row(kind, t, np.exp(lt))
        same = (z >= 1e-8) | (z < 2.0**-53)
        assert got[same].tobytes() == want[same].tobytes()
        # in between, the row rounds the product of a factor one ulp of 1.0
        # away with base once more on each side
        between = ~same
        assert between.sum() > 500
        assert np.all(np.abs(got[between] - want[between]) <= 2.0**-51 * want[between])

    @pytest.mark.parametrize("kind", [BE, FD])
    def test_factor_within_one_ulp_where_z_is_small(self, kind):
        # with base 1 the row is the factor W*(t) / z itself, near 1: on
        # [2^-53, 1e-8) ln(1 +- z) / z and 1 -+ z/2 are each within an ulp
        # of it, and differ by at most one ulp of 1.0
        t = self.T
        got, want = self._row(kind, t, np.zeros_like(t)), ref_conj_row(kind, t, np.ones_like(t))
        z = np.exp(t)
        same = (z >= 1e-8) | (z < 2.0**-53)
        assert got[same].tobytes() == want[same].tobytes()
        assert np.all(got[z < 2.0**-53] == 1.0)
        assert np.max(np.abs(got[~same] - want[~same])) <= math.ulp(1.0)


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
    def test_nan_is_a_range_error(self, family, call, args):
        # nan passed the y > -alpha tests and the exp(x) guard, so the
        # sums ran on nan terms: 4,096 terms, or the whole 2^23-term budget.
        # A fresh family, whose first read of its sigma-min set builds its
        # term table: the work record counts passes and brackets, not that
        family = _fresh(family)
        with _work.counting() as work, pytest.raises(RangeError):
            getattr(series, call)(family, *args)
        assert (work.passes, work.bracket_calls) == (0, 0)

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

    @pytest.mark.parametrize("y", [-1e103, -1e200, -1.7e308])
    @pytest.mark.parametrize("kind", [MB, BE, FD])
    def test_log_levels_at_huge_negative_y(self, kind, y):
        # the moment-2 tail bracket took 2 / m^3, m = -(scale y + 1), whose
        # float power raised a raw OverflowError beyond m = 5.7e102
        family = LogLevels(1.0)
        with pytest.raises(RangeError):
            phi(family, y)
        assert hessian_h(family, kind, 0.0, y) == (0.0, 0.0, 0.0)


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



# -- the block of rows against the per-sum loop -------------------------------

_SLOPE_KEYS = ((None, 0), (None, 1), (None, 2))
_DUAL_3 = series._VALUE_GRADIENT
_DUAL_6 = series._VALUE_GRADIENT + _HESSIAN


def _block_cases(family):
    """(kind, x, keys, model) of the passes the block layout must match on
    family at its y (_block_y): slope passes with the model of a slope pass
    and of a model rung (series._SLOPE_PARTIALS and _MODEL_PARTIALS partial
    moments) and without one (model 0), single sums, the maxwell-boltzmann
    dual point, and bose-einstein and fermi-dirac passes of 3 and 6 sums,
    bose-einstein with the first term's t = x + theta1 y at -0.3 (the
    -expm1 branch above -ln 2) and at -2, fermi-dirac at x = 1.5 and at x =
    800 (the terms with t > 700)."""
    t1y = sigma_min_set(family).theta1 * _block_y(family)
    return [
        (MB, 0.0, _SLOPE_KEYS, series._SLOPE_PARTIALS),
        (MB, 0.0, _SLOPE_KEYS, series._MODEL_PARTIALS),
        (MB, 0.0, _SLOPE_KEYS, 0),
        (MB, 0.0, ((None, 0),), 0),
        (MB, 0.0, ((None, 1),), 0),
        (MB, -1.3, (("conj", 0), ("grad", 1), ("hess", 2)), 0),
        (BE, -t1y - 0.3, _DUAL_3, 0),
        (BE, -t1y - 0.3, _DUAL_6, 0),
        (BE, -t1y - 2.0, _DUAL_6 + ((None, 1),), 0),
        (FD, 1.5, _DUAL_3, 0),
        (FD, 1.5, _DUAL_6, 0),
        (FD, 800.0, _DUAL_6, 0),
    ]


def _block_y(family):
    a = family.alpha
    return -a - 0.5 if math.isfinite(a) else -1.0


def _hexes(out):
    sums, higher, top = out
    return [[v.hex() for v in acc] for acc in sums], [v.hex() for v in higher], float(top).hex()


class TestBlockSumsMatchReference:
    """series._block_sums puts every row of a pass into one block and
    reduces it once per block; tests/conftest.py's ref_block_sums, the loop
    it replaced, built and reduced each sum's row on its own.  Partials,
    higher moments and top must agree to the bit at every stopping index n
    = 64 ... 4096, whose arrays are cut into blocks, at n = 8192, which
    adds the array [4097, 8192], and at n = 2^15 and 2^16, whose arrays
    past the term table are wider than series._BLOCK_WIDTH and fill their
    block a slice at a time."""

    @pytest.mark.parametrize("family", _LIBRARY_FAMILIES, ids=repr)
    def test_every_pass_shape(self, family):
        y = _block_y(family)
        with np.errstate(all="ignore"):
            for kind, x, keys, model in _block_cases(family):
                tols = dict.fromkeys(keys, 1e-10)
                shape = series._pass_shape(keys, kind is MB)
                for n in (64 << j for j in range(8)):
                    got = series._block_sums(family, y, x, kind, shape, n, model)
                    want = ref_block_sums(family, y, tols, x, kind, shape[0], n, model)
                    assert _hexes(got) == _hexes(want), (kind, x, keys, model, n)

    @pytest.mark.parametrize("family", _LIBRARY_FAMILIES, ids=repr)
    def test_wide_arrays_match_slice_by_slice(self, family):
        # y just left of -alpha, so that the terms of [32769, 65536] still
        # count: 2 and 4 slices of 8,192 columns, added pairwise
        assert series._BLOCK_WIDTH == 2**13
        a = family.alpha
        y = -a - 2.0**-10 if math.isfinite(a) else -1e-3
        with np.errstate(all="ignore"):
            for kind, x, keys, model in _block_cases(family):
                tols = dict.fromkeys(keys, 1e-10)
                shape = series._pass_shape(keys, kind is MB)
                for n in (2**15, 2**16):
                    got = series._block_sums(family, y, x, kind, shape, n, model)
                    want = ref_block_sums(family, y, tols, x, kind, shape[0], n, model)
                    assert _hexes(got) == _hexes(want), (kind, x, keys, model, n)

    @pytest.mark.parametrize("family", [LogLevels(1.0), WeightedGeometric(1.0, 3.0)], ids=repr)
    def test_arrays_past_the_table_are_built_once(self, monkeypatch, family):
        # log_terms combines the y-free arrays the kernel took for its levels
        cls, calls = type(family), []
        term_arrays = cls._term_arrays
        monkeypatch.setattr(cls, "_term_arrays",
                            lambda self, lo, hi: calls.append((lo, hi)) or term_arrays(self, lo, hi))
        family._tabled(1, sequences._TABLE_MAX)  # the full table, built first
        y = -family.alpha - 0.01
        for kind, x, keys, model in ((MB, 0.0, _SLOPE_KEYS, series._SLOPE_PARTIALS), (FD, 1.5, _DUAL_6, 0)):
            calls.clear()
            with np.errstate(all="ignore"):
                series._block_sums(family, y, x, kind, series._pass_shape(keys, kind is MB), 2**16, model)
            assert calls == [(8193, 16384), (16385, 32768), (32769, 65536)]

    @pytest.mark.parametrize("family", [
        ShiftedSigma(LogLevels(1.0), -1.0),
        ExplicitPrefix((1.0, 2.5, 7.0), (0.5, 1.0, 1.5), WeightedGeometric(1.0, 3.0)),
    ], ids=repr)
    def test_wrappers_build_each_base_window_once(self, monkeypatch, family):
        # a wrapper's arrays hold its base's window, which its log_terms
        # hands on: past the table each array builds the base's once
        base = getattr(family, "base", None) or family.tail
        cls, calls = type(base), []
        term_arrays = cls._term_arrays
        monkeypatch.setattr(cls, "_term_arrays",
                            lambda self, lo, hi: calls.append((lo, hi)) or term_arrays(self, lo, hi))
        family._tabled(1, sequences._TABLE_MAX)
        y = -family.alpha - 0.01
        for kind, x, keys, model in ((MB, 0.0, _SLOPE_KEYS, series._SLOPE_PARTIALS), (FD, 1.5, _DUAL_6, 0)):
            calls.clear()
            with np.errstate(all="ignore"):
                series._block_sums(family, y, x, kind, series._pass_shape(keys, kind is MB), 2**16, model)
            assert calls == [(8193, 16384), (16385, 32768), (32769, 65536)]
