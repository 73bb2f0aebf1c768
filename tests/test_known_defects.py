"""The register of known defects: one test per open defect, asserting the
right behaviour, and marked xfail(strict=True) with the error that the
defect gives today.

A change that mends a defect sees its test pass, which strict=True turns
into a failure (XPASS): the change removes the marker, and the test stays
as its regression test.  `raises=` names today's error, AssertionError
where today's answer is wrong, so a defect that changes form, a refusal
that turns into a wrong value for instance, fails the suite as well.  An
entry leaves the register only by being mended, and no other test moves
into it.  CHANGES.md lists each entry added or removed.
"""

import gc
import math
import weakref

import numpy as np
import pytest

from entromin import (
    Arithmetic,
    BudgetError,
    ConfigurationError,
    EmpSolver,
    Entropy,
    InverseFailure,
    Lattice3D,
    NumericalFailureError,
    PowerLaw,
    RangeError,
    Region,
    ShiftedSigma,
    UnsupportedFamilyError,
    WeightedGeometric,
    eval_f,
    phi_inverse,
    phi_n_inverse,
    solve_two_mb_be,
)
from entromin import _work, series

MB, BE, FD = Entropy.MAXWELL_BOLTZMANN, Entropy.BOSE_EINSTEIN, Entropy.FERMI_DIRAC
S3 = 20853.54550805413  # (sum_{i>=1} e^(-0.001 i^2))^3, mpmath at 40 digits: Lattice3D(1)'s f(-0.001)


def _defect(error, reason):
    return pytest.mark.xfail(strict=True, raises=error, reason=reason)


def _item_21(error):
    return _defect(error, "ROADMAP item 21")


class TestCertificateRounding:
    """ROADMAP item 1: a bound covers the tail, not the rounding of the
    closed forms and of the summation."""

    @_defect(AssertionError, "ROADMAP item 1")
    def test_arithmetic_bounds_are_positive(self):
        # no float equals the irrational sum q / (1 - q), yet every bound reads 0
        family = Arithmetic(0.0, 1.0)
        bounds = [eval_f(family, float(y), 1e-12).tail_bound_used
                  for y in -np.geomspace(1e-6, 3.16, 200)]
        assert min(bounds) > 0.0

    @_defect(AssertionError, "ROADMAP item 1")
    def test_weighted_geometric_bounds_cover_the_error(self):
        # f(y) = Li_3(e^(1 + y)); 56 of the 200 errors exceed their bound
        mpmath = pytest.importorskip("mpmath")
        family = WeightedGeometric(1.0, 3.0)
        with mpmath.workdps(40):
            for y in -1.0 - np.geomspace(1e-6, 3.0, 200):
                got = eval_f(family, float(y), 1e-12)
                exact = mpmath.polylog(3, mpmath.exp(1 + mpmath.mpf(float(y))))
                assert abs(mpmath.mpf(got.value) - exact) <= got.tail_bound_used, y

    def test_fermi_dirac_term_at_large_t(self):
        # t = 435, where 1 / (1 + e^-435) rounds to 1: the occupation is p_270
        # itself, which e^(ln p + sigma y + x) / (1 + e^t) missed by 440 ulp
        family = WeightedGeometric(0.5, 4.0)
        got = EmpSolver(family).forward_solve(FD, 705.0, -1.0).solution.term(270)
        want = math.exp(family.log_p(270))
        assert abs(got - want) <= 4.0 * math.ulp(want)

    @_defect(AssertionError, "CHANGES.md FOUND line 186")
    def test_a_stepped_root_lies_within_its_bounds(self):
        # a warm root at tol 2.5e-13: one model point, then one Taylor step,
        # whose bounds count no rounding of its sums; phi reads 8.0e-16 from
        # Li_2 / Li_3(e^(1 + y)) against its err 1.2e-17, and f 4.1e-16 from
        # Li_3 against its bound 4.7e-20
        mpmath = pytest.importorskip("mpmath")
        family, w = WeightedGeometric(1.0, 3.0), 1.27720989965683
        series._invert_slope(family, w, 2.5e-13, 4e7)
        root = series._invert_slope(family, w, 2.5e-13, 4e7)
        with mpmath.workdps(40):
            z = mpmath.exp(1 + mpmath.mpf(root.y))
            f = mpmath.polylog(3, z)
            phi = mpmath.polylog(2, z) / f
            assert abs(mpmath.mpf(root.phi) - phi) <= root.err
            assert abs(mpmath.mpf(root.f.value) - f) <= root.f.tail_bound_used


class TestScaleCovariance:
    """ROADMAP item 2: tolerances absolute in u, v or the level scale."""

    @_defect(AssertionError, "ROADMAP item 2")
    def test_finite_mb_at_a_small_level_scale(self):
        # sigma -> c sigma with v -> c v leaves H unchanged: -1.34435 at c = 1e-10
        want = solve_two_mb_be(MB, (1.0, 1.0), (0.0, 1.0), 1.0, 0.9).value  # -1.32508
        got = solve_two_mb_be(MB, (1.0, 1.0), (0.0, 1e-10), 1.0, 0.9e-10).value
        assert got == pytest.approx(want, rel=1e-12)

    @_defect(AssertionError, "ROADMAP item 2")
    def test_weighted_geometric_forward_at_minus_alpha(self):
        # y = -alpha is the upper boundary; reported beyond-theta2 and attained
        got = EmpSolver(WeightedGeometric(1.0, 3.0)).forward_solve(MB, -20.0, -1.0)
        assert got.region is Region.UPPER_BOUNDARY_THETA2

    @_defect(BudgetError, "ROADMAP item 2")
    def test_power_law_forward_at_a_large_x(self):
        # summed at the absolute tol 1e-7 while u = e^230 f(-1.5) is 4.8e99
        family = PowerLaw(1.0, 0.5)
        got = EmpSolver(family).forward_solve(MB, 230.0, -1.5)
        assert got.u == pytest.approx(math.exp(230.0) * eval_f(family, -1.5).value, rel=1e-9)


class TestRootDriver:
    """ROADMAP item 8: newton_root's steps toward an infinite end double
    from 1, so a root near 2.2e100 is out of reach of its 200 evaluations."""

    @_defect(NumericalFailureError, "ROADMAP item 8")
    def test_a_root_near_2e100(self):
        # phi_n(t) = c e^(ct) / (1 + e^(ct)) = 0.9 c at ct = ln 9, c = 1e-100
        got = phi_n_inverse((1.0, 1.0), (0.0, 1e-100), 9e-101, 1e-113)
        assert got == pytest.approx(math.log(9.0) * 1e100, rel=1e-9)


class TestDualNearCondensation:
    """ROADMAP item 13: the 2x2 dual Newton forms its Hessian's determinant
    by cancellation."""

    @_defect(NumericalFailureError, "ROADMAP item 13; CHANGES.md FOUND line 110")
    def test_weights_300_decades_apart(self):
        # "dual hessian degenerate"; the maxwell-boltzmann solve of the same target succeeds
        got = solve_two_mb_be(BE, (1.0, 1e-300), (0.0, 1.0), 1e10, 0.99e10)
        assert sum(got.u_bar) == pytest.approx(1e10, rel=1e-9)
        assert got.u_bar[1] == pytest.approx(0.99e10, rel=1e-9)


class TestBoseFermiRegions:
    """ROADMAP item 16: on WeightedGeometric(1, 3), theta2 = 1.36843, the
    attained BE and FD targets end at edges below and above theta2 u, not at
    the maxwell-boltzmann cone."""

    @_defect(AssertionError, "ROADMAP item 16")
    def test_fd_forward_past_theta2_is_interior(self):
        # u = 1.3147 and v / u = 1.5097 > theta2, reported beyond-theta2 and attained
        got = EmpSolver(WeightedGeometric(1.0, 3.0)).forward_solve(FD, 0.5, -1.001)
        assert got.region is Region.INTERIOR

    @_defect(RangeError, "ROADMAP item 16")
    def test_fd_inverse_of_its_own_forward_solve(self):
        es = EmpSolver(WeightedGeometric(1.0, 3.0))
        fwd = es.forward_solve(FD, 0.5, -1.001)
        got = es.inverse_solve_bf(FD, fwd.u, fwd.v, 1e-10)
        assert got.multipliers == pytest.approx((0.5, -1.001), abs=1e-8)

    @_defect(AssertionError, "ROADMAP item 16")
    def test_be_inverse_between_the_edge_and_theta2(self):
        # no BE multipliers reach v = theta2 (1 - 1e-4) u, above the edge at
        # 1.29916 u: the right answer names the region with no certified
        # Newton point; today an InverseFailure after 4 of them and passes of
        # 2.8 million terms
        es = EmpSolver(WeightedGeometric(1.0, 3.0))
        with _work.counting() as work:
            try:
                got = es.inverse_solve_bf(BE, 1.0, es.profile.theta2 * (1.0 - 1e-4), 1e-10)
            except RangeError:
                got = None
        assert got is None or isinstance(got, InverseFailure)
        assert work.newton_points == 0


class TestBudgetGiveUp:
    """ROADMAP item 18: a pass gives up at n >= 4,096 wherever its width is
    above tol (2^23 / n)^3, as if the tail already fell cubically."""

    @_defect(BudgetError, "ROADMAP item 18")
    def test_lattice_sum_near_zero(self):
        got = eval_f(Lattice3D(1.0), -0.001, 1e-12)
        # within its bound, and the rounding item 1 leaves uncounted
        assert abs(got.value - S3) <= got.tail_bound_used + 4 * math.ulp(S3)

    @_defect(BudgetError, "ROADMAP item 18")
    def test_lattice_forward_near_zero(self):
        got = EmpSolver(Lattice3D(1.0)).forward_solve(MB, 0.0, -0.001)
        assert got.u == pytest.approx(S3, rel=1e-9)

    @_defect(BudgetError, "ROADMAP item 18; CHANGES.md FOUND line 134")
    def test_power_law_root_near_zero(self):
        # one past the ladder entry at y_-15 = -2^(-15/4): the root lies near
        # y = -0.07, where the terms e^(y sqrt n) need about 2^18 of them
        family = PowerLaw(1.0, 0.5)
        w = family._ladder.rung(-15).phi + 0.1
        got = phi_inverse(family, w, 1e-10)
        assert -(2.0**-3.75) < got < 0.0


class TestShiftedLattice:
    """CHANGES.md FOUND line 36: Lattice3D has no ratio certificate, so its
    shifted levels' bracket is (0, inf) wherever e^(-shift y) > e^600."""

    @_defect(BudgetError, "CHANGES.md FOUND line 36")
    def test_shifted_lattice_far_left(self):
        # levels 3 - 2, 6 - 2, ...: f(-400) = e^-400 (1 + 3 e^-1200 + ...)
        got = eval_f(ShiftedSigma(Lattice3D(1.0), 2.0), -400.0)
        assert got.value == pytest.approx(math.exp(-400.0), rel=1e-12)


class TestPrefixCacheLifetime:
    """CHANGES.md MENDED line 168: a family keeps its epsilon prefix
    records, so that no module cache holds a dropped family alive."""

    def test_a_dropped_family_is_freed_after_a_converge(self):
        # the converge leaves 9 prefix records on the family
        family = WeightedGeometric(1.0, 3.0)
        EmpSolver(family).solve_mb(1.0, 1.6).epsilon_family.converge(1e-3)
        ref = weakref.ref(family)
        del family
        gc.collect()
        assert ref() is None


class TestScaleRefusals:
    """Under sigma -> c sigma with v -> c v the value H is unchanged, so each
    problem here has the value of its rescaling to c = 1, which solves.  The
    solver refuses them: its profile probe and slope ladder sit at absolute
    y (-alpha - 1, -alpha - 2^(k/4)), and its level ties are absolute."""

    @_item_21(ConfigurationError)
    def test_lattice_levels_at_a_small_scale(self):
        # f could not be certified finite at y = -1
        got = EmpSolver(Lattice3D(1e-3)).solve_mb(1.0, 5.5e-3).value
        assert got == pytest.approx(-2.8825993032998696, rel=1e-12)  # Lattice3D(1) at (1, 5.5)

    @_item_21(ConfigurationError)
    def test_power_law_levels_at_a_small_scale(self):
        # f could not be certified finite at y = -1
        got = EmpSolver(PowerLaw(1e-3, 0.5)).solve_mb(1.0, 3.5e-3).value
        assert got == pytest.approx(-4.741867346462763, rel=1e-12)  # PowerLaw(1, 0.5) at (1, 3.5)

    @_item_21(RangeError)
    def test_arithmetic_levels_at_a_large_scale(self):
        # f(-1) underflows to 0, where the slope ladder starts
        got = EmpSolver(Arithmetic(3e3, 1e3)).solve_mb(1.0, 5e3).value
        assert got == pytest.approx(-2.3862943611198904, rel=1e-12)  # Arithmetic(3, 1) at (1, 5)

    @_item_21(UnsupportedFamilyError)
    def test_arithmetic_levels_at_a_tiny_scale(self):
        # the level tie scan does not terminate: the solver's build raises
        got = EmpSolver(Arithmetic(0.0, 1e-100)).solve_mb(1.0, 2e-100).value
        want = EmpSolver(Arithmetic(0.0, 1.0)).solve_mb(1.0, 2.0).value
        assert got == pytest.approx(want, rel=1e-12)
