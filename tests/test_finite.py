"""Finite-n solvers: closed-form splits, multiplier solves with KKT
certificates, zonotope feasibility, and agreement with the independent
grid-refinement oracle on randomized instances."""

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entromin import (
    BoundaryFlag,
    BudgetError,
    DomainError,
    EmpError,
    Entropy,
    Feasibility,
    InfeasibleError,
    NumericalFailureError,
    RangeError,
    entropy_conjugate_derivative,
    entropy_value,
    fd_feasible,
    kkt_residual,
    phi_n,
    phi_n_inverse,
    solve_single,
    solve_two_fd,
    solve_two_mb_be,
)
from entromin.rootfind import minimize_convex_2d, newton_root, slope_step

from entromin import finite as finite_module

from conftest import (
    FiniteProblem,
    brute_force_oracle,
    ref_envelope_v,
    ref_fd_face,
    ref_gibbs_pass,
)

MB = Entropy.MAXWELL_BOLTZMANN
BE = Entropy.BOSE_EINSTEIN
FD = Entropy.FERMI_DIRAC


def _w_sum(kind, p, u_bar):
    return math.fsum(pk * entropy_value(kind, uk / pk) for pk, uk in zip(p, u_bar))


class TestSolveSingle:
    def test_mb_split(self):
        sol = solve_single(MB, (1.0, 1.0), 2.0)
        assert sol.u_bar == (1.0, 1.0)
        assert sol.value == pytest.approx(-2.0, abs=1e-14)

    def test_zero_mass(self):
        sol = solve_single(BE, (1.0, 2.0, 3.0), 0.0)
        assert sol.u_bar == (0.0, 0.0, 0.0) and sol.value == 0.0
        assert sol.boundary_flag is BoundaryFlag.ORIGIN

    def test_fd_at_capacity(self):
        sol = solve_single(FD, (1.0, 1.0), 2.0)
        assert sol.u_bar == (1.0, 1.0) and sol.value == 0.0

    def test_fd_over_capacity(self):
        with pytest.raises(InfeasibleError):
            solve_single(FD, (1.0, 1.0), 2.5)

    def test_proportionality(self):
        sol = solve_single(MB, (1.0, 3.0), 1.0)
        assert sol.u_bar == pytest.approx((0.25, 0.75), abs=1e-15)


class TestPhiN:
    def test_symmetric_mean(self):
        assert phi_n((1.0, 1.0), (1.0, 2.0), 0.0) == pytest.approx(1.5, abs=1e-15)

    def test_inverse_at_symmetry(self):
        assert phi_n_inverse((1.0, 1.0), (1.0, 2.0), 1.5) == pytest.approx(0.0, abs=1e-12)

    def test_limit_toward_min_level(self):
        assert phi_n((1.0, 2.0), (0.0, 1.0), -40.0) == pytest.approx(0.0, abs=1e-15)

    def test_range_error(self):
        with pytest.raises(RangeError):
            phi_n_inverse((1.0, 1.0), (1.0, 2.0), 2.5)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(-12.0, 12.0))
    def test_increasing(self, t):
        # range chosen so the limit values are still resolvable in float
        p, s = (1.0, 2.0, 1.0), (0.5, 1.0, 3.0)
        assert phi_n(p, s, t) < phi_n(p, s, t + 0.25)

    def test_inverse_meets_its_tolerance_on_a_steep_target(self):
        # phi_n is nearly a step at this root: the root must still meet its
        # tolerance, and the two-constraint solve its v
        p = (0.19080713589648912, 67667.84249492163, 97.75111961449109)
        s = (-683.4279139230856, 5.311596457839904, 33784.123099770906)
        w = 12943.278053600625
        t = phi_n_inverse(p, s, w, 1e-12 * w)
        assert abs(phi_n(p, s, t) - w) <= 1e-12 * w
        sol = solve_two_mb_be(MB, p, s, 1.0, w)
        assert abs(math.fsum(si * ui for si, ui in zip(s, sol.u_bar)) - w) <= 1e-12 * w

    def test_inverse_meets_its_tolerance_on_random_targets(self):
        # weights and levels spread over many orders of magnitude, so that
        # phi_n is steep near many roots
        rng = np.random.default_rng(11)
        for _ in range(500):
            n = int(rng.integers(2, 12))
            p = np.exp(rng.uniform(-8.0, 12.0, n))
            s = np.sign(rng.uniform(-1.0, 1.0, n)) * np.exp(rng.uniform(-6.0, 11.0, n))
            w = float(rng.uniform(s.min(), s.max()))
            tol = 1e-12 * max(1.0, abs(w))
            t = phi_n_inverse(p, s, w, tol)
            assert abs(phi_n(p, s, t) - w) <= tol, (p, s, w)

    @pytest.mark.parametrize("n", [1, 7, 64, 1000, 8192])
    def test_gibbs_pass_matches_reference_and_keeps_its_inputs(self, n):
        # the same floats as the reference pass, and no write into the
        # prefix arrays, which the epsilon family shares read-only
        rng = np.random.default_rng(n)
        log_p = rng.uniform(-30.0, 5.0, n)
        s = np.sort(rng.uniform(0.0, 50.0, n))
        before = log_p.copy(), s.copy()
        for t in (0.0, -0.0, -0.37, -3.1, 0.25, -700.0):
            got = finite_module._gibbs_pass(log_p, s, t)
            want = ref_gibbs_pass(log_p, s, t)
            assert got[:3] == want[:3] and got[4] == want[4]
            np.testing.assert_array_equal(got[3], want[3])
            assert got[3] is not log_p and got[3] is not s
            np.testing.assert_array_equal(log_p, before[0])
            np.testing.assert_array_equal(s, before[1])

    def test_gibbs_pass_reads_read_only_inputs(self):
        log_p, s = np.log(np.arange(1.0, 65.0)), np.arange(1.0, 65.0)
        log_p.flags.writeable = s.flags.writeable = False
        got = finite_module._gibbs_pass(log_p, s, -0.5)
        assert got[:3] == ref_gibbs_pass(log_p, s, -0.5)[:3]

    @pytest.mark.parametrize("w, tol", [(5e99, 5e87), (3e99, 1e87)])
    def test_inverse_reaches_a_tiny_root(self, w, tol):
        # the root is near t = 6.9e-98 and Var_n is 0 at every t of the
        # first bracket [0, 1] right of it: the plain Newton point from t = 0
        # (5e199) was capped to t = 1 and the steps then bisected [0, t]
        # until the evaluations ran out; the step on ln(phi_n - min s) lands
        # at the root from t = 0
        p, s = (1.0, 1e-300), (0.0, 1e100)
        t = phi_n_inverse(p, s, w, tol)
        assert 6.8e-98 < t < 7.0e-98
        assert abs(phi_n(p, s, t) - w) <= tol


class TestSolveTwoMbBe:
    def test_mb_symmetric(self):
        sol = solve_two_mb_be(MB, (1.0, 1.0), (1.0, 2.0), 1.0, 1.5)
        assert sol.u_bar == pytest.approx((0.5, 0.5), abs=1e-12)
        assert sol.multipliers[0] == pytest.approx(-math.log(2.0), abs=1e-11)
        assert sol.multipliers[1] == pytest.approx(0.0, abs=1e-11)
        assert sol.value == pytest.approx(math.log(0.5) - 1.0, abs=1e-12)

    def test_tiny_interior_target(self):
        # an absolute 1e-12 snap put every target below it on the lower edge
        sol = solve_two_mb_be(MB, (1.0, 1.0), (1.0, 2.0), 1e-300, 1.5e-300)
        assert sol.boundary_flag is BoundaryFlag.INTERIOR_KKT
        assert sol.u_bar == pytest.approx((0.5e-300, 0.5e-300), rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(1e-3, 1e3),
        st.one_of(st.sampled_from([1.0, 2.0]), st.floats(0.5, 2.5)),
        st.floats(-200.0, 200.0),
    )
    def test_cone_position_is_scale_invariant(self, u, w, log_t):
        from entromin.finite import _cone_position

        sigma = [1.0, 2.0, 1.5]
        t = 10.0**log_t
        assert _cone_position(sigma, t * u, t * w * u) == _cone_position(sigma, u, w * u)

    def test_mb_lower_edge(self):
        sol = solve_two_mb_be(MB, (1.0, 1.0), (1.0, 2.0), 2.0, 2.0)
        assert sol.u_bar == pytest.approx((2.0, 0.0), abs=1e-14)
        assert sol.value == pytest.approx(2.0 * (math.log(2.0) - 1.0), abs=1e-13)
        assert sol.boundary_flag is BoundaryFlag.LOWER_EDGE

    def test_be_symmetric(self):
        sol = solve_two_mb_be(BE, (1.0, 1.0), (1.0, 2.0), 1.0, 1.5)
        exact = 2.0 * (0.5 * math.log(0.5) - 1.5 * math.log(1.5))
        assert sol.u_bar == pytest.approx((0.5, 0.5), abs=1e-11)
        assert sol.value == pytest.approx(exact, abs=1e-10)

    def test_infeasible_outside_cone(self):
        with pytest.raises(InfeasibleError):
            solve_two_mb_be(MB, (1.0, 1.0), (1.0, 2.0), 1.0, 3.5)

    def test_origin(self):
        sol = solve_two_mb_be(MB, (1.0, 1.0), (1.0, 2.0), 0.0, 0.0)
        assert sol.u_bar == (0.0, 0.0) and sol.value == 0.0

    def test_degenerate_cone_routes_to_single(self):
        sol = solve_two_mb_be(MB, (1.0, 2.0), (2.0, 2.0), 1.5, 3.0)
        assert sol.boundary_flag is BoundaryFlag.SINGLE_CONSTRAINT
        assert sum(sol.u_bar) == pytest.approx(1.5, abs=1e-14)
        with pytest.raises(InfeasibleError):
            solve_two_mb_be(MB, (1.0, 2.0), (2.0, 2.0), 1.5, 4.0)

    def test_constraints_and_kkt(self):
        p, s = (1.0, 2.5, 1.2), (0.5, 1.5, 4.0)
        sol = solve_two_mb_be(MB, p, s, 2.0, 3.1)
        assert sum(sol.u_bar) == pytest.approx(2.0, abs=1e-10)
        assert sum(si * ui for si, ui in zip(s, sol.u_bar)) == pytest.approx(3.1, abs=1e-10)
        assert kkt_residual(MB, p, s, sol.u_bar, *sol.multipliers) <= 1e-8

    def test_kkt_skips_a_coordinate_that_underflowed(self):
        # u_3 = e^(alpha + 1e4 beta) underflows to 0 at this interior optimum:
        # W'(0) does not exist, so the residual is over the other two
        p, s = (1.0, 1.0, 1.0), (0.0, 1.0, 1e4)
        sol = solve_two_mb_be(MB, p, s, 1.0, 0.01)
        assert sol.boundary_flag is BoundaryFlag.INTERIOR_KKT and sol.u_bar[2] == 0.0
        assert kkt_residual(MB, p, s, sol.u_bar, *sol.multipliers) <= 1e-12

    def test_be_newton_from_far_start(self):
        # damped steps far from the optimum need not shrink the residual;
        # before stalls were counted only in the quadratic basin this target
        # was reported as a stalled Newton iteration
        p, sigma = (1.764, 1.889, 1.62), (-1.733, -1.226, 3.574)
        u, v = 39.432, -1.749
        sol = solve_two_mb_be(BE, p, sigma, u, v)
        assert sol.boundary_flag is BoundaryFlag.INTERIOR_KKT
        ref = brute_force_oracle(BE, p, sigma, u, v, 4000)
        assert sol.value == pytest.approx(ref, abs=1e-8)
        assert math.fsum(sol.u_bar) == pytest.approx(u, rel=1e-11)
        assert kkt_residual(BE, p, sigma, sol.u_bar, *sol.multipliers) <= 1e-8

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_be_occupation_far_below_zero_warns_of_nothing(self):
        # a + b sigma_2 is far below -709.78 at the optimum, where expm1
        # overflows in the occupation 1/expm1(-t): its value 0 is right
        p = (6297.697451083165, 148.7775203153633, 0.010060465664895381,
             0.03909916771534093, 0.002424654386929243, 5792.980848335678,
             1.4633253027260154)
        sigma = (20.74075719137835, 56797.302670714846, 0.3233046226189196,
                 672.6555533628502, -0.19369832439856155, -115.58164109834452,
                 -663.4478824338876)
        sol = solve_two_mb_be(BE, p, sigma, 1.0, -614.8620312909081)
        assert sol.value == pytest.approx(-2.6604067542935126, rel=1e-12)
        assert sol.multipliers == pytest.approx(
            (-13.346813531719327, -0.018675545155185075), rel=1e-12
        )
        assert sol.u_bar[1] == 0.0

    def test_near_step_slope_root_does_not_stall(self):
        # phi_n is almost a step between the levels 3 and 3e4: the secant
        # step kept landing just inside the bracket, shrinking it by about
        # 1% per step, and the root search ran out of its 200 iterations
        p, sigma = (1.0, 1e5, 1.0), (0.0, 3e4, 3.0)
        sol = solve_two_mb_be(MB, p, sigma, 1.0, 800.0)
        assert sol.boundary_flag is BoundaryFlag.INTERIOR_KKT
        assert math.fsum(sol.u_bar) == pytest.approx(1.0, rel=1e-10)
        assert math.fsum(s * x for s, x in zip(sigma, sol.u_bar)) == pytest.approx(
            800.0, rel=1e-10
        )


class TestSlopeStep:
    def test_step_on_the_log_of_the_distance_to_theta1(self):
        # phi - theta1 = e^(2 y) is linear in y on the log scale: one step
        # from any y lands on the root of phi = w exactly
        for y in (-40.0, -1.5, 0.0, 2.0):
            d = math.exp(2.0 * y)
            assert y + slope_step(d, 2.0 * d, math.exp(-3.0), 0.0) == pytest.approx(-1.5, abs=1e-12)

    def test_no_usable_derivative_or_distance(self):
        assert math.isnan(slope_step(1.5, 0.0, 2.0, 1.0))
        assert math.isnan(slope_step(1.5, math.nan, 2.0, 1.0))
        # phi at or below theta1 by rounding: the plain Newton step
        assert slope_step(1.0, 4.0, 2.0, 1.0) == 0.25

    def test_a_ratio_that_underflows_or_overflows(self):
        # (phi - theta1) / (w - theta1) rounds to 0 or inf: its logarithm
        # is taken as a difference, not math.log(0.0) (a ValueError) or inf
        small = slope_step(5e-324, 1.0, 2.0, 0.0)
        assert small == pytest.approx(-(math.log(5e-324) - math.log(2.0)) * 5e-324, rel=1e-12)
        big = slope_step(1e300, 1.0, 1e-300, 0.0)
        assert big == pytest.approx(-(math.log(1e300) - math.log(1e-300)) * 1e300, rel=1e-12)


class TestNewtonRoot:
    @staticmethod
    def _recorded(g, newton=lambda x, gx: math.nan):
        """evaluate for newton_root from g and a Newton point rule, with the
        list of points it is called at."""
        seen = []

        def evaluate(x):
            seen.append(x)
            gx = g(x)
            return gx, newton(x, gx), ("at", x)

        return evaluate, seen

    def test_newton_point_past_an_unproved_end_evaluates_that_end(self):
        # the Newton point overshoots 100-fold: from x = 0 it lands at 75,
        # past the unproved end 1, which is evaluated instead
        evaluate, seen = self._recorded(lambda x: x - 0.75, lambda x, gx: x - 100.0 * gx)
        x, payload, lo_ok, hi_ok = newton_root(evaluate, 0.0, evaluate(0.0), 1e-12, -1.0, 1.0)
        assert seen[:2] == [0.0, 1.0]
        assert abs(x - 0.75) <= 1e-12 and payload == ("at", x)
        assert lo_ok and hi_ok
        assert all(-1.0 <= t <= 1.0 for t in seen)

    def test_an_infinite_end_caps_the_steps(self):
        # no Newton point: the steps are 1, 2, 4, ... until g changes sign
        evaluate, seen = self._recorded(lambda x: x - 100.0)
        x, _, lo_ok, hi_ok = newton_root(evaluate, 0.0, evaluate(0.0), 1e-9)
        assert seen[:8] == [0.0, 1.0, 3.0, 7.0, 15.0, 31.0, 63.0, 127.0]
        assert abs(x - 100.0) <= 1e-9 and lo_ok and hi_ok

    def test_g_zero_proves_neither_end(self):
        evaluate, seen = self._recorded(lambda x: 0.0)
        x, payload, lo_ok, hi_ok = newton_root(evaluate, 0.5, evaluate(0.5), 0.0, 0.0, 1.0)
        assert (x, payload, lo_ok, hi_ok) == (0.5, ("at", 0.5), False, False)
        assert seen == [0.5]

    def test_a_4_ulp_bracket_returns_the_best_point(self):
        # g jumps from -1 to 1 at c and never meets r_tol = 0.5: the steps
        # bisect down to a bracket of 4 ulp, whose point of least |g| is
        # the iterate nearest c
        c = 0.3
        evaluate, seen = self._recorded(lambda x: math.copysign(1.0 + abs(x - c), x - c))
        x, payload, _, _ = newton_root(evaluate, 0.0, evaluate(0.0), 0.5, -1.0, 1.0, True, True)
        assert abs(x - c) <= 4.0 * math.ulp(c)
        assert x == min(seen, key=lambda t: abs(t - c)) and payload == ("at", x)
        assert len(seen) < 200

    def test_budget_error_after_200_evaluations(self):
        # g < 0 everywhere: the capped steps never find a right end
        evaluate, seen = self._recorded(lambda x: -1.0)
        with pytest.raises(BudgetError):
            newton_root(evaluate, 0.0, evaluate(0.0), 1e-12)
        assert len(seen) == 200


class TestMinimizeConvex2d:
    def test_separable_exponential(self):
        # F = e^x + e^y - 2x - 3y has its minimum at (ln 2, ln 3)
        res = minimize_convex_2d(
            lambda x, y: (
                math.exp(x) + math.exp(y) - 2.0 * x - 3.0 * y,
                (math.exp(x) - 2.0, math.exp(y) - 3.0),
                (math.exp(x), 0.0, math.exp(y)),
                1e-12,
            ),
            lambda x, y: True,
            (-5.0, 4.0), (1.0, 1.0),
        )
        assert res.converged
        assert res.point == pytest.approx((math.log(2.0), math.log(3.0)), abs=1e-12)
        assert max(map(abs, res.residual)) <= 1e-12
        assert res.hessian == (math.exp(res.point[0]), 0.0, math.exp(res.point[1]))

    def test_backtracking_respects_the_domain(self):
        # F = x + y - ln x - ln y on x, y > 0; full Newton steps from near
        # the boundary would leave the domain
        seen = []

        def evaluate(x, y):
            seen.append((x, y))
            return (
                x + y - math.log(x) - math.log(y),
                (1.0 - 1.0 / x, 1.0 - 1.0 / y),
                (1.0 / x**2, 0.0, 1.0 / y**2),
                1e-12,
            )

        res = minimize_convex_2d(
            evaluate,
            lambda x, y: x > 0.0 and y > 0.0,
            (30.0, 0.01), (1.0, 1.0),
        )
        assert res.converged
        assert res.point == pytest.approx((1.0, 1.0), abs=1e-10)
        assert all(x > 0.0 and y > 0.0 for x, y in seen)

    def test_degenerate_hessian_is_reported(self):
        res = minimize_convex_2d(
            lambda x, y: (
                math.exp(x + y) - x - y,
                (math.exp(x + y) - 1.0, math.exp(x + y) - 1.0),
                (math.exp(x + y),) * 3,
                1e-12,
            ),
            lambda x, y: True,
            (1.0, 1.0), (1.0, 1.0),
        )
        assert not res.converged
        assert res.point == (1.0, 1.0) and "degenerate" in res.message
        assert res.hessian == (math.exp(2.0),) * 3

    @staticmethod
    def _noisy(noise, tols):
        """F = e^x + e^y - 2x - 3y with gradient noise of alternating sign,
        which keeps the residual near 2 noise; the i-th point is judged at
        tols(i)."""
        calls = [0]

        def evaluate(x, y):
            calls[0] += 1
            d = -noise if calls[0] % 2 else noise
            return (
                math.exp(x) + math.exp(y) - 2.0 * x - 3.0 * y,
                (math.exp(x) - 2.0 + d, math.exp(y) - 3.0 + d),
                (math.exp(x), 0.0, math.exp(y)),
                tols(calls[0]),
            )

        return minimize_convex_2d(evaluate, lambda x, y: True, (-5.0, 4.0), (1.0, 1.0))

    @pytest.mark.parametrize("noise, converged", [(2e-10, True), (2e-9, False)])
    def test_stalled_newton_accepted_up_to_1e_9(self, noise, converged):
        # the residual stays above tol = 1e-12: the best point is accepted
        # when its residual is within 1e-9 and reported as stalled otherwise
        res = self._noisy(noise, lambda i: 1e-12)
        assert res.converged is converged
        assert 1e-12 < max(map(abs, res.residual)) <= 2.5 * noise
        if converged:  # the best point, with its own Hessian
            assert res.hessian == (math.exp(res.point[0]), 0.0, math.exp(res.point[1]))
        if not converged:
            assert "stalled at residual" in res.message

    def test_each_point_is_judged_at_its_own_tolerance(self):
        # the first two points are judged at 1e-12 and every later one at
        # 1e-8, which the noisy residual meets: a fixed 1e-12 reports it
        # stalled above 1e-9 (the case above)
        res = self._noisy(2e-9, lambda i: 1e-12 if i <= 2 else 1e-8)
        assert res.converged and not res.message
        assert 1e-12 < max(map(abs, res.residual)) <= 1e-8


class TestUBarElements:
    """Every branch of the finite solves returns u_bar as a tuple of Python
    floats, with the values (as float.hex) they had when some branches
    returned numpy float64 elements."""

    P, S = (0.5, 1.25, 2.0), (1.0, 2.5, 4.0)
    ZERO = "0x0.0p+0"
    SPLIT = ("0x1.999999999999ap-3", "0x1.0000000000000p-1", "0x1.999999999999ap-1")

    @pytest.mark.parametrize(
        "solve, flag, want",
        [
            (lambda p, s: solve_single(BE, p, 1.5), BoundaryFlag.SINGLE_CONSTRAINT, SPLIT),
            (lambda p, s: solve_two_mb_be(MB, p, s, 0.0, 0.0), BoundaryFlag.ORIGIN, (ZERO,) * 3),
            (lambda p, s: solve_two_mb_be(MB, p, (2.0,) * 3, 1.5, 3.0),
             BoundaryFlag.SINGLE_CONSTRAINT, SPLIT),
            (lambda p, s: solve_two_mb_be(MB, (*p, 0.75), (*s, 1.0), 1.5, 1.5),
             BoundaryFlag.LOWER_EDGE,
             ("0x1.3333333333333p-1", ZERO, ZERO, "0x1.ccccccccccccdp-1")),
            (lambda p, s: solve_two_mb_be(BE, p, s, 1.5, 6.0),
             BoundaryFlag.UPPER_EDGE, (ZERO, ZERO, "0x1.8000000000000p+0")),
            (lambda p, s: solve_two_mb_be(MB, p, s, 1.5, 3.7), BoundaryFlag.INTERIOR_KKT,
             ("0x1.e9ccf2ba14b19p-2", "0x1.27441e56fc5f4p-1", "0x1.c7aad097f2900p-2")),
            (lambda p, s: solve_two_mb_be(BE, p, s, 1.5, 3.7), BoundaryFlag.INTERIOR_KKT,
             ("0x1.f8c4491e51c6ep-2", "0x1.184cc7f2bf4a6p-1", "0x1.d6a226fc2fa4bp-2")),
            (lambda p, s: solve_two_fd(p, s, 1.5, 3.7), BoundaryFlag.INTERIOR_KKT,
             ("0x1.b4e16f7803cf3p-2", "0x1.5c2fa19907202p-1", "0x1.92bf4d55eb450p-2")),
            (lambda p, s: solve_two_fd(p, s, 1.2, 0.5 + 2.5 * 0.7), BoundaryFlag.LOWER_EDGE,
             ("0x1.0000000000000p-1", "0x1.6666666666666p-1", ZERO)),
            (lambda p, s: solve_two_fd(p, s, 0.0, 0.0), BoundaryFlag.ORIGIN, (ZERO,) * 3),
        ],
        ids=["single", "mb-origin", "mb-degenerate", "mb-lower", "be-upper", "mb-interior",
             "be-interior", "fd-interior", "fd-face", "fd-origin"],
    )
    def test_elements_are_floats(self, solve, flag, want):
        sol = solve(self.P, self.S)
        assert sol.boundary_flag is flag
        assert all(type(x) is float for x in sol.u_bar)
        assert tuple(x.hex() for x in sol.u_bar) == want


class TestSolveTwoFd:
    def test_interior_symmetric(self):
        sol = solve_two_fd((1.0, 1.0), (1.0, 2.0), 1.0, 1.5)
        assert sol.u_bar == pytest.approx((0.5, 0.5), abs=1e-11)
        assert sol.multipliers == pytest.approx((0.0, 0.0), abs=1e-10)
        assert sol.value == pytest.approx(2.0 * math.log(0.5), abs=1e-11)

    def test_vertex_is_unique_point(self):
        sol = solve_two_fd((1.0, 1.0), (1.0, 2.0), 2.0, 3.0)
        assert sol.u_bar == pytest.approx((1.0, 1.0), abs=1e-14)
        assert sol.value == 0.0

    def test_matches_oracle(self):
        got = solve_two_fd((2.0, 1.0), (0.0, 1.0), 1.5, 0.5)
        ref = brute_force_oracle(FD, (2.0, 1.0), (0.0, 1.0), 1.5, 0.5, 4000)
        assert got.value == pytest.approx(ref, abs=1e-4)

    def test_boundary_face_exact(self):
        # lower envelope at u = 1.5: fill sigma=1 fully, then half of sigma=2
        sol = solve_two_fd((1.0, 1.0, 1.0), (1.0, 2.0, 3.0), 1.5, 2.0)
        assert sol.boundary_flag is BoundaryFlag.LOWER_EDGE
        assert sol.u_bar == pytest.approx((1.0, 0.5, 0.0), abs=1e-12)

    def test_infeasible(self):
        with pytest.raises(InfeasibleError):
            solve_two_fd((1.0, 1.0), (1.0, 2.0), 1.0, 2.5)

    def test_failed_newton_raises_for_small_n(self):
        # the dual Newton stalls at residual 4.8e-8; a grid search once
        # answered for n <= 4 instead, 9.2e-6 above the minimum
        p = (332.1464170706233, 4.727566123889271, 1.1029953814915952, 0.826882583128524)
        sigma = (24688.915926877296, 1.0239072816378503, 6.109006862673386e-06, 1.9461962023442796)
        with pytest.raises(NumericalFailureError):
            solve_two_fd(p, sigma, 338.40185745709744, 8200341.416325603)

    @pytest.mark.parametrize(
        "p, sigma, u, v, flag",
        [
            ((1.0, 1.0), (1.0, 2.0), 1e-10, 2e-10, BoundaryFlag.UPPER_EDGE),
            ((1e4, 1.0), (0.0, 1.0), 0.5, 5e-9, BoundaryFlag.LOWER_EDGE),
        ],
        ids=["upper-within-1e-9-of-lower", "lower-within-atol"],
    )
    def test_face_is_the_one_feasibility_found(self, p, sigma, u, v, flag):
        # the face solution once chose its face again, lower when |v - vmin|
        # <= 1e-9 max(1, |v|, |vmin|): it put the first target on the lower
        # face (sum sigma u = 1e-10) and the second, within atol = 1e-8 of
        # the lower envelope, on the upper one (sum sigma u = 0.5)
        atol = 1e-12 * max(1.0, u, abs(v), sum(p), max(map(abs, sigma)) * max(1.0, u))
        sol = solve_two_fd(p, sigma, u, v)
        assert sol.boundary_flag is flag
        assert abs(math.fsum(sol.u_bar) - u) <= atol
        assert abs(math.fsum(sk * uk for sk, uk in zip(sigma, sol.u_bar)) - v) <= atol

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_saturated_level_warns_of_nothing(self):
        # x + sigma_3 y is large at the optimum: the two-branch occupation
        # and softplus overflowed exp in the branch np.where discards
        sol = solve_two_fd((5.0, 2.0, 1.0), (1.0, 2.0, 100.0), 2.5, 102.9998995)
        assert sol.boundary_flag is BoundaryFlag.INTERIOR_KKT
        assert math.fsum(sol.u_bar) == pytest.approx(2.5, rel=1e-10)


class TestFdFeasible:
    def test_examples(self):
        assert fd_feasible((1.0, 1.0), (1.0, 2.0), 1.0, 1.5) is Feasibility.INTERIOR
        assert fd_feasible((1.0, 1.0), (1.0, 2.0), 2.0, 3.0) is Feasibility.BOUNDARY
        assert fd_feasible((1.0, 1.0), (1.0, 2.0), 1.0, 2.5) is Feasibility.INFEASIBLE

    def test_origin_and_overfull(self):
        assert fd_feasible((1.0, 1.0), (1.0, 2.0), 0.0, 0.0) is Feasibility.BOUNDARY
        assert fd_feasible((1.0, 1.0), (1.0, 2.0), 2.5, 3.0) is Feasibility.INFEASIBLE

    def test_envelope_edges(self):
        p, s = (1.0, 2.0, 1.0), (1.0, 2.0, 5.0)
        assert fd_feasible(p, s, 1.0, 1.0) is Feasibility.BOUNDARY  # lower greedy
        assert fd_feasible(p, s, 1.0, 5.0) is Feasibility.BOUNDARY  # upper greedy
        assert fd_feasible(p, s, 1.0, 3.0) is Feasibility.INTERIOR

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.05, 0.95), st.floats(0.05, 0.95), st.floats(0.05, 0.95))
    def test_interior_points_have_feasible_certificates(self, a, b, c):
        # any box-interior assignment maps to a zonotope point that must not
        # be classified infeasible
        p, s = (1.0, 2.0, 1.5), (0.5, 1.0, 2.5)
        ubar = (a * p[0], b * p[1], c * p[2])
        u = sum(ubar)
        v = sum(si * ui for si, ui in zip(s, ubar))
        assert fd_feasible(p, s, u, v) is not Feasibility.INFEASIBLE


class TestFdGreedyFill:
    """finite._fd_fill, one array fill for both zonotope envelopes and the
    face solution, against the level-by-level loops it replaced
    (conftest.ref_envelope_v and ref_fd_face): its envelopes bit for bit,
    and on each face a solution inside the box that meets (u, v) within
    fd_feasible's atol, splits its marginal tie group in proportion to p
    and lies within 4 ulp(u) of the loop's, half of the draws with tied
    integer levels."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_fill_matches_the_loops(self, data):
        n = data.draw(st.integers(1, 12))
        p = np.array(data.draw(st.lists(st.floats(0.01, 10.0), min_size=n, max_size=n)))
        tied = data.draw(st.booleans())
        levels = st.integers(-3, 3).map(float) if tied else st.floats(-10.0, 10.0)
        s = np.array(data.draw(st.lists(levels, min_size=n, max_size=n)))
        rho = float(p.sum())
        u = data.draw(st.floats(1e-300, rho) | st.floats(1e-13, 1e-9))  # no subnormal splits
        envelopes = finite_module._fd_fill(p, s, u)[2]
        assert [x.hex() for x in envelopes] == [
            float(ref_envelope_v(p, s, u, lower)).hex() for lower in (True, False)
        ]
        for v in envelopes:
            atol = 1e-12 * max(1.0, u, abs(v), rho, float(np.abs(s).max()) * max(1.0, u))
            sol = solve_two_fd(p, s, u, v)
            lower = sol.boundary_flag is BoundaryFlag.LOWER_EDGE
            assert lower or sol.boundary_flag is BoundaryFlag.UPPER_EDGE
            u_bar = np.array(sol.u_bar)
            assert np.all(u_bar >= 0.0) and np.all(u_bar <= p)
            assert abs(math.fsum(u_bar.tolist()) - u) <= atol
            assert abs(math.fsum((s * u_bar).tolist()) - v) <= atol
            partial = (u_bar > 0.0) & (u_bar < p)
            if partial.any():
                assert np.unique(s[partial]).size == 1
                ratio = (u_bar / p)[s == s[partial][0]]
                assert ratio.max() - ratio.min() <= 4.0 * np.finfo(float).eps * ratio.max()
            ref = np.array(ref_fd_face(p, s, u, lower))
            assert np.all(np.abs(u_bar - ref) <= 4.0 * math.ulp(u))


class TestOracle:
    def test_feasibility_agrees_with_oracle(self):
        # Interior points admit a feasible grid point; infeasible ones none
        p, s = (1.0, 2.0, 1.5), (0.5, 1.0, 2.5)
        assert fd_feasible(p, s, 2.0, 2.2) is Feasibility.INTERIOR
        brute_force_oracle(FD, p, s, 2.0, 2.2, 2000)  # must not raise
        assert fd_feasible(p, s, 2.0, 6.0) is Feasibility.INFEASIBLE
        with pytest.raises(InfeasibleError):
            brute_force_oracle(FD, p, s, 2.0, 6.0, 2000)

    def test_n2_unique_point(self):
        # two constraints, two unknowns: the objective at the solved point
        val = brute_force_oracle(MB, (1.0, 1.0), (1.0, 2.0), 1.0, 1.5, 100)
        assert val == pytest.approx(_w_sum(MB, (1.0, 1.0), (0.5, 0.5)), abs=1e-12)

    def test_n3_matches_kkt(self):
        val = brute_force_oracle(MB, (1.0, 1.0, 1.0), (1.0, 2.0, 3.0), 1.0, 2.0, 10_000)
        ref = solve_two_mb_be(MB, (1.0, 1.0, 1.0), (1.0, 2.0, 3.0), 1.0, 2.0).value
        assert val == pytest.approx(ref, abs=1e-6)

    def test_n4_fd_matches_kkt(self):
        p, s = (1.0, 1.0, 1.0), (1.0, 2.0, 3.0)
        val = brute_force_oracle(FD, p, s, 1.5, 3.0, 10_000)
        ref = solve_two_fd(p, s, 1.5, 3.0).value
        assert val == pytest.approx(ref, abs=1e-4)

    def test_rejects_large_n(self):
        with pytest.raises(DomainError):
            brute_force_oracle(MB, (1.0,) * 5, (1.0, 2, 3, 4, 5), 1.0, 2.0, 100)


def _random_interior_instance(rng, n, kind):
    p = tuple(float(x) for x in rng.uniform(1.0, 3.0, n))
    sigma = tuple(float(x) for x in np.sort(rng.uniform(0.2, 5.0, n) + np.arange(n) * 0.3))
    fracs = rng.uniform(0.15, 0.85, n)
    caps = p if kind is FD else tuple(2.0 for _ in p)
    ubar = tuple(f * c for f, c in zip(fracs, caps))
    u = sum(ubar)
    v = sum(si * ui for si, ui in zip(sigma, ubar))
    return p, sigma, u, v


@pytest.mark.parametrize("kind", [MB, BE, FD])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_solver_matches_oracle_randomized(kind, n):
    rng = np.random.default_rng(1000 * n + len(kind.value) + ord(kind.value[0]))
    for _ in range(4):
        p, sigma, u, v = _random_interior_instance(rng, n, kind)
        if kind is FD:
            sol = solve_two_fd(p, sigma, u, v)
        else:
            sol = solve_two_mb_be(kind, p, sigma, u, v)
        ref = brute_force_oracle(kind, p, sigma, u, v, 4000)
        assert sol.value == pytest.approx(ref, abs=1e-4)
        if sol.boundary_flag is BoundaryFlag.INTERIOR_KKT:
            assert kkt_residual(kind, p, sigma, sol.u_bar, *sol.multipliers) <= 1e-8


def test_single_constraint_never_worse():
    # dropping the second constraint can only lower the optimum
    rng = np.random.default_rng(7)
    p, sigma = (1.0, 1.5, 2.0), (0.5, 1.0, 2.0)
    for _ in range(20):
        _, _, u, v = _random_interior_instance(rng, 3, MB)
        two = solve_two_mb_be(MB, p, sigma, u, v).value if _cone_ok(sigma, u, v) else None
        if two is None:
            continue
        one = solve_single(MB, p, u).value
        assert one <= two + 1e-10


def _cone_ok(sigma, u, v):
    return min(sigma) * u < v < max(sigma) * u


def test_scaling_of_mb_solutions():
    # feasibility is scale invariant and the MB optimizer scales linearly,
    # verified by direct re-solve rather than assumed
    p, s = (1.0, 1.0, 2.0), (1.0, 2.0, 3.0)
    base = solve_two_mb_be(MB, p, s, 1.0, 2.0)
    for t in (0.5, 2.0, 7.5):
        scaled = solve_two_mb_be(MB, p, s, t * 1.0, t * 2.0)
        assert scaled.u_bar == pytest.approx(tuple(t * x for x in base.u_bar), rel=1e-9)


_BAD_ARRAYS = [
    pytest.param((1.0, 0.0, 1.0), (1.0, 2.0, 3.0), 1.0, 2.0, id="zero-weight"),
    pytest.param((1.0, -1.0, 1.0), (1.0, 2.0, 3.0), 1.0, 2.0, id="negative-weight"),
    pytest.param((0.0, 1.0), (1.0, 2.0), 1.0, 1.0, id="zero-weight-on-the-edge"),
    pytest.param((1.0, math.inf), (1.0, 2.0), 1.0, 1.5, id="infinite-weight"),
    pytest.param((1.0, math.nan), (1.0, 2.0), 1.0, 1.5, id="nan-weight"),
    pytest.param((1.0, 1.0), (1.0, math.nan), 1.0, 1.5, id="nan-level"),
    pytest.param((1.0, 1.0), (-math.inf, 2.0), 1.0, 1.5, id="infinite-level"),
    # sigma_k^2 in Var_n(sigma) overflows past about 1.3e154
    pytest.param((1.0, 1.0), (-1e300, 1e300), 1.0, 1e299, id="huge-levels"),
    pytest.param((1.0, 1.0), (0.0, 2e150), 1.0, 1e150, id="level-above-1e150"),
    pytest.param((1.0, 1.0), (1.0, 2.0, 3.0), 1.0, 1.5, id="length-mismatch"),
    pytest.param((), (), 1.0, 1.5, id="empty"),
]

_TWO_CONSTRAINT_CALLS = pytest.mark.parametrize(
    "call",
    [
        lambda p, s, u, v: solve_two_mb_be(MB, p, s, u, v),
        lambda p, s, u, v: solve_two_mb_be(BE, p, s, u, v),
        lambda p, s, u, v: solve_two_fd(p, s, u, v),
        lambda p, s, u, v: fd_feasible(p, s, u, v),
        lambda p, s, u, v: FiniteProblem(MB, p, s, u, v),
    ],
    ids=["mb", "be", "fd", "fd-feasible", "problem"],
)


class TestInvalidInputs:
    """Every finite entry point rejects invalid weights, levels and targets
    with a library error, before any numpy warning or nan."""

    @pytest.fixture(autouse=True)
    def _warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    @pytest.mark.parametrize("p, s, u, v", _BAD_ARRAYS)
    @_TWO_CONSTRAINT_CALLS
    def test_weights_and_levels(self, call, p, s, u, v):
        with pytest.raises(DomainError):
            call(p, s, u, v)

    @pytest.mark.parametrize("u, v", [(math.nan, 1.5), (1.0, math.inf)], ids=["nan-u", "inf-v"])
    @_TWO_CONSTRAINT_CALLS
    def test_targets(self, call, u, v):
        with pytest.raises(RangeError):
            call((1.0, 1.0), (1.0, 2.0), u, v)

    @pytest.mark.parametrize("p, s, u, v", _BAD_ARRAYS)
    def test_slope_map_weights_and_levels(self, p, s, u, v):
        with pytest.raises(DomainError):
            phi_n(p, s, 0.0)
        with pytest.raises(DomainError):
            phi_n_inverse(p, s, v / u)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_slope_map_arguments(self, t):
        with pytest.raises(RangeError):
            phi_n((1.0, 1.0), (1.0, 2.0), t)
        with pytest.raises(RangeError):
            phi_n_inverse((1.0, 1.0), (1.0, 2.0), t)

    @pytest.mark.parametrize(
        "p, u",
        [((1.0, 0.0), 1.0), ((1.0, math.nan), 1.0), ((), 1.0), ((1.0, 1.0), math.nan)],
        ids=["zero-weight", "nan-weight", "empty", "nan-u"],
    )
    def test_single_constraint(self, p, u):
        error = RangeError if math.isnan(u) else DomainError
        with pytest.raises(error):
            solve_single(MB, p, u)
        with pytest.raises(error):
            FiniteProblem(MB, p, p, u)


_FINITE_EXTREME = [
    0.0, -0.0, 5e-324, sys.float_info.min, 1e-300, 1e-100, 1.0, 1e100, 1e300,
    sys.float_info.max, -sys.float_info.max, math.inf, -math.inf, math.nan,
]
_FINITE_WEIGHTS = [(1.0, 1.0), (1.0, 1e-300), (1e300, 1.0), (5e-324, 1.0), (1.0, 2.0, 3.0)]
# 1e151 is past the levels' 1e150 bound
_FINITE_SCALES = [5e-324, 1e-300, 1e-100, 1.0, 1e100, 1e150, 1e151]


@st.composite
def _finite_calls(draw):
    """(entry, args): phi_n_inverse or solve_two_mb_be on weights from
    _FINITE_WEIGHTS, levels k c (k = 0, 1, ...), c from _FINITE_SCALES or
    its negative, at a slope w inside the levels' span, 1 ulp inside either
    end or an extreme float, and for solve_two_mb_be a mass u extreme too."""
    p = draw(st.sampled_from(_FINITE_WEIGHTS))
    scale = draw(st.sampled_from(_FINITE_SCALES)) * draw(st.sampled_from([1.0, -1.0]))
    s = tuple(scale * k for k in range(len(p)))
    lo, hi = min(s), max(s)
    inside = [0.5 * (lo + hi), math.nextafter(lo, math.inf), math.nextafter(hi, -math.inf)]
    w = draw(st.sampled_from(inside + _FINITE_EXTREME))
    if draw(st.booleans()):
        return phi_n_inverse, (p, s, w)
    u = draw(st.sampled_from([1.0, 5e-324, 1e-300, 1e300, sys.float_info.max]))
    return solve_two_mb_be, (draw(st.sampled_from([MB, BE])), p, s, u, u * w)


# 1e150 is the levels' bound, and two weights of the float maximum overflow their sum
_FD_EXTREME = [
    0.0, -0.0, 5e-324, 1.0, 700.0, -700.0, 1e150, -1e150, 1e300, -1e300,
    sys.float_info.max, math.inf, -math.inf, math.nan,
]


@st.composite
def _fd_calls(draw):
    """(entry, args): solve_two_fd or fd_feasible on two or three weights
    from the positive finite _FD_EXTREME (TestInvalidInputs refuses the
    others), levels and a target (u, v) from _FD_EXTREME."""
    entry = draw(st.sampled_from([solve_two_fd, fd_feasible]))
    size = draw(st.sampled_from([2, 3]))
    p = [draw(st.sampled_from([x for x in _FD_EXTREME if 0.0 < x < math.inf])) for _ in range(size)]
    s = [draw(st.sampled_from(_FD_EXTREME)) for _ in range(size)]
    return entry, (p, s, draw(st.sampled_from(_FD_EXTREME)), draw(st.sampled_from(_FD_EXTREME)))


class TestOnlyEmpErrorEscapes:
    """phi_n_inverse and solve_two_mb_be at extreme slopes, masses and
    level scales return or raise an EmpError, with no float warning."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_finite_calls())
    def test_extreme_slopes_masses_and_scales(self, call):
        entry, args = call
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                out = entry(*args)
            except EmpError:
                return
        if entry is phi_n_inverse:
            assert not math.isnan(out)

    def test_single_split_of_a_mass_whose_product_with_a_weight_overflows(self):
        # u p_1 = 1e600 overflowed (a numpy warning) though u p_1 / rho does not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_single(MB, (1e300, 1.0), 1e300)
            edge = solve_two_mb_be(MB, (1e300, 1.0), (0.0, 1.0), 1e300, 0.0)
        assert sol.u_bar == pytest.approx((1e300, 1.0), rel=1e-15)
        assert edge.boundary_flag is BoundaryFlag.LOWER_EDGE
        assert edge.u_bar == pytest.approx((1e300, 0.0), rel=1e-15)

    def test_value_where_a_ratio_to_its_weight_overflows(self):
        # u_2 / p_2 is about 1e310: the ratio overflowed (a numpy warning)
        # and the value came out +inf, though its terms u_k (ln u_k - ln p_k
        # - 1) are about 7e12 in all
        p, u = (1.0, 1e-300), 1e10
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_two_mb_be(MB, p, (0.0, 1.0), u, 0.99 * u)
        assert sol.boundary_flag is BoundaryFlag.INTERIOR_KKT
        want = math.fsum(uk * (math.log(uk) - math.log(pk) - 1.0) for pk, uk in zip(p, sol.u_bar))
        assert 7e12 < sol.value == pytest.approx(want, rel=1e-12)

    def test_bose_einstein_value_at_a_mass_near_the_float_maximum(self):
        # u ln u - (1 + u) ln(1 + u) cancelled: W(u / rho) read nan here,
        # with no exception; past u = 1 it is -ln(1 + u) - u ln(1 + 1/u),
        # -ln u - 1 to within 1/u
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_single(BE, (1.0, 2.0), 1e306)
        assert sol.value == pytest.approx(3.0 * (-math.log(1e306 / 3.0) - 1.0), rel=1e-15)

    @pytest.mark.parametrize("p, sigma, u, v", [
        ((1e308, 1e308), (1.0, 2.0), 1.0, 1.5),  # the weights' sum overflows
        ((1.0, 1e300), (-1e150, 1e150), 1e299, -5.0),  # max |sigma| u overflows
    ])
    def test_fd_scale_past_the_float_range_is_refused(self, p, sigma, u, v):
        # the zonotope's tolerance scale overflowed to inf, so every target
        # lay "within atol" of an envelope: the interior target came back
        # as a lower-edge solution and the infeasible one (its lower
        # envelope is about 1e449) as one whose sum sigma u is inf, each
        # with a numpy overflow warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (fd_feasible, solve_two_fd):
                with pytest.raises(DomainError):
                    call(p, sigma, u, v)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_fd_calls())
    def test_fermi_dirac_at_extreme_weights_levels_and_targets(self, call):
        entry, args = call
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                out = entry(*args)
            except EmpError:
                return
        if entry is solve_two_fd:
            assert not math.isnan(out.value) and not any(map(math.isnan, out.u_bar))


def test_finite_problem_dispatch():
    prob = FiniteProblem(MB, (1.0, 1.0), (1.0, 2.0), 1.0, 1.5)
    assert prob.solve().value == pytest.approx(math.log(0.5) - 1.0, abs=1e-12)
    single = FiniteProblem(FD, (1.0, 1.0), (1.0, 2.0), 1.0)
    assert single.solve().boundary_flag is BoundaryFlag.SINGLE_CONSTRAINT


class TestDualNearItsEdges:
    """Targets (u, v) = sum_k p_k (W*)'(x + sigma_k y) (1, sigma_k) from
    drawn multipliers: n from 3 to 60, p_k = e^U(-2, 2), levels shifted so
    that min sigma = 0.5.  Under bose-einstein the first level sits just
    below condensation, x + 0.5 y = -gap with gap log-uniform in [1e-7, 1],
    where the dual's multipliers lose 1e-16 / gap relative accuracy unless
    1 - e^t is -expm1(t).  Under fermi-dirac the low levels are saturated,
    x up to 60, where p_k e^t / (1 + e^t) can round above p_k: the
    occupations come from (W*)' itself, which never exceeds 1."""

    @staticmethod
    def _draw(rng):
        n = int(rng.integers(3, 61))
        p = np.exp(rng.uniform(-2.0, 2.0, n))
        s = rng.uniform(0.0, 10.0, n)
        return p, s + (0.5 - s.min())

    @staticmethod
    def _target(kind, p, s, x, y):
        g = entropy_conjugate_derivative(kind, x + s * y)
        return math.fsum((p * g).tolist()), math.fsum((p * s * g).tolist())

    def test_be_solutions_meet_their_targets_near_condensation(self):
        # a draw near gap 1e-7 may have a numerically rank-one dual Hessian,
        # where the Newton raises rather than return a wrong point
        rng = np.random.default_rng(30)
        solved = 0
        for _ in range(150):
            p, s = self._draw(rng)
            gap = 10.0 ** rng.uniform(-7.0, 0.0)
            y = -rng.uniform(0.1, 3.0)
            u, v = self._target(BE, p, s, -gap - 0.5 * y, y)
            try:
                sol = solve_two_mb_be(BE, p, s, u, v)
            except NumericalFailureError:
                continue
            solved += 1
            u_bar = np.array(sol.u_bar)
            assert math.fsum(u_bar.tolist()) == pytest.approx(u, rel=5e-11, abs=0.0)
            assert math.fsum((s * u_bar).tolist()) == pytest.approx(v, rel=5e-11, abs=0.0)
        assert solved >= 140

    def test_fd_occupations_stay_within_their_weights(self):
        rng = np.random.default_rng(31)
        for _ in range(150):
            p, s = self._draw(rng)
            x = rng.uniform(0.0, 60.0)
            y = -(x + rng.uniform(5.0, 30.0)) / s.max()  # the top level at t <= -5
            sol = solve_two_fd(p, s, *self._target(FD, p, s, x, y))
            assert math.isfinite(sol.value)
            assert all(uk <= pk for uk, pk in zip(sol.u_bar, p.tolist()))

    def test_fd_targets_next_to_the_full_vertex_solve(self):
        # at u = rho - d, rho = sum p_k, v may lie d max sigma below
        # sum sigma_k p_k; fd_feasible once asked for it within atol there
        # and called draws 8 and 133 (d = 2.6e-11 and 9.9e-11) infeasible
        rng = np.random.default_rng(7)
        near = 0
        for _ in range(300):
            n = int(rng.integers(3, 61))
            p = np.exp(rng.uniform(-2.0, 2.0, n))
            s = rng.uniform(0.5, 10.5, n)
            x, y = rng.uniform(0.0, 60.0), -rng.uniform(0.5, 10.0)
            u, v = self._target(FD, p, s, x, y)
            if p.sum() - u > 1e-8 * p.sum():
                continue
            near += 1
            u_bar = np.array(solve_two_fd(p, s, u, v).u_bar)
            assert math.fsum(u_bar.tolist()) == pytest.approx(u, rel=5e-11, abs=0.0)
            assert math.fsum((s * u_bar).tolist()) == pytest.approx(v, rel=5e-11, abs=0.0)
        assert near == 35

    @pytest.mark.parametrize("x, y", [(-25.0, -0.01), (-22.0, -0.05), (-26.0, -0.001)])
    def test_fd_targets_next_to_the_empty_vertex_solve(self, x, y):
        # u below atol = 1e-10 with v up to u max sigma: fd_feasible once
        # asked |v| <= atol there and called these targets infeasible
        p, s = np.array([1.0, 1.0]), np.array([1.0, 100.0])
        u, v = self._target(FD, p, s, x, y)
        assert fd_feasible(p, s, u, v) is Feasibility.INTERIOR
        sol = solve_two_fd(p, s, u, v)
        assert sol.multipliers == pytest.approx((x, y), rel=1e-9, abs=0.0)


class TestFiniteDualAgainstMpmath:
    """finite._finite_dual, the one finite-dual evaluator, against its sums
    in 50-digit arithmetic at the float t_k = x + sigma_k y it forms: h, the
    gradient and the Hessian within 1e-13 relative.  The bose-einstein cases
    put max t at -1e-12, -1e-6 and -0.5, where 1 - e^t cancels unless it is
    -expm1(t); the fermi-dirac ones reach t = 800, past the kernel's
    clipped z = e^700, with unsorted levels and both signs of y."""

    P = (1.3, 0.4, 2.2, 0.9)
    S = (2.0, 0.5, 3.75, 1.25)  # unsorted, min 0.5 and max 3.75

    @staticmethod
    def _reference(mpmath, kind, log_p, s, x, y):
        t = x + s * y
        rows = [[mpmath.mpf(0)] * 3 for _ in range(3)]
        for lp, sk, tk in zip(log_p.tolist(), s.tolist(), t.tolist()):
            pk, tk, sk = mpmath.exp(mpmath.mpf(lp)), mpmath.mpf(tk), mpmath.mpf(sk)
            z = mpmath.exp(tk)
            den = 1 + z if kind is FD else 1 - z
            # log1p: at 50 digits log(1 + z) is exactly 0 below z = 1e-50
            conj = mpmath.log1p(z) if kind is FD else -mpmath.log1p(-z)
            for i, m in enumerate((conj, z / den, z / den**2)):
                for k in range(3):
                    rows[i][k] += pk * m * sk**k
        (h, _, _), (gu, gv, _), hess = rows
        return [h, gu, gv, *hess]

    @pytest.mark.parametrize(
        "kind, t_max, y",
        [
            (BE, -1e-12, -1.0),
            (BE, -1e-6, -1.0),
            (BE, -0.5, -1.0),
            (BE, -1e-6, 0.25),
            (FD, 800.0, 150.0),
            (FD, 800.0, -300.0),
        ],
    )
    def test_sums(self, kind, t_max, y):
        mpmath = pytest.importorskip("mpmath")
        log_p, s = np.log(np.array(self.P)), np.array(self.S)
        top = s.max() if y > 0.0 else s.min()
        x = t_max - top * y  # max t = t_max, up to the rounding of x
        assert float(np.max(x + s * y)) == pytest.approx(t_max, rel=1e-3)
        with np.errstate(over="ignore"):  # p_k e^t overflows past t = 709; its terms are redone
            h, grad, hess = finite_module._finite_dual(
                kind, log_p, *finite_module._dual_rows(s), x, y
            )
        with mpmath.workdps(50):
            want = [float(w) for w in self._reference(mpmath, kind, log_p, s, x, y)]
        for got, w in zip((h, *grad, *hess), want):
            assert got == pytest.approx(w, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("kind", [BE, FD])
    def test_sums_where_z_underflows(self, kind):
        # ln p = 700 on the level whose t is -800: its z = e^t underflows to
        # 0 while its base p e^t = e^-100 carries every sum, and the W* row
        # there is exactly base (its ln(1 + z) / z taken at the clipped z)
        mpmath = pytest.importorskip("mpmath")
        log_p, s = np.log(np.array(self.P)), np.array(self.S)
        log_p[np.argmax(s)] = 700.0
        x, y = -650.0, -40.0  # t from -670 down to -800
        assert float(np.min(x + s * y)) == -800.0 and np.exp(-800.0) == 0.0
        h, grad, hess = finite_module._finite_dual(kind, log_p, *finite_module._dual_rows(s), x, y)
        with mpmath.workdps(400):  # at 50 digits ln(1 + e^-800) would be ln 1 = 0
            want = [float(w) for w in self._reference(mpmath, kind, log_p, s, x, y)]
        for got, w in zip((h, *grad, *hess), want):
            assert got == pytest.approx(w, rel=1e-13, abs=0.0)
