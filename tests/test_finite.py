"""Finite-n solvers: closed-form splits, multiplier solves with KKT
certificates, zonotope feasibility, and agreement with the independent
grid-refinement oracle on randomized instances."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entromin import (
    BoundaryFlag,
    BudgetError,
    DomainError,
    Entropy,
    Feasibility,
    FiniteProblem,
    InfeasibleError,
    NumericalFailureError,
    RangeError,
    entropy_value,
    fd_feasible,
    kkt_residual,
    phi_n,
    phi_n_inverse,
    solve_single,
    solve_two_fd,
    solve_two_mb_be,
)
from entromin.rootfind import minimize_convex_2d, newton_root

from conftest import brute_force_oracle

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

    @pytest.mark.parametrize("w, tol", [(5e99, 5e87), (3e99, 1e87)])
    def test_inverse_raises_where_it_cannot_reach_a_tiny_root(self, w, tol):
        # the root is near t = 6.9e-98, Var_n is 0 at every t of the first
        # bracket [0, 1] right of it, so the steps bisect: a width stop of
        # 1e-14 once returned t = 7.1e-15 (and t = 0.0) far off tolerance
        with pytest.raises(NumericalFailureError):
            phi_n_inverse((1.0, 1e-300), (0.0, 1e100), w, tol)


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
            ),
            lambda x, y: True,
            (-5.0, 4.0), (1.0, 1.0), 1e-12,
        )
        assert res.converged
        assert res.point == pytest.approx((math.log(2.0), math.log(3.0)), abs=1e-12)
        assert max(map(abs, res.residual)) <= 1e-12

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
            )

        res = minimize_convex_2d(
            evaluate,
            lambda x, y: x > 0.0 and y > 0.0,
            (30.0, 0.01), (1.0, 1.0), 1e-12,
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
            ),
            lambda x, y: True,
            (1.0, 1.0), (1.0, 1.0), 1e-12,
        )
        assert not res.converged
        assert res.point == (1.0, 1.0) and "degenerate" in res.message

    @pytest.mark.parametrize("noise, converged", [(2e-10, True), (2e-9, False)])
    def test_stalled_newton_accepted_up_to_1e_9(self, noise, converged):
        # gradient noise of alternating sign keeps the residual near 2 noise,
        # above tol = 1e-12: the best point is accepted when its residual is
        # within 1e-9 and reported as stalled otherwise
        sign = [1.0]

        def evaluate(x, y):
            sign[0] = -sign[0]
            d = sign[0] * noise
            return (
                math.exp(x) + math.exp(y) - 2.0 * x - 3.0 * y,
                (math.exp(x) - 2.0 + d, math.exp(y) - 3.0 + d),
                (math.exp(x), 0.0, math.exp(y)),
            )

        res = minimize_convex_2d(
            evaluate, lambda x, y: True, (-5.0, 4.0), (1.0, 1.0), 1e-12
        )
        assert res.converged is converged
        assert 1e-12 < max(map(abs, res.residual)) <= 2.5 * noise
        if not converged:
            assert "stalled at residual" in res.message


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


def test_finite_problem_dispatch():
    prob = FiniteProblem(MB, (1.0, 1.0), (1.0, 2.0), 1.0, 1.5)
    assert prob.solve().value == pytest.approx(math.log(0.5) - 1.0, abs=1e-12)
    single = FiniteProblem(FD, (1.0, 1.0), (1.0, 2.0), 1.0)
    assert single.solve().boundary_flag is BoundaryFlag.SINGLE_CONSTRAINT
