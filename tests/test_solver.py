"""The infinite-dimensional solver: region classification, closed-form
values, attainment, epsilon-optimal families, forward/inverse solves,
objective evaluation, weak duality and the biconjugate identity."""

import gc
import math
import sys
import threading
import time
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entromin import (
    Arithmetic,
    BudgetError,
    DomainError,
    EmpError,
    EmpSolution,
    EmpSolver,
    EpsilonFamily,
    Entropy,
    ExplicitPrefix,
    ExplosiveWeights,
    InverseFailure,
    Lattice3D,
    LogLevels,
    PowerLaw,
    RangeError,
    Region,
    WeightedGeometric,
    profile,
    series,
    solve_two_mb_be,
)
from entromin import solver as solver_module
from entromin.rootfind import solve_bracketed

from conftest import LN2, ZETA2, ZETA3, objective_exponential

MB = Entropy.MAXWELL_BOLTZMANN
BE = Entropy.BOSE_EINSTEIN
FD = Entropy.FERMI_DIRAC


@pytest.fixture(scope="module")
def geo_solver(geometric):
    return EmpSolver(geometric)

@pytest.fixture(scope="module")
def zeta_solver(zeta_family):
    return EmpSolver(zeta_family)

@pytest.fixture(scope="module")
def const_solver():
    return EmpSolver(Arithmetic(5.0, 0.0))

@pytest.fixture(scope="module")
def divergent_solver():
    return EmpSolver(ExplosiveWeights())


class TestClassify:
    def test_origin(self, geo_solver):
        assert geo_solver.classify(0.0, 0.0) is Region.ORIGIN

    def test_below_cone(self, geo_solver):
        assert geo_solver.classify(1.0, 0.5) is Region.BELOW_CONE

    def test_lower_boundary(self, geo_solver):
        assert geo_solver.classify(3.0, 3.0) is Region.LOWER_BOUNDARY

    def test_interior(self, geo_solver):
        assert geo_solver.classify(1.0, 2.0) is Region.INTERIOR

    def test_beyond_theta2(self, zeta_solver):
        assert zeta_solver.classify(1.0, 2.0) is Region.BEYOND_THETA2

    def test_upper_boundary(self, zeta_solver):
        t2 = zeta_solver.profile.theta2
        assert zeta_solver.classify(1.0, t2) is Region.UPPER_BOUNDARY_THETA2

    def test_zero_positive_v(self, zeta_solver):
        assert zeta_solver.classify(0.0, 1.0) is Region.ZERO_WITH_POSITIVE_V

    def test_negative_u(self, geo_solver):
        assert geo_solver.classify(-1.0, 1.0) is Region.INFEASIBLE_NEGATIVE
        assert geo_solver.classify(0.0, -1.0) is Region.INFEASIBLE_NEGATIVE

    def test_constant_family(self, const_solver):
        assert const_solver.classify(1.0, 5.0) is Region.DEGENERATE_CONSTANT_SIGMA
        assert const_solver.classify(0.0, 0.0) is Region.ORIGIN
        assert const_solver.classify(1.0, 4.0) is Region.BELOW_CONE

    def test_divergent_family(self, divergent_solver):
        assert divergent_solver.classify(1.0, 2.0) is Region.DEGENERATE_ALL_DIVERGENT
        assert divergent_solver.classify(1.0, 1.0) is Region.LOWER_BOUNDARY
        assert divergent_solver.classify(1.0, 0.2) is Region.BELOW_CONE

    @settings(max_examples=120, deadline=None)
    @given(
        st.one_of(st.just(0.0), st.floats(-2.0, -0.01), st.floats(0.01, 4.0)),
        st.one_of(st.just(0.0), st.floats(-2.0, -0.01), st.floats(0.01, 8.0)),
    )
    def test_exactly_one_tag(self, geo_solver, u, v):
        # every plane point gets exactly one region, and value semantics agree
        region = geo_solver.classify(u, v)
        value = geo_solver.value_mb(u, v)
        if region in (Region.INFEASIBLE_NEGATIVE, Region.BELOW_CONE, Region.ZERO_WITH_POSITIVE_V):
            assert value == math.inf
        elif region is Region.ORIGIN:
            assert value == 0.0
        else:
            assert value < math.inf

    @pytest.mark.parametrize(
        "u,v,name",
        [
            (math.nan, 2.0, "u"),
            (math.inf, 2.0, "u"),
            (-math.inf, 2.0, "u"),
            (1.0, math.nan, "v"),
            (1.0, math.inf, "v"),
            (1.0, -math.inf, "v"),
        ],
    )
    @pytest.mark.parametrize(
        "call",
        [
            lambda s, u, v: s.classify(u, v),
            lambda s, u, v: s.value_mb(u, v),
            lambda s, u, v: s.h_star_mb(u, v),
            lambda s, u, v: s.solve_mb(u, v),
            lambda s, u, v: s.inverse_solve_bf(BE, u, v),
        ],
        ids=["classify", "value_mb", "h_star_mb", "solve_mb", "inverse_solve_bf"],
    )
    def test_non_finite_input_rejected(self, geo_solver, call, u, v, name):
        with pytest.raises(RangeError, match=rf"^{name} must be finite"):
            call(geo_solver, u, v)

    def test_tiny_target_is_interior(self, geo_solver):
        # with an absolute snap, every point below 1e-12 was on the boundary
        assert geo_solver.classify(1e-300, 5e-300) is Region.INTERIOR
        sol = geo_solver.solve_mb(1e-300, 5e-300)
        assert sol.region is Region.INTERIOR
        assert sol.multipliers[1] == pytest.approx(math.log(0.8), abs=1e-11)

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(["geo", "zeta", "const", "divergent"]),
        st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3)),
        # slopes below 1e-100 in magnitude are left out: with t down to
        # 1e-200, t * v would underflow to a subnormal or to 0, and (0, 0) is
        # the origin, not a rescaled (0, v)
        st.one_of(
            st.sampled_from(["theta1", "theta2"]),
            st.floats(-2.0, 8.0).filter(lambda w: w == 0.0 or abs(w) >= 1e-100),
        ),
        st.floats(-200.0, 200.0),
    )
    def test_region_is_scale_invariant(self, geo_solver, zeta_solver, const_solver,
                                       divergent_solver, which, u, w, log_t):
        solver = {
            "geo": geo_solver, "zeta": zeta_solver,
            "const": const_solver, "divergent": divergent_solver,
        }[which]
        # the boundary slopes of each family: theta1 (the constant level of
        # Arithmetic(5, 0)) and theta2 where it is finite
        bounds = {"geo": (1.0, 1.0), "zeta": (1.0, zeta_solver.profile.theta2),
                  "const": (5.0, 5.0), "divergent": (1.0, 1.0)}[which]
        if isinstance(w, str):
            w = bounds[0] if w == "theta1" else bounds[1]
        v = w * u if u != 0.0 else w
        t = 10.0**log_t
        assert solver.classify(t * u, t * v) is solver.classify(u, v)


class TestValueMb:
    def test_interior_closed_form(self, geo_solver):
        assert geo_solver.value_mb(1.0, 2.0) == pytest.approx(-1.0 - 2.0 * LN2, abs=1e-11)

    def test_lower_boundary(self, geo_solver):
        assert geo_solver.value_mb(1.0, 1.0) == pytest.approx(-1.0, abs=1e-12)

    def test_beyond_theta2(self, zeta_solver):
        expect = -3.0 - math.log(ZETA3)
        assert zeta_solver.value_mb(1.0, 2.0) == pytest.approx(expect, abs=1e-9)

    def test_interior_against_truncated_primal(self, geo_solver, geometric):
        # independent cross-check: the explicit sequence 2^-n is feasible for
        # (1, 2) and sums the objective to -1 - 2 ln 2 analytically
        val = geo_solver.value_mb(1.0, 2.0)
        prefix = [2.0 ** -n for n in range(1, 60)]
        obj = geo_solver.objective_value(MB, prefix)
        assert obj == pytest.approx(val, abs=1e-10)

    def test_zero_with_positive_v_bookkeeping(self, zeta_solver):
        # H(0, v) = +inf (infeasible) while h*(0, v) = -alpha v stays finite
        assert zeta_solver.value_mb(0.0, 2.0) == math.inf
        assert zeta_solver.h_star_mb(0.0, 2.0) == pytest.approx(-2.0, abs=1e-12)

    def test_degenerate_values(self, const_solver, divergent_solver):
        assert const_solver.value_mb(1.0, 5.0) == -math.inf
        assert divergent_solver.value_mb(1.0, 2.0) == -math.inf
        assert const_solver.value_mb(1.0, 6.0) == math.inf

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.1, 3.0), st.floats(1.1, 6.0), st.floats(0.1, 3.0), st.floats(1.1, 6.0))
    def test_midpoint_convexity(self, geo_solver, u1, w1, u2, w2):
        p1, p2 = (u1, w1 * u1), (u2, w2 * u2)
        mid = (0.5 * (p1[0] + p2[0]), 0.5 * (p1[1] + p2[1]))
        lhs = geo_solver.value_mb(*mid)
        rhs = 0.5 * geo_solver.value_mb(*p1) + 0.5 * geo_solver.value_mb(*p2)
        assert lhs <= rhs + 1e-9


class TestSolveMb:
    def test_geometric_interior_sequence(self, geo_solver):
        sol = geo_solver.solve_mb(1.0, 2.0)
        assert sol.region is Region.INTERIOR and sol.attained
        for n in range(1, 21):
            assert sol.solution.term(n) == pytest.approx(2.0 ** -n, abs=1e-12)
        x, y = sol.multipliers
        assert x == pytest.approx(0.0, abs=1e-11)
        assert y == pytest.approx(-LN2, abs=1e-12)

    def test_lower_boundary_support(self, geo_solver):
        sol = geo_solver.solve_mb(3.0, 3.0)
        assert sol.region is Region.LOWER_BOUNDARY and sol.attained
        assert sol.solution.term(1) == pytest.approx(3.0, abs=1e-13)
        assert sol.solution.term(2) == 0.0
        assert sol.value == pytest.approx(3.0 * (math.log(3.0) - 1.0), abs=1e-12)

    def test_origin(self, geo_solver):
        sol = geo_solver.solve_mb(0.0, 0.0)
        assert sol.region is Region.ORIGIN and sol.value == 0.0
        assert sol.solution.term(5) == 0.0

    def test_upper_boundary_sequence(self, zeta_solver):
        t2 = zeta_solver.profile.theta2
        sol = zeta_solver.solve_mb(1.0, t2)
        assert sol.region is Region.UPPER_BOUNDARY_THETA2 and sol.attained
        for n in range(1, 30):
            assert sol.solution.term(n) == pytest.approx(n ** -3.0 / ZETA3, abs=1e-10)

    def test_beyond_theta2_not_attained(self, zeta_solver):
        sol = zeta_solver.solve_mb(1.0, 2.0)
        assert sol.region is Region.BEYOND_THETA2
        assert not sol.attained and sol.solution is None
        assert sol.epsilon_family is not None

    def test_attainment_consistency(self, geo_solver):
        # objective of the returned sequence reproduces the value, and the
        # constraints re-sum to the targets
        sol = geo_solver.solve_mb(1.4, 3.7)
        obj = objective_exponential(MB, sol.solution, 1e-12)
        assert obj == pytest.approx(sol.value, abs=1e-10)
        terms = sol.solution.prefix(2000)
        assert math.fsum(terms) == pytest.approx(1.4, abs=1e-10)
        assert math.fsum((n + 1) * t for n, t in enumerate(terms)) == pytest.approx(
            3.7, abs=1e-10
        )

    def test_attainment_consistency_at_upper_boundary(self, zeta_solver):
        # the case-(d) sequence lives exactly at y = -alpha; its objective
        # must still reproduce the value through the boundary brackets
        sol = zeta_solver.solve_mb(1.0, zeta_solver.profile.theta2)
        obj = objective_exponential(MB, sol.solution, 1e-9)
        assert obj == pytest.approx(sol.value, abs=1e-9)


    @pytest.mark.parametrize(
        "family, u, v",
        [
            (Arithmetic(0.0, 1.0), 1.0, 2.0),
            (Arithmetic(0.0, 1.0), 7.5, 30.0),
            (WeightedGeometric(1.0, 3.0), 0.3, 0.36),
            (WeightedGeometric(1.0, 3.0), 0.25, 0.25 * 1.176),
            (Lattice3D(1.0), 2.0, 24.0),
            (Lattice3D(1.0), 6.6, 6.6 * 70.4),
        ],
        ids=repr,
    )
    def test_interior_value_shared_with_value_mb(self, family, u, v):
        # value_mb, h_star_mb and solve_mb take an interior value from one
        # path, so the sweep and the classify mode print the same figure
        solver = EmpSolver(family)
        sol = solver.solve_mb(u, v)
        assert sol.region is Region.INTERIOR
        assert sol.value == sol.h_star == solver.value_mb(u, v) == solver.h_star_mb(u, v)

    def test_interior_f_from_root_pass(self, geo_solver, monkeypatch):
        # the root's last pass already certifies f(y) within the value's
        # tolerance, so neither an interior solve nor the conjugate of ln f
        # sums f again (_refine_f's re-sum is the one pass of f alone)
        moments = series._eval_moments

        def no_resum(family, y, tols, *args):
            if list(tols) == [(None, 0)]:
                raise AssertionError("f re-summed after the root")
            return moments(family, y, tols, *args)

        monkeypatch.setattr(series, "_eval_moments", no_resum)
        sol = geo_solver.solve_mb(1.0, 2.0)
        assert sol.value == pytest.approx(-1.0 - 2.0 * LN2, abs=1e-11)
        assert series.lnf_conjugate(geo_solver.family, 2.0, 1e-12) == pytest.approx(
            -2.0 * LN2, abs=1e-11
        )


class TestHomogeneity:
    """H(tu, tv) = t H(u, v) + t ln t u.  The interior f target is relative
    to |H|, so the identity holds to rounding at every scale, t u far above
    1 included."""

    FAMILIES = [
        Arithmetic(0.0, 1.0),
        WeightedGeometric(1.0, 3.0),
        Lattice3D(1.0),
        PowerLaw(1.0, 0.5),
    ]

    @staticmethod
    def _check(family, u, w, t):
        solver = EmpSolver(family)
        want = t * solver.value_mb(u, w * u) + t * math.log(t) * u
        got = solver.value_mb(t * u, t * (w * u))
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(FAMILIES),
        st.floats(-3.0, 3.0),
        st.floats(0.02, 0.98),
        st.floats(-200.0, 200.0),
    )
    def test_scaling(self, family, log_u, frac, log_t):
        prof = profile(family)
        # w across the cone (theta1, theta2), or up to 11 theta1 when open
        if math.isfinite(prof.theta2):
            w = prof.theta1 + frac * (prof.theta2 - prof.theta1)
        else:
            w = prof.theta1 * (1.0 + 10.0 * frac)
        self._check(family, 10.0**log_u, w, 10.0**log_t)

    @pytest.mark.parametrize("family", [Arithmetic(0.0, 1.0), PowerLaw(1.0, 0.5)], ids=repr)
    def test_overflowing_value_is_inf(self, family):
        # H(1e306, 1.5e306) is about 7e308, beyond the largest float
        assert EmpSolver(family).value_mb(1e306, 1.5e306) == math.inf

    @pytest.mark.parametrize("u, w, t", [(1.0, 1.19, 1e100), (0.5, 3.19, 1e150)])
    def test_scaling_log_levels(self, u, w, t):
        # about 1 s per solve, so two fixed points instead of a property
        self._check(LogLevels(1.0), u, w, t)


class TestEpsilonFamily:
    def test_members_are_feasible(self, zeta_solver, zeta_family):
        sol = zeta_solver.solve_mb(1.0, 2.0)
        member = sol.epsilon_family.member(128)
        u = math.fsum(member.terms)
        v = math.fsum(zeta_family.sigma(k + 1) * t for k, t in enumerate(member.terms))
        assert u == pytest.approx(1.0, abs=1e-10)
        assert v == pytest.approx(2.0, abs=1e-9)
        # the identity objective matches the direct sum
        direct = zeta_solver.objective_value(MB, list(member.terms))
        assert direct == pytest.approx(member.objective, abs=1e-10)

    def test_objectives_converge_to_value(self, zeta_solver):
        sol = zeta_solver.solve_mb(1.0, 2.0)
        gaps = [
            abs(sol.epsilon_family.member(n).objective - sol.value)
            for n in (64, 256, 1024, 4096)
        ]
        assert all(g > 0 for g in gaps)
        assert gaps[-1] < gaps[0] and gaps[-1] < 5e-3

    def test_converge_schedule(self, zeta_solver):
        sol = zeta_solver.solve_mb(1.0, 2.0)
        member = sol.epsilon_family.converge(1e-3, n_max=2**15)
        assert abs(member.objective - sol.value) <= 1e-3

    def test_member_builds_prefix_once(self, zeta_solver, monkeypatch):
        sol = zeta_solver.solve_mb(1.0, 2.0)
        fam = sol.epsilon_family._family
        calls = []
        orig = type(fam).log_terms

        def counting(self, y, lo, hi):
            calls.append((y, lo, hi))
            return orig(self, y, lo, hi)

        monkeypatch.setattr(type(fam), "log_terms", counting)
        member = sol.epsilon_family.member(256)
        assert calls == [(0.0, 1, 256)]
        assert len(member.terms) == 256

    def test_too_small_truncation_rejected(self, zeta_solver):
        sol = zeta_solver.solve_mb(1.0, 6.0)
        with pytest.raises(RangeError):
            sol.epsilon_family.member(2)

    # -- the member root against secant/bisection on the same prefix ---------

    @staticmethod
    def _prefix_slope(fam, n):
        log_p = fam.log_terms(0.0, 1, n)
        s = fam.sigma_array(1, n)

        def phi(t):
            lw = log_p + s * t
            e = np.exp(lw - lw.max())
            return float((s * e).sum() / e.sum())

        return phi

    @classmethod
    def _reference_lam(cls, eps_fam, n):
        """lam by solve_bracketed on [0, alpha]; None when n cannot reach v/u."""
        w = eps_fam.v / eps_fam.u
        a = eps_fam._prof.alpha
        phi = cls._prefix_slope(eps_fam._family, n)
        if not phi(-a) < w < phi(0.0):
            return None

        def g(lam):
            return phi(-lam) - w

        return solve_bracketed(
            g, 0.0, a, g(0.0), g(a), residual_tol=1e-12 * max(1.0, w), x_tol=1e-14
        ).x

    @staticmethod
    def _eps_family(solver, w):
        sol = solver.solve_mb(1.0, w)
        assert sol.region is Region.BEYOND_THETA2
        return sol.epsilon_family

    @pytest.mark.parametrize("params", [(1.0, 3.0), (0.5, 4.0)])
    @pytest.mark.parametrize("ratio", [1.05, 1.3, 2.0])
    def test_member_root_matches_bracketed_reference(self, params, ratio):
        solver = EmpSolver(WeightedGeometric(*params))
        w = ratio * solver.profile.theta2
        eps_fam = self._eps_family(solver, w)
        checked = 0
        for n in (8, 64, 256, 1024, 4096):
            ref = self._reference_lam(eps_fam, n)
            if ref is None:
                with pytest.raises(RangeError):
                    eps_fam.member(n)
                continue
            member = eps_fam.member(n)
            assert member.lam == pytest.approx(ref, abs=1e-12)
            phi = self._prefix_slope(eps_fam._family, n)
            assert abs(phi(-member.lam) - w) <= 1e-12 * max(1.0, w)
            checked += 1
        assert checked >= 3

    @classmethod
    def _reference_members(cls, eps_fam, until):
        """(n, lam, objective) of every reachable member of the doubling
        sequence from n = 8, by solve_bracketed roots, up to the first whose
        objective is within `until` of the value."""
        fam = eps_fam._family
        out = []
        n = 8
        while True:
            ref = cls._reference_lam(eps_fam, n)
            if ref is not None:
                lw = fam.log_terms(0.0, 1, n) - fam.sigma_array(1, n) * ref
                m = float(lw.max())
                ups = math.log(eps_fam.u) - (m + math.log(float(np.exp(lw - m).sum())))
                objective = (ups - 1.0) * eps_fam.u - ref * eps_fam.v
                out.append((n, ref, objective))
                if abs(objective - eps_fam.value) <= until:
                    return out
            n *= 2

    @staticmethod
    def _first_within(refs, value, epsilon):
        return next(r for r in refs if abs(r[2] - value) <= epsilon)

    @pytest.mark.parametrize("params", [(1.0, 3.0), (0.5, 4.0)])
    @pytest.mark.parametrize("ratio", [1.05, 1.3, 1.6, 2.0])
    def test_converge_matches_reference_doubling(self, params, ratio):
        solver = EmpSolver(WeightedGeometric(*params))
        eps_fam = self._eps_family(solver, ratio * solver.profile.theta2)
        refs = self._reference_members(eps_fam, 1e-4)
        for epsilon in (1e-2, 1e-3, 1e-4):
            n, lam, objective = self._first_within(refs, eps_fam.value, epsilon)
            got = eps_fam.converge(epsilon)
            assert got.n == n
            assert got.lam == pytest.approx(lam, abs=1e-12)
            assert got.objective == pytest.approx(objective, abs=1e-12 * max(1.0, abs(objective)))

    @pytest.mark.parametrize("params", [(1.0, 3.0), (0.5, 4.0)])
    @pytest.mark.parametrize("ratio", [1.05, 2.0])
    def test_converge_at_a_members_own_gap(self, params, ratio):
        # epsilon equal to a member's gap |objective - value|, and the floats
        # on either side of it: the dual-bound drop must keep the member
        # whose gap is exactly epsilon and the objective check must refuse it
        # one float below.  The gap is the one converge computes (a reference
        # root can differ from its root in the last bits of the objective).
        solver = EmpSolver(WeightedGeometric(*params))
        eps_fam = self._eps_family(solver, ratio * solver.profile.theta2)
        value = eps_fam.value
        refs = self._reference_members(eps_fam, 1e-3)
        for n, _, objective in refs[:-1]:
            member = eps_fam.converge(abs(objective - value) * (1.0 + 1e-9))
            assert member.n == n
            gap = abs(member.objective - value)
            for epsilon in (gap, math.nextafter(gap, math.inf)):
                assert eps_fam.converge(epsilon).n == n
            below = math.nextafter(gap, 0.0)
            later = [r for r in refs if r[0] > n]
            assert eps_fam.converge(below).n == self._first_within(later, value, below)[0]

    @pytest.mark.parametrize("ratio", [1.4, 1.7, 2.0])
    def test_prefix_terms_per_converge(self, zeta_solver, monkeypatch, ratio):
        # members provably outside epsilon are dropped after one pass, with
        # no endpoint pass and no terms; the returned member's terms come
        # from its last pass (about 11.8 n on the parent of this bound)
        eps_fam = self._eps_family(zeta_solver, ratio * zeta_solver.profile.theta2)
        solver_module._prefix_ends.cache_clear()
        terms = []

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def exp(self, x, *args, **kwargs):
                terms.append(np.size(x))
                return np.exp(x, *args, **kwargs)

        monkeypatch.setattr(solver_module, "np", CountingNumpy())
        member = eps_fam.converge(1e-3)
        assert sum(terms) <= 8 * member.n

    def test_endpoint_pass_cached_per_family_and_n(self, zeta_solver, monkeypatch):
        # the returned member's root is approached from one side, so its
        # other endpoint takes a pass the first time only
        eps_fam = self._eps_family(zeta_solver, 2.0)
        solver_module._prefix_ends.cache_clear()
        calls = []
        orig = solver_module._prefix_pass

        def counting(log_p, s, lam):
            calls.append(lam)
            return orig(log_p, s, lam)

        monkeypatch.setattr(solver_module, "_prefix_pass", counting)
        first = eps_fam.converge(1e-3)
        cold = len(calls)
        ends = solver_module._prefix_ends(eps_fam._family, first.n)
        assert ends
        phi = self._prefix_slope(eps_fam._family, first.n)
        assert all(got == phi(-lam) for lam, got in ends.items())
        again = eps_fam.converge(1e-3)
        assert again == first
        assert len(calls) - cold == cold - len(ends)

    def test_threads_share_one_solver(self, zeta_solver):
        eps_fam = self._eps_family(zeta_solver, 1.7 * zeta_solver.profile.theta2)
        solver_module._prefix_ends.cache_clear()
        start = threading.Barrier(2)
        got, errors = [None, None], []

        def run(k):
            try:
                start.wait(timeout=10.0)
                got[k] = eps_fam.converge(1e-3)
            except Exception as exc:  # reported below, from the test's thread
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(k,)) for k in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(old)
        assert not errors, errors
        assert got[0] == got[1]
        assert got[0] == eps_fam.converge(1e-3)

    @pytest.mark.parametrize("n", [2, 3, 64])
    def test_range_error_exactly_at_the_edges(self, zeta_solver, n):
        base = self._eps_family(zeta_solver, 2.0)
        phi = self._prefix_slope(base._family, n)
        a = base._prof.alpha
        for edge, inside in ((phi(0.0), -math.inf), (phi(-a), math.inf)):
            at = EpsilonFamily(base._family, base._prof, 1.0, edge, base.value)
            with pytest.raises(RangeError):
                at.member(n)
            w = math.nextafter(edge, inside)
            near = EpsilonFamily(base._family, base._prof, 1.0, w, base.value)
            member = near.member(n)
            assert 0.0 <= member.lam <= a
            assert abs(phi(-member.lam) - w) <= 1e-12 * max(1.0, w)

    def test_passes_per_converge(self, zeta_solver, monkeypatch):
        eps_fam = self._eps_family(zeta_solver, 2.0)
        calls = []
        orig = solver_module._prefix_pass

        def counting(log_p, s, lam):
            calls.append(len(s))
            return orig(log_p, s, lam)

        monkeypatch.setattr(solver_module, "_prefix_pass", counting)
        member = eps_fam.converge(1e-3)
        members = int(math.log2(member.n // 8)) + 1
        # secant/bisection took about 40 passes per member
        assert len(calls) <= 7 * members


class TestDichotomyBeyondTheta2:
    def test_boundary_candidate_misses_second_constraint(self, zeta_solver, zeta_family):
        # the closed-form sequence at (x, -alpha) matches the first moment
        # but its second moment locks at theta2 * u != v
        prof = zeta_solver.profile
        u, v = 1.0, 2.0
        n_end = 4000
        x = math.log(u / prof.f_at_boundary)
        terms = [
            math.exp(zeta_family.log_p(n) + x - zeta_family.sigma(n))
            for n in range(1, n_end + 1)
        ]
        # remaining zeta tails added as integral-bracket midpoints
        ex = math.exp(x)
        tail1 = ex * 0.25 * (n_end ** -2.0 + (n_end + 1) ** -2.0)
        tail2 = ex * 0.5 * (n_end ** -1.0 + (n_end + 1) ** -1.0)
        first = math.fsum(terms) + tail1
        second = math.fsum(
            zeta_family.sigma(n + 1) * t for n, t in enumerate(terms)
        ) + tail2
        assert first == pytest.approx(u, abs=1e-6)
        assert second == pytest.approx(prof.theta2 * u, abs=1e-6)
        assert abs(second - v) > 0.5


class TestForwardSolve:
    def test_mb_matches_inverse(self, geo_solver):
        sol = geo_solver.forward_solve(MB, 0.0, -LN2)
        assert sol.u == pytest.approx(1.0, abs=1e-11)
        assert sol.v == pytest.approx(2.0, abs=1e-11)
        assert sol.value == pytest.approx(-1.0 - 2.0 * LN2, abs=1e-10)
        assert sol.solution.term(3) == pytest.approx(0.125, abs=1e-12)

    @pytest.mark.parametrize("kind,x,y", [(BE, -1.0, -LN2), (FD, 0.0, -1.0)])
    def test_fenchel_value_equals_direct_objective(self, geo_solver, kind, x, y):
        sol = geo_solver.forward_solve(kind, x, y)
        direct = objective_exponential(kind, sol.solution, 1e-12)
        assert direct == pytest.approx(sol.value, abs=1e-10)

    def test_fd_occupation_formula(self, geo_solver):
        sol = geo_solver.forward_solve(FD, 0.0, -1.0)
        for n in (1, 2, 5):
            expect = math.exp(-n) / (1.0 + math.exp(-n))
            assert sol.solution.term(n) == pytest.approx(expect, abs=1e-14)

    def test_boundary_case_c_forward(self, zeta_solver):
        # at y = -alpha the gradient series still converges in case (c)
        sol = zeta_solver.forward_solve(MB, 0.0, -1.0)
        assert sol.u == pytest.approx(ZETA3, abs=1e-9)
        assert sol.v == pytest.approx(ZETA2, abs=1e-9)

    @pytest.mark.parametrize("kind", [MB, BE, FD])
    def test_huge_negative_x_gives_origin(self, geo_solver, kind):
        # every term underflows: the target is the origin, not an overflow
        sol = geo_solver.forward_solve(kind, -800.0, -1.0)
        assert (sol.u, sol.v) == (0.0, 0.0)
        assert sol.region is Region.ORIGIN

    @pytest.mark.parametrize("kind", [MB, FD])
    def test_huge_x_is_a_range_error(self, geo_solver, kind):
        with pytest.raises(RangeError):
            geo_solver.forward_solve(kind, 800.0, -1.0)

    @pytest.mark.parametrize("kind", [MB, FD])
    def test_overflowing_normal_form_x_is_a_range_error(self, kind):
        # flipped and shifted by -2: x_n = 0 - 2 (-1.7e308) overflows to +inf,
        # which ran 4096 terms (warning of an overflow in multiply) and ended
        # in a BudgetError on a nan tail width
        solver = EmpSolver(Arithmetic(2.0, -1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RangeError, match="x=inf"):
                solver.forward_solve(kind, 0.0, 1.7e308)

    def test_outside_domain(self, geo_solver, zeta_solver, case_b_family):
        with pytest.raises(DomainError):
            geo_solver.forward_solve(MB, 0.0, 0.5)
        with pytest.raises(DomainError):
            EmpSolver(case_b_family).forward_solve(MB, 0.0, -1.0)

    @pytest.mark.parametrize("which", ["x", "y"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=repr)
    @pytest.mark.parametrize("kind", [MB, BE, FD])
    def test_non_finite_multipliers_are_range_errors(self, geo_solver, kind, bad, which):
        # before any series work: a nan used to run the whole term budget
        # and name x in its BudgetError, and x = -inf gave the origin with
        # a nan value
        x, y = (bad, -1.0) if which == "x" else (-1.0, bad)
        with pytest.raises(RangeError, match=f"{which} must be finite, got {bad}"):
            geo_solver.forward_solve(kind, x, y)

    def test_one_pass_per_forward_solve(self, monkeypatch, geo_solver):
        # h_W and its gradient come from the same certified sum
        fam = geo_solver.normal_family
        orig = type(fam).log_terms
        passes = []

        def counting(self, y, lo, hi):
            if lo == 1:
                passes.append(y)
            return orig(self, y, lo, hi)

        monkeypatch.setattr(type(fam), "log_terms", counting)
        for kind in (MB, BE, FD):
            geo_solver.forward_solve(kind, -1.0, -LN2)
        assert len(passes) == 3


class TestInverseSolve:
    def test_be_round_trip(self, geo_solver):
        fwd = geo_solver.forward_solve(BE, -1.0, -LN2)
        inv = geo_solver.inverse_solve_bf(BE, fwd.u, fwd.v)
        assert isinstance(inv, EmpSolution)
        assert inv.multipliers[0] == pytest.approx(-1.0, abs=1e-8)
        assert inv.multipliers[1] == pytest.approx(-LN2, abs=1e-8)

    def test_fd_round_trip(self, geo_solver):
        fwd = geo_solver.forward_solve(FD, 0.0, -1.0)
        inv = geo_solver.inverse_solve_bf(FD, fwd.u, fwd.v)
        assert isinstance(inv, EmpSolution)
        assert inv.multipliers[0] == pytest.approx(0.0, abs=1e-8)
        assert inv.multipliers[1] == pytest.approx(-1.0, abs=1e-8)

    def test_extreme_target_yields_failure_report(self, geo_solver):
        res = geo_solver.inverse_solve_bf(BE, 1.0, 1e6)
        assert isinstance(res, InverseFailure)
        assert res.kind is BE and res.message

    def test_exp_overflow_is_a_failure_report(self, geo_solver):
        # u_n <= p_n = 1 under fermi-dirac, so v = 1010 at u = 1000 needs
        # v >= 500500: the iterates' x grows until exp(x) overflows, which
        # must not escape as a RangeError about an x the caller never gave
        res = geo_solver.inverse_solve_bf(FD, 1000.0, 1010.0)
        assert isinstance(res, InverseFailure)
        assert res.kind is FD and "overflows" in res.message

    def test_pass_budget(self, monkeypatch, geo_solver):
        # one loose slope root, then one certified pass per Newton point
        # (h, gradient and Hessian together), and the solution read off
        # the accepted point; a closing forward solve made it 11, and three
        # passes per Newton point and a tight root 23
        fwd = geo_solver.forward_solve(BE, -1.0, -LN2)
        fam = geo_solver.normal_family
        orig = type(fam).log_terms
        passes = []

        def counting(self, y, lo, hi):
            if lo == 1:
                passes.append(y)
            return orig(self, y, lo, hi)

        monkeypatch.setattr(type(fam), "log_terms", counting)
        inv = geo_solver.inverse_solve_bf(BE, fwd.u, fwd.v)
        assert isinstance(inv, EmpSolution)
        assert len(passes) <= 10

    @pytest.mark.parametrize("kind", [BE, FD])
    def test_accepted_point_outside_interior_is_a_failure(self, kind):
        # the Newton residual (-u, -v) is within its tolerance, so the
        # accepted point has u = v = 0: region origin, not a solution of
        # the interior target
        res = EmpSolver(Arithmetic(0.0, 1.0)).inverse_solve_bf(kind, 5e-324, 1e-310)
        assert isinstance(res, InverseFailure)
        assert "origin" in res.message

    def test_outside_cone_rejected(self, geo_solver):
        with pytest.raises(RangeError):
            geo_solver.inverse_solve_bf(BE, 1.0, 0.5)

    def test_mb_rejected(self, geo_solver):
        with pytest.raises(DomainError):
            geo_solver.inverse_solve_bf(MB, 1.0, 2.0)


class TestObjectiveValue:
    @settings(max_examples=200, deadline=None)
    @given(st.floats(-40.0, -math.log(3.0)))
    def test_tail_ratio_envelope(self, t):
        # objective_exponential's tail certificate relies on
        # W(g(t)) e^{-t} = (t-1) + d(t) with
        # |d(t)| <= 5 e^t (|t|+2) for every entropy once t <= -ln 3
        from math import exp, log1p

        q = exp(t)
        env = 5.0 * q * (abs(t) + 2.0)
        l1p = log1p(q) / q
        fd = (t - log1p(q)) / (1 + q) - l1p / (1 + q)
        m1p = log1p(-q) / q
        be = (t - log1p(-q)) / (1 - q) + m1p / (1 - q)
        assert abs(fd - (t - 1.0)) <= env
        assert abs(be - (t - 1.0)) <= env

    # the rules of the solves whose values are checked against
    # objective_exponential above, and one lattice interior solve
    FENCHEL_CASES = {
        "arithmetic-mb-interior": (Arithmetic(0.0, 1.0), lambda s: s.solve_mb(1.4, 3.7), MB, 1e-12),
        "weighted-geometric-mb-theta2": (
            WeightedGeometric(1.0, 3.0), lambda s: s.solve_mb(1.0, s.profile.theta2), MB, 1e-9
        ),
        "arithmetic-be-forward": (
            Arithmetic(0.0, 1.0), lambda s: s.forward_solve(BE, -1.0, -LN2), BE, 1e-12
        ),
        "arithmetic-fd-forward": (
            Arithmetic(0.0, 1.0), lambda s: s.forward_solve(FD, 0.0, -1.0), FD, 1e-12
        ),
        "loglevels-mb-interior": (LogLevels(1.0), lambda s: s.solve_mb(1.3, 1.56), MB, 1e-8),
        "lattice-mb-interior": (Lattice3D(1.0), lambda s: s.solve_mb(1.0, 5.5), MB, 1e-10),
    }

    @pytest.mark.parametrize("case", list(FENCHEL_CASES))
    def test_fenchel_value_matches_direct_sum(self, case):
        # x u + y v - h_W from the dual sums against the block-doubling sum
        # of p_n W(u_n / p_n) itself, each certified within tol
        family, solve, kind, tol = self.FENCHEL_CASES[case]
        solver = EmpSolver(family)
        rule = solve(solver).solution
        assert rule.form == "exponential"
        got = solver.objective_value(kind, rule, tol)
        assert abs(got - objective_exponential(kind, rule, tol)) <= tol

    def test_zero_sequence(self, geo_solver):
        sol = geo_solver.solve_mb(0.0, 0.0)
        assert geo_solver.objective_value(BE, sol.solution) == 0.0

    def test_fd_saturated_prefix(self, geo_solver):
        assert geo_solver.objective_value(FD, [1.0]) == 0.0

    def test_explicit_prefix_matches_closed_form(self, geo_solver):
        # sum over 2^-n of MB entropy = -1 - 2 ln 2 (analytic series)
        prefix = [2.0 ** -n for n in range(1, 80)]
        assert geo_solver.objective_value(MB, prefix) == pytest.approx(
            -1.0 - 2.0 * LN2, abs=1e-12
        )

    def test_negative_terms_rejected(self, geo_solver):
        with pytest.raises(DomainError):
            geo_solver.objective_value(MB, [0.5, -0.1])


class TestWeakDuality:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=10))
    def test_random_truncations_geometric(self, geo_solver, terms):
        u = math.fsum(terms)
        if u <= 1e-9:
            return
        v = math.fsum((n + 1) * t for n, t in enumerate(terms))
        obj = geo_solver.objective_value(MB, terms)
        assert obj >= geo_solver.value_mb(u, v) - 1e-8

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=8))
    def test_random_truncations_zeta(self, zeta_solver, zeta_family, terms):
        u = math.fsum(terms)
        if u <= 1e-9:
            return
        v = math.fsum(zeta_family.sigma(n + 1) * t for n, t in enumerate(terms))
        obj = zeta_solver.objective_value(MB, terms)
        assert obj >= zeta_solver.value_mb(u, v) - 1e-8


class TestTruncationConvergence:
    def test_finite_values_decrease_to_closed_form(self, geo_solver, geometric):
        u, v = 1.0, 2.0
        target = geo_solver.value_mb(u, v)
        prev = math.inf
        vals = []
        for n in (4, 8, 16, 32, 64):
            p = [geometric.p(k) for k in range(1, n + 1)]
            s = [geometric.sigma(k) for k in range(1, n + 1)]
            val = solve_two_mb_be(MB, p, s, u, v).value
            assert val <= prev + 1e-12
            prev = val
            vals.append(val)
        assert vals[-1] == pytest.approx(target, abs=1e-9)


class TestForwardInverseRoundTripMb:
    @settings(max_examples=25, deadline=None)
    @given(st.floats(-1.5, 1.5), st.floats(-4.0, -0.2))
    def test_multipliers_recovered(self, geo_solver, x, y):
        fwd = geo_solver.forward_solve(MB, x, y)
        back = geo_solver.solve_mb(fwd.u, fwd.v)
        assert back.multipliers[0] == pytest.approx(x, abs=1e-8)
        assert back.multipliers[1] == pytest.approx(y, abs=1e-8)


class TestBiconjugate:
    def test_finite_point(self, geo_solver):
        lhs, rhs = geo_solver.biconjugate_check(0.0, -LN2, 10_000)
        assert rhs == pytest.approx(1.0, abs=1e-9)
        assert lhs <= rhs + 1e-9
        assert lhs >= rhs - 0.05

    def test_divergent_direction(self, geo_solver):
        lhs, rhs = geo_solver.biconjugate_check(0.0, 1.0, 4000)
        assert math.isinf(rhs)
        assert lhs > 1e3  # grows without bound along the sampled rays

    def test_degenerate_families(self, const_solver, divergent_solver):
        for solver in (const_solver, divergent_solver):
            lhs, rhs = solver.biconjugate_check(0.3, -2.0, 128)
            assert math.isinf(rhs) and math.isinf(lhs)


@pytest.fixture(scope="module")
def log_solver():
    from entromin import LogLevels

    return EmpSolver(LogLevels(1.0))


class TestSlowlySpacedLevels:
    """Logarithmic levels converge like powers of 1/N, exercising the
    tolerance-ladder fallbacks instead of the tight closed-form paths."""

    def test_value_against_truncated_primal(self, log_solver):
        sol = log_solver.solve_mb(1.3, 1.56)
        assert sol.region is Region.INTERIOR
        obj = objective_exponential(MB, sol.solution, 1e-8)
        assert obj == pytest.approx(sol.value, abs=1e-6)
        terms = sol.solution.prefix(300_000)
        assert math.fsum(terms) == pytest.approx(1.3, abs=1e-4)

    def test_forward_value_round_trip(self, log_solver):
        fwd = log_solver.forward_solve(MB, 0.2, -1.4)
        back = log_solver.solve_mb(fwd.u, fwd.v)
        assert back.value == pytest.approx(fwd.value, rel=1e-9)

    def test_inverse_round_trip(self, log_solver):
        fwd = log_solver.forward_solve(FD, -1.0, -2.2)
        inv = log_solver.inverse_solve_bf(FD, fwd.u, fwd.v, 1e-11)
        assert isinstance(inv, EmpSolution)
        assert inv.multipliers[0] == pytest.approx(-1.0, abs=1e-7)
        assert inv.multipliers[1] == pytest.approx(-2.2, abs=1e-7)


class TestNormalization:
    def test_shifted_levels_agree_with_manual_map(self):
        # sigma_n = n - 3 has min sigma <= 0: H(u, v) = H'(u, v - a u) with
        # the internal shift a; verify against the positive-level family
        raw = EmpSolver(Arithmetic(-3.0, 1.0))
        ref = EmpSolver(Arithmetic(0.0, 1.0))
        u, v = 1.0, -1.0  # slope v/u = -1 = (sigma shifted by -3 of slope 2)
        got = raw.value_mb(u, v)
        expect = ref.value_mb(u, v + 3.0 * u)
        assert got == pytest.approx(expect, abs=1e-10)
        sol = raw.solve_mb(u, v)
        terms = sol.solution.prefix(400)
        assert math.fsum(terms) == pytest.approx(u, abs=1e-10)
        assert math.fsum((n + 1 - 3.0) * t for n, t in enumerate(terms)) == pytest.approx(
            v, abs=1e-10
        )

    def test_flipped_levels(self):
        # sigma_n = -n decreases to -inf: solving at (1, -2) must match the
        # geometric solve at (1, 2) with mirrored multipliers
        raw = EmpSolver(Arithmetic(0.0, -1.0))
        sol = raw.solve_mb(1.0, -2.0)
        assert sol.region is Region.INTERIOR
        assert sol.value == pytest.approx(-1.0 - 2.0 * LN2, abs=1e-10)
        for n in range(1, 15):
            assert sol.solution.term(n) == pytest.approx(2.0 ** -n, abs=1e-11)
        x, y = sol.multipliers
        assert x == pytest.approx(0.0, abs=1e-10)
        assert y == pytest.approx(LN2, abs=1e-11)  # sign mirrored

    MIRRORS = {
        "powerlaw": (PowerLaw(-1.0, 0.5), PowerLaw(1.0, 0.5), 1.3, 2.5),
        "explicit-prefix": (
            ExplicitPrefix((1.0, 2.0), (-3.0, -1.0), Arithmetic(0.0, -1.0)),
            ExplicitPrefix((1.0, 2.0), (3.0, 1.0), Arithmetic(0.0, 1.0)),
            1.0,
            2.0,
        ),
    }

    @pytest.mark.parametrize("case", list(MIRRORS))
    def test_falling_levels_solve_as_their_mirror(self, case):
        # levels falling to -inf are flipped: (u, -v) is solved exactly as
        # the mirror family at (u, v), and y changes sign
        falling, rising, u, v = self.MIRRORS[case]
        got, ref = EmpSolver(falling).solve_mb(u, -v), EmpSolver(rising).solve_mb(u, v)
        assert got.region is ref.region is Region.INTERIOR
        assert (got.value, got.h_star) == (ref.value, ref.h_star)
        x, y = ref.multipliers
        assert got.multipliers == (x, -y)
        assert got.solution.prefix(20) == ref.solution.prefix(20)

    @pytest.mark.parametrize("kind", [MB, BE, FD])
    def test_falling_log_levels_forward_as_their_mirror(self, kind):
        # LogLevels' solve_mb takes about a second; its forward solve at
        # mirrored y exercises the same flip
        x = -0.3 if kind is BE else 0.3
        got = EmpSolver(LogLevels(-1.0)).forward_solve(kind, x, 2.0)
        ref = EmpSolver(LogLevels(1.0)).forward_solve(kind, x, -2.0)
        assert got.region is ref.region is Region.INTERIOR
        assert (got.u, got.v, got.value) == (ref.u, -ref.v, ref.value)
        assert got.multipliers == (x, 2.0)

    def test_forward_solve_in_raw_coordinates(self):
        raw = EmpSolver(Arithmetic(-3.0, 1.0))
        sol = raw.forward_solve(MB, 0.25, -0.8)
        terms = sol.solution.prefix(200)
        assert math.fsum(terms) == pytest.approx(sol.u, abs=1e-10)
        assert math.fsum((n - 2.0) * t for n, t in enumerate(terms)) == pytest.approx(
            sol.v, abs=1e-10
        )
        back = raw.solve_mb(sol.u, sol.v)
        assert back.multipliers[0] == pytest.approx(0.25, abs=1e-9)
        assert back.multipliers[1] == pytest.approx(-0.8, abs=1e-9)


_BLOCKS = []  # weakrefs to the level blocks of _CoarseTails


class _CoarseTails(Arithmetic):
    """Unit weights, sigma_n = n, with every tail bracket widened to 5e-13
    below n = 4096 and to 1 from there: a tolerance under 5e-13 fails once
    the pass reaches n = 4096, a looser one certifies in the first block."""

    def sigma_array(self, lo, hi):
        out = super().sigma_array(lo, hi)
        _BLOCKS.append(weakref.ref(out))
        return out

    def tail_interval(self, y, n, moment=0):
        lo, hi = super().tail_interval(y, n, moment)
        return lo, max(hi, lo + (5e-13 if n < 4096 else 1.0))


class TestRelaxationFreesFailedPass:
    """A tolerance relaxation must not keep the failed pass alive through
    its BudgetError, whose traceback reaches the frame holding the term
    arrays; with the cyclic collector off, only reference counts free them."""

    def _run(self, call):
        _BLOCKS.clear()
        gc.collect()
        gc.disable()
        try:
            result = call()
            assert len(_BLOCKS) >= 8  # the failed pass to n = 4096, then one block
            assert all(ref() is None for ref in _BLOCKS)
        finally:
            gc.enable()
        return result

    def test_eval_f_ladder(self):
        # a root pass's f too loose for the target: f is re-summed, and the
        # first grade (1e-13) fails at n = 4096
        loose = series.SeriesEval(1.0, 64, math.inf)
        got = self._run(lambda: series._refine_f(_CoarseTails(), -1.0, loose, 1e-13))
        assert got.value == pytest.approx(1.0 / (math.e - 1.0), abs=1e-12)

    def test_conjugate_root_ladder(self):
        # the first root tier (residual 2.5e-14) fails at n = 4096 and the
        # second (2.5e-11) certifies; phi(-ln 2) = 2 and f(-ln 2) = 1
        got = self._run(lambda: series.lnf_conjugate(_CoarseTails(), 2.0, 1e-13))
        assert got == pytest.approx(-2.0 * LN2, abs=1e-10)

    def test_forward_solve_ladder(self):
        solver = EmpSolver(_CoarseTails(), tol=1e-13)
        sol = self._run(lambda: solver.forward_solve(MB, 0.0, -1.0))
        assert sol.u == pytest.approx(1.0 / (math.e - 1.0), abs=1e-10)


ZETA_THETA2 = ZETA2 / ZETA3
G_INTERIOR = -1.0 - 2.0 * LN2  # H(1, 2) on sigma_n = n, unit weights


class TestHStarByRegion:
    """H and h* at one point of every region each family reaches: h* is
    -inf on degenerate families, -alpha v at (0, v > 0), and H elsewhere.
    None stands for an interior value without a closed form here."""

    INF = math.inf
    CASES = [
        # sigma_n = n, unit weights: alpha = 0, theta1 = 1
        (Arithmetic(0.0, 1.0), 0.0, 0.0, Region.ORIGIN, 0.0, 0.0),
        (Arithmetic(0.0, 1.0), -1.0, 1.0, Region.INFEASIBLE_NEGATIVE, INF, INF),
        (Arithmetic(0.0, 1.0), 0.0, 2.0, Region.ZERO_WITH_POSITIVE_V, INF, 0.0),
        (Arithmetic(0.0, 1.0), 1.0, 0.5, Region.BELOW_CONE, INF, INF),
        (Arithmetic(0.0, 1.0), 2.0, 2.0, Region.LOWER_BOUNDARY, 2.0 * (LN2 - 1.0), None),
        (Arithmetic(0.0, 1.0), 1.0, 2.0, Region.INTERIOR, G_INTERIOR, None),
        # p_n = e^n / n^3: alpha = 1, theta2 = zeta(2)/zeta(3)
        (WeightedGeometric(1.0, 3.0), 0.0, 0.0, Region.ORIGIN, 0.0, 0.0),
        (WeightedGeometric(1.0, 3.0), 0.0, -1.0, Region.INFEASIBLE_NEGATIVE, INF, INF),
        (WeightedGeometric(1.0, 3.0), 0.0, 2.0, Region.ZERO_WITH_POSITIVE_V, INF, -2.0),
        (WeightedGeometric(1.0, 3.0), 1.0, 0.5, Region.BELOW_CONE, INF, INF),
        (WeightedGeometric(1.0, 3.0), 1.0, 1.0, Region.LOWER_BOUNDARY, -2.0, None),
        (WeightedGeometric(1.0, 3.0), 1.0, 1.2, Region.INTERIOR, None, None),
        (
            WeightedGeometric(1.0, 3.0), 1.0, ZETA_THETA2, Region.UPPER_BOUNDARY_THETA2,
            -1.0 - math.log(ZETA3) - ZETA_THETA2, None,
        ),
        (WeightedGeometric(1.0, 3.0), 1.0, 2.0, Region.BEYOND_THETA2, -3.0 - math.log(ZETA3), None),
        # lattice levels: alpha = 0, theta1 = 3 with one triple
        (Lattice3D(1.0), 0.0, 5.0, Region.ZERO_WITH_POSITIVE_V, INF, 0.0),
        (Lattice3D(1.0), 1.0, 2.0, Region.BELOW_CONE, INF, INF),
        (Lattice3D(1.0), 1.0, 3.0, Region.LOWER_BOUNDARY, -1.0, None),
        (Lattice3D(1.0), 1.0, 12.0, Region.INTERIOR, None, None),
        # sigma_n = -n, flipped: v_normal = -v
        (Arithmetic(0.0, -1.0), 0.0, 0.0, Region.ORIGIN, 0.0, 0.0),
        (Arithmetic(0.0, -1.0), 0.0, 1.0, Region.INFEASIBLE_NEGATIVE, INF, INF),
        (Arithmetic(0.0, -1.0), 0.0, -2.0, Region.ZERO_WITH_POSITIVE_V, INF, 0.0),
        (Arithmetic(0.0, -1.0), 1.0, -0.5, Region.BELOW_CONE, INF, INF),
        (Arithmetic(0.0, -1.0), 1.0, -1.0, Region.LOWER_BOUNDARY, -1.0, None),
        (Arithmetic(0.0, -1.0), 1.0, -2.0, Region.INTERIOR, G_INTERIOR, None),
        # sigma_n = n - 3, shifted: v_normal = v + 3 u
        (Arithmetic(-3.0, 1.0), 0.0, 0.0, Region.ORIGIN, 0.0, 0.0),
        (Arithmetic(-3.0, 1.0), 0.0, -1.0, Region.INFEASIBLE_NEGATIVE, INF, INF),
        (Arithmetic(-3.0, 1.0), 0.0, 1.0, Region.ZERO_WITH_POSITIVE_V, INF, 0.0),
        (Arithmetic(-3.0, 1.0), 1.0, -2.5, Region.BELOW_CONE, INF, INF),
        (Arithmetic(-3.0, 1.0), 1.0, -2.0, Region.LOWER_BOUNDARY, -1.0, None),
        (Arithmetic(-3.0, 1.0), 1.0, -1.0, Region.INTERIOR, G_INTERIOR, None),
        # constant levels sigma_n = 5
        (Arithmetic(5.0, 0.0), 0.0, 0.0, Region.ORIGIN, 0.0, -INF),
        (Arithmetic(5.0, 0.0), -1.0, -5.0, Region.INFEASIBLE_NEGATIVE, INF, -INF),
        (Arithmetic(5.0, 0.0), 1.0, 6.0, Region.INFEASIBLE_NEGATIVE, INF, -INF),
        (Arithmetic(5.0, 0.0), 1.0, 4.0, Region.BELOW_CONE, INF, -INF),
        (Arithmetic(5.0, 0.0), 1.0, 5.0, Region.DEGENERATE_CONSTANT_SIGMA, -INF, -INF),
        # p_n = e^{n^2}, sigma_n = n: dom f empty, theta1 = 1
        (ExplosiveWeights(), 0.0, 0.0, Region.ORIGIN, 0.0, -INF),
        (ExplosiveWeights(), -1.0, 0.0, Region.INFEASIBLE_NEGATIVE, INF, -INF),
        (ExplosiveWeights(), 0.0, 1.0, Region.ZERO_WITH_POSITIVE_V, INF, -INF),
        (ExplosiveWeights(), 1.0, 0.2, Region.BELOW_CONE, INF, -INF),
        (ExplosiveWeights(), 1.0, 1.0, Region.LOWER_BOUNDARY, -2.0, -INF),
        (ExplosiveWeights(), 1.0, 2.0, Region.DEGENERATE_ALL_DIVERGENT, -INF, -INF),
    ]

    @pytest.mark.parametrize(
        "family, u, v, region, value, h_star",
        CASES,
        ids=[f"{c[0]!r}-{c[3].value}-{c[1]}-{c[2]}" for c in CASES],
    )
    def test_value_and_h_star(self, family, u, v, region, value, h_star):
        solver = EmpSolver(family)
        sol = solver.solve_mb(u, v)
        assert sol.region is solver.classify(u, v) is region
        got_value, got_h = solver.value_mb(u, v), solver.h_star_mb(u, v)
        assert (got_value, got_h) == (sol.value, sol.h_star)
        if value is None:
            assert math.isfinite(got_value)
        else:
            assert got_value == pytest.approx(value, abs=1e-9)
        # h* equals H wherever it is not given
        assert got_h == pytest.approx(got_value if h_star is None else h_star, abs=1e-9)


class TestOnlyEmpErrorsEscape:
    """Extreme float inputs that raised ZeroDivisionError, ValueError or
    OverflowError from deep inside the sums, some after numpy divide
    warnings; each must end in an EmpError, or in a result."""

    CASES = {
        # the tail bound's eps = -y/2 underflows to 0, or 1 - e^{y/2} rounds to 0
        "lattice-mb-subnormal-y": (Lattice3D(1.0), lambda s: s.forward_solve(MB, 0.0, -5e-324)),
        "lattice-fd-subnormal-y": (Lattice3D(1.0), lambda s: s.forward_solve(FD, 0.0, -5e-324)),
        "lattice-be-subnormal-y": (Lattice3D(1.0), lambda s: s.forward_solve(BE, -1.0, -5e-324)),
        "lattice-mb-tiny-y": (Lattice3D(1.0), lambda s: s.forward_solve(MB, 0.0, -1e-17)),
        # e^{x + sigma_1 y} rounds to 1: -ln(1 - z) has no float value
        "arithmetic-be-subnormal-y": (
            Arithmetic(0.0, 1.0), lambda s: s.forward_solve(BE, -0.0, -5e-324)
        ),
        "arithmetic-be-tiny-t": (
            Arithmetic(0.0, 1.0), lambda s: s.forward_solve(BE, -1e-17, -1e-18)
        ),
        # u / f(y) underflows to 0 in the Newton start x = ln(u / f)
        "arithmetic-be-inverse-subnormal-u": (
            Arithmetic(0.0, 1.0), lambda s: s.inverse_solve_bf(BE, 5e-324, 1e-310)
        ),
        "arithmetic-fd-inverse-subnormal-u": (
            Arithmetic(0.0, 1.0), lambda s: s.inverse_solve_bf(FD, 5e-324, 1e-310)
        ),
        # flipped and shifted: exp(offset y) overflows in a tail bound
        "flipped-shifted-mb-huge": (
            Arithmetic(2.0, -1.0), lambda s: s.forward_solve(MB, -1.7e308, 1e300)
        ),
        "flipped-shifted-be-huge": (
            Arithmetic(2.0, -1.0), lambda s: s.forward_solve(BE, -1.7e308, 1e300)
        ),
        # exp(x) (0, inf) is a (0, nan) tail bracket: the kernel doubled on
        # past its early give-up and the level table ran out of memory
        "lattice-mb-huge-x-subnormal-y": (
            Lattice3D(1.0), lambda s: s.forward_solve(MB, -1e300, -5e-324)
        ),
        "lattice-fd-max-x-tiny-y": (
            Lattice3D(1.0), lambda s: s.forward_solve(FD, -1.7e308, -1e-300)
        ),
        # f(y) underflows to 0 and phi = f'/f divided by it; sigma_n y
        # overflows at y = -1.7e308
        **{
            f"{name}-phi-{y:g}": (family, lambda s, y=y: series.phi(s.family, y))
            for name, family in (
                ("arithmetic", Arithmetic(0.0, 1.0)),
                ("weighted-geometric", WeightedGeometric(1.0, 3.0)),
                ("lattice", Lattice3D(1.0)),
                ("power-law", PowerLaw(1.0, 0.5)),
            )
            for y in (-1e300, -1.7e308)
        },
    }
    # a budget run-out is an EmpError too; the cases above all end at once
    SECONDS = 5.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("case", list(CASES))
    def test_only_emp_error(self, case):
        family, call = self.CASES[case]
        solver = EmpSolver(family)
        start = time.perf_counter()
        try:
            got = call(solver)
        except EmpError:
            got = None
        assert time.perf_counter() - start < self.SECONDS
        if got is None:
            return
        assert isinstance(got, (EmpSolution, InverseFailure))
        if isinstance(got, EmpSolution):
            assert not math.isnan(got.value)


class TestEarlyGiveUp:
    """Sums with no finite tail bracket end in a BudgetError at n = 4096,
    the kernel's early give-up, instead of running the 2^23-term budget
    (or, for Lattice3D, building the level table that far)."""

    CASES = {
        # exp(slope y) rounds to 1: the geometric tail has only (0, inf)
        "arithmetic-mb-tiny-y": (Arithmetic(0.0, 1.0), MB, 0.0, -1e-300),
        "arithmetic-fd-tiny-y": (Arithmetic(0.0, 1.0), FD, 0.0, -1e-300),
        "arithmetic-be-tiny-y": (Arithmetic(0.0, 1.0), BE, -1.0, -1e-300),
        # exp(x) times the (0, inf) bracket is (0, nan)
        "lattice-mb-nan-width": (Lattice3D(1.0), MB, -1e300, -5e-324),
        "lattice-be-nan-width": (Lattice3D(1.0), BE, -1.7e308, -1e-300),
        # no finite bracket of the power-law tail: PowerLaw answers (0, inf)
        "powerlaw-fd-subnormal-y": (PowerLaw(1.0, 0.5), FD, 0.0, -5e-324),
        "powerlaw-mb-tiny-y": (PowerLaw(1.0, 0.5), MB, 0.0, -1e-300),
        "powerlaw-mb-small-y": (PowerLaw(1.0, 0.5), MB, 0.0, -1e-17),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_budget_error_at_4096(self, case, monkeypatch):
        family, kind, x, y = self.CASES[case]
        solver = EmpSolver(family)
        highest = []
        orig = type(family).log_terms

        def recording(self, yy, lo, hi):
            highest.append(hi)
            return orig(self, yy, lo, hi)

        monkeypatch.setattr(type(family), "log_terms", recording)
        with pytest.raises(BudgetError, match="n=4096"):
            solver.forward_solve(kind, x, y)
        assert max(highest) <= 4096
