"""The infinite-dimensional solver: region classification, closed-form
values, attainment, epsilon-optimal families, forward/inverse solves,
objective evaluation, weak duality and the biconjugate identity."""

import dataclasses
import gc
import hashlib
import json
import logging
import math
import sys
import threading
import time
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    ShiftedSigma,
    WeightedGeometric,
    profile,
    series,
    solve_two_mb_be,
)
from entromin import _work
from entromin import finite as finite_module
from entromin import solver as solver_module
from entromin.rootfind import solve_bracketed

from conftest import LN2, ZETA2, ZETA3, objective_exponential, ref_gibbs_pass

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

    @pytest.mark.parametrize("family,u,v", [(Arithmetic(0.0, 1.0), 1.0, 2.0), (Lattice3D(1.0), 1.0, 5.0)])
    def test_rule_rejects_a_fractional_index(self, family, u, v):
        # term(2.5) returned 0.1768 on Arithmetic(0, 1) and raised a raw
        # TypeError on Lattice3D(1); prefix(2.5) raised a TypeError
        rule = EmpSolver(family).solve_mb(u, v).solution
        for n in (2.5, 0, -1):
            with pytest.raises(DomainError, match=f"n must be an integer >= 1, got {n}"):
                rule.term(n)
        with pytest.raises(DomainError, match="count must be an integer >= 0, got 2.5"):
            rule.prefix(2.5)
        assert rule.prefix(0) == []
        assert rule.prefix(np.int64(2)) == [rule.term(1), rule.term(np.int32(2))]

    @staticmethod
    def _rules():
        """{name: rule} over every form, the exponential one under all three
        entropies, fermi-dirac's also with terms past t = 700."""
        es = EmpSolver(Arithmetic(0.0, 1.0))
        return {
            "mb": es.solve_mb(1.0, 2.0).solution,
            "mb-loglevels": EmpSolver(LogLevels(1.0)).solve_mb(1.0, 3.19).solution,
            "be": es.forward_solve(BE, 1.5 - 1e-9, -1.5).solution,
            "fd": es.forward_solve(FD, 3.0, -1.0).solution,
            "fd-past-700": es.forward_solve(FD, 705.0, -1.0).solution,
            "restricted": es.solve_mb(3.0, 3.0).solution,
            "zero": es.solve_mb(0.0, 0.0).solution,
        }

    def test_prefix_is_its_terms(self):
        for name, rule in self._rules().items():
            terms = rule.prefix(1000)
            assert [t.hex() for t in terms] == [rule.term(n).hex() for n in range(1, 1001)], name
            assert rule.prefix(0) == []

    def test_fermi_dirac_terms_past_700_read_ln_p(self):
        # past t = 700 a term is p_n / (1 + e^-t) with p_n = e^(ln p_n); from
        # e^(lt - t), lt = ln p_n + t, it lost up to 1.5e-14 relative, and
        # PowerLaw's scalar levels put its terms above p_n = 1 below t = 700
        mpmath = pytest.importorskip("mpmath")
        rule = EmpSolver(PowerLaw(1.0, 1.5)).forward_solve(FD, 705.0, -1.0).solution
        assert max(rule.prefix(200)) == 1.0
        rule = EmpSolver(WeightedGeometric(0.5, 4.0)).forward_solve(FD, 705.0, -1.0).solution
        fam, x, y = rule.normal
        with mpmath.workdps(40):
            for n in (1, 2, 3, 4):  # t = 705 - n
                t = mpmath.mpf(x) + mpmath.mpf(fam.sigma(n)) * mpmath.mpf(y)
                ref = mpmath.exp(mpmath.mpf(fam.log_p(n))) / (1 + mpmath.exp(-t))
                assert abs(rule.term(n) / ref - 1) <= 1e-15

    def test_prefix_reads_one_term_array(self, monkeypatch):
        # one log_terms call per prefix, not one per term; a fermi-dirac
        # rule with terms past t = 0 (t = 3 - n, and 705 - n) reads ln p_n
        # in one more
        for name, rule in self._rules().items():
            if rule.form != "exponential":
                continue
            cls = type(rule.normal[0])
            calls = []
            orig = cls.log_terms

            def counting(self, y, lo, hi, orig=orig):
                calls.append((lo, hi))
                return orig(self, y, lo, hi)

            monkeypatch.setattr(cls, "log_terms", counting)
            rule.prefix(100_000)
            assert calls == [(1, 100_000)] * (2 if name in ("fd", "fd-past-700") else 1), name
            monkeypatch.undo()

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
    """H(tu, tv) = t H(u, v) + t ln t u.  H(u, v) = u(ln u - 1) + u g with
    g = (ln f)*(v/u), and the interior g is a function of the family, v/u
    and the solver's tolerance alone (series._conjugate_at, f held to c
    max(1, f) whatever u is), so the two solves of one check read the same
    g and the identity holds to rounding, at every scale."""

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
    # two draws whose solves once read f to different tolerances: the
    # errors were 8.27e-12 against 6.50e-12 and 8.16e-10 against 1.29e-10
    @example(PowerLaw(1.0, 0.5), -2.0, 0.71875, 2.0)
    @example(PowerLaw(1.0, 0.5), 1.5, 0.96875, 1.5)
    def test_scaling(self, family, log_u, frac, log_t):
        prof = profile(family)
        # w across the cone (theta1, theta2), or up to 11 theta1 when open
        if math.isfinite(prof.theta2):
            w = prof.theta1 + frac * (prof.theta2 - prof.theta1)
        else:
            w = prof.theta1 * (1.0 + 10.0 * frac)
        self._check(family, 10.0**log_u, w, 10.0**log_t)

    @pytest.mark.parametrize("tol", [1e-10, 1e-6])
    @pytest.mark.parametrize("family", FAMILIES, ids=repr)
    def test_interior_value_is_the_conjugate_of_ln_f(self, family, tol):
        # bit for bit: the solver's g is lnf_conjugate's at every u
        prof = profile(family)
        t2 = prof.theta2 if math.isfinite(prof.theta2) else 11.0 * prof.theta1
        w = prof.theta1 + 0.4 * (t2 - prof.theta1)
        solver = EmpSolver(family, tol)
        for u in (1e-3, 1e-2, 1.0, 10.0**1.5, 1e3):
            v = w * u
            g = series.lnf_conjugate(family, v / u, tol)
            assert solver.value_mb(u, v) == u * (math.log(u) - 1.0) + u * g

    @pytest.mark.parametrize("family", [Arithmetic(0.0, 1.0), PowerLaw(1.0, 0.5)], ids=repr)
    def test_overflowing_value_is_inf(self, family):
        # H(1e306, 1.5e306) is about 7e308, beyond the largest float
        assert EmpSolver(family).value_mb(1e306, 1.5e306) == math.inf

    @pytest.mark.parametrize("u, w, t", [(1.0, 1.19, 1e100), (0.5, 3.19, 1e150)])
    def test_scaling_log_levels(self, u, w, t):
        # about 1 s per solve, so two fixed points instead of a property
        self._check(LogLevels(1.0), u, w, t)


class TestOneTheta2:
    """A solver's regions and its slope roots read one profile, whatever
    its tolerance: classify and the interior root agree on theta2."""

    def test_a_loose_solver_reads_the_one_theta2(self):
        # between the theta2 of a 1e-6 profile and that of the 1e-10 one;
        # a 1e-13 profile (theta2 = 1.110626535326148) puts w beyond it too
        family, w = WeightedGeometric(0.5, 4.0), 1.1106265358668974
        solver = EmpSolver(family, tol=1e-6)
        assert solver.classify(1.0, w) is Region.BEYOND_THETA2
        sol = solver.solve_mb(1.0, w)
        assert sol.region is Region.BEYOND_THETA2
        assert math.isfinite(sol.value)
        assert solver.profile is profile(family)

    # an interior solve this near theta2 takes about 0.5-2.5 s
    @settings(max_examples=6, deadline=None)
    @given(
        st.sampled_from([WeightedGeometric(1.0, 3.0), WeightedGeometric(0.5, 4.0)]),
        st.sampled_from([1e-6, 1e-8, 1e-10, 1e-12]),
        st.floats(-12.0, -8.0),
        st.sampled_from([-1.0, 1.0]),
    )
    def test_regions_next_to_theta2_agree_with_the_root(self, family, tol, log_rel, sign):
        # w within 1e-8 relative of theta2, log-uniformly from 1e-12 out
        solver = EmpSolver(family, tol)
        w = solver.profile.theta2 * (1.0 + sign * 10.0**log_rel)
        region = solver.classify(1.0, w)
        assert solver.solve_mb(1.0, w).region is region
        if region is Region.INTERIOR:
            got = solver.inverse_solve_bf(FD, 1.0, w)
            assert isinstance(got, InverseFailure) or got.region is Region.INTERIOR
        else:
            with pytest.raises(RangeError, match="strict-cone interior"):
                solver.inverse_solve_bf(FD, 1.0, w)


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

    def test_member_builds_prefix_once(self, monkeypatch):
        # the prefix of n = 256 is kept on the family and then shared; its
        # arrays are views of the family's term table, read with no
        # log_terms call
        sol = EmpSolver(WeightedGeometric(1.0, 3.0)).solve_mb(1.0, 2.0)
        fam = sol.epsilon_family._family
        calls = []
        orig = type(fam).log_terms

        def counting(self, y, lo, hi):
            calls.append((y, lo, hi))
            return orig(self, y, lo, hi)

        monkeypatch.setattr(type(fam), "log_terms", counting)
        member = sol.epsilon_family.member(256)
        pre = fam._prefixes[256]
        assert calls == []
        assert len(member.terms) == 256
        again = sol.epsilon_family.member(256)
        assert calls == [] and fam._prefixes[256] is pre
        assert again == member and hash(again) == hash(member)
        assert again.terms == member.terms

    def test_cached_prefix_is_read_only(self, zeta_solver):
        sol = zeta_solver.solve_mb(1.0, 2.0)
        fam = sol.epsilon_family._family
        pre = solver_module._prefix(fam, 64)
        assert solver_module._prefix(fam, 64) is pre
        member = sol.epsilon_family.member(64)
        s, powers, _ = pre.rows
        assert pre.rows[1] is powers and s is pre.s
        for arr in (pre.log_p, pre.s, powers, member.term_array):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0
        # up to 2^13 terms a record's arrays are views of the term table's
        # (sigma_n, ln p_n) pair, past it its own, from one window
        for n in (64, 2**14):
            pre = solver_module._prefix(fam, n)
            within = n <= 2**13
            for arr in (pre.log_p, pre.s):
                assert np.shares_memory(arr, fam._term_table[1]) is within
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 0.0
            np.testing.assert_array_equal(pre.log_p, fam.log_terms(0.0, 1, n))
            np.testing.assert_array_equal(pre.s, fam.sigma_array(1, n))

    def test_terms_are_built_once(self, zeta_solver):
        member = zeta_solver.solve_mb(1.0, 2.0).epsilon_family.member(128)
        assert "terms" not in vars(member)
        first = member.terms
        assert member.terms is first
        assert first == tuple(member.term_array.tolist())
        assert "term_array" not in repr(member) and "terms" not in repr(member)

    def test_a_family_keeps_its_prefix_records_inside_their_bound(self):
        # WeightedGeometric(0.5, 4) at 2 theta2 under converge(1e-4), which
        # reaches n = 2^19, then every proposal size's rows and a record of
        # every other power of two up to 2^20 and of n = 1000: the family
        # keeps at most 17 records, none past 2^16 and each of a power of
        # two, and their arrays that are not views of the term table stay
        # inside _prefix's stated bound
        solver = EmpSolver(WeightedGeometric(0.5, 4.0))
        fam = solver.normal_family
        member = self._eps_family(solver, 2.0 * solver.profile.theta2).converge(1e-4)
        assert member.n >= 2**18
        n = series._START_BLOCK
        while n <= series._ONE_ARRAY:
            assert solver_module._prefix(fam, n).rows
            n *= 2
        for n in [2**k for k in range(21)] + [1000]:
            assert len(solver_module._prefix(fam, n).s) == n
        kept = fam._prefixes
        assert sorted(kept) == [2**k for k in range(17)]
        assert sum("rows" in vars(pre) for pre in kept.values()) == 7
        table = fam._term_table[1]
        own = [
            a
            for pre in kept.values()
            for a in (pre.log_p, pre.s, *([pre.rows[1]] if "rows" in vars(pre) else []))
            if not np.shares_memory(a, table)
        ]
        assert sum(a.nbytes for a in own) <= 2 * 8 * (2**14 + 2**15 + 2**16) + 3 * 8 * 2**13

    # -- members pinned bit for bit -------------------------------------------

    _PINNED = Path(__file__).resolve().parent / "golden" / "epsilon_members.json"

    @staticmethod
    def _member_digest(member):
        key = (member.n, member.lam, member.ups, member.objective, member.terms)
        return hashlib.sha256(repr(key).encode()).hexdigest()

    def test_members_reproduce_the_pinned_digests(self, zeta_solver):
        # tests/golden/epsilon_members.json holds the sha256 of
        # repr((n, lam, ups, objective, terms)) for converge(1e-3) at every
        # beyond-theta2 target of perfbench's mb-point cycles on seeds
        # 9001-9003 (all on WeightedGeometric(1, 3)), and for member(128)
        # and member(256) at (u, v) = (1, 2); pinned at commit 79f7045 and
        # re-pinned, every n the same, when the member roots' Newton points
        # became rootfind.slope_step's and when converge's members came to
        # start from the rungs of their records' ladders
        pinned = json.loads(self._PINNED.read_text())
        assert pinned["family"] == repr(zeta_solver.family)
        got = []
        for u, v, n, _ in pinned["converge_1e-3"]:
            sol = zeta_solver.solve_mb(float.fromhex(u), float.fromhex(v))
            member = sol.epsilon_family.converge(1e-3)
            got.append([u, v, member.n, self._member_digest(member)])
        assert got == pinned["converge_1e-3"]
        eps_fam = zeta_solver.solve_mb(1.0, 2.0).epsilon_family
        got = [[n, self._member_digest(eps_fam.member(n))] for n, _ in pinned["member_at_u1_v2"]]
        assert got == pinned["member_at_u1_v2"]

    # -- truncation inputs ----------------------------------------------------

    @pytest.fixture
    def counted_prefixes(self, zeta_solver, monkeypatch):
        """The (1, 2) epsilon family and the n of each prefix record read
        from here on (solver._prefix, kept or not)."""
        eps_fam = zeta_solver.solve_mb(1.0, 2.0).epsilon_family
        calls = []
        orig = solver_module._prefix

        def counting(family, n):
            calls.append(n)
            return orig(family, n)

        monkeypatch.setattr(solver_module, "_prefix", counting)
        return eps_fam, calls

    @pytest.mark.parametrize("n", [0, -5])
    def test_member_rejects_a_truncation_below_one(self, counted_prefixes, n):
        eps_fam, calls = counted_prefixes
        with pytest.raises(DomainError, match=f"n must be an integer >= 1, got {n}"):
            eps_fam.member(n)
        assert calls == []

    def test_member_rejects_a_fractional_truncation(self, counted_prefixes):
        eps_fam, calls = counted_prefixes
        with pytest.raises(DomainError, match="n must be an integer >= 1, got 2.5"):
            eps_fam.member(2.5)
        assert calls == []

    def test_converge_rejects_a_start_below_one(self, counted_prefixes):
        eps_fam, calls = counted_prefixes
        with pytest.raises(DomainError, match="start must be an integer >= 1, got 0"):
            eps_fam.converge(1e-3, start=0)
        assert calls == []

    @pytest.mark.parametrize("epsilon", [math.nan, 0.0, -1.0])
    def test_converge_rejects_a_nonpositive_epsilon(self, counted_prefixes, epsilon):
        eps_fam, calls = counted_prefixes
        with pytest.raises(DomainError, match="epsilon must be > 0"):
            eps_fam.converge(epsilon)
        assert calls == []

    def test_numpy_integers_are_truncations(self, zeta_solver):
        eps_fam = zeta_solver.solve_mb(1.0, 2.0).epsilon_family
        assert eps_fam.member(np.int64(128)) == eps_fam.member(128)
        assert eps_fam.converge(1e-3, start=np.int32(8)) == eps_fam.converge(1e-3)

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
    def test_prefix_terms_per_converge(self, monkeypatch, ratio):
        # cold: every member record pays its alpha-end pass once, members
        # provably outside epsilon are dropped at it or after one pass of
        # their own, with no terms; the returned member's terms come from
        # its last pass (about 11.8 n on the parent of this bound)
        solver = EmpSolver(WeightedGeometric(1.0, 3.0))  # a fresh family keeps no record
        eps_fam = self._eps_family(solver, ratio * solver.profile.theta2)
        terms = []

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def exp(self, x, *args, **kwargs):
                terms.append(np.size(x))
                return np.exp(x, *args, **kwargs)

        # the epsilon family's one exp is the Gibbs pass in finite
        monkeypatch.setattr(finite_module, "np", CountingNumpy())
        member = eps_fam.converge(1e-3)
        assert terms
        assert sum(terms) <= 8 * member.n

    def test_endpoint_pass_cached_per_family_and_n(self, monkeypatch):
        # every member record's rung, the one nearest the member's start,
        # takes a pass the first time only, and so does the returned
        # member's unproved endpoint, its root being approached from one side
        eps_fam = self._eps_family(EmpSolver(WeightedGeometric(1.0, 3.0)), 2.0)
        calls = []
        orig = finite_module._gibbs_pass

        def counting(log_p, s, t):
            calls.append(t)
            return orig(log_p, s, t)

        monkeypatch.setattr(finite_module, "_gibbs_pass", counting)
        first = eps_fam.converge(1e-3)
        cold = len(calls)
        alpha = eps_fam._prof.alpha
        sizes = [8 << k for k in range((first.n // 8).bit_length())]
        records = [solver_module._prefix(eps_fam._family, n) for n in sizes]
        assert all(pre.ends for pre in records)
        assert alpha in records[0].ends  # the first member starts at alpha
        for pre in records:
            for lam, got in pre.ends.items():
                assert solver_module._rung(lam, alpha) == lam
                assert got == ref_gibbs_pass(pre.log_p, pre.s, -lam)[:3]
        again = eps_fam.converge(1e-3)
        assert again == first and again.terms == first.terms
        assert len(calls) - cold == cold - sum(len(pre.ends) for pre in records)

    def test_member_reads_each_cached_alpha_end_once(self, monkeypatch):
        # member(n) passes no bound, yet a kept record's alpha end is read
        # first, as by converge's first member, at most one pass per record;
        # a warm call repeats only the root's own passes
        eps_fam = self._eps_family(EmpSolver(WeightedGeometric(1.0, 3.0)), 2.0)
        calls = []
        orig = finite_module._gibbs_pass

        def counting(log_p, s, t):
            calls.append(t)
            return orig(log_p, s, t)

        monkeypatch.setattr(finite_module, "_gibbs_pass", counting)
        alpha = eps_fam._prof.alpha
        for n in (128, 4096):
            del calls[:]
            first = eps_fam.member(n)
            cold = len(calls)
            pre = solver_module._prefix(eps_fam._family, n)
            assert pre.ends[alpha] == ref_gibbs_pass(pre.log_p, pre.s, -alpha)[:3]
            again = eps_fam.member(n)
            assert again == first and again.terms == first.terms
            assert len(calls) - cold == cold - len(pre.ends)

    @pytest.mark.parametrize("ratio", [1.6, 1.85, 2.05])
    def test_extrapolated_starts_keep_terms_near_six_per_n(self, monkeypatch, ratio):
        # a warm converge(1e-4) that reaches n = 2^18-2^19 exponentiates
        # about 6 n prefix terms, the returned member's last passes and the
        # dropped members' first; a root estimate that misleads the
        # extrapolated starts (converge) costs whole passes of the largest
        # members (10.5-11.5 n with no extrapolation at all)
        solver = EmpSolver(WeightedGeometric(0.5, 4.0))
        eps_fam = self._eps_family(solver, ratio * solver.profile.theta2)
        eps_fam.converge(1e-4)
        terms = []

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def exp(self, x, *args, **kwargs):
                terms.append(np.size(x))
                return np.exp(x, *args, **kwargs)

        monkeypatch.setattr(finite_module, "np", CountingNumpy())
        member = eps_fam.converge(1e-4)
        assert member.n >= 2**18
        assert sum(terms) <= 7 * member.n

    def test_threads_share_one_solver(self):
        # both threads fill the same records' rungs from empty ladders, one
        # over the targets in order and one in reverse, and match a serial
        # run from empty ladders, each on a fresh family

        def fresh_eps_fams():
            solver = EmpSolver(WeightedGeometric(1.0, 3.0))
            theta2 = solver.profile.theta2
            return [self._eps_family(solver, r * theta2) for r in (1.2, 1.45, 1.7)]

        eps_fams = fresh_eps_fams()
        family = eps_fams[0]._family
        assert not any(solver_module._prefix(family, 8 << k).ends for k in range(14))
        start = threading.Barrier(2)
        got, errors = [None, None], []

        def run(k):
            try:
                start.wait(timeout=10.0)
                order = eps_fams if k == 0 else eps_fams[::-1]
                got[k] = [f.converge(1e-3) for f in order]
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
        got[1].reverse()
        serial = [f.converge(1e-3) for f in fresh_eps_fams()]
        for a, b in zip(got[0], got[1]):
            assert a == b and a.terms == b.terms
        for a, b in zip(got[0], serial):
            assert a == b and a.terms == b.terms

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
        orig = finite_module._gibbs_pass

        def counting(log_p, s, t):
            calls.append(len(s))
            return orig(log_p, s, t)

        monkeypatch.setattr(finite_module, "_gibbs_pass", counting)
        member = eps_fam.converge(1e-3)
        members = int(math.log2(member.n // 8)) + 1
        # secant/bisection took about 40 passes per member
        assert len(calls) <= 7 * members

    def _pinned_families(self, solver):
        """The epsilon families of the pinned converge targets, in order:
        seed 9001's 60 first, then seeds 9002-9003's."""
        pinned = json.loads(self._PINNED.read_text())["converge_1e-3"]
        return [
            solver.solve_mb(float.fromhex(u), float.fromhex(v)).epsilon_family
            for u, v, _, _ in pinned
        ]

    def test_converge_does_not_depend_on_the_rungs_cached(self):
        # a member reads the rung nearest its start, which the earlier
        # members of its own converge fix: cold, warm and with the targets
        # visited in reverse order, every output is the same to the bit
        fams = self._pinned_families(EmpSolver(WeightedGeometric(1.0, 3.0)))[::4]
        cold = [self._member_digest(f.converge(1e-3)) for f in fams]
        warm = [self._member_digest(f.converge(1e-3)) for f in fams]
        fams = self._pinned_families(EmpSolver(WeightedGeometric(1.0, 3.0)))[::4]
        backward = [self._member_digest(f.converge(1e-3)) for f in fams[::-1]]
        assert cold == warm == backward[::-1]

    def test_warm_converge_on_unseen_targets(self, monkeypatch):
        # after one converge on each of seed 9001's 60 pinned targets, a
        # converge on each of the other 120 takes at most 5 prefix passes on
        # average (3.8; 10.8 when every member's record read its alpha end)
        fams = self._pinned_families(EmpSolver(WeightedGeometric(1.0, 3.0)))
        for f in fams[:60]:
            f.converge(1e-3)
        calls = []
        orig = finite_module._gibbs_pass

        def counting(log_p, s, t):
            calls.append(len(s))
            return orig(log_p, s, t)

        monkeypatch.setattr(finite_module, "_gibbs_pass", counting)
        for f in fams[60:]:
            f.converge(1e-3)
        assert len(calls) <= 5 * len(fams[60:])

    def test_a_floor_step_after_a_shorter_step_stays_a_newton_step(self):
        # member 2^18 of WeightedGeometric(0.5, 4) at 1.85 theta2, from a
        # start near its root: a 4-ulp floor step that followed a shorter
        # step was sent to the midpoint of a bracket whose far end was
        # unproved and bisected back, 43 Gibbs passes of 2^18 terms
        solver = EmpSolver(WeightedGeometric(0.5, 4.0))
        eps_fam = self._eps_family(solver, 1.85 * solver.profile.theta2)
        calls = []
        orig = finite_module._gibbs_pass

        def counting(log_p, s, t):
            calls.append(t)
            return orig(log_p, s, t)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(finite_module, "_gibbs_pass", counting)
            member, lam = eps_fam._member(2**18, 0.499892334075)
        assert len(calls) <= 6
        assert member.lam == lam and abs(lam - self._reference_lam(eps_fam, 2**18)) <= 1e-12


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

    @pytest.mark.parametrize("x", [700.5, 705.0, 709.0])
    def test_fd_terms_past_the_clip_of_e_to_the_t(self, x):
        # z = e^t was clipped at e^700 while p_n e^t was not, so an FD term
        # with t = x - n > 700 came out e^(t - 700) too large: u = 785.29
        # for 704.5 at x = 705, and term(1) = 54.6
        fam = Arithmetic(0.0, 1.0)
        sol = EmpSolver(fam).forward_solve(FD, x, -1.0)
        ts = [x - n for n in range(1, 5001)]
        occ = [1.0 / (1.0 + math.exp(-t)) if t > 0 else math.exp(t) / (1.0 + math.exp(t)) for t in ts]
        h = [t + math.log1p(math.exp(-t)) if t > 0 else math.log1p(math.exp(t)) for t in ts]
        assert sol.u == pytest.approx(math.fsum(occ), rel=1e-9)
        assert sol.v == pytest.approx(math.fsum(n * o for n, o in enumerate(occ, 1)), rel=1e-9)
        assert series.eval_h(fam, FD, x, -1.0) == pytest.approx(math.fsum(h), rel=1e-9)
        assert all(term <= 1.0 for term in sol.solution.prefix(10))

    @pytest.mark.parametrize(
        "family", [Arithmetic(0.0, 1.0), WeightedGeometric(1.0, 3.0), Lattice3D(1.0)], ids=repr
    )
    @pytest.mark.parametrize("gap", [1e-3, 1e-6, 1e-9, 1e-12, 1e-15])
    def test_be_terms_near_condensation(self, family, gap):
        # 1 - e^t cancelled for t near 0: term(1) of Arithmetic(0, 1) at
        # (2 - 1e-9, -2) was 999999916.2596358, not 999999916.7596358
        mpmath = pytest.importorskip("mpmath")
        rule = EmpSolver(family).forward_solve(BE, 2.0 * family.sigma(1) - gap, -2.0).solution
        fam, x, y = rule.normal  # the floats the rule evaluates with
        with mpmath.workdps(50):
            for n in (1, 2, 3):
                t = mpmath.mpf(x) + mpmath.mpf(fam.sigma(n)) * mpmath.mpf(y)
                ref = mpmath.mpf(fam.p(n)) / mpmath.expm1(-t)
                assert abs(rule.term(n) / ref - 1) <= 1e-13

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

        def counting(self, y, lo, hi, *arrays):
            if lo == 1:
                passes.append(y)
            return orig(self, y, lo, hi, *arrays)

        monkeypatch.setattr(type(fam), "log_terms", counting)
        for kind in (MB, BE, FD):
            geo_solver.forward_solve(kind, -1.0, -LN2)
        assert len(passes) == 3


# multipliers (x, y) of round trips on perfbench's three families; under
# bose-einstein x is lowered to -theta1 y - 0.3 where it is above that
_WARM_POINTS = [
    (Arithmetic(0.0, 1.0), [(-1.2, -0.9), (-0.5, -2.1), (0.4, -0.35)]),
    (WeightedGeometric(1.0, 3.0), [(-1.0, -1.5), (0.5, -2.0), (-0.2, -3.3)]),
    (Lattice3D(1.0), [(-1.0, -0.15), (0.3, -0.7), (-0.4, -1.6)]),
]



class _NoSecondMoment(Arithmetic):
    """Unit weights, sigma_n = n, with no tail bracket of moment 2."""

    def tail_intervals(self, y, n, moments):
        ivs = super().tail_intervals(y, n, moments)
        return [None if k == 2 else iv for k, iv in zip(moments, ivs)]

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

    def test_a_ladder_that_raises_yields_failure_report(self):
        # the ladder's first entry needs a moment-2 bracket that the family
        # never certifies: its BudgetError is the report, before any Newton
        res = EmpSolver(_NoSecondMoment(0.0, 1.0)).inverse_solve_bf(BE, 1.0, 2.0, 1e-10)
        assert isinstance(res, InverseFailure)
        assert res.message.startswith("newton aborted: series tails uncertified after")

    def test_extreme_target_yields_failure_report(self, monkeypatch, geo_solver):
        # one Newton: the sums its first point needs are out of reach even
        # at the ceiling, and that BudgetError is the report, with no second
        # Newton at a looser target
        built = _count_budget_errors(monkeypatch)
        res = geo_solver.inverse_solve_bf(BE, 1.0, 1e6)
        assert isinstance(res, InverseFailure)
        assert res.kind is BE and res.message
        assert len(built) == 1

    def test_exp_overflow_is_a_failure_report(self, geo_solver):
        # u_n <= p_n = 1 under fermi-dirac, so v = 1010 at u = 1000 needs
        # v >= 500500: the iterates' x grows until exp(x) overflows, which
        # must not escape as a RangeError about an x the caller never gave
        res = geo_solver.inverse_solve_bf(FD, 1000.0, 1010.0)
        assert isinstance(res, InverseFailure)
        assert res.kind is FD and "overflows" in res.message

    def test_pass_budget(self, monkeypatch, geo_solver):
        # one certified pass per Newton point (h, gradient and Hessian
        # together), and the solution read off the accepted point; a
        # closing forward solve made it 11, and three passes per Newton
        # point and a tight root 23
        fwd = geo_solver.forward_solve(BE, -1.0, -LN2)
        fam = geo_solver.normal_family
        orig = type(fam).log_terms
        passes = []

        def counting(self, y, lo, hi, *arrays):
            if lo == 1:
                passes.append(y)
            return orig(self, y, lo, hi, *arrays)

        monkeypatch.setattr(type(fam), "log_terms", counting)
        inv = geo_solver.inverse_solve_bf(BE, fwd.u, fwd.v)
        assert isinstance(inv, EmpSolution)
        assert len(passes) <= 10

    @pytest.mark.parametrize("family, points", _WARM_POINTS, ids=repr)
    @pytest.mark.parametrize("kind", [BE, FD])
    def test_a_warm_inverse_makes_one_pass(self, monkeypatch, family, points, kind):
        # the Newton starts from the cached slope ladder with no pass of
        # its own, and its uncertified finite-sum proposal leaves only the
        # accepted point to certify; one pass per Newton point made 3-5
        solver = EmpSolver(family)
        t1 = solver.profile.theta1
        trips = []
        for x, y in points:
            x = min(x, -t1 * y - 0.3) if kind is BE else x  # BE: x + theta1 y < 0
            fwd = solver.forward_solve(kind, x, y)
            trips.append((x, y, fwd.u, fwd.v))
            solver.inverse_solve_bf(kind, fwd.u, fwd.v)
        passes = _count_kernel_passes(monkeypatch)
        for x, y, u, v in trips:
            passes.clear()
            inv = solver.inverse_solve_bf(kind, u, v)
            assert isinstance(inv, EmpSolution)
            assert len(passes) == 1
            assert inv.multipliers == pytest.approx((x, y), abs=1e-8)

    @pytest.mark.parametrize("family, points", _WARM_POINTS, ids=repr)
    @pytest.mark.parametrize("kind", [BE, FD])
    def test_the_proposal_only_proposes(self, monkeypatch, family, points, kind):
        # gradient sums of the finite proposal off by 1e-6 of the target's
        # scale: the certified Newton still returns a solution whose
        # certified residual meets the inverse's tolerance
        solver = EmpSolver(family)
        t1 = solver.profile.theta1
        sums = finite_module._finite_dual
        for x, y in points:
            x = min(x, -t1 * y - 0.3) if kind is BE else x  # BE: x + theta1 y < 0
            fwd = solver.forward_solve(kind, x, y)
            scale = max(1.0, fwd.u, abs(fwd.v))

            def off(*args, d=1e-6 * scale):
                h, (gu, gv), hess = sums(*args)
                return h, (gu + d, gv - d), hess

            monkeypatch.setattr(finite_module, "_finite_dual", off)
            inv = solver.inverse_solve_bf(kind, fwd.u, fwd.v)
            monkeypatch.setattr(finite_module, "_finite_dual", sums)
            assert isinstance(inv, EmpSolution)
            res_tol = 1e-10 * scale  # max(tol, 1e-11) max(1, u, |v|)
            assert abs(inv.u - fwd.u) <= res_tol and abs(inv.v - fwd.v) <= res_tol
            assert inv.multipliers == pytest.approx((x, y), abs=1e-8)

    @staticmethod
    def _proposal_calls(monkeypatch, family, points, kind):
        """The _proposal arguments of inverse round trips at points (x, y)
        of family under kind."""
        solver = EmpSolver(family)
        t1 = solver.profile.theta1
        calls, proposal = [], solver_module._proposal

        def recording(*args):
            calls.append(args)
            return proposal(*args)

        monkeypatch.setattr(solver_module, "_proposal", recording)
        for x, y in points:
            x = min(x, -t1 * y - 0.3) if kind is BE else x  # BE: x + theta1 y < 0
            fwd = solver.forward_solve(kind, x, y)
            assert isinstance(solver.inverse_solve_bf(kind, fwd.u, fwd.v), EmpSolution)
        monkeypatch.setattr(solver_module, "_proposal", proposal)
        return calls

    @pytest.mark.parametrize("family, points", _WARM_POINTS, ids=repr)
    @pytest.mark.parametrize("kind", [BE, FD])
    def test_the_proposal_skips_its_confirming_evaluation(self, monkeypatch, family, points, kind):
        # the proposal stops at residual norm r with r^2 <= tol / 10 and
        # returns that point's Newton step unevaluated: never more
        # finite-dual evaluations than the same Newton run down to tol, and
        # fewer over the targets
        calls = self._proposal_calls(monkeypatch, family, points, kind)
        sums, minimize = finite_module._finite_dual, finite_module._minimize_dual
        evaluations, runs = [], []

        def counting(*args):
            evaluations.append(args[-2:])
            return sums(*args)

        def recording(*args):
            runs.append(args)
            return minimize(*args)

        monkeypatch.setattr(finite_module, "_finite_dual", counting)
        monkeypatch.setattr(finite_module, "_minimize_dual", recording)
        made = full = 0
        for args in calls:
            evaluations.clear()
            start = solver_module._proposal(*args)
            stopped = len(evaluations)
            tol, in_domain = args[-1], args[-2]
            assert math.isfinite(start[0]) and math.isfinite(start[1]) and in_domain(*start)
            assert start not in evaluations  # the step, not an evaluated point
            evaluations.clear()
            kind_, log_p, rows, u, v, start0, scales, _, dom = runs[-1]
            assert minimize(kind_, log_p, rows, u, v, start0, scales, tol, dom).converged
            assert stopped <= len(evaluations)
            made, full = made + stopped, full + len(evaluations)
        assert made < full

    _BAD_HESSIANS = [
        (1.0, 1.0, 1.0),  # det = 0
        (1.0, 2.0, 1.0),  # det < 0
        (math.inf, 0.0, 1.0),  # det = inf
        (math.nan, 0.0, 1.0),  # det = nan
        (1.0, 0.0, 1e-320),  # det > 0 subnormal: the step in y overflows
    ]

    @pytest.mark.parametrize("kind", [BE, FD])
    @pytest.mark.parametrize("hessian", _BAD_HESSIANS + [None], ids=repr)
    def test_a_rejected_step_proposes_the_evaluated_point(self, monkeypatch, kind, hessian):
        # a Hessian at the stopping point with no usable Newton step, or
        # (None) a step that in_domain rejects: the proposal is the last
        # point the Newton evaluated, finite and inside the domain
        family, points = _WARM_POINTS[1]
        calls = self._proposal_calls(monkeypatch, family, points, kind)
        newton, results, fake = finite_module.minimize_convex_2d, [], [None]

        def faking(*args):
            got = newton(*args)
            results.append(got)
            return got if fake[0] is None else dataclasses.replace(got, hessian=fake[0])

        monkeypatch.setattr(finite_module, "minimize_convex_2d", faking)
        for args in calls:
            *head, in_domain, tol = args
            fake[0] = None
            step = solver_module._proposal(*args)
            point = results[-1].point
            assert results[-1].converged and step != point
            if hessian is None:  # the same Newton again, with its step outside the domain
                args = (*head, lambda x, y, s=step: (x, y) != s and in_domain(x, y), tol)
            fake[0] = hessian
            start = solver_module._proposal(*args)
            assert start == results[-1].point == point
            assert math.isfinite(start[0]) and math.isfinite(start[1]) and in_domain(*start)

    def test_prefix_rows_are_built_once(self, monkeypatch):
        # the proposal's rows (1, sigma_k, sigma_k^2) are built once per
        # record a fresh family keeps, read-only; a second round of every
        # proposal builds neither a prefix nor its rows
        rows_of = finite_module._dual_rows
        fresh = [(dataclasses.replace(family), points) for family, points in _WARM_POINTS]
        built = []

        def keeping(s):
            rows = rows_of(s)
            built.append(rows)
            return rows

        monkeypatch.setattr(finite_module, "_dual_rows", keeping)
        for kind in (BE, FD):
            rounds = []
            for _ in range(2):
                for family, points in fresh:
                    self._proposal_calls(monkeypatch, family, points, kind)
                rounds.append(len(built))
            assert rounds[0] == rounds[1]
        kept = [pre for family, _ in fresh for pre in family._normal[2]._prefixes.values()]
        assert built and len(built) == sum("rows" in vars(pre) for pre in kept)
        assert len({id(s) for s, _, _ in built}) == len(built)
        for s, powers, _ in built:
            for arr in (s, powers):
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 0.0
            np.testing.assert_array_equal(powers, np.stack((s ** 0, s, s * s), axis=1))

    # (family, kind, x, y, the multipliers the inverse returned when it
    # started from a slope root to 1e-5): an inverse from the forward solve
    # at (x, y) returns the same region and multipliers within 1e-8
    _LADDER_EDGE_TRIPS = [
        # w beyond the ladder's last entry toward theta2 (y_-48 = -1 - 2^-12)
        (WeightedGeometric(1.0, 3.0), BE, -5.0, -1.0001, (-4.999999999815998, -1.0001000001346645)),
        # w beyond its last entry toward theta1 (y_24 = -64)
        (Lattice3D(0.02), FD, 1.0, -70.0, (1.000000000000073, -70.0000000000007)),
    ]
    _BRACKETED_TRIPS = [
        (Arithmetic(0.0, 1.0), BE, -1.2, -0.9, (-1.2000000000000002, -0.8999999999999999)),
        (WeightedGeometric(1.0, 3.0), FD, 0.5, -2.0, (0.499999999999998, -1.9999999999999982)),
        (Lattice3D(1.0), FD, 0.3, -0.7, (0.30000000016538636, -0.7000000000186836)),
    ]

    @staticmethod
    def _assert_round_trip(family, kind, x, y, before):
        solver = EmpSolver(family)
        fwd = solver.forward_solve(kind, x, y)
        inv = solver.inverse_solve_bf(kind, fwd.u, fwd.v)
        assert isinstance(inv, EmpSolution) and inv.region is Region.INTERIOR
        assert max(abs(a - b) for a, b in zip(inv.multipliers, before)) <= 1e-8

    @pytest.mark.parametrize("family, kind, x, y, before", _LADDER_EDGE_TRIPS, ids=repr)
    def test_a_one_sided_ladder_start(self, family, kind, x, y, before):
        solver = EmpSolver(family)
        fwd = solver.forward_solve(kind, x, y)
        assert solver.normal_family._ladder.bracket(fwd.v / fwd.u)[1] is None
        self._assert_round_trip(family, kind, x, y, before)

    @pytest.mark.parametrize("family, kind, x, y, before", _BRACKETED_TRIPS, ids=repr)
    def test_an_interpolant_outside_the_bracket(self, monkeypatch, family, kind, x, y, before):
        # no target of a scan over these families puts the interpolant
        # outside its bracket, so it is made nan, as for an unusable entry:
        # the start falls back on the nearer entry and its certified f
        monkeypatch.setattr(series, "_hermite_start", lambda *args: math.nan)
        self._assert_round_trip(family, kind, x, y, before)

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

    def test_restricted_rule_on_the_lower_boundary(self):
        # u_1 = 2 on the one minimizing level n = 1: FD's occupation u_1 /
        # p_1 = 2 exceeds 1, so its value is +inf
        solver = EmpSolver(Arithmetic(0.0, 1.0))
        sol = solver.solve_mb(2.0, 2.0)
        assert sol.region is Region.LOWER_BOUNDARY and sol.solution.form == "restricted"
        assert solver.objective_value(MB, sol.solution) == sol.value == -0.6137056388801094
        assert solver.objective_value(BE, sol.solution) == -1.9095425048844386
        assert solver.objective_value(FD, sol.solution) == math.inf


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
    """Logarithmic levels converge like powers of 1/N, so their sums stop
    at a bound above the tight target (the kernel's ceiling) instead of
    taking the tight closed-form paths."""

    @pytest.mark.parametrize("w", [1.19, 3.19, 5.19])
    def test_value_in_one_pass_per_step(self, log_solver, monkeypatch, w):
        # f(y) = zeta(-y) - 1 and phi(y) = -zeta'(-y) / f(y); a tight
        # target out of reach used to cost whole passes ending in a
        # BudgetError and a restart at a looser target
        mpmath = pytest.importorskip("mpmath")
        log_solver.value_mb(1.0, w)
        built = _count_budget_errors(monkeypatch)
        passes = _count_kernel_passes(monkeypatch)
        sol = log_solver.solve_mb(1.0, w)
        assert built == [] and len(passes) <= 5
        with mpmath.workdps(30):
            f = lambda y: mpmath.zeta(-y) - 1
            y = mpmath.findroot(lambda y: -mpmath.zeta(-y, 1, 1) / f(y) - w, sol.multipliers[1])
            exact = float(-1 + w * y - mpmath.log(f(y)))
        assert abs(sol.value - exact) <= 1e-13 * max(1.0, abs(exact))

    def test_power_law_slope_roots_near_the_ladder_end(self, monkeypatch):
        # PowerLaw(1, 0.5) cannot certify a tight slope left of y = -0.25:
        # its ladder entry k = -15 stops at its ceiling and is cached, where
        # an entry that raised was paid again by every solve
        solver = EmpSolver(PowerLaw(1.0, 0.5))
        ws = np.random.default_rng(17).uniform(7.7, 9.0, 40)
        for w in ws:
            solver.solve_mb(1.0, float(w))
        built = _count_budget_errors(monkeypatch)
        passes = _count_kernel_passes(monkeypatch)
        for w in ws:
            assert solver.solve_mb(1.0, float(w)).region is Region.INTERIOR
        assert built == []
        assert len(passes) / len(ws) < 5.0

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

    def test_inverse_newton_points_stop_at_their_ceiling(self, log_solver, monkeypatch, caplog):
        # near the domain endpoint a Newton point's tight gradient sums are
        # out of reach: its pass stops at its ceiling and the Newton goes on
        # at the looser target, where a BudgetError used to restart it (at
        # scripts/bench.py's slow BE round trip, where a certified point
        # still stops so after the finite-sum proposal)
        x, y = -1.5724672244573579, -1.685160659795017
        fwd = log_solver.forward_solve(BE, x, y)
        built = _count_budget_errors(monkeypatch)
        caplog.set_level(logging.DEBUG, logger="entromin")
        inv = log_solver.inverse_solve_bf(BE, fwd.u, fwd.v, 1e-10)
        assert isinstance(inv, EmpSolution)
        assert inv.multipliers == pytest.approx((x, y), abs=1e-8)
        assert built == []
        records = [r.getMessage() for r in caplog.records if r.name == "entromin"]
        assert any("stopped at its ceiling" in m for m in records)


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

    def test_far_negative_levels_agree_with_manual_map(self):
        # sigma_n = n - 1000 normalizes by the shift -1000 to sigma_n = n;
        # the normal form's moment tails at n = 64 lie over base levels
        # near -935, where the base certifies no moment >= 1
        raw = EmpSolver(Arithmetic(-1000.0, 1.0))
        ref = EmpSolver(Arithmetic(0.0, 1.0))
        for u, w in ((1.0, 5.0), (2.0, 20.0)):
            got, want = raw.solve_mb(u, (w - 1000.0) * u), ref.solve_mb(u, w * u)
            assert got.region is want.region is Region.INTERIOR
            assert got.value == pytest.approx(want.value, abs=1e-9)
            assert got.multipliers[1] == pytest.approx(want.multipliers[1], abs=1e-9)

    def test_solvers_of_one_family_share_its_normal_form(self):
        # the shifted normal form is a record of the user's family, with its
        # profile and ladder: a second solver of the instance is warm, one of
        # an equal instance builds its own
        family = Arithmetic(-3.0, 1.0)
        first, second = EmpSolver(family), EmpSolver(family)
        assert isinstance(first.normal_family, ShiftedSigma)
        assert second.normal_family is first.normal_family
        assert second.profile is first.profile
        cold = first.solve_mb(1.0, 2.0)
        with _work.counting() as work:
            warm = second.solve_mb(1.0, 2.0)
        assert work.passes == 0
        assert repr(warm) == repr(cold)
        other = EmpSolver(Arithmetic(-3.0, 1.0))
        assert other.normal_family == first.normal_family
        assert other.normal_family is not first.normal_family

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

    # levels -1 and 0.5 before a weighted-geometric tail: the normal form
    # shifts by -2, whose moment-1 tail bracket must come from the base's
    # moments (a boundary-dominated one stayed near 1/n, and this solve ran
    # the whole term budget)
    PREFIXED = ExplicitPrefix((1.0, 2.0), (-1.0, 0.5), WeightedGeometric(1.0, 3.0))

    def test_shifted_prefix_solve_is_interior(self):
        es = EmpSolver(self.PREFIXED)
        start = time.perf_counter()
        sol = es.solve_mb(1.0, -0.5)
        assert time.perf_counter() - start < 1.0
        assert sol.region is Region.INTERIOR
        assert objective_exponential(MB, sol.solution, 1e-10) == pytest.approx(
            sol.value, abs=1e-9
        )

    @pytest.mark.parametrize("kind", [BE, FD])
    def test_shifted_prefix_round_trip(self, kind):
        es = EmpSolver(self.PREFIXED)
        x, y = es.multipliers_from_normal(-1.0, -2.0)
        fwd = es.forward_solve(kind, x, y)
        inv = es.inverse_solve_bf(kind, fwd.u, fwd.v, 1e-10)
        assert isinstance(inv, EmpSolution)
        assert inv.multipliers == pytest.approx((x, y), abs=1e-8)

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


_BLOCKS = []  # (weakref, length) of the term arrays of _CoarseTails


class _CoarseTails(Arithmetic):
    """Unit weights, sigma_n = n, with every tail bracket widened to 1e-2
    below n = 8192 and to 5e-13 from there: a tolerance under about 1e-3
    is out of reach by the kernel's give-up rule at n = 4096, and one that
    rose to its ceiling certifies at n = 8192."""

    def log_terms(self, y, lo, hi, arrays=None):
        out = super().log_terms(y, lo, hi, arrays)
        _BLOCKS.append((weakref.ref(out), len(out)))
        return out

    def tail_intervals(self, y, n, moments):
        widen = 1e-2 if n < 8192 else 5e-13
        return [(lo, max(hi, lo + widen)) for lo, hi in super().tail_intervals(y, n, moments)]


def _count_budget_errors(monkeypatch) -> list:
    """A list that gains the message of every BudgetError constructed."""
    built = []
    init = BudgetError.__init__

    def counting(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(BudgetError, "__init__", counting)
    return built


def _count_kernel_passes(monkeypatch) -> list:
    """A list that gains one entry per pass of series._eval_many: True for
    a pass that returned stopped at its ceiling (a width above a tolerance
    it was asked for), else False."""
    passes = []
    kernel = series._eval_many

    def counting(family, y, tols, *args):
        passes.append(False)
        out = kernel(family, y, tols, *args)
        passes[-1] = any(2.0 * s.tail_bound_used > t for s, t in zip(out, tols.values()))
        return out

    monkeypatch.setattr(series, "_eval_many", counting)
    return passes


_LOOSE = series.SeriesEval(1.0, 64, math.inf)  # a root pass's f too loose to keep
_CEILING_CALLS = {
    # f re-summed to 1e-13 (the tolerance of the root's f at f < 1)
    "refine_f": lambda: series._refine_f(_CoarseTails(), -1.0, _LOOSE, 1e-13),
    # phi(-ln 2) = 2 and f(-ln 2) = 1
    "lnf_conjugate": lambda: series.lnf_conjugate(_CoarseTails(), 2.0, 1e-13),
    "forward_solve": lambda: EmpSolver(_CoarseTails(), tol=1e-13).forward_solve(MB, 0.0, -1.0),
}


class TestCeilingStop:
    """A sum whose target is out of reach stops, in the same pass, at the
    bound it can reach below its ceiling, where a ladder of tolerances
    used to throw the pass away and start again from n = 1.  Each call
    builds its own _CoarseTails, whose records start cold."""

    def _run(self, monkeypatch, name):
        # with the cyclic collector off, only reference counts free the
        # term arrays once the call returns
        built = _count_budget_errors(monkeypatch)
        _BLOCKS.clear()
        gc.collect()
        gc.disable()
        try:
            result = _CEILING_CALLS[name]()
            assert sum(size for _, size in _BLOCKS) >= 8192  # one pass to n = 8192 at least
            assert all(ref() is None for ref, _ in _BLOCKS)
        finally:
            gc.enable()
        assert built == []
        return result

    def test_refine_f(self, monkeypatch):
        got = self._run(monkeypatch, "refine_f")
        assert got.value == pytest.approx(1.0 / (math.e - 1.0), abs=1e-12)
        assert got.tail_bound_used > 1e-13  # the re-sum stopped above its target

    def test_lnf_conjugate(self, monkeypatch):
        got = self._run(monkeypatch, "lnf_conjugate")
        assert got == pytest.approx(-2.0 * LN2, abs=1e-10)

    def test_forward_solve(self, monkeypatch):
        sol = self._run(monkeypatch, "forward_solve")
        assert sol.u == pytest.approx(1.0 / (math.e - 1.0), abs=1e-10)

    @pytest.mark.parametrize("name", list(_CEILING_CALLS))
    def test_each_ceiling_stop_logs_one_record(self, monkeypatch, caplog, name):
        passes = _count_kernel_passes(monkeypatch)
        caplog.set_level(logging.DEBUG, logger="entromin")
        _CEILING_CALLS[name]()
        records = [r for r in caplog.records if r.name == "entromin"]
        assert sum(passes) >= 1
        assert len(records) == sum(passes)
        assert all("stopped at its ceiling" in r.getMessage() for r in records)

    @pytest.mark.parametrize("tol", [0.0, 5e-324])
    def test_a_target_at_the_float_floor_takes_no_ceiling(self, tol):
        # the ceiling 1e-5 / t has no float value at t = 0.25 min(tol, 1e-12)
        family = Arithmetic(0.0, 1.0)
        assert series.lnf_conjugate(family, 2.0, tol) == pytest.approx(-2.0 * LN2, abs=1e-12)
        assert EmpSolver(family, tol=tol).value_mb(1.0, 2.0) == pytest.approx(G_INTERIOR, abs=1e-12)

    def test_a_negative_tolerance_is_an_emp_error(self):
        with pytest.raises(EmpError):
            series.lnf_conjugate(Arithmetic(0.0, 1.0), 2.0, -1.0)

    def test_an_interior_solve_logs_nothing(self, caplog):
        caplog.set_level(logging.DEBUG, logger="entromin")
        assert EmpSolver(Arithmetic(0.0, 1.0)).solve_mb(1.0, 2.0).region is Region.INTERIOR
        assert [r for r in caplog.records if r.name == "entromin"] == []


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
        # exp(-shift y) overflows in a shifted tail bracket
        "shifted-lattice-eval-f-huge-y": (
            Lattice3D(1.0), lambda s: series.eval_f(ShiftedSigma(Lattice3D(1.0), 2.0), -1e300)
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


class TestEpsilonFamilyOnlyEmpErrorEscapes:
    """EpsilonFamily.converge (n_max = 2^12) and member at extreme
    beyond-theta2 targets, epsilon values and truncations return a member
    with no nan or raise an EmpError, with no float warning; so does the
    solve that makes the family."""

    MASSES = [5e-324, sys.float_info.min, 1e-300, 1.0, 1e300, sys.float_info.max]
    EPSILONS = [0.0, -0.0, 5e-324, math.nan, math.inf, -math.inf, 1e300, 1e-3]
    TRUNCATIONS = [1, 2, 8, 4096]

    @pytest.mark.parametrize("params", [(1.0, 3.0), (0.5, 4.0)])
    def test_every_extreme_target_epsilon_and_truncation(self, params):
        # all 432 calls per family, each (u, w u) with w 1 ulp or 2e-12
        # relative past theta2, 2 theta2 or huge
        solver = EmpSolver(WeightedGeometric(*params))
        t2 = solver.profile.theta2
        slopes = [math.nextafter(t2, math.inf), t2 * (1.0 + 2e-12), 2.0 * t2, 1e10, 1e300,
                  sys.float_info.max]
        calls = [("converge", eps) for eps in self.EPSILONS]
        calls += [("member", n) for n in self.TRUNCATIONS]
        returned = 0
        for w in slopes:
            for u in self.MASSES:
                for entry, arg in calls:
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        try:
                            eps_fam = solver.solve_mb(u, u * w).epsilon_family
                            if eps_fam is None:
                                continue
                            if entry == "converge":
                                got = eps_fam.converge(arg, n_max=2**12)
                            else:
                                got = eps_fam.member(arg)
                        except EmpError:
                            continue
                    assert not any(math.isnan(x) for x in (got.lam, got.ups, got.objective)), (
                        u, w, entry, arg)
                    returned += 1
        assert returned


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
        # the kernel's term arrays: the n of each _block_sums call (a
        # bracket's own read of t_4097 is no summed term)
        family, kind, x, y = self.CASES[case]
        solver = EmpSolver(family)
        highest = []
        orig = series._block_sums

        def recording(fam, yy, tols, xx, kk, mults, n, *args):
            highest.append(n)
            return orig(fam, yy, tols, xx, kk, mults, n, *args)

        monkeypatch.setattr(series, "_block_sums", recording)
        with pytest.raises(BudgetError, match="n=4096"):
            solver.forward_solve(kind, x, y)
        assert max(highest, default=0) <= 4096
