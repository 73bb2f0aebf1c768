"""The entropy minimization solver over countable index sets.

For the maxwell-boltzmann entropy the solve is complete: every target pair
(u, v) is classified against the attainment cone theta1 u <= v <= theta2 u,
the value H(u, v) = h*(u, v) is computed from the closed conjugate formula,
optimal occupation sequences are returned where the infimum is attained,
and where it is not (v > theta2 u, finite value) an explicit family of
feasible sequences with objectives converging to the value is constructed.
EmpSolver.solve_mb is the one region dispatch for all of it; value_mb and
h_star_mb return its value and h_star.  The interior value comes from the
same slope root and f as series.lnf_conjugate.

Beyond theta2 the n-th member of the epsilon family rests on the root lam
in [0, alpha] of its prefix slope, phi_n(-lam) = v/u.  The first n terms
of a family (n <= 2^16) are one cached record per (family, n) (_prefix),
shared by every target of the family, which also keeps target-free Gibbs
passes on a ladder of multipliers lam_k = alpha - alpha 2^(-k/16) (_rung),
each computed on first use.  EpsilonFamily.converge reads the rung nearest
each member's extrapolated start: it drops the member with no pass of its
own where the rung's Lagrange dual already rules it out, and otherwise
starts the member's Newton iteration from the rung's step.  The rung
depends on the start alone, so no result depends on what the cache holds.

Forward solves (from dual multipliers (x, y) to the unique optimizer) work
for all three entropies.  Inverse bose-einstein/fermi-dirac solves are
best-effort Newton iterations that either succeed and verify, or return an
explicit failure report; no complete inverse theory exists for them.

Families whose levels decrease to -inf or dip below zero are normalized
(sign flip, then a constant shift; EmpSolver.normal_family), and every
reported value, multiplier and sequence is translated back to the original
coordinates (EmpSolver.multipliers_from_normal for multipliers).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence, Union

import numpy as np

from .entropies import Entropy
from .errors import (
    BudgetError,
    DomainError,
    RangeError,
    UnsupportedFamilyError,
)
from .rootfind import _newton_step, minimize_convex_2d, newton_root, slope_step
from .sequences import SequenceFamily, ShiftedSigma, flipped, sigma_min_set
from . import _work, finite, series
from .series import SeriesProfile

__all__ = [
    "Region",
    "SequenceRule",
    "EpsilonFamily",
    "EpsilonMember",
    "EmpSolution",
    "InverseFailure",
    "EmpSolver",
]

# Relative tolerance for cone-boundary classification.  Points snapped to a
# boundary take its closed-form value; the snap error is O(rtol ln(1/rtol)),
# which must stay below the 1e-8 weak-duality slack.
_REGION_RTOL = 1e-12
_MB = Entropy.MAXWELL_BOLTZMANN


def _on_ray(v: float, ray: float) -> bool:
    """v within _REGION_RTOL of the boundary value ray, relative to the
    larger of the two, so that scaling (u, v) never moves a point on or off."""
    return abs(v - ray) <= _REGION_RTOL * max(abs(v), abs(ray))


class Region(Enum):
    INFEASIBLE_NEGATIVE = "infeasible-negative"
    ORIGIN = "origin"
    ZERO_WITH_POSITIVE_V = "zero-with-positive-v"
    LOWER_BOUNDARY = "lower-boundary"
    INTERIOR = "interior"
    UPPER_BOUNDARY_THETA2 = "upper-boundary-theta2"
    BEYOND_THETA2 = "beyond-theta2"
    BELOW_CONE = "below-cone"
    DEGENERATE_CONSTANT_SIGMA = "degenerate-constant-sigma"
    DEGENERATE_ALL_DIVERGENT = "degenerate-all-divergent"


_ATTAINED = {
    Region.ORIGIN,
    Region.LOWER_BOUNDARY,
    Region.INTERIOR,
    Region.UPPER_BOUNDARY_THETA2,
}


@dataclass(frozen=True)
class SequenceRule:
    """Closed-form description of an occupation sequence.

    form "zero": all terms vanish; "restricted": finitely many explicit
    terms; "exponential": u_n = p_n e^{x + sigma_n y} / (1 + a e^{x + sigma_n y})
    with the original-coordinate multipliers (x, y); `normal` is the
    (family, x, y) it is evaluated with, those of the solver's normal form
    (EmpSolver builds every exponential rule).  term and prefix read one
    array: e^(ln p_n + sigma_n y + x), or else series._mult_arrays' 'grad' row.
    """

    kind: Entropy
    form: str
    family: SequenceFamily
    x: Optional[float] = None
    y: Optional[float] = None
    support: Optional[tuple[tuple[int, float], ...]] = None
    normal: Optional[tuple[SequenceFamily, float, float]] = None

    def term(self, n: int) -> float:
        """u_n; DomainError unless n is an integer >= 1."""
        n = _truncation(n, "n")
        return float(self._terms(n, n)[0])

    def prefix(self, count: int) -> list[float]:
        """[term(1), ..., term(count)]; DomainError unless count is an
        integer >= 0."""
        count = _truncation(count, "count", 0)
        return self._terms(1, count).tolist() if count else []

    @series._overflow_ignored
    def _terms(self, lo: int, hi: int) -> np.ndarray:
        """u_n for n in [lo, hi].  Fermi-dirac terms past t = x + sigma_n y
        = 700 read ln p_n, which only they read."""
        if self.form != "exponential":
            u = np.zeros(hi - lo + 1)
            for k, val in self.support or ():
                if lo <= k <= hi:
                    u[k - lo] = val
            return u
        fam, x, y = self.normal
        lt = fam.log_terms(y, lo, hi) + x
        if self.kind is _MB:
            return np.exp(lt)
        t = x + fam.sigma_array(lo, hi) * y
        t_hi = float(t.max())
        log_p = fam.log_terms(0.0, lo, hi) if t_hi > 700.0 else None
        return series._mult_arrays(self.kind, ("grad",), t, t_hi, np.exp(lt), lt, log_p)["grad"]


@dataclass(frozen=True)
class EpsilonMember:
    """One feasible truncation: terms u_k = p_k e^{ups - sigma_k lam} up to n.

    term_array holds them as a read-only float array; `terms`, the same
    floats as a tuple, is built on its first read and kept.  Equality, hash
    and repr cover (n, lam, ups, objective) alone, which fix the terms."""

    n: int
    lam: float
    ups: float
    objective: float
    term_array: np.ndarray = field(repr=False, compare=False)

    @functools.cached_property
    def terms(self) -> tuple[float, ...]:
        if _work.on and (work := _work.local.record) is not None:
            work.terms_built += 1
        return tuple(self.term_array.tolist())


class _Dropped(Exception):
    """An epsilon-family member dropped by its dual bound; its one argument
    is the root estimate that stands in for its root (EpsilonFamily._root)."""


_PREFIX_CACHE_N = 2**16
_PREFIX_CACHE_SIZE = 32
_PREFIX_CACHE_BYTES = _PREFIX_CACHE_SIZE * 2 * 8 * _PREFIX_CACHE_N
_RUNGS = 16  # rungs of a record's ladder per halving of alpha - lam (_rung)


def _rung(start: float, alpha: float) -> float:
    """The rung of a prefix record's ladder nearest start in ln(alpha -
    lam): lam_k = alpha - alpha 2^(-k/16) for the k nearest 16
    log2(alpha / (alpha - start)), alpha itself for start >= alpha.  lam_0
    is 0.0, and lam_k is alpha for every k >= 16 * 54 (alpha 2^-54 is below
    half an ulp of alpha), so the ladder has at most 865 distinct rungs, the
    two ends of [0, alpha] among them."""
    if not start < alpha:
        return alpha
    k = round(_RUNGS * (math.log2(alpha) - math.log2(alpha - start)))
    return alpha - alpha * 2.0 ** (-k / _RUNGS)


class _Prefix:
    """The first n terms of a normalized family, as every target of the
    family reads them: log_p and s, (ln p_k, sigma_k) for k = 1..n as
    read-only arrays; rows, finite._dual_rows(s), built on first read (the
    inverse's proposal reads it, n <= series._ONE_ARRAY); and ends, the
    target-free Gibbs passes {lam: (phi_n, Var_n, ln Z_n) at t = -lam} on
    the rungs of the ladder lam_k = alpha - alpha 2^(-k/16) (_rung), whose
    rungs 0 and alpha are the ends of [0, alpha].  end fills ends, each
    rung the first time EpsilonFamily._root asks for it, so a record holds
    at most 865 of them (concurrent writers store the same floats)."""

    def __init__(self, family, n: int):
        self.log_p = family.log_terms(0.0, 1, n)
        self.s = family.sigma_array(1, n)
        self.log_p.flags.writeable = self.s.flags.writeable = False
        self.ends = {}

    @functools.cached_property
    def rows(self):
        return finite._dual_rows(self.s)

    def end(self, lam: float):
        """ends[lam] for a rung lam (_rung), from one Gibbs pass at t = -lam
        the first time.  The pass depends on the record and lam alone, so a
        read returns the same floats whether it computes them or not."""
        got = self.ends.get(lam)
        if got is None:
            got = self.ends[lam] = finite._gibbs_pass(self.log_p, self.s, -lam)[:3]
        return got


_cached_prefix = functools.lru_cache(maxsize=_PREFIX_CACHE_SIZE)(_Prefix)


def _prefix(family, n: int) -> _Prefix:
    """The _Prefix of the first n terms.  Up to n = _PREFIX_CACHE_N (2^16)
    it is built once per (family, n) and kept in a least-recently-used
    cache of _PREFIX_CACHE_SIZE (32) entries, larger ones are built per
    call.  A record holds two float64 arrays of n, and its rows (n <= 4096)
    three more columns, at most 2 * 2^16 floats in all, so the cache holds
    at most _PREFIX_CACHE_BYTES (32 MiB) of arrays whatever truncations are
    asked for, besides each record's ends, at most 865 passes of three
    floats.  The cache is the module's, not the family's: a record holds up
    to 1 MiB, and the public member(n) can ask for any n, so one byte bound
    over every family keeps memory bounded."""
    return _Prefix(family, n) if n > _PREFIX_CACHE_N else _cached_prefix(family, n)


def _proposal(family, kind, u, v, start, scale, in_domain, tol):
    """Where the certified Newton of inverse_solve_bf starts: near the
    minimizer of the uncertified dual of the first n terms, by the finite
    solves' Newton (finite._minimize_dual) from start, or start where it
    does not converge.  n is 64 (series._START_BLOCK), doubled up to 4096
    while the last half of the first n terms carries more than the
    tolerance at start, as maxwell-boltzmann terms p_k e^(x + sigma_k y)
    (1 + sigma_k), each divided by the tolerance first, which keeps them
    finite for a target near the float limit.

    The Newton stops at the first point whose residual norm r meets r^2 <=
    tol / 10, and the proposal is that point's Newton step, from the
    Hessian the point was evaluated with and not evaluated itself: Newton
    converges quadratically there, so the step's residual is about r^2,
    and the certified Newton judges the proposal anyway.  Where the step
    is not finite or leaves in_domain, or the Hessian's determinant is not
    positive and finite, the proposal is the evaluated point.  It makes no
    pass: ln p_k, sigma_k and the rows of the finite dual come from one
    _prefix record per (family, n)."""
    x0, y0 = start
    shift = x0 - math.log(tol * scale)
    n = series._START_BLOCK
    while True:
        pre = _prefix(family, n)
        half = slice(n // 2, n)
        tail = np.exp(pre.log_p[half] + (shift + pre.s[half] * y0)) @ (1.0 + pre.s[half])
        if n >= series._ONE_ARRAY or not tail > 1.0:
            break
        n *= 2
    got = finite._minimize_dual(
        kind, pre.log_p, pre.rows, u, v, start, (scale, scale), math.sqrt(0.1 * tol),
        in_domain,
    )
    if not got.converged:
        return start
    newton = _newton_step(got.residual, got.hessian)
    if newton is not None:
        x, y = got.point[0] + newton[0], got.point[1] + newton[1]
        if math.isfinite(x) and math.isfinite(y) and in_domain(x, y):
            return x, y
    return got.point


def _truncation(n, name: str, least: int = 1) -> int:
    """n as an int when it is an integer >= least (numpy integers included)."""
    try:
        k = operator.index(n)
    except TypeError:
        k = least - 1
    if k < least:
        raise DomainError(f"{name} must be an integer >= {least}, got {n!r}")
    return k


class EpsilonFamily:
    """Feasible truncated sequences for a target beyond theta2: the n-th
    member matches both constraints exactly and its objective
    (ups_n - 1) u - lam_n v decreases to the unattained value H(u, v)."""

    def __init__(self, family, prof, u, v, value):
        self._family = family  # normalized
        self._prof = prof
        self.u = u
        self.v = v
        self.value = value

    def member(self, n: int) -> EpsilonMember:
        """The n-term member; RangeError when n is too small to reach v/u,
        that is unless phi_n(-alpha) < v/u < phi_n(0) for the prefix slope
        phi_n.  lam solves phi_n(-lam) = v/u by a bracket-safeguarded Newton
        iteration on [0, alpha], one pass over the prefix per step, started
        as converge starts a first member, from lam = alpha (_root).
        DomainError unless n is an integer >= 1."""
        return self._member(_truncation(n, "n"), self._prof.alpha)[0]

    def _member(self, n: int, start: float, bound: float = math.inf, floor: float = 0.0):
        """(member(n), its lam) with the root search started from lam =
        start (_root); (None, a root estimate) once the member is
        dropped by its dual bound.  The prefix record comes from
        _prefix, shared per (family, n); the member's terms are the root's
        last Gibbs pass scaled in place, u e / z0, and become a tuple only
        when read (EpsilonMember.terms)."""
        if _work.on and (work := _work.local.record) is not None:
            work.members += 1
        lam, at = self._root(_prefix(self._family, n), start, bound, floor)
        if at is None:
            return None, lam
        _, _, log_z, e, z0 = at
        ups = math.log(self.u) - log_z
        e *= self.u / z0
        e.flags.writeable = False
        objective = (ups - 1.0) * self.u - lam * self.v
        return EpsilonMember(n, lam, ups, objective, e), lam

    def _root(self, pre, lam, bound=math.inf, floor=0.0):
        """(lam, the Gibbs pass at t = -lam, finite._gibbs_pass) with
        g = phi_n(t) - w at most 1e-12 max(1, w) in absolute value, w = v/u,
        on the prefix record pre (_prefix): rootfind.newton_root in t = -lam
        on [-alpha, 0], each Newton point rootfind.slope_step's step on
        ln(phi_n - theta1) with phi_n' = Var_n(sigma) from the same pass.
        RangeError unless phi_n(-alpha) < w < phi_n(0).

        Every pass also gives the Lagrange dual of the n-term problem,
        D_n(lam) = (ln u - ln Z_n(lam) - 1) u - lam v, which is at most the
        member's objective for every lam (weak duality) and equals it at the
        root.  A cached record (n <= _PREFIX_CACHE_N) first reads one rung
        of its ladder of target-free passes, the one nearest the start lam
        (_rung; pre.end, one pass per record and rung the first time), the
        alpha end for a start at alpha and the zero end for a start at 0.
        At an end it checks that end's side (RangeError unless phi_n(-alpha)
        < w at alpha, w < phi_n(0) at 0); at every rung it checks the bound,
        and the Newton iteration starts from the rung's Newton step, clipped
        to [floor, alpha] (at the rung where the step is nan).  An uncached
        record starts at lam itself.  The rung depends on the start alone
        and its pass on the record and the rung alone, so no result depends
        on which rungs the cache holds.

        Where D_n exceeds `bound`, at the rung or at an iterate, the
        member's objective is above `bound`, up to rounding, and _root
        returns (an estimate of the root, None) with no further pass;
        evaluate carries it out of the root search in a _Dropped.  The
        estimate is the Newton step from that point, clipped to [floor,
        alpha], where the point lies left of the root; right of it (alpha
        included), where the step lands short, it is the midpoint of that
        estimate and the point.

        A step evaluates an end of [-alpha, 0] only when it points past
        that end and no iterate has proved its side, so newton_root is not
        told of the rung read first: a pass at the end is a better Newton
        point than the bracket's midpoint, which a proved end sends such a
        step to.  An end left unproved is checked after the root from
        pre.end, at most one pass per record and end."""
        a, t1 = self._prof.alpha, self._prof.theta1
        log_p, s = pre.log_p, pre.s
        n = len(s)
        u, v = self.u, self.v
        w = v / u
        ln_u = math.log(u)

        def reach(phi, lam):
            if (lam == 0.0 and not phi > w) or (lam == a and not phi < w):
                raise RangeError(f"truncation n={n} cannot reach slope {w}")

        def clipped(lam, step):
            return lam if math.isnan(step) else min(max(lam - step, floor), a)

        def estimate(lam, step, phi):
            est = clipped(lam, step)
            return est if phi > w else 0.5 * (est + lam)

        if n <= _PREFIX_CACHE_N:
            rung = _rung(lam, a)
            phi, var, log_z = pre.end(rung)
            reach(phi, rung)
            step = slope_step(phi, var, w, t1)
            if (ln_u - log_z - 1.0) * u - rung * v > bound:
                return estimate(rung, step, phi), None
            lam = clipped(rung, step)

        def evaluate(t):
            lam = -t
            at = finite._gibbs_pass(log_p, s, t)
            phi, var, log_z = at[:3]
            reach(phi, lam)
            step = slope_step(phi, var, w, t1)
            if (ln_u - log_z - 1.0) * u - lam * v > bound:
                raise _Dropped(estimate(lam, step, phi))
            return phi - w, t + step, at

        try:
            # the end t = -0.0, so that lam = -t is 0.0 there
            t, at, alpha_ok, zero_ok = newton_root(
                evaluate, -lam, evaluate(-lam), 1e-12 * max(1.0, w), -a, -0.0
            )
        except _Dropped as drop:
            return drop.args[0], None
        for end, ok in ((0.0, zero_ok), (a, alpha_ok)):
            if not ok:
                reach(pre.end(end)[0], end)
        return -t, at

    def converge(self, epsilon: float, n_max: int = 2**20, start: int = 8) -> EpsilonMember:
        """Double the truncation from `start` until the member objective is
        within epsilon of the value.  Each member's root search starts
        from the previous roots: the gap alpha - lam_n shrinks by a roughly
        constant factor per doubling, so the next gap is extrapolated as
        (alpha - lam_k)^2 / (alpha - lam_{k-1}); the first member starts at
        alpha, the second at the first root.

        A member is dropped once its dual bound D_n(lam) exceeds value +
        epsilon + delta: its objective is then farther than epsilon from
        the value.  delta = 1e-12 max(1, |value| + alpha v) covers the
        rounding of D_n and of the objective, whose two products are each
        at most about |value| + alpha v in magnitude.  Up to n =
        _PREFIX_CACHE_N the bound is first read at the rung of the record's
        ladder of target-free passes nearest the member's start (_rung):
        a member whose D_n there exceeds it takes no pass of its own, and
        the others start their Newton iteration from the rung's step and
        are dropped after the first Newton pass past the bound (_root).  A
        dropped member's root estimate (never below the previous root, as
        roots grow with n for nondecreasing levels) stands in for its root
        in the extrapolation, and the member pays no terms.  member(n)
        passes no bound and solves every member to its root.
        DomainError unless epsilon > 0 and start is an integer >= 1."""
        if not epsilon > 0.0:
            raise DomainError(f"epsilon must be > 0, got {epsilon!r}")
        n = _truncation(start, "start")
        a = self._prof.alpha
        bound = self.value + epsilon + 1e-12 * max(1.0, abs(self.value) + a * self.v)
        roots = []
        while n <= n_max:
            floor, guess = (roots[-1], roots[-1]) if roots else (0.0, a)
            if len(roots) >= 2:
                gap, prev = a - roots[-1], a - roots[-2]
                if 0.0 < gap < prev:
                    guess = a - gap * gap / prev
            try:
                member, lam = self._member(n, guess, bound, floor)
            except RangeError:
                pass
            else:
                roots.append(lam)
                if member is not None and abs(member.objective - self.value) <= epsilon:
                    return member
            n *= 2
        raise BudgetError(
            f"epsilon family did not reach {epsilon} by n={n_max}: every truncation "
            "tried was farther than epsilon from the value or could not reach v/u"
        )


@dataclass(frozen=True)
class EmpSolution:
    region: Region
    value: float  # H(u, v)
    h_star: float  # h*(u, v); differs from H only where attainment fails badly
    attained: bool
    u: float
    v: float
    kind: Entropy
    solution: Optional[SequenceRule] = None
    epsilon_family: Optional[EpsilonFamily] = None
    multipliers: Optional[tuple[float, float]] = None


@dataclass(frozen=True)
class InverseFailure:
    """Honest non-result of a best-effort inverse solve."""

    kind: Entropy
    last_iterate: tuple[float, float]
    residual: tuple[float, float]
    message: str


ExplicitSequence = Sequence[float]


def _normal_form(family: SequenceFamily) -> tuple:
    """(flip, shift, normal form) of a family (SequenceFamily._normal):
    levels decreasing to -inf flipped (flip -1), then levels with min sigma
    <= 0 shifted by theta1 - 1; constant levels as given."""
    flip, shift, fam = 1, 0.0, family
    if not fam.constant_sigma:
        if fam.sigma_direction == -1:
            fam, flip = flipped(fam), -1
        if fam.sigma_direction != +1:
            raise UnsupportedFamilyError("levels neither constant nor tending to +/-inf")
        theta1 = sigma_min_set(fam).theta1
        if theta1 <= 0.0:
            shift, fam = theta1 - 1.0, ShiftedSigma(fam, theta1 - 1.0)
    return flip, shift, fam


class EmpSolver:
    """Immutable per-family front end; all methods are safe to call
    concurrently once construction (normalization + profiling) finishes.

    The solver works in a normal form of the family (normal_family):
    levels decreasing to -inf are flipped, then levels with min sigma <= 0
    shifted, and results are mapped back to the original coordinates.  A
    family is degenerate, with no profile, when its levels are constant or
    dom f is empty.  tol does not set the profile: classify and the slope
    roots read the one series.profile of the normal form and its theta2.
    The normal form, its profile and its slope ladder are records of the
    family instance: its solvers share them, an equal instance starts cold."""

    def __init__(self, family: SequenceFamily, tol: float = 1e-10):
        self.family, self.tol = family, tol
        self._flip, self._shift, self._fam = family._normal
        fam = self._fam
        degenerate = fam.constant_sigma or fam.dom_f_empty
        self._profile = None if degenerate else series.profile(fam)
        self._smin = None if fam.constant_sigma else sigma_min_set(fam)  # the normal form's

    # -- coordinate maps ----------------------------------------------------

    def _to_norm(self, u, v):
        return u, self._flip * v - self._shift * u

    def _from_norm_v(self, u, v_norm):
        return self._flip * (v_norm + self._shift * u)

    def _xy_to_norm(self, x, y):
        y_n = self._flip * y
        return x + self._shift * y_n, y_n

    def multipliers_from_normal(self, x_n: float, y_n: float) -> tuple[float, float]:
        """The original-coordinate multipliers (x, y) of multipliers
        (x_n, y_n) of the normal form."""
        return x_n - self._shift * y_n, self._flip * y_n

    @property
    def normal_family(self) -> SequenceFamily:
        """The family the solver works in: levels flipped when they decrease
        to -inf, then shifted by theta1 - 1 when min sigma <= 0, so that
        v_normal = +-v - shift u; a degenerate family as given."""
        return self._fam

    @property
    def profile(self) -> Optional[SeriesProfile]:
        """The normal form's series profile; None for a degenerate family."""
        return self._profile

    # -- classification -----------------------------------------------------

    def classify(self, u: float, v: float) -> Region:
        """Region of (u, v) with respect to dom S, the attainment cone and
        the degenerate -inf cases (evaluated in normalized coordinates).
        Boundaries snap within _REGION_RTOL of the larger of |v| and the
        boundary ray, so the region depends on v/u only; RangeError when u
        or v is nan or infinite."""
        for name, val in (("u", u), ("v", v)):
            if not math.isfinite(val):
                raise RangeError(f"{name} must be finite, got {val}")
        if self.family.constant_sigma:
            if u == 0.0 and v == 0.0:
                return Region.ORIGIN
            if u <= 0.0:
                return Region.INFEASIBLE_NEGATIVE
            ray = self.family.sigma(1) * u
            if _on_ray(v, ray):
                return Region.DEGENERATE_CONSTANT_SIGMA
            # off the ray there is no feasible sequence at all
            return Region.BELOW_CONE if v < ray else Region.INFEASIBLE_NEGATIVE
        u_n, v_n = self._to_norm(u, v)
        if u_n < 0.0 or (u_n == 0.0 and v_n < 0.0):
            return Region.INFEASIBLE_NEGATIVE
        if u_n == 0.0:
            return Region.ORIGIN if v_n == 0.0 else Region.ZERO_WITH_POSITIVE_V
        ray = self._smin.theta1 * u_n
        if _on_ray(v_n, ray):
            return Region.LOWER_BOUNDARY
        if v_n < ray:
            return Region.BELOW_CONE
        prof = self._profile
        if prof is None:
            return Region.DEGENERATE_ALL_DIVERGENT
        if math.isfinite(prof.theta2):
            if _on_ray(v_n, prof.theta2 * u_n):
                return Region.UPPER_BOUNDARY_THETA2
            if v_n > prof.theta2 * u_n:
                return Region.BEYOND_THETA2
        return Region.INTERIOR

    # -- maxwell-boltzmann solves -------------------------------------------

    def _interior(self, u: float, w: float) -> tuple[float, float, float]:
        """(H, x, y) in normalized coordinates at an interior target of
        slope w: H = u(ln u - 1) + u g and x = ln u - ln f(y), with y and
        g = (ln f)*(w) lnf_conjugate's (series._conjugate_at, one g per
        (family, w, tol), f held to c max(1, f), c = min(tol, 1e-12)): H is
        within about u c max(1, f) / f plus rounding, and H(tu, tv) = t H(u,
        v) + t ln t u holds to rounding.  Where the terms of H overflow to
        +inf and -inf, H is u (ln u - 1 + g), +-inf."""
        conj, y_n, ln_f = series._conjugate_at(self._fam, w, self.tol)
        value = u * (math.log(u) - 1.0) + u * conj
        if math.isnan(value):
            value = u * (math.log(u) - 1.0 + conj)
        return value, math.log(u) - ln_f, y_n

    def _exponential(self, kind, x_n, y_n, xy=None) -> SequenceRule:
        """The exponential rule at normal-form multipliers (x_n, y_n); its
        original multipliers are xy, or else mapped back from (x_n, y_n)."""
        x, y = xy or self.multipliers_from_normal(x_n, y_n)
        return SequenceRule(kind, "exponential", self.family, x, y, normal=(self._fam, x_n, y_n))

    def value_mb(self, u: float, v: float) -> float:
        """H(u, v) for the maxwell-boltzmann entropy: solve_mb(u, v).value."""
        return self.solve_mb(u, v).value

    def h_star_mb(self, u: float, v: float) -> float:
        """h*(u, v) = solve_mb(u, v).h_star; differs from H(u, v) at
        (0, v > 0), where the dual value -alpha v is finite but the primal
        problem is infeasible, and on degenerate families, where it is
        -inf."""
        return self.solve_mb(u, v).h_star

    def solve_mb(self, u: float, v: float) -> EmpSolution:
        """Full maxwell-boltzmann solve and the one region dispatch.  The
        value H(u, v) is 0 at the origin, -inf on the degenerate regions,
        +inf where no feasible sequence exists, and the closed conjugate
        formula on the cone; h*(u, v) is -inf on degenerate families,
        -alpha v at (0, v > 0) and H elsewhere.  Also attainment, the
        optimal sequence or epsilon-optimal family, and dual multipliers
        where they exist."""
        region = self.classify(u, v)
        _, v_n = self._to_norm(u, v)
        prof = self._profile
        value = math.inf  # no feasible sequence
        rule = eps_fam = None
        if region is Region.ORIGIN:
            value = 0.0
            rule = SequenceRule(_MB, "zero", self.family)
        elif region in (Region.DEGENERATE_CONSTANT_SIGMA, Region.DEGENERATE_ALL_DIVERGENT):
            value = -math.inf
        elif region is Region.LOWER_BOUNDARY:
            smin = self._smin
            value = u * (math.log(u) - 1.0 - math.log(smin.p_sum))
            p = self.family.p_array(1, smin.indices[-1])
            support = tuple((n, u * float(p[n - 1]) / smin.p_sum) for n in smin.indices)
            rule = SequenceRule(_MB, "restricted", self.family, support=support)
        elif region is Region.INTERIOR:
            value, x_n, y_n = self._interior(u, v_n / u)
            rule = self._exponential(_MB, x_n, y_n)
        elif region in (Region.UPPER_BOUNDARY_THETA2, Region.BEYOND_THETA2):
            x_n = math.log(u / prof.f_at_boundary)
            value = (x_n - 1.0) * u - prof.alpha * v_n
            if region is Region.UPPER_BOUNDARY_THETA2:
                rule = self._exponential(_MB, x_n, -prof.alpha)
            else:
                eps_fam = EpsilonFamily(self._fam, prof, u, v_n, value)
        if prof is None:
            h_star = -math.inf
        elif region is Region.ZERO_WITH_POSITIVE_V:
            h_star = -prof.alpha * v_n
        else:
            h_star = value
        mult = None if rule is None or rule.normal is None else (rule.x, rule.y)
        return EmpSolution(
            region, value, h_star, region in _ATTAINED, u, v, _MB, rule, eps_fam, mult
        )

    # -- forward and inverse solves ------------------------------------------

    def _attained(self, kind, x_n, y_n, u, v_n, value, xy=None) -> EmpSolution:
        """The attained solution at normal-form multipliers (x_n, y_n) whose
        gradient sums are (u, v_n); xy as in _exponential."""
        v = self._from_norm_v(u, v_n)
        rule = self._exponential(kind, x_n, y_n, xy)
        return EmpSolution(
            self.classify(u, v), value, value, True, u, v, kind, rule, None, (rule.x, rule.y)
        )

    @series._overflow_ignored
    def forward_solve(self, kind: Entropy, x: float, y: float) -> EmpSolution:
        """From dual multipliers to the unique optimal occupation sequence:
        (u, v) is the gradient of h_W at (x, y) and the value follows from
        Fenchel equality x u + y v - h_W(x, y); h_W and its gradient come
        from one certified pass.  RangeError when x or y is nan or
        infinite; DomainError from series._dual_sums, before any term is
        summed, on a degenerate family or outside dom h_W."""
        for name, val in (("x", x), ("y", y)):
            if not math.isfinite(val):
                raise RangeError(f"{name} must be finite, got {val}")
        x_n, y_n = self._xy_to_norm(x, y)
        # slowly spaced level families may certify only up to 10^3 tol
        h, u, v_n = (
            s.value
            for s in series._dual_point(
                self._fam, kind, x_n, y_n, self.tol, hessian=False, ceiling=1e3
            )
        )
        return self._attained(kind, x_n, y_n, u, v_n, x_n * u + y_n * v_n - h, (x, y))

    def inverse_solve_bf(
        self, kind: Entropy, u: float, v: float, tol: float = 1e-10
    ) -> Union[EmpSolution, InverseFailure]:
        """Best-effort inverse solve for bose-einstein / fermi-dirac targets
        strictly inside the cone: damped Newton on the dual potential
        F = h_W(x, y) - x u - y v, started without a pass at the
        maxwell-boltzmann multipliers the family's cached slope ladder
        gives (series._ladder_point, from its rough entries alone): y where
        the root of phi(y) = v/u starts, and x = ln u - ln f(y) with ln f(y)
        interpolated through the two ladder entries.  From there the finite
        solves' dual Newton (finite._minimize_dual), uncertified on the
        first 64 terms or more (_proposal, no pass), proposes where the
        certified Newton starts: the Newton step, not evaluated, from its
        first point whose residual norm r meets r^2 <= t / 10, t = res_tol
        / (10 scale), the norm the certified points' sums are held to (that
        point itself where the step is unusable); it starts at the ladder
        point where that Newton does not converge.
        Each certified Newton point is one certified pass for h_W, its
        gradient and its Hessian, so a proposal that lands within the
        tolerance costs one pass.

        The solution is read off the accepted Newton point, without a
        further pass: its gradient sums are (u, v) plus the Newton residual,
        which is within res_tol = max(tol, 1e-11) max(1, u, |v|), and its
        value x u' + y v' - h_W is certified by that point's sums, each
        within res_tol / 10.  The first pass that stops at its ceiling,
        10^3 times that, makes both 10^3 times looser for the rest of the
        Newton (no ceiling, no restart).  Returns an InverseFailure report
        when it cannot verify a solution, including when the iteration
        leaves the range where the series can be summed or its accepted
        point is not interior; never a guessed value."""
        if kind is Entropy.MAXWELL_BOLTZMANN:
            raise DomainError("use solve_mb for maxwell-boltzmann targets")
        region = self.classify(u, v)
        if region is not Region.INTERIOR:
            raise RangeError(
                f"inverse solve requires a strict-cone interior target, got {region}"
            )
        _, v_n = self._to_norm(u, v)
        prof = self._profile
        w = v_n / u
        scale = max(1.0, u, abs(v_n))
        try:
            y_c, ln_f = series._ladder_point(self._fam, w)
        except BudgetError as exc:
            return InverseFailure(
                kind, (math.nan, math.nan), (math.inf, math.inf),
                f"newton aborted: {exc}",
            )
        x_c = math.log(u) - ln_f
        bose = kind is Entropy.BOSE_EINSTEIN
        if bose and series._outside_be(self._fam, x_c, y_c):
            x_c = -prof.theta1 * y_c - 1.0
        res_tol = max(tol, 1e-11) * scale
        relax = 1.0  # 10^3 from the first pass that stops at its ceiling

        def evaluate(xx, yy):
            nonlocal relax
            if _work.on and (work := _work.local.record) is not None:
                work.newton_points += 1
            s_tol = relax * res_tol / 10.0
            sums = series._dual_point(self._fam, kind, xx, yy, s_tol, ceiling=1e3 / relax)
            # only a pass past 4096 terms can stop at its ceiling
            if sums[0].truncation_n >= 4096 and any(2.0 * s.tail_bound_used > s_tol for s in sums):
                relax = 1e3
            h, gu, gv, *hess = (s.value for s in sums)
            return h - xx * u - yy * v_n, (gu - u, gv - v_n), hess, relax * res_tol / scale

        def in_domain(xx, yy):
            return yy < -prof.alpha and not (bose and series._outside_be(self._fam, xx, yy))

        # the proposal's residual target, res_tol / 10, in norm units
        start = _proposal(
            self._fam, kind, u, v_n, (x_c, y_c), scale, in_domain, res_tol / 10.0 / scale
        )
        try:
            got = minimize_convex_2d(evaluate, in_domain, start, (scale, scale))
        except (DomainError, BudgetError, RangeError) as exc:
            # RangeError: an iterate's x overflows exp(x)
            return InverseFailure(
                kind, self.multipliers_from_normal(*start), (math.inf, math.inf),
                f"newton aborted: {exc}",
            )
        if not got.converged:
            return InverseFailure(
                kind, self.multipliers_from_normal(*got.point), got.residual,
                f"newton {got.message} above tolerance {relax * res_tol:.3e}",
            )
        (x_n, y_n), (r0, r1) = got.point, got.residual
        # value = x u' + y v' - h_W with (u', v') = (u, v) + r and
        # h_W = F + x u + y v
        value = x_n * r0 + y_n * r1 - got.potential
        sol = self._attained(kind, x_n, y_n, u + r0, v_n + r1, value)
        if sol.region is Region.INTERIOR:
            return sol
        # the residual moved an interior target out of the cone
        return InverseFailure(
            kind, sol.multipliers, got.residual,
            f"newton point lies in region {sol.region.value}, not interior",
        )

    # -- objective evaluation --------------------------------------------------

    @series._overflow_ignored
    def objective_value(
        self,
        kind: Entropy,
        seq: Union[SequenceRule, ExplicitSequence],
        tol: float = 1e-10,
    ) -> float:
        """sum p_n W(u_n / p_n) under the everywhere-defined summation
        convention (partial-sum limit; +inf when it does not exist, which
        cannot happen for the nonnegative-deficit sequences accepted here).

        An exponential rule u_n = p_n (W*)'(x + sigma_n y) meets termwise
        Fenchel equality, so its objective is x u + y v - h_W(x, y), read
        from one certified _dual_point pass as forward_solve reads it; each
        sum within tol / (1 + |x| + |y|) puts the value within tol."""
        if isinstance(seq, SequenceRule):
            if seq.form == "zero":
                return 0.0
            if seq.form == "restricted":
                p = self.family.p_array(1, max((n for n, _ in seq.support), default=0))
                return finite._w_sum(
                    kind, [p[n - 1] for n, _ in seq.support], [val for _, val in seq.support]
                )
            fam, x, y = seq.normal
            h, u, v = (
                s.value
                for s in series._dual_point(
                    fam, kind, x, y, tol / (1.0 + abs(x) + abs(y)), hessian=False
                )
            )
            return x * u + y * v - h
        terms = [float(t) for t in seq]
        if not all(t >= 0.0 for t in terms):  # nan included
            raise DomainError("occupation terms must be nonnegative")
        p = self.family.p_array(1, len(terms))
        # p_array reads inf past ln p_n = 700, where a term needs ln p_n
        log_p = self.family.log_terms(0.0, 1, len(terms)) if np.isinf(p).any() else None
        return finite._w_sum(kind, p, terms, log_p)

    # -- biconjugate ---------------------------------------------------------

    @series._overflow_ignored
    def biconjugate_check(
        self, x: float, y: float, sample_budget: int = 10_000
    ) -> tuple[float, float]:
        """Numerical check of H* = h: rhs = h(x, y) summed directly, lhs =
        sup over sampled dom-H points of x u + y v - H(u, v).  Always
        lhs <= rhs up to sampling gap."""
        prof = self._profile
        if prof is None:
            # H takes -inf on its ray/cone: the sup is +inf immediately
            return math.inf, math.inf
        x_n, y_n = self._xy_to_norm(x, y)
        rhs = series.eval_h(self._fam, _MB, x_n, y_n, self.tol)
        n_w = max(16, int(math.sqrt(sample_budget / 4.0)))
        n_u = max(16, sample_budget // n_w)
        u_grid = np.logspace(-3.0, 3.0, n_u)
        w_hi = prof.theta2 * 3.0 if math.isfinite(prof.theta2) else prof.theta1 + float(n_w)
        w_grid = np.linspace(prof.theta1, w_hi, n_w)
        best = 0.0  # the origin sample: x*0 + y*0 - H(0,0) = 0
        for w in w_grid:
            c = series.lnf_conjugate(self._fam, float(w), self.tol)
            # H(u, wu) = u ln u - u + u c on the cone
            vals = x_n * u_grid + y_n * w * u_grid - (
                u_grid * np.log(u_grid) - u_grid + u_grid * c
            )
            best = max(best, float(vals.max()))
        return best, rhs
