"""Certified analysis of f(y) = sum p_n exp(sigma_n y) and of the dual sums
h_W(x, y) = sum p_n W*(x + sigma_n y).

Everything here carries a certificate: series values come with two-sided
tail brackets from the family's metadata, divergence is only ever declared
when proved (ratio >= 1 persists, integral minorant, or terms bounded away
from zero), and profiles record which of the three endpoint regimes holds:

  (a) dom f open at -alpha,
  (b) closed with divergent derivative series (gamma = inf),
  (c) closed with gamma < inf, the only case with a finite slope bound
      theta2 = gamma / f(-alpha).

Every sum comes from one certified pass, _eval_many, which can carry
several sums: the moments of f, or h_W, its gradient and its Hessian at one
point (_dual_point), each with its own tolerance and tail bracket.  A pass
first walks the block ends n = 64, 128, ... on the tail brackets alone, one
family.tail_intervals call per block end (at y = -alpha too), to the first
where every bracket is narrow enough, and then sums the terms up to there
once (_block_sums).  eval_h, grad_h and hessian_h are the one-quantity
entry points to it.

The increasing bijection phi = f'/f : (-inf, -alpha) -> (theta1, theta2) has
one certified evaluation (_certified_slope), which phi returns and whose
pass also gives phi' = f''/f - phi^2 to phi_inverse's Newton root
(rootfind.newton_root).  Every inversion starts from the slope ladder: the
certified slopes at y_k = -alpha - 2^(k/4), k = -48..24, each evaluated
once per (family, tol, k, ceiling) on first use and cached (_ladder_entry),
as the profile is.  The two entries that bracket the target are the first
bracket, and the first iterate is the cubic Hermite interpolant of their
(phi, phi') (_hermite_start), so a warm interior inversion mostly takes
two passes: that start and one Newton step.  The ladder also starts the
bose-einstein and fermi-dirac inverse with no pass (_ladder_point: that
start, and ln f there interpolated through the same two entries).  The
conjugate of ln f follows its four-branch closed form, and its interior
branch (_conjugate_at) is also the solver's interior value.
A pass whose target is beyond the term budget stops at the bound it can
reach up to a ceiling times it (_eval_many; only _conjugate_at, _refine_f,
forward_solve and inverse_solve_bf's Newton points pass one).  All
tolerances are absolute unless noted.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .entropies import Entropy
from .errors import (
    BudgetError,
    ConfigurationError,
    DivergenceError,
    DomainError,
    RangeError,
    UncertifiedError,
    UnsupportedFamilyError,
)
from .rootfind import newton_root
from .sequences import TIE_RTOL, SequenceFamily, SigmaMinSet, sigma_min_set

__all__ = [
    "BoundaryCase",
    "SeriesProfile",
    "SeriesEval",
    "eval_f",
    "profile",
    "phi",
    "phi_inverse",
    "lnf_conjugate",
    "eval_h",
    "grad_h",
    "hessian_h",
]

_TERM_BUDGET = 2**23
_START_BLOCK = 64
_ONE_ARRAY = 4096  # a pass sums its terms up to here in one array
_MB = Entropy.MAXWELL_BOLTZMANN
_UNIT = (1.0, 1.0)
_add_reduce = np.add.reduce  # ndarray.sum() without its Python-level wrapper
_log = logging.getLogger("entromin")


class BoundaryCase(Enum):
    OPEN_A = "a"
    CLOSED_GAMMA_INFINITE_B = "b"
    CLOSED_GAMMA_FINITE_C = "c"


@dataclass(frozen=True)
class SeriesEval:
    """A certified series value: |value - exact| <= tail_bound_used."""

    value: float
    truncation_n: int
    tail_bound_used: float


@dataclass(frozen=True)
class SeriesProfile:
    """Analytic profile of f for one family.

    theta2 is finite exactly in boundary case (c), where it equals
    gamma / f(-alpha); f_at_boundary and gamma are None when not finite.
    """

    alpha: float
    boundary_case: BoundaryCase
    f_at_boundary: Optional[float]
    gamma: Optional[float]
    theta1: float
    theta2: float
    sigma_min: SigmaMinSet

    def __post_init__(self):
        finite_t2 = math.isfinite(self.theta2)
        if finite_t2 != (self.boundary_case is BoundaryCase.CLOSED_GAMMA_FINITE_C):
            raise ConfigurationError("theta2 finite iff boundary case (c)")
        if not self.theta1 < self.theta2:
            raise ConfigurationError(
                f"theta1={self.theta1} must lie below theta2={self.theta2}"
            )


# ---------------------------------------------------------------------------
# core summation with certified tails


def _eval_many(family, y, tols, x=0.0, kind=_MB, ceiling=1.0):
    """Certified sums of p_n sigma_n^k m(t_n) exp(t_n), t_n = x + sigma_n y,
    one SeriesEval per key (m, k) of `tols`, in its order, from one
    certified pass, stopped at the first block end n = 64, 128, ... where
    every tail bracket is narrower than its sum's tolerance.  m = None, and
    every m under maxwell-boltzmann, is the unit multiplier: the moments of
    f are the x = 0 case.  Otherwise m(t) e^t is (W*)(t), (W*)' or (W*)'' as
    m is 'conj', 'grad' or 'hess' (_mult_arrays), so h_W, its gradient and
    its Hessian can share one pass.

    The stopping rule reads only the brackets, so the pass walks the block
    ends with scalar work alone, one family.tail_intervals call each (at
    y = -alpha the boundary brackets), which each sum widens by exp(x) and
    its multiplier's bounds over the tail (_mult_bounds; unit sums at x = 0
    skip them), and then sums the terms up to its stop once (_block_sums).
    When a certified width shrinks too slowly to reach its tolerance within
    the term budget even at cubic decay, the block end is judged again with
    every tolerance times the ceiling, and a pass that stops there logs it;
    BudgetError, before any term is summed, when that is out of reach too
    (at once under ceiling 1).
    """
    try:
        ex = math.exp(x)
        if ex == math.inf:  # x = +inf: math.exp returns inf without raising
            raise OverflowError
    except OverflowError:
        raise RangeError(f"x={x} is too large: exp(x) overflows") from None
    mults, moments, slot = _pass_shape(tuple(tols))
    mults = () if kind is _MB else mults
    scaled = bool(x) or bool(mults)
    bounds = {}
    asked = None  # the tolerances asked for, once they rose to the ceiling
    hi = _START_BLOCK
    while True:
        if mults:
            t_next = x + family.sigma(hi + 1) * y
            if kind is Entropy.BOSE_EINSTEIN and t_next >= 0.0:
                raise DomainError("bose-einstein dual needs x + sigma_n y < 0 on the tail")
            z_next = math.exp(min(t_next, 700.0))
            bounds = {m: _mult_bounds(kind, m, z_next) for m in mults}
        ivs = family.tail_intervals(y, hi, moments)
        while True:  # judged again once the tolerances rise to the ceiling
            brackets = []
            for (m, k), tol in tols.items():
                iv = ivs[slot[k]]
                if iv is None:
                    break
                if scaled:
                    mlo, mhi = bounds.get(m, _UNIT)
                    iv = (ex * iv[0] * mlo, ex * iv[1] * mhi)
                width = iv[1] - iv[0]
                if not (width <= tol) or not math.isfinite(iv[1]):
                    if hi >= 4096 and not width <= tol * (_TERM_BUDGET / hi) ** 3:
                        if ceiling == 1.0:
                            raise BudgetError(
                                f"series tail width {width:.3e} at n={hi} cannot reach "
                                f"{tol:.3e} within the {_TERM_BUDGET}-term budget "
                                f"(x={x}, y={y}, sum {(m, k)})"
                            )
                        asked, tols, ceiling = tols, {s: t * ceiling for s, t in tols.items()}, 1.0
                        brackets = None  # judge this block end again
                    break
                brackets.append(iv)
            else:
                out = []
                sums = _block_sums(family, y, tols, x, kind, mults, hi)
                for acc, (blo, bhi) in zip(sums, brackets):
                    out.append(SeriesEval(math.fsum(acc) + 0.5 * (blo + bhi), hi, 0.5 * (bhi - blo)))
                if asked is not None:
                    _log.debug("series pass stopped at its ceiling: %r at y=%r, n=%d, "
                               "targets %s, widths %s", family, y, hi, list(asked.values()),
                               [2.0 * s.tail_bound_used for s in out])
                return out
            if brackets is not None:
                break
        if hi >= _TERM_BUDGET:
            raise BudgetError(
                f"series tails uncertified after {hi} terms at x={x}, y={y} "
                f"(tolerances {tols})"
            )
        hi = min(2 * hi, _TERM_BUDGET)


@functools.lru_cache(maxsize=64)
def _pass_shape(keys):
    """(multipliers, moments, {moment: its place}) of a pass over the sums
    `keys`, each in order of first appearance."""
    mults = tuple(dict.fromkeys(m for m, _ in keys if m is not None))
    moments = tuple(dict.fromkeys(k for _, k in keys))
    return mults, moments, {k: i for i, k in enumerate(moments)}


def _block_sums(family, y, tols, x, kind, mults, n):
    """Per sum of `tols`, its partials over the blocks 1-64, 65-128, ... up
    to a pass's stopping index n, whose math.fsum is the sum: one array of
    terms up to min(n, 4096), each partial from a slice (none when n = 64),
    then one array per block.  Per array the terms are exponentiated once,
    and z = e^t once for the multipliers (_mult_arrays)."""
    sums = [[] for _ in tols]
    lo, hi = 1, n if n < _ONE_ARRAY else _ONE_ARRAY
    while True:
        logt = family.log_terms(y, lo, hi)
        sig = family.sigma_array(lo, hi)
        base = np.exp(logt + x if x else logt)
        weighted = {}
        if mults:
            weighted = _mult_arrays(kind, mults, x + sig * y)
            for m, arr in weighted.items():
                weighted[m] = base * arr
        cuts = None  # (start, end) of each block inside the array
        if hi > _START_BLOCK and lo == 1:
            cuts = [(0, _START_BLOCK)]
            while cuts[-1][1] < hi:
                cuts.append((cuts[-1][1], 2 * cuts[-1][1]))
        for acc, (m, k) in zip(sums, tols):
            block = weighted.get(m, base)
            if k == 1:
                block = block * sig
            elif k:
                block = block * sig**k
            if cuts is None:
                acc.append(float(_add_reduce(block)))
            else:
                for a, b in cuts:
                    acc.append(float(_add_reduce(block[a:b])))
        if hi == n:
            return sums
        lo, hi = hi + 1, 2 * hi


def _check_boundary_summable(family, moment) -> None:
    div = family.boundary_divergent(moment)
    if div is True:
        raise DivergenceError(
            f"boundary series (moment {moment}) certified divergent at y=-alpha"
        )
    if div is None and family.tail_interval(-family.alpha, _START_BLOCK, moment) is None:
        raise UncertifiedError(
            "family certifies neither summability nor divergence at y=-alpha"
        )


def _eval_moments(family, y, tols, x=0.0, kind=_MB, ceiling=1.0):
    """_eval_many at one evaluation point, for the moments of f or for the
    dual sums, once the point is checked: DivergenceError beyond the domain
    or where a moment is not summable at y = -alpha, RangeError at a nan x
    or y."""
    if math.isnan(x) or math.isnan(y):
        raise RangeError(f"x={x} and y={y} must not be nan")
    if family.dom_f_empty:
        raise DivergenceError("dom f is empty for this family")
    a = family.alpha
    if y > -a:
        raise DivergenceError(f"series diverges: y={y} exceeds -alpha={-a}")
    if y == -a:
        for k in sorted({k for _, k in tols}):
            _check_boundary_summable(family, k)
    return _eval_many(family, y, tols, x, kind, ceiling)


def _overflow_ignored(fn):
    """fn under numpy's errstate(over='ignore'), entered once per call: at a
    huge negative y, sigma_n y (and x + sigma_n y) overflows to -inf, whose
    exponential is the correct term 0.  The one float state of every public
    entry that sums terms, here and in solver; the state costs about 2 us
    to enter, too much for each pass of a slope root."""

    @functools.wraps(fn)
    def quiet(*args, **kwargs):
        with np.errstate(over="ignore"):
            return fn(*args, **kwargs)

    return quiet


@_overflow_ignored
def eval_f(family: SequenceFamily, y: float, tol: float = 1e-12) -> SeriesEval:
    """f(y) within tol, certified; boundary y = -alpha allowed when the
    family proves summability there."""
    return _eval_moments(family, y, {(None, 0): tol})[0]


# ---------------------------------------------------------------------------
# profile


@functools.lru_cache(maxsize=256)
def _profile_cached(family: SequenceFamily, tol: float) -> SeriesProfile:
    smin = sigma_min_set(family)
    if smin.theta1 <= 0.0:
        raise UnsupportedFamilyError(
            f"levels must be positive (min sigma = {smin.theta1}); shift first"
        )
    alpha = family.alpha
    if alpha > 0.0:
        # declared alpha must not be contradicted by a certificate of
        # convergence strictly outside (-inf, -alpha]
        probe = family.tail_interval(-0.5 * alpha, _START_BLOCK, 0)
        if probe is not None and math.isfinite(probe[1]):
            raise ConfigurationError(
                f"declared alpha={alpha} contradicted by a convergent tail at y={-0.5 * alpha}"
            )
    # spot-check that f really is finite strictly inside the declared domain
    try:
        _eval_many(family, -alpha - 1.0, {(None, 0): 1e-6})
    except (DivergenceError, BudgetError) as exc:
        raise ConfigurationError(
            f"f could not be certified finite at y={-alpha - 1.0}: {exc}"
        ) from exc

    div0 = family.boundary_divergent(0)
    if div0 is True:
        case = BoundaryCase.OPEN_A
        f_b, gamma, theta2 = None, None, math.inf
    else:
        _check_boundary_summable(family, 0)
        f_b = _eval_many(family, -alpha, {(None, 0): tol})[0].value
        div1 = family.boundary_divergent(1)
        if div1 is True:
            case = BoundaryCase.CLOSED_GAMMA_INFINITE_B
            gamma, theta2 = None, math.inf
        else:
            _check_boundary_summable(family, 1)
            case = BoundaryCase.CLOSED_GAMMA_FINITE_C
            gamma = _eval_many(family, -alpha, {(None, 1): tol})[0].value
            theta2 = gamma / f_b
    return SeriesProfile(alpha, case, f_b, gamma, smin.theta1, theta2, smin)


def profile(family: SequenceFamily, tol: float = 1e-10) -> SeriesProfile:
    """Analytic profile (alpha, boundary case, theta1, theta2, ...); cached
    per (family, tol) so concurrent requests share one computation."""
    if family.constant_sigma:
        raise UnsupportedFamilyError("constant levels: the problem is degenerate")
    if family.dom_f_empty:
        raise UnsupportedFamilyError("dom f empty: the problem is degenerate")
    if family.sigma_direction != +1:
        raise UnsupportedFamilyError("levels must increase to +inf; normalize first")
    return _profile_cached(family, tol)


# ---------------------------------------------------------------------------
# phi and the conjugate of ln f


@_overflow_ignored
def phi(family: SequenceFamily, y: float, tol: float = 1e-10) -> float:
    """f'(y)/f(y) at y < -alpha, within tol; strictly increasing in y.

    The slope evaluation of each phi_inverse step (_certified_slope), at
    the scale of one rough pass: the error of phi, bounded from the tail
    brackets of f and f', is certified to be at most 0.25 tol.  RangeError
    at a y so negative that the certified f(y) underflows to 0."""
    a = family.alpha
    if not y < -a:
        raise DomainError(f"phi needs y < -alpha = {-a}, got {y}")
    return _certified_slope(family, y, 0.25 * tol)[0]


def _certified_slope(family, y, tol, scale=None, ceiling=1.0):
    """(phi(y), phi'(y), certified f(y), the scale it measured, e), phi(y)
    within e >= tol, from moments-(0, 1, 2) passes whose tolerances assume
    the scale (f(y), max(|phi(y)|, 1)), taken from one pass at tolerance
    1e-4 when None; a pass whose certified error of phi misses tol is
    repeated at the scale it measured, at most four passes in all, unless
    it stopped at its ceiling (a width above its tolerance).  phi' = f''/f
    - phi^2 is the variance of sigma under the Gibbs weights; it only
    proposes steps, so moment 2 needs a finite tail bracket but no
    tolerance: each pass stops when moments 0 and 1 are certified."""
    if scale is None:
        rough = _eval_moments(family, y, {(None, 0): 1e-4, (None, 1): 1e-4})
        f_scale = max(rough[0].value, 1e-300)
        scale = (f_scale, max(abs(rough[1].value) / f_scale, 1.0))
    for _ in range(4):
        f_scale, ratio = scale
        t1 = 0.25 * tol * f_scale
        tols = {(None, 0): t1 / ratio, (None, 1): t1, (None, 2): math.inf}
        s0, s1, s2 = _eval_moments(family, y, tols, 0.0, _MB, ceiling)
        if s0.value == 0.0:
            raise RangeError(f"f({y}) underflows to 0: phi has no float value there")
        p = s1.value / s0.value
        scale = (max(s0.value, 1e-300), max(abs(p), 1.0))
        floor = s0.value - s0.tail_bound_used
        if floor > 0.0:
            e = (s1.tail_bound_used + abs(p) * s0.tail_bound_used) / floor
            if e <= tol or ceiling > 1.0 and (  # a ceiling stop: a width above its tolerance
                2.0 * s0.tail_bound_used > t1 / ratio or 2.0 * s1.tail_bound_used > t1
            ):
                return p, s2.value / s0.value - p * p, s0, scale, max(e, tol)
    raise BudgetError(f"phi({y}) not certified to {tol:.3e}")


def phi_inverse(family: SequenceFamily, w: float, tol: float = 1e-10) -> float:
    """The unique y < -alpha with |phi(y) - w| <= tol, for theta1 < w < theta2.

    rootfind.newton_root from the slope ladder (_ladder_entry): the two
    cached certified slopes at y_k = -alpha - 2^(k/4) whose values bracket
    w are its first bracket, else (-inf, -alpha), as phi tends to theta2 > w
    at -alpha.  It starts at the cubic Hermite interpolant of ln(-alpha - y)
    in ln(phi - theta1) through the two entries (_hermite_start), or at the
    nearer entry's cached pass where that one meets tol, the ladder is
    one-sided or the interpolant leaves the bracket.  Each step is one
    certified slope evaluation giving phi and phi', as phi does, and
    proposes a Newton step on ln(phi - theta1), which is nearly linear
    where phi tends to theta1.  Returns once the certified residual
    is within 0.75 tol, or when the bracket is at most 4 ulp(y) wide (the
    point of least residual).
    """
    return _invert_slope(family, w, tol)[0]


# the slope ladder's indices: y_k = -alpha - 2^(k/4), from 2^-12 to 64 left
# of -alpha
_LADDER_K = (-48, 24)


@functools.lru_cache(maxsize=4096)
def _ladder_entry(family: SequenceFamily, tol: float, k: int, ceiling: float = 1.0):
    """(y_k, phi(y_k), phi'(y_k), certified f(y_k), scale, e): _certified_slope
    at y_k = -alpha - 2^(k/4) to 0.25 tol, its scale from its own rough pass,
    so an entry depends on its arguments alone.  Cached as _profile_cached
    is; an entry that raises (BudgetError, or RangeError where f(y_k)
    underflows or y_k rounds to -alpha) is not cached."""
    a = family.alpha
    y = -a - 2.0 ** (0.25 * k)
    if not y < -a:
        raise RangeError(f"ladder point {k} rounds to -alpha = {-a}")
    return (y, *_certified_slope(family, y, 0.25 * tol, None, ceiling))


def _ladder_bracket(family, w, tol, ceiling):
    """(inner, outer): the ladder entries nearest w on either side, inner's
    phi on the near side of w, outer's at or beyond it.  The search gallops
    outward from k = 0 (y = -alpha - 1) and then bisects, so its path
    depends on w alone.  The ladder ends at k = -48 and 24 and at the first
    entry that raises BudgetError or RangeError: outer is None where it ends
    before w is bracketed, and a bisection stops there with the bracket it
    has.  An error of the k = 0 entry itself propagates."""
    lo_k, hi_k = _LADDER_K
    inner_k, inner = 0, _ladder_entry(family, tol, 0, ceiling)
    d = 1 if inner[1] > w else -1  # phi falls as k grows

    def beyond(e):
        return e[1] <= w if d > 0 else e[1] >= w

    def entry(k):
        try:
            return _ladder_entry(family, tol, k, ceiling)
        except (BudgetError, RangeError):
            return None

    step = 1
    while True:
        outer_k = min(max(inner_k + d * step, lo_k), hi_k)
        outer = None if outer_k == inner_k else entry(outer_k)
        if outer is None:
            return inner, None
        if beyond(outer):
            break
        inner_k, inner = outer_k, outer
        step *= 2
    while abs(outer_k - inner_k) > 1:
        mid_k = inner_k + (outer_k - inner_k) // 2
        mid = entry(mid_k)
        if mid is None:
            break
        if beyond(mid):
            outer_k, outer = mid_k, mid
        else:
            inner_k, inner = mid_k, mid
    return inner, outer


def _ladder_start(family, prof, w, tol, ceiling=1.0):
    """Where a slope root for w starts, from the slope ladder alone
    (_ladder_bracket, no new pass): (bracket, entry, y_h, ends).  bracket is
    the (lo, hi) of the two entries that bracket w, else (-inf, -alpha), as
    phi tends to theta2 > w at -alpha; entry is the one nearer w; y_h is
    their Hermite start (_hermite_start), None where entry meets tol (its
    residual counted as _invert_slope counts it), the ladder is one-sided
    or the interpolant leaves the bracket; ends are the two entries, None
    where one-sided."""
    inner, outer = _ladder_bracket(family, w, tol, ceiling)
    if outer is None:
        return (-math.inf, -prof.alpha), inner, None, None
    bracket = tuple(sorted((inner[0], outer[0])))
    start = outer if abs(outer[1] - w) < abs(inner[1] - w) else inner
    q, e = 0.25 * tol, start[5]
    if not abs(start[1] - w) * (q / e if e > q else 1.0) > 0.75 * tol:
        return bracket, start, None, (inner, outer)
    y_h = _hermite_start(inner, outer, w, prof.theta1, prof.alpha)
    return bracket, start, (y_h if bracket[0] < y_h < bracket[1] else None), (inner, outer)


def _ladder_point(family, w, tol) -> tuple[float, float]:
    """(y, ln f(y)) where a slope root for w starts (_ladder_start), with no
    new pass: the nearer entry's y and certified ln f, or at the Hermite
    start the cubic Hermite interpolant of ln f in y through the two entries
    (values ln f(y_k), slopes phi(y_k)).  The bf inverse's Newton starts
    from it."""
    _, start, y_h, ends = _ladder_start(family, profile(family), w, tol)
    if y_h is None:
        return start[0], math.log(start[3].value)
    (y0, p0, _, f0, *_), (y1, p1, _, f1, *_) = ends
    return y_h, _hermite((y0, math.log(f0.value), p0), (y1, math.log(f1.value), p1), y_h)


def _invert_slope(family, w, tol, ceiling=1.0) -> tuple[float, SeriesEval]:
    """phi_inverse's root together with the certified f(y) from its last
    pass, so that a caller needing f at the root re-sums it only when that
    pass's bound is too loose.  The first bracket comes from the slope
    ladder (_ladder_start) with no new pass; the first iterate is one pass
    at the Hermite start, or the nearer entry's (phi_inverse).  A slope
    certified only to e > q = 0.25 tol (a ceiling stop) passes at |phi - w|
    <= 3 e: newton_root sees the residual times q / e (point)."""
    prof = profile(family)
    if not math.isfinite(w) or w <= prof.theta1 or w >= prof.theta2:
        raise RangeError(
            f"w={w} outside the open range ({prof.theta1}, {prof.theta2})"
        )
    t1 = prof.theta1
    (lo, hi), start, y_h, _ = _ladder_start(family, prof, w, tol, ceiling)
    y, p, dp, f_y, scale, e = start
    q = 0.25 * tol

    def newton(y, p, dp):
        # the step on ln(phi - theta1), nearly linear where phi tends to
        # theta1; nan without a usable derivative
        if not dp > 0.0:
            return math.nan
        d = p - t1
        return y + (-math.log(d / (w - t1)) * d / dp if d > 0.0 else (w - p) / dp)

    def point(y, p, dp, f_y, e):
        return (p - w) * (q / e) if e > q else p - w, newton(y, p, dp), f_y

    def evaluate(y):
        # each point takes its tolerance scale from the one before it
        nonlocal scale
        p, dp, f_y, scale, e = _certified_slope(family, y, q, scale, ceiling)
        return point(y, p, dp, f_y, e)

    y, first = (y, point(y, p, dp, f_y, e)) if y_h is None else (y_h, evaluate(y_h))
    y, f_y, _, _ = newton_root(evaluate, y, first, 0.75 * tol, lo, hi, True, True)
    return y, f_y


def _hermite_start(inner, outer, w, t1, a) -> float:
    """The cubic Hermite interpolant of z = ln(-alpha - y) in u = ln(phi -
    theta1) through two ladder entries, each giving (u, z, dz/du = -(phi -
    theta1) / (phi' (-alpha - y))), at u = ln(w - theta1), as a y; nan where
    an entry has phi <= theta1 or phi' <= 0, or the two u coincide."""
    ends = []
    for y, p, dp, *_ in (inner, outer):
        d, r = p - t1, -a - y
        if not (d > 0.0 and dp > 0.0):
            return math.nan
        ends.append((math.log(d), math.log(r), -d / r / dp))
    if ends[0][0] == ends[1][0]:
        return math.nan
    z = _hermite(*ends, math.log(w - t1))
    return -a - math.exp(z) if z < 700.0 else math.nan


def _hermite(a, b, x) -> float:
    """The cubic Hermite interpolant through a = (x0, g0, g0') and b = (x1,
    g1, g1') at x."""
    (x0, g0, m0), (x1, g1, m1) = a, b
    h = x1 - x0
    t = (x - x0) / h
    return g0 + t * t * (3.0 - 2.0 * t) * (g1 - g0) + h * t * (1.0 - t) * ((1.0 - t) * m0 - t * m1)


def lnf_conjugate(family: SequenceFamily, w: float, tol: float = 1e-10) -> float:
    """(ln f)*(w): +inf below theta1; -ln(sum of tied minimal weights) at
    theta1; w phi^{-1}(w) - ln f(phi^{-1}(w)) inside, from the same root
    and f as the solver's interior values (_conjugate_at, with f to
    0.25 tol); -alpha w - ln f(-alpha) at and beyond theta2 (boundary case
    c only)."""
    prof = profile(family)
    t1_tol = TIE_RTOL * max(1.0, abs(prof.theta1))  # sigma_min_set's tie
    if not math.isfinite(w):
        raise RangeError(f"w must be finite, got {w}")
    if w < prof.theta1 - t1_tol:
        return math.inf
    if abs(w - prof.theta1) <= t1_tol:
        return -math.log(prof.sigma_min.p_sum)
    if w >= prof.theta2:
        return -prof.alpha * w - math.log(prof.f_at_boundary)
    return _conjugate_at(family, w, tol, lambda _: 0.25 * tol)[0]


def _conjugate_at(family, w, tol, f_rtol) -> tuple[float, float, float]:
    """((ln f)*(w), y, ln f(y)) at theta1 < w < theta2, with y the slope root
    phi(y) = w and (ln f)*(w) = w y - ln f(y).  The root's residual target
    t = 0.25 min(tol, 1e-12) rises up to 1e-5 where the family's tails cannot
    certify it (_invert_slope under the ceiling 1e-5 / t, none at the float
    floor): a residual delta costs only O(delta^2) in the value.  f(y) holds
    to f_rtol(c) max(1, f(y)) (_refine_f), c the root's last (ln f)*(w)."""
    t = 0.25 * min(tol, 1e-12)
    y, f_y = _invert_slope(family, w, t, 1e-5 / t if t > 1e-300 else 1.0)
    rtol = f_rtol(w * y - math.log(f_y.value))
    ln_f = math.log(_refine_f(family, y, f_y, rtol).value)
    return w * y - ln_f, y, ln_f


def _refine_f(family, y, f_y: SeriesEval, rtol: float) -> SeriesEval:
    """f(y) to rtol max(1, f(y)): the root pass's f_y when its bound is that
    tight, else the tighter of f_y and a re-sum at that tolerance, which may
    stop at up to 10^4 times it (the kernel's ceiling)."""
    f_tol = max(rtol * max(1.0, f_y.value), 5e-324)
    if f_y.tail_bound_used <= f_tol:
        return f_y
    resum = _eval_moments(family, y, {(None, 0): f_tol}, 0.0, _MB, 1e4)[0]
    return min(f_y, resum, key=lambda s: s.tail_bound_used)


# ---------------------------------------------------------------------------
# the dual sums h_W


def _outside_be(family, x, y) -> bool:
    """(x, y) outside dom h_BE: t = x + theta1 y >= 0, or t so near 0 that
    e^t rounds to 1 and the first term's -ln(1 - e^t) has no float value."""
    t = x + sigma_min_set(family).theta1 * y
    return t >= 0.0 or math.exp(t) == 1.0


def _mult_arrays(kind: Entropy, mults, t: np.ndarray) -> dict:
    """Per-term multipliers m(t), one array for each name in `mults`, with
    W*(t) = e^t m(t) ('conj'), (W*)'(t) = e^t m(t) ('grad') and
    (W*)''(t) = e^t m(t) ('hess'), for bose-einstein and fermi-dirac
    (maxwell-boltzmann has m = 1), from one z = e^t."""
    fermi = kind is Entropy.FERMI_DIRAC
    z = np.exp(np.minimum(t, 700.0 if fermi else 0.0))  # t <= 0 on BE paths
    out = {}
    if "conj" in mults:
        small = z < 1e-8
        safe = np.where(small, 1.0, z)
        out["conj"] = (
            np.where(small, 1.0 - 0.5 * z, np.log1p(z) / safe)
            if fermi
            else np.where(small, 1.0 + 0.5 * z, -np.log1p(-z) / safe)
        )
    if "grad" in mults or "hess" in mults:
        d = 1.0 / (1.0 + z) if fermi else 1.0 / (1.0 - z)
        if "grad" in mults:
            out["grad"] = d
        if "hess" in mults:
            out["hess"] = d * d
    return out


def _mult_bounds(kind: Entropy, what: str, z_next: float) -> tuple[float, float]:
    """Bounds of the multiplier over the whole tail, where z <= z_next."""
    if kind is Entropy.FERMI_DIRAC:
        if what == "conj":
            lo = math.log1p(z_next) / z_next if z_next > 1e-8 else 1.0 - 0.5 * z_next
            return lo, 1.0
        d = 1.0 / (1.0 + z_next)
        return (d, 1.0) if what == "grad" else (d * d, 1.0)
    # bose-einstein: z_next < 1 strictly
    if what == "conj":
        hi = -math.log1p(-z_next) / z_next if z_next > 1e-8 else 1.0 + 0.5 * z_next
        return 1.0, hi
    d = 1.0 / (1.0 - z_next)
    return (1.0, d) if what == "grad" else (1.0, d * d)


@_overflow_ignored
def eval_h(
    family: SequenceFamily, kind: Entropy, x: float, y: float, tol: float = 1e-10
) -> float:
    """h_W(x, y) within tol; +inf where _dual_sums refuses the point: outside
    dom h_W (a certified divergence), or under bose-einstein so near its
    edge that e^(x + theta1 y) rounds to 1."""
    try:
        return _dual_sums(family, kind, x, y, {("conj", 0): tol})[0].value
    except DomainError:
        return math.inf


def _dual_sums(family, kind, x, y, tols, ceiling=1.0) -> list[SeriesEval]:
    """_eval_moments for sums of h_W and its derivatives (keys of `tols` as
    in _eval_many), with DomainError for a degenerate family, a Hessian sum
    at y = -alpha, e^(x + theta1 y) >= 1 under bose-einstein (_outside_be),
    or a divergent series, y > -alpha included (_eval_moments)."""
    if family.dom_f_empty or family.constant_sigma:
        raise DomainError("dual sums undefined: degenerate family")
    a = family.alpha
    if y == -a and any(m == "hess" for m, _ in tols):
        raise DomainError(f"hessian needs y < -alpha = {-a}")
    if kind is Entropy.BOSE_EINSTEIN and _outside_be(family, x, y):
        raise DomainError(f"({x}, {y}) outside dom h_BE: e^(x + theta1 y) is not below 1")
    try:
        return _eval_moments(family, y, tols, x, kind, ceiling)
    except DivergenceError as exc:
        raise DomainError(f"dual series diverges at ({x}, {y}): {exc}") from exc


_VALUE_GRADIENT = (("conj", 0), ("grad", 0), ("grad", 1))
_HESSIAN = (("hess", 0), ("hess", 1), ("hess", 2))


def _dual_point(family, kind, x, y, tol, hessian=True, ceiling=1.0) -> list[SeriesEval]:
    """[h, h_x, h_y] of h_W at (x, y), followed by [h_xx, h_xy, h_yy] when
    `hessian`, each certified within tol, from one pass of _eval_many: what
    a Newton point or a forward solve needs, where eval_h, grad_h and
    hessian_h would sum the same terms three times.  Under maxwell-boltzmann
    every multiplier is 1 (h = h_x = h_xx, h_y = h_xy), so each moment is
    summed once.  The Hessian needs y < -alpha; without it y = -alpha is
    allowed in boundary case (c)."""
    sums = _VALUE_GRADIENT + _HESSIAN if hessian else _VALUE_GRADIENT
    if kind is not _MB:
        return _dual_sums(family, kind, x, y, dict.fromkeys(sums, tol), ceiling)
    # one sum per moment; the 'hess' key keeps _dual_sums' y < -alpha check
    per_moment = (("conj", 0), ("grad", 1), ("hess", 2))[: 3 if hessian else 2]
    moments = _dual_sums(family, kind, x, y, dict.fromkeys(per_moment, tol), ceiling)
    return [moments[k] for _, k in sums]


@_overflow_ignored
def grad_h(
    family: SequenceFamily, kind: Entropy, x: float, y: float, tol: float = 1e-10
) -> tuple[float, float]:
    """The gradient series sum p_n (W*)'(x+sigma_n y) (1, sigma_n), valid on
    the interior and, in boundary case (c), at y = -alpha."""
    gu, gv = _dual_sums(family, kind, x, y, {("grad", 0): tol, ("grad", 1): tol})
    return gu.value, gv.value


@_overflow_ignored
def hessian_h(
    family: SequenceFamily, kind: Entropy, x: float, y: float, tol: float = 1e-10
) -> tuple[float, float, float]:
    """(h_xx, h_xy, h_yy) of h_W at an interior point."""
    r = _dual_sums(family, kind, x, y, dict.fromkeys(_HESSIAN, tol))
    return r[0].value, r[1].value, r[2].value
