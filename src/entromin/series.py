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
once (_block_sums: one block of rows per array of terms, its y-free arrays
from the family's term table, and one reduce per block).  eval_h, grad_h
and hessian_h are the one-quantity entry points to it.

The increasing bijection phi = f'/f : (-inf, -alpha) -> (theta1, theta2) has
one certified evaluation (_certified_slope), whose record (_Slope) phi
reads and phi_inverse's Newton root (rootfind.newton_root) steps on.
Every inversion starts from the slope ladder: the rough slopes at y_k =
-alpha - 2^(k/4), k = -48..24, one pass each to 1e-4 (_rough_slope), kept
on first use with their ln f and Hermite node in one table the family
keeps, whatever a root's tolerance (_Ladder).  An entry only locates a
root: the two nearest entries whose phi lies beyond its err on either side
of the target are the first bracket, and the first iterate is the cubic
Hermite interpolant of their (phi, phi') (_hermite_start).  A slope pass
also keeps the partial sums of moments 0 to 5 over its terms
(_SlopeModel), 0 to 17 on the certified model rungs at y_j = -alpha -
2^(j/16), one per j for every tolerance in the same table (_Ladder.model),
whose Taylor expansion with a proved remainder certifies phi nearby with
one bracket call and no pass (_model_moments), so a warm interior
inversion mostly takes no pass; a Taylor step from the point before
certifies a Newton point left of its rung with no bracket either.
The ladder also starts the bose-einstein and fermi-dirac inverse with no
pass (_ladder_point: that start, and ln f there interpolated through the
same two entries); the inverse moves that start to the minimizer of the
uncertified dual of its first 64 terms or more (solver._proposal: no pass,
finite._minimize_dual on the rows of _mult_arrays, which also builds a
pass's W* rows, base ln(1 + z) / z or -ln(1 - z) / z at z = e^t clipped at
1e-300: exactly base wherever z < 2^-53, an underflowed z = 0 included)
before its first certified point.
The conjugate of ln f follows its four-branch closed form, and its interior
branch (_conjugate_at) is also the solver's interior value.
A pass whose target is beyond the term budget stops at the bound it can
reach up to a ceiling times it (_eval_many; only _conjugate_at's slope
root, model rungs, _refine_f, forward_solve and inverse_solve_bf's
Newton points pass one).  All tolerances are absolute unless noted.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass
from enum import Enum
from operator import mul as _mul
from typing import NamedTuple, Optional

import numpy as np

from . import _work
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
from .rootfind import newton_root, slope_step
from .sequences import TIE_RTOL, SequenceFamily, SigmaMinSet

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
_BLOCK_WIDTH = 2**13  # the widest block of rows: wider arrays fill it a slice at a time
_PROFILE_TOL = 1e-10  # every profile's f(-alpha) and gamma, so theta2
_SLOPE_PARTIALS, _MODEL_PARTIALS = 6, 18  # P_0..P_5 a slope pass keeps, P_0..P_17 a model rung
_MB = Entropy.MAXWELL_BOLTZMANN
_UNIT = (1.0, 1.0)
_LN2 = math.log(2.0)
_add_reduce = np.add.reduce  # ndarray.sum() without its Python-level wrapper
_tuple_new = tuple.__new__  # a NamedTuple without its Python-level __new__
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


def _eval_many(family, y, tols, x=0.0, kind=_MB, ceiling=1.0, model=0):
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
    skip them), and then sums the terms up to its stop once (_block_sums):
    per array one call of family.log_terms, the only term work that
    depends on y besides the exponentials, and one block of every sum's
    rows, reduced once per block.  The pass's layout is worked out once per
    set of sums and entropy (_pass_shape).  When a certified width shrinks
    too slowly to reach its tolerance within the term budget even at cubic
    decay, the block end is judged again with every tolerance times the
    ceiling, and a pass that stops there logs it; BudgetError, before any
    term is summed, when that is out of reach too (at once under ceiling
    1).

    With `model` > 0, for a slope pass (the moments 0, 1, 2 of f, in that
    order), the list ends with the pass's _SlopeModel of its partial moments
    0 to model - 1, None where the pass stopped at its ceiling.
    """
    work = _work.local.record if _work.on else None
    if work is not None and kind is _MB:
        work.slope_passes += 1
    try:
        ex = math.exp(x)
        if ex == math.inf:  # x = +inf: math.exp returns inf without raising
            raise OverflowError
    except OverflowError:
        raise RangeError(f"x={x} is too large: exp(x) overflows") from None
    shape = _pass_shape(tuple(tols), kind is _MB)
    mults, moments, slot = shape[:3]
    scaled = bool(x) or bool(mults)
    bounds = {}
    asked = None  # the tolerances asked for, once they rose to the ceiling
    hi = _START_BLOCK
    while True:
        if mults:
            t_next = x + family.sigma(hi + 1) * y
            if kind is Entropy.BOSE_EINSTEIN and t_next >= 0.0:
                raise DomainError("bose-einstein dual needs x + sigma_n y < 0 on the tail")
            bounds = _mult_bounds(kind, t_next)
        ivs = _tails(family, y, hi, moments)
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
                sums, higher, top = _block_sums(family, y, x, kind, shape, hi, model)
                partials = [math.fsum(acc) for acc in sums]
                out = [SeriesEval(s + 0.5 * (blo + bhi), hi, 0.5 * (bhi - blo))
                       for s, (blo, bhi) in zip(partials, brackets)]
                if asked is not None:
                    _log.debug("series pass stopped at its ceiling: %r at y=%r, n=%d, "
                               "targets %s, widths %s", family, y, hi, list(asked.values()),
                               [2.0 * s.tail_bound_used for s in out])
                if model:
                    stopped = asked is not None  # a ceiling stop keeps no model
                    out.append(None if stopped else _SlopeModel(y, hi, (*partials, *higher), top))
                return out
            if brackets is not None:
                break
        if hi >= _TERM_BUDGET:
            raise BudgetError(
                f"series tails uncertified after {hi} terms at x={x}, y={y} "
                f"(tolerances {tols})"
            )
        hi = min(2 * hi, _TERM_BUDGET)


def _tails(family, y, n, moments) -> list:
    """family.tail_intervals(y, n, moments), counted (bracket_calls): every
    tail bracket the library takes outside sequences comes through here."""
    if _work.on and (work := _work.local.record) is not None:
        work.bracket_calls += 1
    return family.tail_intervals(y, n, moments)


@functools.lru_cache(maxsize=64)
def _pass_shape(keys, mb):
    """(multipliers, moments, {moment: its place}, layout) of a pass over
    the sums `keys`, the multipliers and moments each in order of first
    appearance (no multiplier under maxwell-boltzmann, `mb`), and the
    layout of the pass's block of rows (_block_sums), (weighted, index,
    rows).  Row 0 is base = p_n e^(t_n); then one row per multiplier, in
    the order of multipliers, that _mult_arrays writes; then each
    remaining (row, source row, k), block[source] sigma_n^k, for every sum
    of moment k >= 1, its source row 0 for a unit-multiplier sum and its
    multiplier's row otherwise.  index holds each sum's row and rows their
    count."""
    mults = () if mb else tuple(dict.fromkeys(m for m, _ in keys if m is not None))
    moments = tuple(dict.fromkeys(k for _, k in keys))
    sums = [(None if mb else m, k) for m, k in keys]
    rows = [(None, 0)] + [(m, 0) for m in mults]
    weighted = []
    for m, k in dict.fromkeys(sums):
        if (m, k) not in rows:
            weighted.append((len(rows), rows.index((m, 0)), k))
            rows.append((m, k))
    index = tuple(rows.index(key) for key in sums)
    layout = (tuple(weighted), index, len(rows))
    return mults, moments, {k: i for i, k in enumerate(moments)}, layout


def _block_sums(family, y, x, kind, shape, n, model=0):
    """(sums, higher, top).  Per sum of the pass `shape` (_pass_shape), its
    partials over the blocks 1-64, 65-128, ... up to a pass's stopping
    index n, whose math.fsum is the sum: one array of terms up to min(n,
    4096), each partial from a slice (none when n = 64), then one array per
    block.  Per array, family.log_terms is called once, with the window's
    y-free arrays (family._tabled: the term table's slices, or built once
    past it), the first of which, sigma_n, gives every level factor, and
    every row of the pass goes into one block of rows, laid out as
    _pass_shape says: base = e^(ln p_n + sigma_n y + x), exponentiated
    into it once; the multiplier rows, which _mult_arrays writes in place
    from one z = e^t; and the sigma-weighted rows, each sigma_n^k times its
    source row, a k = 2 row forming sigma_n^2 in its own row first.  Then
    one row-wise np.add.reduce per block gives every partial: each row's is
    the float that row's own pairwise reduce gives.  An array wider than
    _BLOCK_WIDTH fills one block of that width a slice of columns at a
    time, and adds the slices' partials pairwise, as np.add.reduce's
    pairwise summation splits a row whose length is a power of two: the
    same floats, from a block that stays in cache.  With `model` > 0 (a
    slope pass, its last sum moment 2), higher holds the partial sums of
    moments 3 to model - 1 over the same terms, model - 3 more rows of
    successive products of the last sum's row with sigma_n, reduced once
    per array, and top the largest level summed; else () and 0."""
    work = _work.local.record if _work.on else None
    if work is not None:
        work.passes += 1
    mults = shape[0]
    weighted, index, rows = shape[3]
    sums = [[] for _ in index]
    higher, top = [0.0] * (model - 3) if model else (), 0.0
    size = rows + model - 3 if model else rows
    # x + theta1 y bounds every t when y <= 0; else each slice's own max
    t_hi = x + family._sigma_min.theta1 * y if mults and y <= 0.0 else None
    lo, hi = 1, n if n < _ONE_ARRAY else _ONE_ARRAY
    while True:
        arrays = family._tabled(lo, hi)
        logt = family.log_terms(y, lo, hi, arrays)
        lt = logt + x if x else logt
        sigma = arrays[0]
        width = hi - lo + 1
        step = width if width < _BLOCK_WIDTH else _BLOCK_WIDTH
        block = np.empty((size, step))
        cut = hi > _START_BLOCK and lo == 1  # the first array, one slice of several blocks
        parts = [None] * (width // step)
        for a in range(0, width, step):
            # the slice's terms: the whole array where it fits in the block
            lts, sig = (lt, sigma) if step == width else (lt[a : a + step], sigma[a : a + step])
            base = np.exp(lts, out=block[0])
            if mults:
                t = x + sig * y
                bound = t_hi if t_hi is not None else float(np.maximum.reduce(t))
                _mult_arrays(kind, mults, t, bound, base, lts, out=dict(zip(mults, block[1:])))
            for r, src, k in weighted:
                level = sig if k == 1 else np.multiply(sig, sig, out=block[r]) if k == 2 else sig**k
                np.multiply(level, block[src], out=block[r])
            if higher:
                row = block[index[-1]]
                for r in range(rows, size):
                    row = np.multiply(row, sig, out=block[r])
            if not cut:
                parts[a // step] = _add_reduce(block, axis=-1)
        if model:
            top = max(top, float(sigma[-1] if family.sigma_increasing_from <= lo else sigma.max()))
        if work is not None:  # reduced per slice, or per block end and once for the higher rows
            work.array_calls += 1
            work.series_terms += width
            work.reduce_calls += hi.bit_length() - 6 + (1 if higher else 0) if cut else len(parts)
        if cut:
            a = 0
            for j in range(6, hi.bit_length()):  # the blocks end at 64, 128, ..., hi
                got = _add_reduce(block[:rows, a : 1 << j], axis=-1)
                for acc, i in zip(sums, index):
                    acc.append(float(got[i]))
                a = 1 << j
            got = _add_reduce(block[rows:], axis=-1) if higher else ()
        else:
            while parts[1:]:
                parts = [p + q for p, q in zip(parts[::2], parts[1::2])]
            got = parts[0]
            for acc, i in zip(sums, index):
                acc.append(float(got[i]))
            got = got[rows:]
        if higher:
            for j in range(len(higher)):
                higher[j] += float(got[j])
        if hi == n:
            return sums, higher, top
        lo, hi = hi + 1, 2 * hi


def _check_boundary_summable(family, moment) -> None:
    div = family.boundary_divergent(moment)
    if div is True:
        raise DivergenceError(
            f"boundary series (moment {moment}) certified divergent at y=-alpha"
        )
    if div is None and _tails(family, -family.alpha, _START_BLOCK, (moment,))[0] is None:
        raise UncertifiedError(
            "family certifies neither summability nor divergence at y=-alpha"
        )


def _eval_moments(family, y, tols, x=0.0, kind=_MB, ceiling=1.0, model=0):
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
    return _eval_many(family, y, tols, x, kind, ceiling, model)


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


def profile(family: SequenceFamily) -> SeriesProfile:
    """Analytic profile (alpha, boundary case, theta1, theta2, ...), one per
    family whatever a caller's tolerance (sums to _PROFILE_TOL), so regions
    and slope roots read one theta2: family._profile, which concurrent
    requests share, built on its first read (_build_profile)."""
    return family._profile


def _build_profile(family) -> SeriesProfile:
    """profile's record of a family."""
    if family.constant_sigma:
        raise UnsupportedFamilyError("constant levels: the problem is degenerate")
    if family.dom_f_empty:
        raise UnsupportedFamilyError("dom f empty: the problem is degenerate")
    if family.sigma_direction != +1:
        raise UnsupportedFamilyError("levels must increase to +inf; normalize first")
    smin = family._sigma_min
    if smin.theta1 <= 0.0:
        raise UnsupportedFamilyError(
            f"levels must be positive (min sigma = {smin.theta1}); shift first"
        )
    alpha = family.alpha
    if alpha > 0.0:
        # declared alpha must not be contradicted by a certificate of
        # convergence strictly outside (-inf, -alpha]
        probe = _tails(family, -0.5 * alpha, _START_BLOCK, (0,))[0]
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
        f_b = _eval_many(family, -alpha, {(None, 0): _PROFILE_TOL})[0].value
        if not f_b >= np.finfo(float).tiny:  # gamma / f_b would be inf or lose digits
            raise UnsupportedFamilyError(f"f(-alpha) = {f_b!r} underflows below the normal floats")
        div1 = family.boundary_divergent(1)
        if div1 is True:
            case = BoundaryCase.CLOSED_GAMMA_INFINITE_B
            gamma, theta2 = None, math.inf
        else:
            _check_boundary_summable(family, 1)
            case = BoundaryCase.CLOSED_GAMMA_FINITE_C
            gamma = _eval_many(family, -alpha, {(None, 1): _PROFILE_TOL})[0].value
            theta2 = gamma / f_b
    return SeriesProfile(alpha, case, f_b, gamma, smin.theta1, theta2, smin)


# ---------------------------------------------------------------------------
# phi and the conjugate of ln f


@_overflow_ignored
def phi(family: SequenceFamily, y: float, tol: float = 1e-10) -> float:
    """f'(y)/f(y) at y < -alpha, within tol; strictly increasing in y.

    The slope evaluation of each phi_inverse step (_certified_slope), at
    the scale of one rough pass (_rough_slope): the error of phi, bounded
    from the tail brackets of f and f', is certified to be at most 0.25
    tol.  RangeError at a y so negative that f(y) underflows to 0."""
    a = family.alpha
    if not y < -a:
        raise DomainError(f"phi needs y < -alpha = {-a}, got {y}")
    return _certified_slope(family, y, 0.25 * tol, _rough_slope(family, y)).phi


class _SlopeModel(NamedTuple):
    """What a slope pass at y stopped at n keeps for nearby points: the
    partial sums P_k = sum_{m <= n} p_m sigma_m^k exp(sigma_m y), k = 0..5
    (_SLOPE_PARTIALS), k = 0..17 on a model rung (_MODEL_PARTIALS), and
    top, the largest sigma_m summed.  A model rung also keeps bounds, (T3,
    F4): the upper ends of the moment-3 tail beyond n and of f'''' at y.
    Every moment increases in y (levels positive), so they bound the
    moment-3 tail and f'''' at every point left of y (_Ladder.model)."""

    y: float
    n: int
    partials: tuple
    top: float
    bounds: Optional[tuple] = None


class _Slope(NamedTuple):
    """A slope at y: phi(y) within its proved err (inf where f's bracket
    reaches 0), phi'(y), the certified f(y), the scale (f(y), max(|phi|, 1))
    the next point's tolerances assume, derivs, f to f''' at y as (f, its
    bound, f', its bound, f'', its bound, f''', its bound) where the point
    lies left of a model rung that keeps bounds (else None), and the
    _SlopeModel of the pass it rests on (None after a ceiling stop and in a
    rough slope)."""

    y: float
    phi: float
    dphi: float
    f: SeriesEval
    scale: tuple
    err: float
    derivs: Optional[tuple] = None
    model: Optional[_SlopeModel] = None

    def residual(self, w, q):
        """phi - w as a slope root judges it, times q / err where err > q: a
        slope certified only to err passes at |phi - w| <= 3 err."""
        return (self.phi - w) * (q / self.err) if self.err > q else self.phi - w


def _rough_slope(family, y) -> _Slope:
    """The slope at y from one pass with moments 0, 1 and 2 each to 1e-4
    (phi' sets an entry's Hermite node) and no model: a slope-ladder entry,
    and the scale of phi's certified pass."""
    s0, s1, s2 = _eval_moments(family, y, dict.fromkeys(((None, 0), (None, 1), (None, 2)), 1e-4))
    return _judge_slope(y, s0, s1, s2.value, None)


def _certified_slope(family, y, tol, last, ceiling=1.0, partials=_SLOPE_PARTIALS) -> _Slope:
    """The slope at y with err <= tol, by the first of three routes that
    certifies f and f' to the tolerances a pass at y would meet and phi to
    tol: a Taylor step from last (_taylor_step, no bracket) where last
    carries derivs and last.y and y both lie left of last.model's y; else
    last.model's Taylor expansion and one tail bracket at y
    (_model_moments), a point that keeps derivs where it lies left of a
    model rung that keeps bounds; else moments-(0, 1, 2) passes whose
    tolerances assume the scale last.scale.  A pass whose err misses tol is
    repeated at the scale it measured, at most four passes in all, unless
    it stopped at its ceiling (a width above its tolerance: err > tol, no
    model).  phi' = f''/f - phi^2, the variance of sigma under the Gibbs
    weights, only proposes Newton steps, so moment 2 needs a finite tail
    bracket but no tolerance: each pass stops when moments 0 and 1 are
    certified.  Each pass keeps its partial moments 0 to partials - 1."""
    tols = _slope_tols(tol, last.scale)
    t0, t1, model = tols[(None, 0)], tols[(None, 1)], last.model
    if last.derivs and max(last.y, y) <= model.y:
        slope = _taylor_step(last, y, t0, t1)
        if slope and slope.err <= tol:
            if _work.on and (work := _work.local.record) is not None:
                work.step_points += 1
            return slope
    higher = []  # f to f''' at y with their bounds, where the model certifies them
    got = model and _model_moments(family, model, y, t0, t1, higher)
    if got:
        slope = _judge_slope(y, *got, model, tuple(higher) or None)
        if slope.err <= tol:
            if _work.on and (work := _work.local.record) is not None:
                work.model_points += 1
            return slope
    for _ in range(4):
        s0, s1, s2, model = _eval_moments(family, y, tols, 0.0, _MB, ceiling, partials)
        slope = _judge_slope(y, s0, s1, s2.value, model)
        # a ceiling stop leaves no model: a width above its tolerance
        if slope.err < math.inf and (slope.err <= tol or model is None):
            return slope
        tols = _slope_tols(tol, slope.scale)
    raise BudgetError(f"phi({y}) not certified to {tol:.3e}")


def _slope_tols(tol, scale):
    """The tolerances of f, f' and f'' for a slope certified to tol at the
    scale (f(y), max(|phi(y)|, 1)): an error of f' of t and of f of t /
    max(|phi|, 1) each move phi by about t / f, t = 0.25 tol f."""
    f_scale, ratio = scale
    t1 = 0.25 * tol * f_scale
    return {(None, 0): t1 / ratio, (None, 1): t1, (None, 2): math.inf}


def _judge_slope(y, s0, s1, m2, model, derivs=None) -> _Slope:
    """The slope at y from certified f and f', the moment-2 value m2, the
    model they came from and the derivs they carry: phi = f'/f within err,
    inf where f's bracket reaches 0.  RangeError where f(y) underflows to
    0."""
    if s0.value == 0.0:
        raise RangeError(f"f({y}) underflows to 0: phi has no float value there")
    p = s1.value / s0.value
    floor = s0.value - s0.tail_bound_used
    e = (s1.tail_bound_used + abs(p) * s0.tail_bound_used) / floor if floor > 0.0 else math.inf
    scale = (max(s0.value, 1e-300), max(abs(p), 1.0))
    return _tuple_new(_Slope, (y, p, m2 / s0.value - p * p, s0, scale, e, derivs, model))


def _taylor_step(last, y, t0, t1) -> Optional[_Slope]:
    """The slope at y from f to f''' at last.y (last.derivs) by their cubic
    Taylor polynomials about last.y (math.fsum), for last.y and y left of
    last.model's y.  With d = y - last.y, each derivative's bound adds
    |d|^i / i! times its own, and F4 >= f'''' over both (last.model.bounds)
    bounds the remainders, d^4 / 24 F4 for f and |d|^3 / 6 F4 for f'; None
    where the widths (twice the bounds) exceed t0 or t1.  The slope keeps
    last.model and its own f to f''', so steps chain."""
    (f0, b0, f1, b1, f2, b2, f3, b3), f4 = last.derivs, last.model.bounds[1]
    d = y - last.y
    a, h = abs(d), 0.5 * d * d
    c = h * d / 3.0
    e0 = b0 + a * b1 + h * b2 + abs(c) * b3 + h * h / 6.0 * f4
    e1 = b1 + a * b2 + h * b3 + abs(c) * f4
    if not (2.0 * e0 <= t0 and 2.0 * e1 <= t1):
        return None
    n = last.f.truncation_n
    g0 = SeriesEval(math.fsum((f0, d * f1, h * f2, c * f3)), n, e0)
    g1 = SeriesEval(math.fsum((f1, d * f2, h * f3)), n, e1)
    g2 = f2 + d * f3
    derivs = (g0.value, e0, g1.value, e1, g2, b2 + a * b3 + h * f4, f3, b3 + a * f4)
    return _judge_slope(y, g0, g1, g2, last.model, derivs)


def _model_moments(family, model, y, t0, t1, higher=None):
    """(f(y), f'(y), f''(y)) from the pass kept in model, f and f' as
    SeriesEvals whose widths (twice their bounds) are within t0 and t1, or
    None.  With d = y - model.y and levels positive (normal form), the sum
    over m <= n of p_m sigma_m^k exp(sigma_m y) is sum_{j < K} d^j / j!
    P_{k+j} (math.fsum) within the Taylor remainder |d|^K / K! P_{k+K}
    e^{max(0, top d)}, for every K up to two below the partials kept, and
    one tail bracket at y (_tails) adds the tails beyond n.  The model
    takes the fewest K whose remainders, with those tails, meet t0 and t1;
    the remainders alone are checked before the bracket is taken.  f''
    only proposes phi', and needs a finite bracket.  None too where
    e^(top d) overflows or a bracket is missing.  Where y <= model.y and
    the model keeps bounds (T3, F4) and P_{K+4}, a list `higher` gains f to
    f''' at y, each with its bound, from one Taylor term more (K + 1), so a
    step from y has room: each moment's bracket at y adds its midpoint and
    half-width, the range [0, T3] of the moment-3 tail included."""
    d = y - model.y
    x = model.top * d
    if not x <= 700.0:
        return None
    p, ad = model.partials, abs(d)
    cs, c, r, h0, h1, ivs = [1.0], 1.0, math.exp(x) if x > 0.0 else 1.0, 0.0, 0.0, None
    for k in range(1, len(p) - 1):  # cs: d^j / j!, j < k; r: |d|^k / k! e^max(0, top d)
        c, r = c * d / k, r * ad / k
        r0, r1 = r * p[k], r * p[k + 1]
        while 2.0 * (r0 + h0) <= t0 and 2.0 * (r1 + h1) <= t1:
            if ivs is not None:
                f0 = math.fsum(map(_mul, cs, p)) + 0.5 * (iv0[0] + iv0[1])
                f1 = math.fsum(map(_mul, cs, p[1:])) + 0.5 * (iv1[0] + iv1[1])
                f2 = math.fsum(map(_mul, cs, p[2:])) + 0.5 * (iv2[0] + iv2[1])
                if higher is not None and d <= 0.0 and model.bounds and k + 4 < len(p):
                    r, t3 = r * ad / (k + 1), 0.5 * model.bounds[0]  # one term more, c P_{K+i}
                    higher += (f0 + c * p[k], r * p[k + 1] + h0, f1 + c * p[k + 1], r * p[k + 2] + h1,
                               f2 + c * p[k + 2], r * p[k + 3] + 0.5 * (iv2[1] - iv2[0]),
                               math.fsum(map(_mul, cs, p[3:])) + c * p[k + 3] + t3, r * p[k + 4] + t3)
                return SeriesEval(f0, model.n, r0 + h0), SeriesEval(f1, model.n, r1 + h1), f2
            ivs = iv0, iv1, iv2 = _tails(family, y, model.n, (0, 1, 2))
            if iv0 is None or iv1 is None or iv2 is None or not math.isfinite(iv2[1]):
                return None
            h0, h1 = 0.5 * (iv0[1] - iv0[0]), 0.5 * (iv1[1] - iv1[0])
        cs.append(c)
    return None


def phi_inverse(family: SequenceFamily, w: float, tol: float = 1e-10) -> float:
    """The unique y < -alpha with |phi(y) - w| <= tol, for theta1 < w < theta2.

    rootfind.newton_root from the family's slope ladder (_Ladder): the two
    kept rough slopes at y_k = -alpha - 2^(k/4) that prove w lies between
    them are its first bracket, else (-inf, -alpha), as phi tends to theta2
    > w at -alpha.  It starts at the cubic Hermite interpolant of ln(-alpha
    - y) in ln(phi - theta1) through the two entries (_hermite_start), or at
    the nearer entry where the ladder is one-sided or the interpolant leaves
    the bracket.  Each point is one _certified_slope from the one before it,
    the start's from the model rung at its index (_Ladder.model), which
    every tolerance shares: a Taylor step from that one (no bracket), its
    model (one bracket, no pass) or else a pass as phi takes, and proposes
    a Newton step on ln(phi - theta1), nearly linear where phi tends to
    theta1.
    Returns once the certified residual is within 0.75 tol, or when the
    bracket is at most 4 ulp(y) wide (the point of least residual).
    """
    return _invert_slope(family, w, tol).y


# the slope ladder's indices: y_k = -alpha - 2^(k/4), from 2^-12 to 64 left
# of -alpha, and its model rungs', y_j = -alpha - 2^(j/16) over the same span
_LADDER_K, _MODEL_RUNGS, _MODEL_J = (-48, 24), 16, (-192, 96)
_MODEL_TOL = 2.5e-13  # a model rung's root tolerance: _conjugate_at's at every tol >= 1e-12


class _Rung(NamedTuple):
    """A slope-ladder entry at y_k: its phi and rough _Slope (_rough_slope:
    no model, phi within its err), ln f(y_k), and its Hermite node
    (_hermite_node)."""

    y: float
    phi: float
    slope: _Slope
    ln_f: float
    node: Optional[tuple]


class _Ladder:
    """The slope ladder of one family: the rough slopes at y_k = -alpha -
    2^(k/4), k = -48..24 (_rough_slope), each computed on first use and kept
    as a _Rung by k (rungs), except one that raises (BudgetError, or
    RangeError where f(y_k) underflows or y_k rounds to -alpha); an entry
    only locates a root (bracket).  The model rungs certify (model), kept by
    j alone in models, at most 289, which callers at every tolerance share.
    A record is added with setdefault, so threads filling one ladder all
    read the first one kept at its key; two threads using a new family at
    once may each get a ladder, and the family keeps one."""

    def __init__(self, family):
        self.family, self.rungs, self.models = family, {}, {}

    def rung(self, k) -> _Rung:
        """The entry at k, computed on first use."""
        got = self.rungs.get(k)
        if got is not None:
            return got
        family = self.family
        a = family.alpha
        y = -a - 2.0 ** (0.25 * k)
        if not y < -a:
            raise RangeError(f"ladder point {k} rounds to -alpha = {-a}")
        s = _rough_slope(family, y)
        node = _hermite_node(s, family._sigma_min.theta1, a)
        return self.rungs.setdefault(k, _Rung(y, s.phi, s, math.log(s.f.value), node))

    def model(self, j) -> Optional[_Slope]:
        """The model rung at j (-192..96), computed on first use: one pass
        at y_j to 0.25 _MODEL_TOL under the ceiling 1e-5 / _MODEL_TOL, at
        the scale of the entry at k = floor(j/4), keeping _MODEL_PARTIALS
        partial moments, and one tail bracket of moments 3 and 4 at y_j,
        whose upper ends give its model's bounds, T3 and F4 = P_4 + the
        moment-4 end, where both are finite; None, kept too, where either
        raises BudgetError or RangeError."""
        if j in self.models:  # a kept record is never dropped
            return self.models[j]
        y, s = -self.family.alpha - 2.0 ** (j / _MODEL_RUNGS), None
        try:
            coarse = self.rung(j * 4 // _MODEL_RUNGS).slope  # raises where y_j rounds to -alpha
            s = _certified_slope(self.family, y, 0.25 * _MODEL_TOL, coarse, 1e-5 / _MODEL_TOL,
                                 _MODEL_PARTIALS)
            if (m := s.model) is not None:
                iv3, iv4 = _tails(self.family, y, m.n, (3, 4))
                if iv3 and iv4 and math.isfinite(iv3[1] + iv4[1]):
                    s = s._replace(model=m._replace(bounds=(iv3[1], m.partials[4] + iv4[1])))
        except (BudgetError, RangeError):
            pass
        return self.models.setdefault(j, s)

    def bracket(self, w):
        """(inner, outer): the entries nearest w that prove it lies between
        them, inner's phi on the near side of w and outer's beyond it: an
        entry decides a side only where |phi - w| exceeds its err.  The
        search gallops outward from k = 0 (y = -alpha - 1) and then bisects,
        so its path depends on w alone.  It ends at k = -48 and 24, at the
        first entry that raises BudgetError or RangeError and at one within
        its err of w: outer is None where the gallop ends so, k = 0 too, and
        a bisection stops with the bracket it has.  An error of the k = 0
        entry itself propagates."""
        lo_k, hi_k = _LADDER_K
        rungs = self.rungs
        inner_k, inner = 0, rungs.get(0) or self.rung(0)
        up = inner.phi > w  # phi falls as k grows
        if not abs(inner.phi - w) > inner.slope.err:
            return inner, None

        def entry(k):  # a missing entry, computed; None where it raises
            try:
                return self.rung(k)
            except (BudgetError, RangeError):
                return None

        step = 1
        while True:
            outer_k = inner_k + step if up else inner_k - step
            outer_k = lo_k if outer_k < lo_k else hi_k if outer_k > hi_k else outer_k
            outer = None if outer_k == inner_k else rungs.get(outer_k) or entry(outer_k)
            if outer is None or not abs(outer.phi - w) > outer.slope.err:
                return inner, None
            if (outer.phi <= w) if up else (outer.phi >= w):
                break
            inner_k, inner = outer_k, outer
            step *= 2
        while not -1 <= outer_k - inner_k <= 1:
            mid_k = inner_k + (outer_k - inner_k) // 2
            mid = rungs.get(mid_k) or entry(mid_k)
            if mid is None or not abs(mid.phi - w) > mid.slope.err:
                break
            if (mid.phi <= w) if up else (mid.phi >= w):
                outer_k, outer = mid_k, mid
            else:
                inner_k, inner = mid_k, mid
        return inner, outer


def _ladder_start(ladder, prof, w):
    """Where a slope root for w starts, from the slope ladder alone
    (ladder.bracket, no new pass): (bracket, entry, y_h, ends).  bracket is
    the (lo, hi) of the two entries that prove w lies between them, else
    (-inf, -alpha), as phi tends to theta2 > w at -alpha, so both its ends
    are proved as newton_root's lo_ok and hi_ok say; entry is the one nearer
    w; y_h is their Hermite start (_hermite_start, from the entries' nodes),
    None where the ladder is one-sided or the interpolant leaves the
    bracket; ends are the two entries, None where one-sided."""
    inner, outer = ladder.bracket(w)
    if outer is None:
        return (-math.inf, -prof.alpha), inner, None, None
    bracket = (inner.y, outer.y) if inner.y < outer.y else (outer.y, inner.y)
    start = outer if abs(outer.phi - w) < abs(inner.phi - w) else inner
    y_h = _hermite_start(inner.node, outer.node, w, prof.theta1, prof.alpha)
    return bracket, start, (y_h if bracket[0] < y_h < bracket[1] else None), (inner, outer)


def _ladder_point(family, w) -> tuple[float, float]:
    """(y, ln f(y)) where a slope root for w starts (_ladder_start), from
    ladder entries alone, so at any tol: the nearer entry's y and ln f, or
    at the Hermite start the cubic Hermite interpolant of ln f in y through
    the two entries (values ln f(y_k), slopes phi(y_k)).  No new pass."""
    if _work.on and (work := _work.local.record) is not None:
        work.ladder_lookups += 1
    _, start, y_h, ends = _ladder_start(family._ladder, family._profile, w)
    if y_h is None:
        return start.y, start.ln_f
    return y_h, _hermite(*((e.y, e.ln_f, e.phi) for e in ends), y_h)


def _invert_slope(family, w, tol, ceiling=1.0) -> _Slope:
    """phi_inverse's root as the certified slope of its last point, whose f
    a caller needing f at the root re-sums only when its bound is too
    loose.  The first bracket comes from the slope ladder (_ladder_start)
    with no new pass.  Every point is _certified_slope from the slope
    before it: the start y0, the Hermite start or else the nearer entry's
    y, from the model rung at y0's index (_Ladder.model), or from the
    entry's rough slope where that rung is None, and each later one by a
    Taylor step from that slope or from its model, where either certifies
    phi to q = 0.25 tol, else from a new pass, whose model the points after
    it read; so a warm root whose points the model rung certifies makes no
    pass, and one bracket where its Newton points step.  A slope certified
    only to err > q (a ceiling stop, which leaves no model) passes at
    |phi - w| <= 3 err (_Slope.residual)."""
    prof = family._profile
    if not math.isfinite(w) or w <= prof.theta1 or w >= prof.theta2:
        raise RangeError(f"w={w} outside the open range ({prof.theta1}, {prof.theta2})")
    if _work.on and (work := _work.local.record) is not None:
        work.ladder_lookups += 1
    ladder = family._ladder
    (lo, hi), start, y_h, _ = _ladder_start(ladder, prof, w)
    y0 = start.y if y_h is None else y_h
    j = min(max(math.floor(_MODEL_RUNGS * math.log2(-prof.alpha - y0)), _MODEL_J[0]), _MODEL_J[1])
    last, q, t1 = ladder.model(j) or start.slope, 0.25 * tol, prof.theta1

    def evaluate(y):
        nonlocal last
        last = s = _certified_slope(family, y, q, last, ceiling)
        return s.residual(w, q), y + slope_step(s.phi, s.dphi, w, t1), s

    return newton_root(evaluate, y0, evaluate(y0), 0.75 * tol, lo, hi, True, True)[1]


def _hermite_node(s, t1, a):
    """The node (u, z, dz/du) of the slope s in _hermite_start's
    coordinates: u = ln(phi - theta1), z = ln(-alpha - y), dz/du = -(phi -
    theta1) / (phi' (-alpha - y)); None where phi <= theta1 or phi' <= 0."""
    d, r = s.phi - t1, -a - s.y
    if not (d > 0.0 and s.dphi > 0.0):
        return None
    return math.log(d), math.log(r), -d / r / s.dphi


def _hermite_start(inner, outer, w, t1, a) -> float:
    """The cubic Hermite interpolant of z = ln(-alpha - y) in u = ln(phi -
    theta1) through the nodes of two ladder entries (_hermite_node), at u =
    ln(w - theta1), as a y; nan where a node is None or the two u
    coincide."""
    if inner is None or outer is None or inner[0] == outer[0]:
        return math.nan
    z = _hermite(inner, outer, math.log(w - t1))
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
    theta1; w phi^{-1}(w) - ln f(phi^{-1}(w)) inside, the solver's interior
    g (_conjugate_at); -alpha w - ln f(-alpha) at and beyond theta2 (case c
    only).  tol sets the root and f, not the profile (profile(family))."""
    prof = family._profile
    t1_tol = TIE_RTOL * max(1.0, abs(prof.theta1))  # sigma_min_set's tie
    if not math.isfinite(w):
        raise RangeError(f"w must be finite, got {w}")
    if w < prof.theta1 - t1_tol:
        return math.inf
    if abs(w - prof.theta1) <= t1_tol:
        return -math.log(prof.sigma_min.p_sum)
    if w >= prof.theta2:
        return -prof.alpha * w - math.log(prof.f_at_boundary)
    return _conjugate_at(family, w, tol)[0]


def _conjugate_at(family, w, tol) -> tuple[float, float, float]:
    """((ln f)*(w), y, ln f(y)) at theta1 < w < theta2, with y the slope root
    phi(y) = w and (ln f)*(w) = w y - ln f(y), one g per (family, w, tol).
    The root's residual target t = 0.25 c, c = min(tol, 1e-12), rises up to
    1e-5 where the tails cannot certify it (_invert_slope under the ceiling
    1e-5 / t, none at the float floor): a residual delta costs O(delta^2) in
    g.  f(y) holds to c max(1, f(y)) (_refine_f): g within about c max(1, f)
    / f plus rounding."""
    c = min(tol, 1e-12)
    t = 0.25 * c
    root = _invert_slope(family, w, t, 1e-5 / t if t > 1e-300 else 1.0)
    ln_f = math.log(_refine_f(family, root.y, root.f, c).value)
    return w * root.y - ln_f, root.y, ln_f


def _refine_f(family, y, f_y: SeriesEval, rtol: float) -> SeriesEval:
    """f(y) to rtol max(1, f(y)) (rtol = c, _conjugate_at): the root pass's
    f_y when its bound is that tight, else the tighter of f_y and a re-sum at
    that tolerance, which may stop at up to 10^4 times it (the ceiling)."""
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
    t = x + family._sigma_min.theta1 * y
    return t >= 0.0 or math.exp(t) == 1.0


def _mult_arrays(kind: Entropy, mults, t, t_hi, base, lt, log_p=None, out=None) -> dict:
    """The rows base m(t) of the bose-einstein or fermi-dirac dual sums, one
    per name in `mults`, where base = p_n e^t = e^lt and e^t m(t) is W*(t)
    ('conj'), (W*)'(t) ('grad') or (W*)''(t) ('hess'), from one z = e^t,
    each written into out[name] where a dict `out` is given (the rows of a
    pass's block), else into a new array.
    t_hi >= max t decides two branches without a reduction: bose-einstein's
    1 - z is -expm1(t) where t > -ln 2 (no cancellation, Maechler 2012), and
    fermi-dirac terms with t > 700 come from e^-t and p_n = e^log_p, or
    e^(lt - t) where the caller has no ln p_n.  The W* row divides ln(1 + z)
    or -ln(1 - z) by z clipped at 1e-300, with no mask: where z < 2^-53, z =
    0 included, the quotient is exactly 1.0, so a term whose e^t underflows
    is base."""
    rows = {}
    fermi = kind is Entropy.FERMI_DIRAC
    far = near = None
    if fermi and t_hi > 700.0:
        far = t > 700.0
        base = np.where(far, 0.0, base)
    z = np.exp(t if far is None else np.minimum(t, 700.0))  # t < 0 under bose-einstein
    den = 1.0 + z if fermi else 1.0 - z
    if not fermi and t_hi > -_LN2:
        near = t > -_LN2
        den = np.where(near, -np.expm1(t), den)
    if "conj" in mults:  # W*(t) / z = ln(1 + z) / z or -ln(1 - z) / z
        zc = np.maximum(z, 1e-300)  # exactly 1.0 where z < 2^-53, z = 0 included
        ln_den = np.log1p(zc if fermi else -zc)
        if near is not None:
            ln_den = np.where(near, np.log(den), ln_den)
        ratio = (ln_den if fermi else -ln_den) / zc
        rows["conj"] = np.multiply(base, ratio, out=out["conj"] if out else None)
    d = 1.0 / den
    if "grad" in mults:
        rows["grad"] = np.multiply(base, d, out=out["grad"] if out else None)
    if "hess" in mults:
        rows["hess"] = np.multiply(base, d * d, out=out["hess"] if out else None)
    if far is not None:
        tf = t[far]
        p = np.exp(log_p[far] if log_p is not None else lt[far] - tf)
        w = np.exp(-tf)
        exact = {"conj": p * (tf + np.log1p(w)), "grad": p / (1.0 + w), "hess": p * w / (1.0 + w) ** 2}
        for m, row in rows.items():
            row[far] = exact[m]
    return rows


def _mult_bounds(kind: Entropy, t_next: float) -> dict:
    """{m: bounds of the multiplier m over the whole tail, where t <=
    t_next} for m = 'conj', 'grad' and 'hess': fermi-dirac's lower bounds
    take the tail's largest z = e^t_next, unclipped, and bose-einstein's
    1 - z is -expm1(t_next) above -ln 2, as in _mult_arrays.  The W* bound
    keeps 1 -+ z/2 for z <= 1e-8: on one float the branch is a single
    comparison, not a mask, it keeps z = 0 from dividing by zero, and
    every tail bracket's width stays as it was."""
    z = math.exp(t_next) if t_next < 709.0 else math.inf
    if kind is Entropy.FERMI_DIRAC:
        d = 1.0 / (1.0 + z)
        conj = math.log1p(z) / z if z > 1e-8 else 1.0 - 0.5 * z
        return {"conj": (conj, 1.0), "grad": (d, 1.0), "hess": (d * d, 1.0)}
    near = t_next > -_LN2  # t_next < 0, so z < 1
    den = -math.expm1(t_next) if near else 1.0 - z
    d = 1.0 / den
    conj = -(math.log(den) if near else math.log1p(-z)) / z if z > 1e-8 else 1.0 + 0.5 * z
    return {"conj": (1.0, conj), "grad": (1.0, d), "hess": (1.0, d * d)}


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
    every multiplier is 1 (h = h_x = h_xx, h_y = h_xy), and the pass's
    layout (_pass_shape) gives each moment one row.  The Hessian needs
    y < -alpha; without it y = -alpha is allowed in boundary case (c)."""
    sums = _VALUE_GRADIENT + _HESSIAN if hessian else _VALUE_GRADIENT
    return _dual_sums(family, kind, x, y, dict.fromkeys(sums, tol), ceiling)


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
