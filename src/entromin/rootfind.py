"""The library's root finders.

newton_root: the one 1-D Newton loop of the library, safeguarded by a
bracket.  Every scalar root (series slope inversion, the finite slope root
and the epsilon-family members) is one evaluate callback passed to it.

slope_step: the Newton step on ln(phi - theta1) that each of those roots
takes (theta1 the family's, or min sigma for a finite root).  phi tends to
theta1 like e^(c y), so ln(phi - theta1) is nearly linear in y where the
plain step on phi misses by orders of magnitude: from phi = 1e-200 at
a root where phi = 5e99, one step lands within tolerance.

solve_bracketed: safeguarded scalar root finding on a sign-changing
bracket.  Bisection with secant acceleration: the secant candidate is
accepted only when it falls safely inside the current bracket and the step
before it halved the bracket, otherwise the step falls back to the
midpoint.  Termination is residual-driven first (|f| <= rtol) with an
absolute width stop as a safeguard against extremely steep or flat
functions; running out of the iteration budget without either certificate
raises BudgetError.  The library does not call it: the tests use it as an
independent reference root for the Newton loops.

minimize_convex_2d: damped Newton on the smooth convex dual potential of
every two-variable solve (finite._minimize_dual's finite bose-einstein and
fermi-dirac dual, which the inverse's proposal shares, and the inverse's
certified Newton), with backtracking kept in its domain; one callback gives
the potential with its gradient, Hessian and tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BudgetError, NumericalFailureError

__all__ = [
    "RootResult",
    "newton_root",
    "slope_step",
    "solve_bracketed",
    "NewtonResult",
    "minimize_convex_2d",
]


def newton_root(evaluate, x, first, r_tol, lo=-math.inf, hi=math.inf, lo_ok=False, hi_ok=False):
    """(x, payload, lo_ok, hi_ok) with |g(x)| <= r_tol for an increasing g
    on [lo, hi], by Newton from x.  evaluate(x) returns (g(x), its Newton
    point or nan, payload), and first is evaluate(x) at the start.  lo_ok
    (hi_ok) tells that g(lo) < 0 (g(hi) > 0) is proved; g < 0 at an
    iterate proves it lo, g > 0 proves it hi, g == 0 proves neither.

    Each step moves at least 4 ulp(x).  While an end is infinite the steps
    are capped at 1, 2, 4, ...; between finite ends a step past an unproved
    end goes to that end, and the Newton point is taken when it lies
    strictly inside and moves at most half as far as the step before it,
    else the midpoint.  Once hi - lo <= 4 ulp(x) the point of least |g| is
    returned.  BudgetError after 200 evaluations."""
    best = (math.inf, x, None)
    cap, last_step = 1.0, math.inf
    for evaluations in range(1, 201):
        g, nxt, payload = first if evaluations == 1 else evaluate(x)
        if g > 0.0:
            hi, hi_ok = x, True
        elif g < 0.0:
            lo, lo_ok = x, True
        if abs(g) <= r_tol:
            return x, payload, lo_ok, hi_ok
        if abs(g) < best[0]:
            best = (abs(g), x, payload)
        floor = 4.0 * math.ulp(x)
        if hi - lo <= floor:
            return best[1], best[2], lo_ok, hi_ok
        if math.isnan(nxt):
            nxt = math.copysign(math.inf, -g)
        if abs(nxt - x) < floor:
            nxt = x + math.copysign(floor, -g)
        if math.isinf(hi - lo):
            nxt = min(max(nxt, x - cap), x + cap)
            cap *= 2.0
        elif nxt >= hi and not hi_ok:
            nxt = hi
        elif nxt <= lo and not lo_ok:
            nxt = lo
        elif not (lo < nxt < hi and abs(nxt - x) <= 0.5 * abs(last_step)):
            nxt = 0.5 * (lo + hi)
        last_step, x = nxt - x, nxt
    raise BudgetError(f"root search used 200 evaluations; best |g| = {best[0]:.3e} "
                      f"at x = {best[1]!r} exceeds tolerance {r_tol:.3e}")


def slope_step(phi, dphi, w, theta1):
    """The Newton step in y toward phi(y) = w for an increasing slope phi
    with phi > theta1 and w > theta1, taken on ln(phi - theta1), which is
    nearly linear in y where phi tends to theta1: -ln((phi - theta1) / (w -
    theta1)) (phi - theta1) / phi', the ratio's logarithm taken as a
    difference of two where the ratio is 0 or inf in floats.  Where phi -
    theta1 is not positive (rounding) it is the plain step (w - phi) /
    phi', and nan without a usable derivative (phi' not positive)."""
    if not dphi > 0.0:
        return math.nan
    d, gap = phi - theta1, w - theta1
    if not d > 0.0:
        return (w - phi) / dphi
    r = d / gap
    ln_r = math.log(r) if 0.0 < r < math.inf else math.log(d) - math.log(gap)
    return -ln_r * d / dphi


@dataclass(frozen=True)
class RootResult:
    x: float
    fx: float
    iterations: int
    converged_by: str  # "residual" | "width"


def solve_bracketed(
    fn,
    lo: float,
    hi: float,
    flo: float,
    fhi: float,
    *,
    residual_tol: float,
    x_tol: float = 1e-12,
    budget: int = 200,
) -> RootResult:
    """Find x in [lo, hi] with |fn(x)| <= residual_tol, given fn(lo), fn(hi)
    of opposite signs (either may be zero); NumericalFailureError when they
    are not.  No library path calls it; it is the tests' reference root."""
    if flo == 0.0:
        return RootResult(lo, 0.0, 0, "residual")
    if fhi == 0.0:
        return RootResult(hi, 0.0, 0, "residual")
    if flo * fhi > 0.0:
        raise NumericalFailureError(f"not a bracket: f({lo})={flo}, f({hi})={fhi}")

    best_x, best_f = (lo, flo) if abs(flo) <= abs(fhi) else (hi, fhi)
    halved = True
    for it in range(1, budget + 1):
        width = hi - lo
        if width <= x_tol * max(1.0, abs(lo), abs(hi)):
            return RootResult(best_x, best_f, it, "width")
        # secant through the bracket endpoints, safeguarded to the interior;
        # bisect after a step that did not halve the bracket: on a near-step
        # function the secant keeps landing just inside one end, and the
        # bracket would shrink by about 1% per step
        denom = fhi - flo
        x = lo - flo * width / denom if denom != 0.0 and halved else 0.5 * (lo + hi)
        margin = 0.01 * width
        if not (lo + margin <= x <= hi - margin):
            x = 0.5 * (lo + hi)
        fx = fn(x)
        if abs(fx) <= abs(best_f):
            best_x, best_f = x, fx
        if abs(fx) <= residual_tol:
            return RootResult(x, fx, it, "residual")
        if math.isnan(fx):
            raise BudgetError(f"root search hit NaN at x={x}")
        if flo * fx < 0.0:
            hi, fhi = x, fx
        else:
            lo, flo = x, fx
        halved = hi - lo <= 0.5 * width
    raise BudgetError(
        f"root search used {budget} iterations; best |f|={abs(best_f):.3e} "
        f"at x={best_x!r} exceeds tolerance {residual_tol:.3e}"
    )


@dataclass(frozen=True)
class NewtonResult:
    """The accepted point with its potential F, residual (the gradient of
    F) and Hessian (h00, h01, h11), or else the last iterate, those three
    there and why Newton stopped.  With the Hessian a caller can take the
    Newton step from the point without evaluating F again (_newton_step)."""

    point: tuple[float, float]
    residual: tuple[float, float]
    potential: float
    hessian: tuple[float, float, float]
    converged: bool
    message: str = ""


def _newton_step(residual, hess):
    """The Newton step (dx, dy) = -H^-1 r of a 2x2 Hessian hess = (h00,
    h01, h11) at residual r, or None where det H is not positive and
    finite."""
    (r0, r1), (h00, h01, h11) = residual, hess
    det = h00 * h11 - h01 * h01
    if det <= 0.0 or not math.isfinite(det):
        return None
    return -(h11 * r0 - h01 * r1) / det, -(-h01 * r0 + h00 * r1) / det


def minimize_convex_2d(evaluate, in_domain, start, scales) -> NewtonResult:
    """Damped Newton from `start` for the minimizer of a smooth, strictly
    convex F: evaluate(x, y) returns (F, (r0, r1), (h00, h01, h11), tol), F
    with its gradient and its Hessian at one point, so that a caller can get
    all three from one pass over its terms, and the tolerance that point's
    residual is judged at; in_domain(x, y) tells whether F is finite there.
    Each point is evaluated once: a line-search point that is accepted
    brings its gradient, Hessian and tolerance to the next step.

    One rule on norm = max_i |r_i| / scales[i]: stop at the point's tol.
    Below 1e-6, the quadratic basin, the Armijo decrease of F sinks below
    float noise, so steps are undamped there, and four basin steps without a
    new best norm mean the float floor is reached; outside it the Armijo
    decrease guarantees progress.  Once progress stops the best iterate is
    accepted if its norm is within max(its tol, 1e-9).  The result carries
    the Hessian at its point, so that a caller that stops at a loose tol
    can take one more, unevaluated, Newton step (solver._proposal).
    """
    basin = 1e-6
    x, y = start
    d_cur, (r0, r1), hess, tol = evaluate(x, y)
    best, best_norm, best_tol, stale = None, math.inf, tol, 0
    message = "no convergence in 100 steps"
    for _ in range(100):
        norm = max(abs(r0) / scales[0], abs(r1) / scales[1])
        if norm < best_norm:
            best, best_norm, best_tol, stale = ((x, y), (r0, r1), d_cur, hess), norm, tol, 0
        elif norm <= basin:
            stale += 1
        if norm <= tol:
            return NewtonResult((x, y), (r0, r1), d_cur, hess, True)
        if stale >= 4:
            message = "stalled"
            break
        newton = _newton_step((r0, r1), hess)
        if newton is None:
            return NewtonResult((x, y), (r0, r1), d_cur, hess, False, "dual hessian degenerate")
        dx, dy = newton
        slope = r0 * dx + r1 * dy  # directional derivative of F
        step = 1.0
        for _ in range(60):
            xx, yy = x + step * dx, y + step * dy
            if in_domain(xx, yy):
                d_new, r_new, h_new, t_new = evaluate(xx, yy)
                if norm <= basin or d_new <= d_cur + 1e-4 * step * slope:
                    break
            step *= 0.5
        else:
            message = "line search stalled"
            break
        x, y, d_cur, (r0, r1), hess, tol = xx, yy, d_new, r_new, h_new, t_new
    if best_norm <= max(best_tol, 1e-9):
        return NewtonResult(*best, True)
    return NewtonResult(
        (x, y), (r0, r1), d_cur, hess, False, f"{message} at residual {best_norm:.3e}"
    )
