"""Safeguarded scalar root finding on a sign-changing bracket.

Bisection with secant acceleration: the secant candidate is accepted only
when it falls safely inside the current bracket, otherwise the step falls
back to the midpoint.  Termination is residual-driven first (|f| <= rtol)
with an absolute width stop as a safeguard against extremely steep or flat
functions; running out of the iteration budget without either certificate
raises BudgetError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BudgetError, NumericalFailureError

__all__ = ["RootResult", "solve_bracketed"]


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
    are not."""
    if flo == 0.0:
        return RootResult(lo, 0.0, 0, "residual")
    if fhi == 0.0:
        return RootResult(hi, 0.0, 0, "residual")
    if flo * fhi > 0.0:
        raise NumericalFailureError(f"not a bracket: f({lo})={flo}, f({hi})={fhi}")

    best_x, best_f = (lo, flo) if abs(flo) <= abs(fhi) else (hi, fhi)
    for it in range(1, budget + 1):
        width = hi - lo
        if width <= x_tol * max(1.0, abs(lo), abs(hi)):
            return RootResult(best_x, best_f, it, "width")
        # secant through the bracket endpoints, safeguarded to the interior
        denom = fhi - flo
        x = lo - flo * width / denom if denom != 0.0 else 0.5 * (lo + hi)
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
    raise BudgetError(
        f"root search used {budget} iterations; best |f|={abs(best_f):.3e} "
        f"at x={best_x!r} exceeds tolerance {residual_tol:.3e}"
    )
