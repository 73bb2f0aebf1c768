"""Exact finite-n entropy minimization under one or two moment constraints.

Closed forms where they exist (proportional split under a single
constraint; under two, the maxwell-boltzmann optimum is the Gibbs sequence
u_k = p_k e^(alpha + beta sigma_k)), the damped Newton of
rootfind.minimize_convex_2d on the smooth strictly convex dual for the
bose-einstein and fermi-dirac cases (both started at the maxwell-boltzmann
multipliers), and greedy zonotope envelopes for fermi-dirac feasibility and
its boundary faces.  The Gibbs pass, one exp of the weights, gives phi_n,
Var_n(sigma), ln Z_n and that optimum: the slope root phi_n(beta) = v/u is
rootfind.newton_root on it, and so is each solver.EpsilonFamily member.

Weights must be finite and positive and levels at most 1e150 in size, so
that Var_n(sigma) does not overflow (DomainError), targets finite
(RangeError).  A Newton iteration that does not converge raises
NumericalFailureError.  The tolerances are fixed: the slope root to
1e-12 relative, the dual Newton to 1e-11 of the constraint scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .entropies import (
    Entropy, entropy_conjugate, entropy_conjugate_derivative, entropy_derivative, entropy_value,
)
from .errors import (
    BudgetError,
    DomainError,
    InfeasibleError,
    NumericalFailureError,
    RangeError,
)
from .rootfind import minimize_convex_2d, newton_root

__all__ = [
    "BoundaryFlag",
    "Feasibility",
    "FiniteSolution",
    "solve_single",
    "phi_n",
    "phi_n_inverse",
    "solve_two_mb_be",
    "solve_two_fd",
    "fd_feasible",
    "kkt_residual",
]


class BoundaryFlag(Enum):
    INTERIOR_KKT = "interior-kkt"
    LOWER_EDGE = "lower-edge"
    UPPER_EDGE = "upper-edge"
    SINGLE_CONSTRAINT = "single-constraint"
    ORIGIN = "origin"


class Feasibility(Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class FiniteSolution:
    u_bar: tuple[float, ...]
    value: float
    multipliers: Optional[tuple[float, float]]
    boundary_flag: BoundaryFlag


def _checked(p, sigma, **target):
    """p and sigma as float arrays: DomainError unless they are equal-length
    and nonempty with every p_k finite and positive and every |sigma_k| at
    most 1e150, so that Var_n(sigma) does not overflow, RangeError for a
    target (u, v, t) that is nan or infinite (None is skipped)."""
    p, s = np.asarray(p, dtype=float), np.asarray(sigma, dtype=float)
    if p.ndim != 1 or not p.size or s.shape != p.shape:
        raise DomainError("p and sigma must be equal-length and nonempty")
    if not (np.all(p > 0.0) and np.all(np.isfinite(p)) and np.all(np.abs(s) <= 1e150)):
        raise DomainError("weights must be finite and positive, levels at most 1e150 in size")
    for name, val in target.items():
        if val is not None and not math.isfinite(val):
            raise RangeError(f"{name} must be finite, got {val}")
    return p, s


def _w_sum(kind: Entropy, p, u_bar) -> float:
    """sum_k p_k W(u_k / p_k), the terms formed in one array and summed by
    math.fsum."""
    p = np.asarray(p, dtype=float)
    return math.fsum((p * entropy_value(kind, np.asarray(u_bar, dtype=float) / p)).tolist())


def kkt_residual(kind: Entropy, p, sigma, u_bar, alpha: float, beta: float) -> float:
    """max_k |W'(u_k/p_k) - (alpha + beta sigma_k)| over interior coordinates,
    those whose u_k/p_k lies in the open domain of W (0 when there are none):
    a coordinate that underflowed to 0 has no derivative to compare."""
    p = np.asarray(p, dtype=float)
    r = np.asarray(u_bar, dtype=float) / p
    inside = (r > 0.0) & ((r < 1.0) | (kind is not Entropy.FERMI_DIRAC))
    s = np.asarray(sigma, dtype=float)[inside]
    gap = np.abs(entropy_derivative(kind, r[inside]) - alpha - beta * s)
    return float(gap.max(initial=0.0))


# ---------------------------------------------------------------------------
# single constraint


def solve_single(kind: Entropy, p, u: float) -> FiniteSolution:
    """Minimize sum p_k W(u_k/p_k) subject to sum u_k = u, u_k >= 0: the
    proportional split u_k = u p_k / rho is optimal."""
    p = _checked(p, np.zeros(np.shape(p)), u=u)[0].tolist()  # no levels
    if u < 0.0:
        raise InfeasibleError(f"u must be nonnegative, got {u}")
    n = len(p)
    if u == 0.0:
        return FiniteSolution((0.0,) * n, 0.0, None, BoundaryFlag.ORIGIN)
    rho = math.fsum(p)
    if kind is Entropy.FERMI_DIRAC and u > rho:
        raise InfeasibleError(f"fermi-dirac capacity is rho = {rho} < u = {u}")
    u_bar = tuple(u * pk / rho for pk in p)
    value = rho * entropy_value(kind, u / rho)
    return FiniteSolution(u_bar, value, None, BoundaryFlag.SINGLE_CONSTRAINT)


# ---------------------------------------------------------------------------
# the finite mean-level map phi_n


def _gibbs_pass(log_p, s, t):
    """phi_n(t), its derivative Var_n(sigma) and ln Z_n(t) for the weights
    exp(log_p + s t), from one exp over them; then those weights over their
    largest, e, and the sum z0 of e, so that the maxwell-boltzmann optimum
    at t is u e / z0 with no second exp.  Two arrays are made, e and one
    for the moments; log_p and s are only read, so they may be read-only
    and shared (solver._prefix)."""
    e = s * t
    e += log_p
    m = float(np.maximum.reduce(e))
    e -= m
    np.exp(e, out=e)
    z0 = float(np.add.reduce(e))
    se = s * e
    phi = float(np.add.reduce(se)) / z0
    se *= s
    var = float(np.add.reduce(se)) / z0 - phi * phi
    return phi, var, m + math.log(z0), e, z0


def _slope_root(log_p, s, w, tol):
    """(t, the _gibbs_pass at t) with |phi_n(t) - w| <= tol, min s < w < max s:
    rootfind.newton_root from t = 0 on g = phi_n - w, g' = Var_n(sigma)
    from the same pass."""

    def evaluate(t):
        at = _gibbs_pass(log_p, s, t)
        g = at[0] - w
        return g, t - g / at[1] if at[1] > 0.0 else math.nan, at

    try:
        t, at, _, _ = newton_root(evaluate, 0.0, evaluate(0.0), tol)
    except BudgetError as exc:
        raise NumericalFailureError(f"phi_n {exc}") from exc
    return t, at


def phi_n(p, sigma, t: float) -> float:
    """Weighted mean of sigma under weights p_k exp(sigma_k t)."""
    p, s = _checked(p, sigma, t=t)
    return _gibbs_pass(np.log(p), s, t)[0]


def phi_n_inverse(p, sigma, w: float, tol: float = 1e-12) -> float:
    """The t with |phi_n(t) - w| <= tol, for w strictly inside (min s, max s)."""
    p, s = _checked(p, sigma)
    eta1, eta2 = float(s.min()), float(s.max())
    if not eta1 < w < eta2:
        raise RangeError(f"w={w} outside the open range ({eta1}, {eta2})")
    return _slope_root(np.log(p), s, w, tol)[0]


# ---------------------------------------------------------------------------
# two constraints, maxwell-boltzmann / bose-einstein


def _edge_solution(kind, p, sigma, u, eta, flag) -> FiniteSolution:
    """v = eta * u forces all mass onto the levels tying eta: the
    single-constraint split over them (solve_single), zero elsewhere."""
    scale = 1e-12 * max(1.0, abs(eta))
    idx = [k for k, s in enumerate(sigma) if abs(s - eta) <= scale]
    single = solve_single(kind, p[idx], u)
    u_bar = [0.0] * len(p)
    for k, uk in zip(idx, single.u_bar):
        u_bar[k] = uk
    return FiniteSolution(tuple(u_bar), single.value, None, flag)


def _cone_position(sigma, u, v):
    eta1, eta2 = min(sigma), max(sigma)
    tol = 1e-12 * max(abs(v), abs(eta1) * u, abs(eta2) * u)
    if v < eta1 * u - tol or v > eta2 * u + tol:
        return "outside", eta1, eta2
    if abs(v - eta1 * u) <= tol:
        return "lower", eta1, eta2
    if abs(v - eta2 * u) <= tol:
        return "upper", eta1, eta2
    return "interior", eta1, eta2


def solve_two_mb_be(kind: Entropy, p, sigma, u: float, v: float) -> FiniteSolution:
    """Two-constraint exact solve for maxwell-boltzmann (closed-form
    multipliers) or bose-einstein (damped Newton on the dual)."""
    if kind not in (Entropy.MAXWELL_BOLTZMANN, Entropy.BOSE_EINSTEIN):
        raise DomainError("use solve_two_fd for the fermi-dirac entropy")
    p, sigma = _checked(p, sigma, u=u, v=v)
    if u < 0.0 or (u == 0.0 and v != 0.0):
        raise InfeasibleError(f"no feasible point for (u, v) = ({u}, {v})")
    n = len(p)
    if u == 0.0:
        return FiniteSolution((0.0,) * n, 0.0, None, BoundaryFlag.ORIGIN)
    where, eta1, eta2 = _cone_position(sigma, u, v)
    if eta1 == eta2:
        if where == "outside":
            raise InfeasibleError("degenerate cone: v must equal sigma_1 * u")
        return solve_single(kind, p, u)
    if where == "outside":
        raise InfeasibleError(
            f"(u, v) = ({u}, {v}) outside the cone [{eta1 * u}, {eta2 * u}]"
        )
    if where == "lower":
        return _edge_solution(kind, p, sigma, u, eta1, BoundaryFlag.LOWER_EDGE)
    if where == "upper":
        return _edge_solution(kind, p, sigma, u, eta2, BoundaryFlag.UPPER_EDGE)

    alpha, beta, u_bar = _mb_multipliers(p, sigma, u, v)
    if kind is Entropy.MAXWELL_BOLTZMANN:
        value = _w_sum(kind, p, u_bar)
        return FiniteSolution(tuple(u_bar), value, (alpha, beta), BoundaryFlag.INTERIOR_KKT)
    return _dual_newton(kind, p, sigma, u, v, alpha, beta)


def _mb_multipliers(p, sigma, u, v):
    """Maxwell-boltzmann multipliers (alpha, beta) of an interior target and
    its optimum u_k = p_k e^(alpha + beta sigma_k), both from the slope
    root's last Gibbs pass: alpha = ln u - ln Z_n, u_k = u e_k / z0.  The
    multipliers also start the bose-einstein and fermi-dirac Newton."""
    w = v / u
    beta, at = _slope_root(np.log(p), sigma, w, 1e-12 * max(1.0, abs(w)))
    _, _, log_z, e, z0 = at
    return math.log(u) - log_z, beta, u * e / z0


def _dual_newton(kind, p, sigma, u, v, a0: float, b0: float) -> FiniteSolution:
    """Minimize the dual sum_k p_k W*(a + b sigma_k) - a u - b v by the damped
    Newton of rootfind from (a0, b0), moved into dom W* where needed.  The
    optimum is u_k = p_k g(a + b sigma_k), g = (W*)' with g' = g (1 - a_W g);
    W* and g are the entropies module's, and each Newton point computes g
    once for the gradient and the Hessian.
    Residuals below ~1e-11 of the constraint scale sit in float noise."""
    p = np.asarray(p, dtype=float)
    s = np.asarray(sigma, dtype=float)
    ps = p * s
    bose = kind is Entropy.BOSE_EINSTEIN
    t = a0 + b0 * s
    if bose and t.max() >= 0.0:
        a0 -= t.max() + 1.0

    def evaluate(a, b):
        t = a + b * s
        g = entropy_conjugate_derivative(kind, t)
        gp = g * (1.0 - kind.a * g)
        return (
            float((p * entropy_conjugate(kind, t)).sum()) - a * u - b * v,
            (float((p * g).sum()) - u, float((ps * g).sum()) - v),
            (float((p * gp).sum()), float((ps * gp).sum()), float((ps * s * gp).sum())),
            1e-11,
        )

    with np.errstate(over="ignore"):
        res = minimize_convex_2d(
            evaluate, lambda a, b: not bose or (a + b * s).max() < 0.0,
            (a0, b0), (max(1.0, u), max(1.0, abs(v))),
        )
        if not res.converged:
            name = kind.name.lower().replace("_", "-")
            raise NumericalFailureError(f"{name} dual Newton: {res.message}")
        a, b = res.point
        u_bar = p * entropy_conjugate_derivative(kind, a + b * s)
    value = _w_sum(kind, p, u_bar)
    return FiniteSolution(tuple(u_bar), value, res.point, BoundaryFlag.INTERIOR_KKT)


# ---------------------------------------------------------------------------
# fermi-dirac: zonotope feasibility and two-constraint solve


def _envelope_v(p, sigma, u: float, lower: bool) -> float:
    """Greedy extreme of sum sigma_k u_k at first coordinate u: fill smallest
    (largest) slopes first for the lower (upper) envelope."""
    order = np.argsort(sigma, kind="stable")
    if not lower:
        order = order[::-1]
    remaining = u
    total = 0.0
    for k in order:
        take = min(remaining, p[k])
        total += sigma[k] * take
        remaining -= take
        if remaining <= 0.0:
            break
    return total


def fd_feasible(p, sigma, u: float, v: float) -> Feasibility:
    """Membership of (u, v) in the zonotope sum_k [0, p_k] (1, sigma_k)."""
    p, s = _checked(p, sigma, u=u, v=v)
    rho = float(p.sum())
    scale = max(1.0, abs(u), abs(v), rho, float(np.abs(s).max()) * max(1.0, abs(u)))
    atol = 1e-12 * scale
    if u < -atol or u > rho + atol:
        return Feasibility.INFEASIBLE
    if u <= atol:
        return Feasibility.BOUNDARY if abs(v) <= atol else Feasibility.INFEASIBLE
    if u >= rho - atol:
        v_full = float((s * p).sum())
        return Feasibility.BOUNDARY if abs(v - v_full) <= atol else Feasibility.INFEASIBLE
    vmin = _envelope_v(p, s, u, lower=True)
    vmax = _envelope_v(p, s, u, lower=False)
    if v < vmin - atol or v > vmax + atol:
        return Feasibility.INFEASIBLE
    if v <= vmin + atol or v >= vmax - atol:
        return Feasibility.BOUNDARY
    return Feasibility.INTERIOR  # vmin < v < vmax strictly, kinks included


def _fd_face_solution(p, sigma, u: float, v: float) -> FiniteSolution:
    """Exact solution on the zonotope boundary: the greedy fill is forced up
    to the marginal slope group, which takes the proportional split."""
    n = len(p)
    vmin = _envelope_v(np.asarray(p), np.asarray(sigma), u, lower=True)
    lower = abs(v - vmin) <= 1e-9 * max(1.0, abs(v), abs(vmin))
    order = sorted(range(n), key=lambda k: (sigma[k], k))
    if not lower:
        order = order[::-1]
    u_bar = [0.0] * n
    remaining = u
    pos = 0
    while pos < len(order) and remaining > 0.0:
        k = order[pos]
        group = [k]
        while pos + len(group) < len(order) and sigma[order[pos + len(group)]] == sigma[k]:
            group.append(order[pos + len(group)])
        cap = math.fsum(p[g] for g in group)
        if remaining >= cap:
            for g in group:
                u_bar[g] = p[g]
            remaining -= cap
        else:
            for g in group:
                u_bar[g] = remaining * p[g] / cap
            remaining = 0.0
        pos += len(group)
    value = _w_sum(Entropy.FERMI_DIRAC, p, u_bar)
    flag = BoundaryFlag.LOWER_EDGE if lower else BoundaryFlag.UPPER_EDGE
    return FiniteSolution(tuple(u_bar), value, None, flag)


def solve_two_fd(p, sigma, u: float, v: float) -> FiniteSolution:
    """Two-constraint fermi-dirac solve: Newton on the dual when (u, v) is
    interior to the zonotope (NumericalFailureError when it does not
    converge), exact greedy-face solution on its boundary."""
    p, sigma = _checked(p, sigma, u=u, v=v)
    n = len(p)
    if u == 0.0 and v == 0.0:
        return FiniteSolution((0.0,) * n, 0.0, None, BoundaryFlag.ORIGIN)
    feas = fd_feasible(p, sigma, u, v)
    if feas is Feasibility.INFEASIBLE:
        raise InfeasibleError(f"(u, v) = ({u}, {v}) outside the fermi-dirac zonotope")
    if feas is Feasibility.BOUNDARY:
        return _fd_face_solution(p, sigma, u, v)
    alpha, beta, _ = _mb_multipliers(p, sigma, u, v)
    return _dual_newton(Entropy.FERMI_DIRAC, p, sigma, u, v, alpha, beta)
