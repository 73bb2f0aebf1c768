"""Exact finite-n entropy minimization under one or two moment constraints.

Closed forms where they exist (proportional split under a single
constraint; under two, the maxwell-boltzmann optimum is the Gibbs sequence
u_k = p_k e^(alpha + beta sigma_k)), the damped Newton of
rootfind.minimize_convex_2d on the smooth strictly convex dual for the
bose-einstein and fermi-dirac cases (both started at the maxwell-boltzmann
multipliers), and one greedy fill of the fermi-dirac zonotope (_fd_fill)
for both its envelopes and the solution on the face that feasibility
names.  That Newton (_minimize_dual), on the series kernel's rows
(series._mult_arrays), is also the inverse's proposal.  The Gibbs pass,
one exp of the weights, gives phi_n, Var_n(sigma), ln Z_n and that
optimum: the slope root phi_n(beta) = v/u is rootfind.newton_root on it,
each Newton point rootfind.slope_step's step on ln(phi_n - min sigma), and
so is each solver.EpsilonFamily member (on ln(phi_n - theta1), with the
pass at the family's alpha kept per prefix record).  A value sum_k p_k
W(u_k / p_k) whose ratio u_k / p_k overflows takes that term from
logarithms, and a single-constraint split u p_k / rho whose product u p_k
overflows is u (p_k / rho), with no float warning.

Weights must be finite and positive and levels at most 1e150 in size, so
that Var_n(sigma) does not overflow (DomainError), targets finite
(RangeError); the fermi-dirac zonotope also needs its scale, sum p_k and
max |sigma_k| u, within the float range (DomainError).  A Newton
iteration that does not converge raises NumericalFailureError.  The
tolerances are fixed: the slope root to 1e-12 relative, the dual Newton
to 1e-11 of the constraint scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from . import _work, series
from .entropies import Entropy, entropy_conjugate_derivative, entropy_derivative, entropy_value
from .errors import (
    BudgetError,
    DomainError,
    InfeasibleError,
    NumericalFailureError,
    RangeError,
)
from .rootfind import minimize_convex_2d, newton_root, slope_step

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


def _w_sum(kind: Entropy, p, u_bar, log_p=None) -> float:
    """sum_k p_k W(u_k / p_k), the terms formed in one array and summed by
    math.fsum.  Where u_k / p_k overflows, a maxwell-boltzmann term is
    formed as u_k (ln u_k - ln p_k - 1) and a bose-einstein one as -p_k
    (ln u_k - ln p_k + 1), its value to within a relative 1/r < 1e-308 (a
    fermi-dirac term is +inf there), and a term past the float range is
    +-inf, all of one sign.  Where p_k is +inf (a family's weight past ln
    p_k = 700, SequenceFamily.p_array), the term is its limit as p_k
    grows, u_k (ln u_k - ln p_k - 1) for all three entropies and 0 at u_k
    = 0, formed from ln p_k in log_p, and W(inf) at u_k = inf (-inf under
    bose-einstein, as at a finite weight)."""
    p, u = np.asarray(p, dtype=float), np.asarray(u_bar, dtype=float)
    # invalid: inf p_k times W(0) = 0, replaced below
    with np.errstate(over="ignore", invalid="ignore"):
        r = u / p
        terms = p * entropy_value(kind, r)
        if kind is not Entropy.FERMI_DIRAC:
            big = np.isinf(r) & np.isfinite(u)
            if big.any():
                ln_r = np.log(u[big]) - np.log(p[big])
                mb = kind is Entropy.MAXWELL_BOLTZMANN
                terms[big] = u[big] * (ln_r - 1.0) if mb else -p[big] * (ln_r + 1.0)
        if log_p is not None:
            huge = np.isinf(p)
            uh = u[huge]
            limit = uh * (np.log(np.where(uh > 0.0, uh, 1.0)) - log_p[huge] - 1.0)
            terms[huge] = np.where(uh == math.inf, entropy_value(kind, uh), limit)
    return math.fsum(terms.tolist())


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
    p = _checked(p, np.zeros(np.shape(p)), u=u)[0]  # no levels
    if u < 0.0:
        raise InfeasibleError(f"u must be nonnegative, got {u}")
    if u == 0.0:
        return FiniteSolution((0.0,) * len(p), 0.0, None, BoundaryFlag.ORIGIN)
    rho = math.fsum(p)
    if kind is Entropy.FERMI_DIRAC and u > rho:
        raise InfeasibleError(f"fermi-dirac capacity is rho = {rho} < u = {u}")
    # u p_k / rho <= u, but u p_k overflows where u rho (rho >= p_k) does
    u_bar = tuple((u * p / rho if float(u) * rho < math.inf else u * (p / rho)).tolist())
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
    if _work.on and (work := _work.local.record) is not None:
        work.gibbs_passes += 1
        work.gibbs_terms += len(s)
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


def _slope_root(log_p, s, w, tol, eta1):
    """(t, the _gibbs_pass at t) with |phi_n(t) - w| <= tol, eta1 = min s <
    w < max s: rootfind.newton_root from t = 0 on g = phi_n - w, each
    Newton point rootfind.slope_step's step on ln(phi_n - eta1) with
    phi_n' = Var_n(sigma) from the same pass."""

    def evaluate(t):
        at = _gibbs_pass(log_p, s, t)
        return at[0] - w, t + slope_step(at[0], at[1], w, eta1), at

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
    return _slope_root(np.log(p), s, w, tol, eta1)[0]


# ---------------------------------------------------------------------------
# two constraints, maxwell-boltzmann / bose-einstein


def _edge_solution(kind, p, sigma, u, eta, flag) -> FiniteSolution:
    """v = eta * u forces all mass onto the levels tying eta: the
    single-constraint split over them (solve_single), zero elsewhere."""
    idx = np.flatnonzero(np.abs(sigma - eta) <= 1e-12 * max(1.0, abs(eta)))
    single = solve_single(kind, p[idx], u)
    u_bar = np.zeros(len(p))
    u_bar[idx] = single.u_bar
    return FiniteSolution(tuple(u_bar.tolist()), single.value, None, flag)


def _cone_position(sigma, u, v):
    eta1, eta2 = float(np.minimum.reduce(sigma)), float(np.maximum.reduce(sigma))
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

    alpha, beta, u_bar = _mb_multipliers(p, sigma, u, v, eta1)
    if kind is Entropy.MAXWELL_BOLTZMANN:
        value = _w_sum(kind, p, u_bar)
        flag = BoundaryFlag.INTERIOR_KKT
        return FiniteSolution(tuple(u_bar.tolist()), value, (alpha, beta), flag)
    return _dual_newton(kind, p, sigma, u, v, alpha, beta)


def _mb_multipliers(p, sigma, u, v, eta1):
    """Maxwell-boltzmann multipliers (alpha, beta) of an interior target and
    its optimum u_k = p_k e^(alpha + beta sigma_k), both from the slope
    root's last Gibbs pass (eta1 = min sigma): alpha = ln u - ln Z_n, u_k =
    u e_k / z0.  The multipliers also start the bose-einstein and
    fermi-dirac Newton."""
    w = v / u
    beta, at = _slope_root(np.log(p), sigma, w, 1e-12 * max(1.0, abs(w)), eta1)
    _, _, log_z, e, z0 = at
    return math.log(u) - log_z, beta, u * e / z0


_DUAL_MULTS = ("conj", "grad", "hess")


def _dual_rows(s):
    """(s, powers, span) for _finite_dual: the levels s, the n x 3 rows
    powers = (1, sigma_k, sigma_k^2), read-only, and span = (min s, max s).
    They depend on s alone, so the inverse's proposal keeps them per
    (family, n) (solver._Prefix.rows) and the exact solves build them per
    call."""
    if _work.on and (work := _work.local.record) is not None:
        work.rows_builds += 1
    powers = np.stack((np.ones_like(s), s, s * s), axis=1)
    powers.flags.writeable = False
    return s, powers, (float(np.minimum.reduce(s)), float(np.maximum.reduce(s)))


def _finite_dual(kind, log_p, s, powers, span, x, y):
    """(h, (h_x, h_y), (h_xx, h_xy, h_yy)) of the finite dual sum_k p_k
    W*(x + sigma_k y), ln p_k = log_p, sigma_k = s: the kernel's rows of
    W*, (W*)' and (W*)'' (series._mult_arrays, max t from span = (min s,
    max s)) times powers = (1, sigma_k, sigma_k^2) in one product
    (_dual_rows gives s, powers and span)."""
    t = x + s * y
    lt = log_p + t
    t_hi = x + (span[1] if y > 0.0 else span[0]) * y
    rows = series._mult_arrays(kind, _DUAL_MULTS, t, t_hi, np.exp(lt), lt, log_p)
    (h, _, _), (gu, gv, _), hess = (np.array(list(rows.values())) @ powers).tolist()
    return h, (gu, gv), hess


def _minimize_dual(kind, log_p, rows, u, v, start, scales, tol, in_domain):
    """minimize_convex_2d from start on the finite dual sum_k p_k W*(x +
    sigma_k y) - x u - y v (_finite_dual on rows = _dual_rows(sigma)), each
    point judged at residual norm tol, numpy's float warnings off: the
    finite-dual Newton of _dual_newton, to the float floor, and of the
    inverse's proposal (solver._proposal), which stops at a looser norm and
    takes the last Newton step itself, unevaluated, from the result's
    Hessian."""

    def evaluate(x, y):
        if _work.on and (work := _work.local.record) is not None:
            work.proposal_points += 1
        h, (gu, gv), hess = _finite_dual(kind, log_p, *rows, x, y)
        return h - x * u - y * v, (gu - u, gv - v), hess, tol

    with np.errstate(all="ignore"):
        return minimize_convex_2d(evaluate, in_domain, start, scales)


def _dual_newton(kind, p, sigma, u, v, a0: float, b0: float) -> FiniteSolution:
    """Minimize the dual sum_k p_k W*(a + b sigma_k) - a u - b v from (a0,
    b0), moved into dom W* where needed, to residual 1e-11 of the
    constraint scale, where float noise sits (_minimize_dual).  The optimum
    u_k = p_k (W*)'(a + b sigma_k) is the entropies module's: under
    fermi-dirac it never exceeds p_k."""
    p = np.asarray(p, dtype=float)
    s = np.asarray(sigma, dtype=float)
    bose = kind is Entropy.BOSE_EINSTEIN
    t = a0 + b0 * s
    if bose and t.max() >= 0.0:
        a0 -= t.max() + 1.0
    res = _minimize_dual(
        kind, np.log(p), _dual_rows(s), u, v, (a0, b0), (max(1.0, u), max(1.0, abs(v))), 1e-11,
        lambda a, b: not bose or (a + b * s).max() < 0.0,
    )
    if not res.converged:
        name = kind.name.lower().replace("_", "-")
        raise NumericalFailureError(f"{name} dual Newton: {res.message}")
    a, b = res.point
    u_bar = p * entropy_conjugate_derivative(kind, a + b * s)
    value = _w_sum(kind, p, u_bar)
    return FiniteSolution(tuple(u_bar.tolist()), value, res.point, BoundaryFlag.INTERIOR_KKT)


# ---------------------------------------------------------------------------
# fermi-dirac: zonotope feasibility and two-constraint solve


def _fd_fill(p, s, u: float):
    """(order, take, (vmin, vmax)): the greedy fills of mass u (Dantzig's
    fractional knapsack) that trace the lower and upper envelopes.  Row 0
    of order is the stable ascending sort of sigma, row 1 its reverse, and
    each level takes min(p_k, what remains before it); sequential
    accumulates round as a level-by-level loop does."""
    up = s.argsort(kind="stable")
    order = np.array((up, up[::-1]))
    caps = p[order]
    left = np.empty_like(caps)  # u, then the p_k to subtract from it
    left[:, 0], left[:, 1:] = u, caps[:, :-1]
    take = np.minimum(np.maximum(np.subtract.accumulate(left, axis=1), 0.0), caps)
    v = np.add.accumulate(s[order] * take, axis=1)[:, -1] + 0.0  # summed from 0.0: no -0.0
    return order, take, tuple(v.tolist())


def _fd_position(p, s, u: float, v: float):
    """(Feasibility, face) of (u, v) in the zonotope sum_k [0, p_k] (1,
    sigma_k), within atol = 1e-12 of its scale.  A BOUNDARY target with u >
    0 lies within atol of an envelope, and face = (order, take, lower) is
    that envelope's fill (_fd_fill), the lower one when both are that near;
    face is None otherwise.  DomainError where the scale passes the float
    range: every target would then lie within atol of an envelope."""
    with np.errstate(over="ignore"):
        rho = float(np.add.reduce(p))
    reach = float(np.maximum.reduce(np.abs(s))) * max(1.0, abs(u))  # max |sigma| u
    scale = max(1.0, abs(u), abs(v), rho, reach)
    if scale == math.inf:
        raise DomainError("fermi-dirac: the weights' sum or max |sigma| u passes the float range")
    atol = 1e-12 * scale
    if u < -atol or u > rho + atol:
        return Feasibility.INFEASIBLE, None
    if u <= 0.0:  # here the envelopes' interval can invert
        return (Feasibility.BOUNDARY if abs(v) <= atol else Feasibility.INFEASIBLE), None
    # the envelopes hold up to u = rho: at u = rho - d, v may lie anywhere
    # from v_full - d max sigma to v_full - d min sigma, v_full = sum sigma p,
    # which can be far wider than atol
    order, take, (vmin, vmax) = _fd_fill(p, s, u)
    if v < vmin - atol or v > vmax + atol:
        return Feasibility.INFEASIBLE, None
    lower = v <= vmin + atol
    if lower or v >= vmax - atol:  # the face that is near, the lower if both are
        row = 0 if lower else 1
        return Feasibility.BOUNDARY, (order[row], take[row], lower)
    return Feasibility.INTERIOR, None  # vmin < v < vmax strictly, kinks included


def fd_feasible(p, sigma, u: float, v: float) -> Feasibility:
    """Membership of (u, v) in the zonotope sum_k [0, p_k] (1, sigma_k)."""
    return _fd_position(*_checked(p, sigma, u=u, v=v), u, v)[0]


def _fd_face_solution(p, s, order, take, lower: bool) -> FiniteSolution:
    """Exact solution on the face that the fill (order, take) traces: every
    level the fill passes is full, and the marginal tie group, the levels
    sharing the sigma of the first level left below its p_k, takes the
    proportional split of its mass (solve_single)."""
    u_bar = np.empty_like(p)
    u_bar[order] = take
    short = np.flatnonzero(take < p[order])
    if short.size:
        ties = np.flatnonzero(s[order] == s[order[short[0]]])
        group = order[ties]
        u_bar[group] = solve_single(Entropy.FERMI_DIRAC, p[group], math.fsum(take[ties])).u_bar
    value = _w_sum(Entropy.FERMI_DIRAC, p, u_bar)
    flag = BoundaryFlag.LOWER_EDGE if lower else BoundaryFlag.UPPER_EDGE
    return FiniteSolution(tuple(u_bar.tolist()), value, None, flag)


def solve_two_fd(p, sigma, u: float, v: float) -> FiniteSolution:
    """Two-constraint fermi-dirac solve: Newton on the dual when (u, v) is
    interior to the zonotope (NumericalFailureError when it does not
    converge), exact greedy-face solution on its boundary, and the origin
    where it is BOUNDARY with u <= 0."""
    p, sigma = _checked(p, sigma, u=u, v=v)
    feas, face = _fd_position(p, sigma, u, v)
    if feas is Feasibility.INFEASIBLE:
        raise InfeasibleError(f"(u, v) = ({u}, {v}) outside the fermi-dirac zonotope")
    if feas is Feasibility.BOUNDARY:
        if face is None:
            return FiniteSolution((0.0,) * len(p), 0.0, None, BoundaryFlag.ORIGIN)
        return _fd_face_solution(p, sigma, *face)
    alpha, beta, _ = _mb_multipliers(p, sigma, u, v, float(np.minimum.reduce(sigma)))
    return _dual_newton(Entropy.FERMI_DIRAC, p, sigma, u, v, alpha, beta)
