"""Shared fixtures and independent oracles for the test suite.

The oracles here are deliberately primitive (brute-force sums, integral
brackets, finite differences, grid refinement) and never call the code
paths they check.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from entromin import (
    Arithmetic,
    BudgetError,
    DomainError,
    Entropy,
    InfeasibleError,
    Lattice3D,
    WeightedGeometric,
)

# -- frozen reference constants (computed by the oracles below) -------------

LN2 = math.log(2.0)
ZETA3 = zeta_ref = 1.2020569031595942  # checked against zeta_oracle in tests
ZETA2 = 1.6449340668482264


def zeta_oracle(s: float, n: int = 200_000) -> float:
    """Partial sum plus integral-bracket midpoint for sum k^-s, s > 1."""
    partial = math.fsum(k ** -s for k in range(1, n + 1))
    lo = (n + 1) ** (1.0 - s) / (s - 1.0)
    hi = n ** (1.0 - s) / (s - 1.0)
    return partial + 0.5 * (lo + hi)


def brute_force_series(family, y: float, n_terms: int, moment: int = 0) -> float:
    """Plain partial sum of p_n sigma_n^k exp(sigma_n y)."""
    return math.fsum(
        math.exp(family.log_p(n) + family.sigma(n) * y) * family.sigma(n) ** moment
        for n in range(1, n_terms + 1)
    )


def brute_force_tail(family, y: float, n: int, horizon: int, moment: int = 0) -> tuple[float, bool]:
    """Direct sum of terms n+1 .. n+horizon and whether it visibly converged
    (the last term is negligible against the accumulated sum)."""
    terms = [
        math.exp(family.log_p(k) + family.sigma(k) * y) * family.sigma(k) ** moment
        for k in range(n + 1, n + horizon + 1)
    ]
    total = math.fsum(terms)
    converged = terms[-1] <= 1e-18 * max(total, 1e-300)
    return total, converged


def lattice_triples(limit: int) -> dict[int, int]:
    """Degeneracy table of i^2+j^2+k^2 <= limit by exhaustive enumeration."""
    counts: dict[int, int] = {}
    m = math.isqrt(limit) + 1
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            for k in range(1, m + 1):
                v = i * i + j * j + k * k
                if v <= limit:
                    counts[v] = counts.get(v, 0) + 1
    return counts


# -- objective of an exponential sequence rule ------------------------------


def objective_exponential(kind, rule, tol):
    """Objective of an exponential SequenceRule by its own block-doubling
    sum of p_n W(u_n / p_n), with a tail certificate from the envelope
    W(g(t)) e^-t = (t - 1) + d(t), |d(t)| <= 5 e^t (|t| + 2) past
    t = -ln 3: independent of the dual sums that EmpSolver.objective_value
    reads."""
    fam, x, y = rule.normal
    a = kind.a
    lo, hi = 1, 64
    blocks = []
    while True:
        lt = fam.log_terms(y, lo, hi) + x
        t = x + fam.sigma_array(lo, hi) * y
        q = np.exp(np.minimum(t, 0.0))
        if a == 0:
            ratio = t - 1.0
        elif a == 1:
            small = q < 1e-8
            l1p = np.where(small, 1.0 - 0.5 * q, np.log1p(q) / np.where(small, 1.0, q))
            ratio = (t - np.log1p(q)) / (1.0 + q) - l1p / (1.0 + q)
        else:
            small = q < 1e-8
            m1p = np.where(
                small, -1.0 - 0.5 * q, np.log1p(-q) / np.where(small, 1.0, q)
            )
            ratio = (t - np.log1p(-q)) / (1.0 - q) + m1p / (1.0 - q)
        blocks.append(float((np.exp(lt) * ratio).sum()))
        # past t <= -ln 3: W(g(t)) = e^t [(t - 1) + d(t)] with
        # |d(t)| <= 5 e^t (|t| + 2), so the remaining objective mass is
        # (x-1) T0 + y T1 up to an exponentially small correction
        t_next = x + fam.sigma(hi + 1) * y
        if t_next <= -math.log(3.0):
            t0 = fam.tail_interval(y, hi, 0)
            t1 = fam.tail_interval(y, hi, 1)
            if t0 is not None and t1 is not None:
                ex = math.exp(x)
                q_next = math.exp(t_next)
                halfw = 0.5 * ex * (
                    abs(x - 1.0) * (t0[1] - t0[0]) + abs(y) * (t1[1] - t1[0])
                )
                corr = 5.0 * q_next * ex * ((abs(x) + 2.0) * t0[1] + abs(y) * t1[1])
                if halfw + corr <= 0.5 * tol:
                    tail_mid = ex * (
                        (x - 1.0) * 0.5 * (t0[0] + t0[1])
                        + y * 0.5 * (t1[0] + t1[1])
                    )
                    return math.fsum(blocks) + tail_mid
        if hi >= 2**21:
            raise BudgetError("objective series did not certify its tail")
        lo, hi = hi + 1, 2 * hi


# -- grid-refinement oracle for the finite problem (n <= 4) -----------------


def _w_grid(kind: Entropy, p, cols) -> np.ndarray:
    """Vectorized objective over candidate points; +inf outside dom."""
    total = np.zeros(cols[0].shape)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for pk, uk in zip(p, cols):
            r = uk / pk
            bad = r < 0.0
            if kind is Entropy.FERMI_DIRAC:
                bad |= r > 1.0
            rs = np.clip(r, 1e-300, None)
            if kind is Entropy.MAXWELL_BOLTZMANN:
                w = np.where(r > 0.0, rs * np.log(rs) - r, 0.0)
            elif kind is Entropy.BOSE_EINSTEIN:
                w = np.where(r > 0.0, rs * np.log(rs), 0.0) - (1.0 + np.maximum(r, 0.0)) * np.log1p(np.maximum(r, 0.0))
            else:
                one = np.clip(1.0 - r, 1e-300, None)
                w = np.where(r > 0.0, rs * np.log(rs), 0.0) + np.where(
                    r < 1.0, one * np.log(one), 0.0
                )
            total = total + pk * np.where(bad, np.inf, w)
    return total


def _caps(kind: Entropy, p, u):
    if kind is Entropy.FERMI_DIRAC:
        return [min(pk, u) for pk in p]
    return [u] * len(p)


def _oracle_scan(kind, p, sigma, u, v, grid):
    """Returns (best_value, best_point) over the feasible slice, by gridding
    the free coordinates and solving the two constraints for the rest."""
    n = len(p)
    tol = 1e-9 * max(1.0, abs(u), abs(v))
    if n == 2:
        s1, s2 = sigma
        if s1 != s2:
            u1 = (s2 * u - v) / (s2 - s1)
            u2 = u - u1
            pt = np.array([[u1], [u2]])
            val = _w_grid(kind, p, pt)[0]
            return (val, (u1, u2)) if math.isfinite(val) else (math.inf, None)
        if abs(v - s1 * u) > tol:
            return math.inf, None
        caps = _caps(kind, p, u)
        lo, hi = max(0.0, u - caps[1]), min(u, caps[0])
        best = (math.inf, None)
        for _ in range(6):
            t = np.linspace(lo, hi, grid)
            cols = [t, u - t]
            vals = _w_grid(kind, p, cols)
            j = int(np.argmin(vals))
            if vals[j] < best[0]:
                best = (float(vals[j]), (float(t[j]), float(u - t[j])))
            span = (hi - lo) / (grid - 1)
            lo, hi = max(lo, t[j] - 2 * span), min(hi, t[j] + 2 * span)
        return best

    # eliminate the best-conditioned pair: the widest level gap keeps the
    # feasible band of the remaining grid coordinates thick
    pair = None
    gap = 0.0
    for i_ in range(n):
        for j_ in range(i_ + 1, n):
            if abs(sigma[i_] - sigma[j_]) > gap:
                gap = abs(sigma[i_] - sigma[j_])
                pair = (i_, j_)
    if pair is None or gap == 0.0:
        raise DomainError("oracle requires at least two distinct levels")
    i, j = pair
    free = [k for k in range(n) if k not in pair]
    si, sj = sigma[i], sigma[j]
    det = sj - si
    caps = _caps(kind, p, u)

    if len(free) == 1:
        k = free[0]
        lo, hi = 0.0, caps[k]
        best = (math.inf, None)
        for _ in range(6):
            t = np.linspace(lo, hi, grid)
            ru = u - t
            rv = v - sigma[k] * t
            ui = (sj * ru - rv) / det
            uj = ru - ui
            cols = [None] * n
            cols[i], cols[j], cols[k] = ui, uj, t
            vals = _w_grid(kind, p, cols)
            m = int(np.argmin(vals))
            if vals[m] < best[0]:
                best = (
                    float(vals[m]),
                    tuple(float(c[m]) for c in cols),
                )
            span = (hi - lo) / (grid - 1)
            lo, hi = max(0.0, t[m] - 2 * span), min(caps[k], t[m] + 2 * span)
        return best

    # two free coordinates (n = 4)
    k1, k2 = free
    g = max(16, int(math.isqrt(grid)))
    lo1, hi1, lo2, hi2 = 0.0, caps[k1], 0.0, caps[k2]
    best = (math.inf, None)
    for _ in range(6):
        t1 = np.linspace(lo1, hi1, g)
        t2 = np.linspace(lo2, hi2, g)
        a, b = np.meshgrid(t1, t2, indexing="ij")
        a, b = a.ravel(), b.ravel()
        ru = u - a - b
        rv = v - sigma[k1] * a - sigma[k2] * b
        ui = (sj * ru - rv) / det
        uj = ru - ui
        cols = [None] * n
        cols[i], cols[j], cols[k1], cols[k2] = ui, uj, a, b
        vals = _w_grid(kind, p, cols)
        m = int(np.argmin(vals))
        if vals[m] < best[0]:
            best = (float(vals[m]), tuple(float(c[m]) for c in cols))
        s1_ = (hi1 - lo1) / (g - 1)
        s2_ = (hi2 - lo2) / (g - 1)
        lo1, hi1 = max(0.0, a[m] - 2 * s1_), min(caps[k1], a[m] + 2 * s1_)
        lo2, hi2 = max(0.0, b[m] - 2 * s2_), min(caps[k2], b[m] + 2 * s2_)
    return best


def brute_force_oracle(kind: Entropy, p, sigma, u: float, v: float, grid: int = 400) -> float:
    """Grid-refinement minimum of the finite objective over the feasible
    slice; independent verification oracle for n <= 4."""
    if len(p) > 4:
        raise DomainError("oracle is restricted to n <= 4")
    value, point = _oracle_scan(kind, list(map(float, p)), list(map(float, sigma)), u, v, grid)
    if point is None or not math.isfinite(value):
        raise InfeasibleError("oracle found no feasible grid point")
    return value


@pytest.fixture(scope="session")
def geometric():
    """Unit weights, sigma_n = n."""
    return Arithmetic(0.0, 1.0)


@pytest.fixture(scope="session")
def zeta_family():
    """p_n = e^n / n^3, sigma_n = n: boundary case (c) with finite theta2."""
    return WeightedGeometric(1.0, 3.0)


@pytest.fixture(scope="session")
def case_b_family():
    """p_n = e^n / n^1.5: f(-1) finite but the derivative series diverges."""
    return WeightedGeometric(1.0, 1.5)


@pytest.fixture(scope="session")
def lattice():
    return Lattice3D(1.0)
