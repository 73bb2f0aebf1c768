"""Shared fixtures and independent oracles for the test suite.

The oracles here are deliberately primitive (brute-force sums, integral
brackets, finite differences, grid refinement) and never call the code
paths they check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest

from entromin import (
    Arithmetic,
    BudgetError,
    DomainError,
    Entropy,
    ExplicitPrefix,
    ExplosiveWeights,
    InfeasibleError,
    Lattice3D,
    LogLevels,
    PowerLaw,
    ShiftedSigma,
    UnsupportedFamilyError,
    WeightedGeometric,
)
from entromin import finite, sequences, series, specfile
from entromin.sequences import sigma_min_set

# -- term access by index (what the families' arrays must agree with) --------


def generate(family, n: int) -> tuple[float, float]:
    """The n-th (p, sigma) pair, n >= 1."""
    if n < 1 or n != int(n):
        raise DomainError(f"term index must be a positive integer, got {n}")
    return family.p(n), family.sigma(n)


@dataclass(frozen=True)
class PrefixStats:
    """Partial weight sum and running level extrema over the first n terms."""

    n: int
    rho_n: float
    eta1_n: float
    eta2_n: float


def prefix_stats(family, n: int) -> PrefixStats:
    """Exact partial weight sum and running level extrema."""
    if n < 1:
        raise DomainError("n must be >= 1")
    weights = family.p_array(1, n).tolist()
    sigmas = family.sigma_array(1, n).tolist()
    return PrefixStats(n, math.fsum(weights), min(sigmas), max(sigmas))


# -- helpers the library does not call ---------------------------------------
# Moved out of entromin unchanged: only the tests use them.


def eval_f_derivatives(family, y: float, tol: float = 1e-12) -> tuple[float, float, float]:
    """(f, f', f'') at y < -alpha, each within tol."""
    a = family.alpha
    if not y < -a:
        raise DomainError(f"derivatives need y < -alpha = {-a}, got {y}")
    with np.errstate(over="ignore"):
        r = series._eval_moments(family, y, {(None, 0): tol, (None, 1): tol, (None, 2): tol})
    return r[0].value, r[1].value, r[2].value


@dataclass(frozen=True)
class HalfLine:
    """The vertical half-line {u} x [v_min, inf) in the (u, v) plane."""

    u: float
    v_min: float


def boundary_subdifferential(family, kind, x: float, tol: float = 1e-10):
    """The subdifferential of h_W at (x, -alpha): a vertical half-line when
    the gradient series converges there (case c), the empty set (None) when
    it diverges (case b); precondition error when -alpha is outside dom f."""
    prof = series.profile(family)
    if prof.alpha <= 0.0:
        raise DomainError("boundary subdifferential needs alpha > 0")
    if prof.boundary_case is series.BoundaryCase.OPEN_A:
        raise DomainError("(x, -alpha) is outside dom h in boundary case (a)")
    if kind is Entropy.BOSE_EINSTEIN and x - prof.theta1 * prof.alpha >= 0.0:
        raise DomainError("(x, -alpha) outside dom h_BE")
    if prof.boundary_case is series.BoundaryCase.CLOSED_GAMMA_INFINITE_B:
        return None
    u, v = series.grad_h(family, kind, x, -prof.alpha, tol)
    return HalfLine(u, v)


@dataclass(frozen=True)
class FiniteProblem:
    """A finite instance; v = None selects the single-constraint problem."""

    kind: Entropy
    p: tuple[float, ...]
    sigma: tuple[float, ...]
    u: float
    v: Optional[float] = None

    def __post_init__(self):
        finite._checked(self.p, self.sigma, u=self.u, v=self.v)

    def solve(self):
        if self.v is None:
            return finite.solve_single(self.kind, self.p, self.u)
        if self.kind is Entropy.FERMI_DIRAC:
            return finite.solve_two_fd(self.p, self.sigma, self.u, self.v)
        return finite.solve_two_mb_be(self.kind, self.p, self.sigma, self.u, self.v)


def serialize_spec(spec) -> str:
    """The spec file text of a ProblemSpec, floats by repr."""
    out = ["[family]", f"name = {spec.family_name}"]
    for key, value in spec.family_params:
        out.append(f"{key} = {value}")
    out += ["", "[problem]", f"entropy = {spec.entropy}", f"mode = {spec.mode}"]
    if spec.mode == "sweep":
        for key, value in zip(specfile._GRID_KEYS, spec.grid):
            out.append(f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}")
    elif spec.mode == "forward":
        out.append(f"x = {spec.x!r}")
        out.append(f"y = {spec.y!r}")
    elif spec.mode in ("solve", "classify"):
        out.append(f"u = {spec.u!r}")
        out.append(f"v = {spec.v!r}")
    out += ["", "[tolerances]", f"tol = {spec.tol!r}", f"epsilon = {spec.epsilon!r}", ""]
    return "\n".join(out)


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
    log_p = family.log_terms(0.0, 1, n_terms).tolist()
    sigma = family.sigma_array(1, n_terms).tolist()
    return math.fsum(math.exp(lp + s * y) * s**moment for lp, s in zip(log_p, sigma))


def brute_force_tail(family, y: float, n: int, horizon: int, moment: int = 0) -> tuple[float, bool]:
    """Direct sum of terms n+1 .. n+horizon and whether it visibly converged
    (the last term is negligible against the accumulated sum)."""
    log_p = family.log_terms(0.0, n + 1, n + horizon).tolist()
    sigma = family.sigma_array(n + 1, n + horizon).tolist()
    terms = [math.exp(lp + s * y) * s**moment for lp, s in zip(log_p, sigma)]
    total = math.fsum(terms)
    converged = terms[-1] <= 1e-18 * max(total, 1e-300)
    return total, converged


def tail_bound(family, y: float, n: int):
    """Ratio-test upper bound on sum_{m > n} p_m exp(sigma_m y), or None if
    the family certifies no tail ratio at this index: the ratio route of
    tail_interval on its own, checked against brute-force tails in
    tests/test_sequences.py."""
    try:
        a = family.alpha
    except UnsupportedFamilyError as exc:
        raise DomainError("family has no dom-f endpoint; normalize first") from exc
    if not y < -a:
        raise DomainError(f"tail bound requires y < -alpha = {-a}, got {y}")
    r = family.tail_ratio(y, n, 0)
    if r is None or r >= 1.0:
        return None
    term_n = math.exp(family.log_p(n) + family.sigma(n) * y)
    return term_n * r / (1.0 - r)


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


# -- scalar reference entropies --------------------------------------------
# One float at a time with the math module's libm functions: the
# entropies before they became elementwise on arrays, kept as the reference
# that tests/test_entropies.py compares the numpy bodies against.

_EXP_OVERFLOW = 709.0


def _ref_xlogx(u: float) -> float:
    return 0.0 if u == 0.0 else u * math.log(u)


def ref_entropy_value(kind: Entropy, u: float) -> float:
    if u < 0.0 or math.isnan(u):
        return math.inf
    if kind is Entropy.MAXWELL_BOLTZMANN:
        return math.inf if math.isinf(u) else _ref_xlogx(u) - u
    if kind is Entropy.BOSE_EINSTEIN:
        if math.isinf(u):
            return -math.inf
        if u <= 1.0:
            return _ref_xlogx(u) - (1.0 + u) * math.log1p(u)
        return -math.log1p(u) - u * math.log1p(1.0 / u)
    if u > 1.0:
        return math.inf
    # (1-u) ln(1-u) as (1-u) log1p(-u), which keeps its -u where 1-u rounds to 1
    return _ref_xlogx(u) + (0.0 if u == 1.0 else (1.0 - u) * math.log1p(-u))


def ref_entropy_conjugate(kind: Entropy, t: float) -> float:
    if kind is Entropy.MAXWELL_BOLTZMANN:
        return math.inf if t > _EXP_OVERFLOW else math.exp(t)
    if kind is Entropy.FERMI_DIRAC:
        if t > 0.0:
            return t + math.log1p(math.exp(-t))
        return math.log1p(math.exp(t))
    if t >= 0.0:
        return math.inf
    z = math.exp(t)
    if z >= 1.0:
        return math.inf
    return -math.log1p(-z)


def ref_entropy_conjugate_derivative(kind: Entropy, t: float) -> float:
    """Raises OverflowError for bose-einstein at t below about -709.78,
    where expm1(-t) overflows."""
    if kind is Entropy.MAXWELL_BOLTZMANN:
        return math.inf if t > _EXP_OVERFLOW else math.exp(t)
    if kind is Entropy.FERMI_DIRAC:
        if t >= 0.0:
            return 1.0 / (1.0 + math.exp(-t))
        z = math.exp(t)
        return z / (1.0 + z)
    if t >= 0.0:
        raise DomainError(f"bose-einstein conjugate requires t < 0, got {t}")
    return 1.0 / math.expm1(-t)


def ref_entropy_derivative(kind: Entropy, u: float) -> float:
    if kind is Entropy.MAXWELL_BOLTZMANN:
        if u <= 0.0:
            raise DomainError(f"maxwell-boltzmann derivative requires u > 0, got {u}")
        return math.log(u)
    if kind is Entropy.BOSE_EINSTEIN:
        if u <= 0.0:
            raise DomainError(f"bose-einstein derivative requires u > 0, got {u}")
        return math.log(u) - math.log1p(u)
    if not 0.0 < u < 1.0:
        raise DomainError(f"fermi-dirac derivative requires 0 < u < 1, got {u}")
    return math.log(u) - math.log1p(-u)


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


# -- reference summation kernel ---------------------------------------------
# series._eval_many as it was when every block of a pass built its own term
# arrays and took one tail_interval bracket per moment: the block-doubling
# loop that the one-walk, one-array-pass kernel must reproduce bit for bit
# (tests/test_series.py).

from entromin.errors import RangeError  # noqa: E402
from entromin.series import (  # noqa: E402
    _MB,
    _ONE_ARRAY,
    _TERM_BUDGET,
    _START_BLOCK,
    _UNIT,
    _add_reduce,
    _log,
    _mult_arrays,
    _mult_bounds,
    SeriesEval,
)


def ref_eval_many(family, y, tols, x=0.0, kind=_MB, ceiling=1.0):
    """Certified sums of p_n sigma_n^k m(t_n) exp(t_n), t_n = x + sigma_n y,
    one SeriesEval per key (m, k) of `tols`, in its order, from the one
    certified block-doubling loop, stopped when every tail bracket is
    narrower than its sum's tolerance.  m = None, and every m under
    maxwell-boltzmann, is the unit multiplier: the moments of f are the x = 0
    case.  Otherwise m(t) e^t is (W*)(t), (W*)' or (W*)'' as m is 'conj',
    'grad' or 'hess', so h_W, its gradient and its Hessian can share one
    pass.  Per block the terms are exponentiated once, their multiplier rows
    built once from z = e^t (_mult_arrays, bounded by the block's largest
    t), and the f-tail bracket taken once per moment from
    family.tail_interval, the one bracket source (at y = -alpha it is the
    boundary bracket); each sum widens it by exp(x) and its multiplier's
    bounds over the tail (_mult_bounds), which unit sums at x = 0 skip.

    When a certified width shrinks too slowly to reach its tolerance within
    the term budget even at cubic decay, the block is judged again with
    every tolerance times the ceiling, and a pass that stops there logs it;
    BudgetError when that is out of reach too (at once under ceiling 1).
    """
    try:
        ex = math.exp(x)
        if ex == math.inf:  # x = +inf: math.exp returns inf without raising
            raise OverflowError
    except OverflowError:
        raise RangeError(f"x={x} is too large: exp(x) overflows") from None
    mults = () if kind is _MB else tuple(dict.fromkeys(m for m, _ in tols if m is not None))
    scaled = bool(x) or bool(mults)
    weighted, bounds = {}, {}
    sums = [[] for _ in tols]
    asked = None  # the tolerances asked for, once they rose to the ceiling
    lo, hi = 1, _START_BLOCK
    while True:
        logt = family.log_terms(y, lo, hi)
        sig = family.sigma_array(lo, hi)
        lt = logt + x if x else logt
        base = np.exp(lt)
        if mults:
            t_next = x + family.sigma(hi + 1) * y
            if kind is Entropy.BOSE_EINSTEIN and t_next >= 0.0:
                raise DomainError("bose-einstein dual needs x + sigma_n y < 0 on the tail")
            t = x + sig * y
            weighted = _mult_arrays(kind, mults, t, float(t.max()), base, lt)
            bounds = _mult_bounds(kind, t_next)
        for acc, (m, k) in zip(sums, tols):
            block = weighted.get(m, base)
            if k == 1:
                block = block * sig
            elif k:
                block = block * sig**k
            acc.append(float(_add_reduce(block)))
        while True:  # judged again once the tolerances rise to the ceiling
            brackets, ivs = [], {}
            for (m, k), tol in tols.items():
                if k in ivs:
                    iv = ivs[k]
                else:
                    iv = ivs[k] = family.tail_interval(y, hi, k)
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
                        brackets = None  # judge this block again
                    break
                brackets.append(iv)
            else:
                out = []
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
        lo, hi = hi + 1, min(2 * hi, _TERM_BUDGET)


# finite._gibbs_pass as it was before it reduced with the ufuncs and
# exponentiated in place: the floats the slimmed pass must reproduce bit for
# bit (tests/test_finite.py).


def ref_gibbs_pass(log_p, s, t):
    """phi_n(t), Var_n(sigma), ln Z_n(t), the weights e over their largest
    and their sum z0, for the weights exp(log_p + s t)."""
    lw = log_p + s * t
    m = lw.max()
    e = np.exp(lw - m)
    z0 = e.sum()
    se = s * e
    phi = float(se.sum() / z0)
    var = float((s * se).sum() / z0) - phi * phi
    return phi, var, float(m) + math.log(float(z0)), e, float(z0)


# series._mult_arrays' W* row as it was before its small-z guard became one
# clip: 1 -+ z/2 in place of ln(1 +- z) / z wherever z = e^t < 1e-8, through a
# mask.  The clipped row must reproduce it bit for bit where z >= 1e-8 and
# where z < 2^-53 (tests/test_series.py).


def ref_conj_row(kind, t, base):
    """base W*(t) / e^t for t < 0: base ln(1 + z) / z under fermi-dirac and
    base -ln(1 - z) / z under bose-einstein, 1 - e^t as -expm1(t) where
    t > -ln 2."""
    fermi = kind is Entropy.FERMI_DIRAC
    z = np.exp(t)
    den = 1.0 + z if fermi else 1.0 - z
    near = None
    if not fermi and float(t.max()) > -LN2:
        near = t > -LN2
        den = np.where(near, -np.expm1(t), den)
    small = z < 1e-8
    ln_den = np.log1p(z if fermi else -z)
    if near is not None:
        ln_den = np.where(near, np.log(den), ln_den)
    ratio = (ln_den if fermi else -ln_den) / np.where(small, 1.0, z)
    return base * np.where(small, 1.0 - 0.5 * z if fermi else 1.0 + 0.5 * z, ratio)


# series._block_sums as it was before one block of rows held every sum of a
# pass: a loop over the sums, each row built on its own (levels from
# sigma_array) and reduced per block, the model's rows after it.  The block
# layout must reproduce its partials, higher moments and top bit for bit
# (tests/test_series.py).


def ref_block_sums(family, y, tols, x, kind, mults, n, model=0):
    """(sums, higher, top).  Per sum of `tols`, its partials over the blocks
    1-64, 65-128, ... up to n: one array of terms up to min(n, 4096), each
    partial from a slice (none when n = 64), then one array per block.  With
    `model` > 0, higher holds the partial sums of moments 3 to model - 1
    (the last sum's row times sigma, sigma^2, ...) and top the largest
    level summed; else () and 0."""
    sums = [[] for _ in tols]
    higher, top = [0.0] * (model - 3) if model else (), 0.0
    t_hi = x + sigma_min_set(family).theta1 * y if mults and y <= 0.0 else None
    lo, hi = 1, n if n < _ONE_ARRAY else _ONE_ARRAY
    while True:
        logt = family.log_terms(y, lo, hi)
        sig = family.sigma_array(lo, hi)
        lt = logt + x if x else logt
        base = np.exp(lt)
        weighted = {}
        if mults:
            t = x + sig * y
            bound = t_hi if t_hi is not None else float(np.maximum.reduce(t))
            weighted = _mult_arrays(kind, mults, t, bound, base, lt)
        cuts = None
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
        if model:
            for j in range(model - 3):
                block = block * sig
                higher[j] += float(_add_reduce(block))
            top = max(top, float(sig[-1] if family.sigma_increasing_from <= lo else sig.max()))
        if hi == n:
            return sums, higher, top
        lo, hi = hi + 1, 2 * hi


# The families' term formulas as they were before each family kept a table of
# its y-free arrays: sigma_array and log_terms built per call.  The tables
# must reproduce them bit for bit (tests/test_sequences.py).


def ref_sigma_array(family, lo, hi):
    """sigma_n for n in [lo, hi], from the family's own formula."""
    k = np.arange(lo, hi + 1, dtype=float)
    if isinstance(family, Arithmetic):
        return family.offset + family.slope * k
    if isinstance(family, PowerLaw):
        return family.scale * k**family.exponent
    if isinstance(family, LogLevels):
        return family.scale * np.log(k + 1.0)
    if isinstance(family, (WeightedGeometric, ExplosiveWeights)):
        return k
    if isinstance(family, Lattice3D):
        return family.scale * sequences._lattice(hi)[0][lo - 1 : hi]
    if isinstance(family, ShiftedSigma):
        return ref_sigma_array(family.base, lo, hi) - family.shift
    if isinstance(family, ExplicitPrefix):
        return _ref_joined(family, lambda w, s: s, ref_sigma_array, lo, hi)
    raise TypeError(family)


def ref_log_terms(family, y, lo, hi):
    """ln p_n + sigma_n y for n in [lo, hi], from the family's own formula."""
    k = np.arange(lo, hi + 1, dtype=float)
    if isinstance(family, (Arithmetic, PowerLaw, LogLevels)):
        return ref_sigma_array(family, lo, hi) * y
    if isinstance(family, WeightedGeometric):
        return (family.rate + y) * k - family.power * np.log(k)
    if isinstance(family, ExplosiveWeights):
        return family.rate * k * k + k * y
    if isinstance(family, Lattice3D):
        values, _, ln_degeneracy = sequences._lattice(hi)
        return ln_degeneracy[lo - 1 : hi] + family.scale * values[lo - 1 : hi] * y
    if isinstance(family, ShiftedSigma):
        if y == -math.inf:
            return np.full(hi - lo + 1, -math.inf)
        return ref_log_terms(family.base, y, lo, hi) - family.shift * y
    if isinstance(family, ExplicitPrefix):
        def tail(f, lo, hi):
            return ref_log_terms(f, y, lo, hi)

        return _ref_joined(family, lambda w, s: np.log(w) + s * y, tail, lo, hi)
    raise TypeError(family)


def _ref_joined(family, head, tail, lo, hi):
    m = len(family.weights)
    if lo > m:
        return tail(family.tail, lo, hi)
    w, s = (np.array(v[lo - 1 : hi], dtype=float) for v in (family.weights, family.levels))
    return head(w, s) if hi <= m else np.concatenate((head(w, s), tail(family.tail, m + 1, hi)))


# series._Ladder.bracket as it was when each ladder entry was a least-recently
# used cache entry per (family, tol, k, ceiling): the gallop whose brackets,
# and whose set of computed entries, the ladder table must reproduce
# (tests/test_series.py).


def ref_ladder_bracket(entry, w):
    """(inner, outer): the ladder entries nearest w on either side, entry(k)
    returning the slope at k or None where it raises (k = 0 must not): a
    gallop outward from k = 0, then a bisection."""
    lo_k, hi_k = -48, 24
    inner_k, inner = 0, entry(0)
    d = 1 if inner.phi > w else -1

    def beyond(e):
        return e.phi <= w if d > 0 else e.phi >= w

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


# finite's fermi-dirac zonotope code as it was before one array fill served
# both envelopes and the face solution: the level-by-level greedy loops that
# the fill must reproduce, its envelopes bit for bit (tests/test_finite.py).


def ref_envelope_v(p, sigma, u: float, lower: bool) -> float:
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


def ref_fd_face(p, sigma, u: float, lower: bool) -> list[float]:
    """u_bar on the lower (upper) face at first coordinate u: the greedy fill
    is forced up to the marginal slope group, which takes the proportional
    split."""
    p, sigma = list(map(float, p)), list(map(float, sigma))
    n = len(p)
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
    return u_bar
