"""Output oracles for the benchmark.

None of these go through `entromin.series`: weights and levels are rebuilt
here from each family's definition, series are brute-force partial sums run
until the last term is negligible (in the style of tests/conftest.py), and
slopes are inverted by plain bisection on the truncated sums.  Constants of
slowly converging series come from reference.json (mpmath, see
make_reference.py).

Each check returns None when the output is right and a one-line reason when
it is not.  Tolerances are the ones the Tier-1 tests use for the same
quantity:

* MB value, closed form or reference:      1e-9  (acceptance 1 and 2)
* moment sums of a returned sequence:      1e-10 (acceptance 1)
* the same with integral-bracket tails:    1e-6  (test_solver, upper boundary)
* epsilon-family member constraints:       1e-10 / 1e-9, objective 1e-10
* LogLevels value:                         1e-6  (TestSlowlySpacedLevels)
* BE/FD multiplier round trip:             1e-8  (acceptance 5)

Absolute tolerances are scaled by max(1, |quantity|) for targets away from
the unit scale the tests use.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache
from pathlib import Path

import numpy as np

REFERENCE = json.loads(Path(__file__).with_name("reference.json").read_text())
_WG = REFERENCE["weighted_geometric_1_3"]
ZETA3 = float(_WG["zeta3"])
THETA2_WG = float(_WG["theta2"])
LOGLEVELS_CONJ = {
    row["multiple"]: float(row["lnf_conjugate"]) for row in REFERENCE["loglevels_1"]
}

TOL_VALUE = 1e-9
TOL_MOMENTS = 1e-10
TOL_MOMENTS_TAIL = 1e-6
TOL_EPS_U, TOL_EPS_V, TOL_EPS_OBJ = 1e-10, 1e-9, 1e-10
TOL_LOGLEVELS = 1e-6
TOL_MULTIPLIERS = 1e-8
REGION_RTOL = 1e-12

_NEGLIGIBLE = 1e-20  # last (moment-2) term against the sum: truncation is safe
_N_MAX = 2**21


# -- family data rebuilt from definitions -------------------------------------


@lru_cache(maxsize=None)
def _lattice_table(count: int):
    """First `count` distinct values of i^2+j^2+k^2 (i, j, k >= 1) with their
    degeneracies, by exhaustive enumeration of a cube large enough to hold
    them."""
    limit = 64
    while True:
        m = math.isqrt(limit) + 1
        sq = np.arange(1, m + 1) ** 2
        sums = (sq[:, None, None] + sq[None, :, None] + sq[None, None, :]).ravel()
        counts = np.bincount(sums[sums <= limit], minlength=limit + 1)
        values = np.nonzero(counts)[0]
        if len(values) >= count:
            return values[:count].astype(float), counts[values[:count]].astype(float)
        limit *= 2


@lru_cache(maxsize=64)
def family_arrays(spec: tuple, n: int):
    """(ln p_n, sigma_n) for n = 1..n of a family given as (name, *params)."""
    k = np.arange(1, n + 1, dtype=float)
    name = spec[0]
    if name == "arithmetic":
        offset, slope = spec[1:]
        return np.zeros(n), offset + slope * k
    if name == "weighted-geometric":
        rate, power = spec[1:]
        return rate * k - power * np.log(k), k
    if name == "lattice3d":
        (scale,) = spec[1:]
        values, deg = _lattice_table(n)
        return np.log(deg), scale * values
    if name == "powerlaw":
        scale, exponent = spec[1:]
        return np.zeros(n), scale * k**exponent
    if name == "loglevels":
        (scale,) = spec[1:]
        return np.zeros(n), scale * np.log(k + 1.0)
    raise ValueError(f"no oracle data for family {name!r}")


def theta1(spec: tuple) -> float:
    """The lowest level, sigma_1, of every family here."""
    return float(family_arrays(spec, 1)[1][0])


def theta2(spec: tuple) -> float:
    if spec == ("weighted-geometric", 1.0, 3.0):
        return THETA2_WG
    if spec[0] == "weighted-geometric":
        raise ValueError("theta2 is stored for WeightedGeometric(1, 3) only")
    return math.inf


def expected_region(spec: tuple, u: float, v: float) -> str:
    w = v / u
    t1, t2 = theta1(spec), theta2(spec)
    if abs(w - t1) <= REGION_RTOL * max(1.0, abs(t1)):
        return "lower-boundary"
    if w < t1:
        return "below-cone"
    if math.isfinite(t2):
        if abs(w - t2) <= REGION_RTOL * t2:
            return "upper-boundary-theta2"
        if w > t2:
            return "beyond-theta2"
    return "interior"


# -- brute-force sums ----------------------------------------------------------


def _weights(spec, y, x=0.0, n=256):
    """exp(x + ln p_n + sigma_n y) over a prefix long enough that the last
    second-moment term is negligible; returns (terms, sigma)."""
    while True:
        logp, sig = family_arrays(spec, n)
        terms = np.exp(x + logp + sig * y)
        t2 = terms * sig * sig
        total = t2.sum()
        if total > 0.0 and t2[-1] <= _NEGLIGIBLE * total:
            return terms, sig
        if n >= _N_MAX:
            raise ValueError(f"brute-force sum not converged by n={n} at y={y}")
        n *= 2


def _phi(spec, y, n=256):
    terms, sig = _weights(spec, y, n=n)
    return float(np.sum(sig * terms) / np.sum(terms)), len(terms)


def reference_multipliers(spec: tuple, u: float, w: float) -> tuple[float, float]:
    """(x, y) of the MB optimum at slope w in (theta1, theta2), by bisection
    on the brute-force slope f'/f, which increases in y; x = ln u - ln f(y)."""
    # dom f ends at y = -alpha: alpha = rate for the weighted-geometric
    # family and 0 for the others this oracle serves
    a = spec[1] if spec[0] == "weighted-geometric" else 0.0
    gap = 1.0
    if _phi(spec, -a - gap)[0] >= w:
        while _phi(spec, -a - 2.0 * gap)[0] >= w:
            gap *= 2.0
        lo, hi = -a - 2.0 * gap, -a - gap
    else:
        while True:
            gap *= 0.5
            if gap < 1e-4:
                raise ValueError(f"slope {w} too close to the end of dom f for the oracle")
            if _phi(spec, -a - gap)[0] >= w:
                lo, hi = -a - 2.0 * gap, -a - gap
                break
    # terms decay slowest at the right end: its prefix serves the whole bracket
    n = _phi(spec, hi)[1]
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if _phi(spec, mid, n)[0] < w:
            lo = mid
        else:
            hi = mid
    terms, _ = _weights(spec, lo, n=n)
    return math.log(u) - math.log(math.fsum(terms)), lo


def reference_value(spec: tuple, u: float, v: float) -> float:
    """H(u, v) for the maxwell-boltzmann entropy, without entromin.series."""
    region = expected_region(spec, u, v)
    if region == "below-cone":
        return math.inf
    if region == "lower-boundary":
        # all mass on n = 1, the only index at theta1
        return u * (math.log(u) - 1.0 - float(family_arrays(spec, 1)[0][0]))
    if region in ("upper-boundary-theta2", "beyond-theta2"):
        # x = ln(u / f(-alpha)), H = (x - 1) u - alpha v with alpha = 1
        return (math.log(u / ZETA3) - 1.0) * u - v
    w = v / u
    if spec == ("arithmetic", 0.0, 1.0):
        return u * math.log(u) - u + u * (w * math.log(1.0 - 1.0 / w) - math.log(w - 1.0))
    if spec == ("loglevels", 1.0):
        multiple = round(w / math.log(2.0), 9)
        if multiple not in LOGLEVELS_CONJ:
            raise ValueError(f"no LogLevels reference at slope {w}")
        return u * math.log(u) - u + u * LOGLEVELS_CONJ[multiple]
    x, y = reference_multipliers(spec, u, w)
    return (x - 1.0) * u + y * v


# -- checks ----------------------------------------------------------------------


def _close(got, want, tol, what):
    if got == want:  # also covers matching infinities
        return None
    if not (abs(got - want) <= tol * max(1.0, abs(want))):
        return f"{what} {got!r} vs oracle {want!r} (tol {tol:g})"
    return None


def check_value(spec, u, v, region, value):
    """Region and H(u, v) against the oracle."""
    want_region = expected_region(spec, u, v)
    if region != want_region:
        return f"region {region} vs oracle {want_region}"
    tol = TOL_LOGLEVELS if spec[0] == "loglevels" else TOL_VALUE
    return _close(value, reference_value(spec, u, v), tol, "value")


def check_exponential_sequence(spec, sol):
    """Brute-force two-moment sums of u_n = p_n exp(x + sigma_n y) from the
    returned multipliers, and the first returned terms against them."""
    x, y = sol.multipliers
    head = [sol.solution.term(n) for n in range(1, 21)]
    logp, sig = family_arrays(spec, 20)
    for n, got in enumerate(head, start=1):
        want = math.exp(x + logp[n - 1] + sig[n - 1] * y)
        if not abs(got - want) <= 1e-12 * max(1.0, want):
            return f"term {n} {got!r} vs exp(x + ln p + sigma y) {want!r}"
    if sol.region.value == "upper-boundary-theta2":
        return _check_boundary_moments(sol.u, sol.v, x)
    terms, sig = _weights(spec, y, x)
    return _close(math.fsum(terms), sol.u, TOL_MOMENTS, "sum u_n") or _close(
        math.fsum(sig * terms), sol.v, TOL_MOMENTS, "sum sigma_n u_n"
    )


def _check_boundary_moments(u, v, x, n_end=4000):
    """WeightedGeometric(1, 3) at y = -1: terms e^x n^-3, whose zeta tails
    are added as integral-bracket midpoints."""
    k = np.arange(1, n_end + 1, dtype=float)
    terms = math.exp(x) * k**-3.0
    ex = math.exp(x)
    first = math.fsum(terms) + ex * 0.25 * (n_end**-2.0 + (n_end + 1) ** -2.0)
    second = math.fsum(k * terms) + ex * 0.5 * (n_end**-1.0 + (n_end + 1) ** -1.0)
    return _close(first, u, TOL_MOMENTS_TAIL, "sum u_n") or _close(
        second, v, TOL_MOMENTS_TAIL, "sum sigma_n u_n"
    )


def check_restricted_sequence(spec, sol):
    """Lower boundary: all mass on n = 1 (test_solver: 1e-13)."""
    if not abs(sol.solution.term(1) - sol.u) <= 1e-13 * max(1.0, sol.u):
        return f"lower-boundary term 1 is {sol.solution.term(1)!r}, not u = {sol.u!r}"
    if any(sol.solution.term(n) != 0.0 for n in (2, 3)):
        return "lower-boundary sequence has mass beyond n = 1"
    return None


def check_epsilon_member(spec, u, v, value, member):
    """An epsilon-family member matches both constraints exactly, its stated
    objective is its brute-force objective, and it is within 1e-3 of H."""
    terms = np.asarray(member.terms)
    logp, sig = family_arrays(spec, len(terms))
    obj = math.fsum(terms * (np.log(terms) - logp - 1.0))
    return (
        _close(math.fsum(terms), u, TOL_EPS_U, "member sum u_n")
        or _close(math.fsum(sig * terms), v, TOL_EPS_V, "member sum sigma_n u_n")
        or _close(member.objective, obj, TOL_EPS_OBJ, "member objective")
        or (None if abs(member.objective - value) <= 1e-3 else "member objective gap > 1e-3")
    )


def check_multipliers(got, want):
    err = max(abs(got[0] - want[0]), abs(got[1] - want[1]))
    if not err <= TOL_MULTIPLIERS:
        return f"multipliers {got} vs {want}: error {err:.2e} > {TOL_MULTIPLIERS:g}"
    return None
