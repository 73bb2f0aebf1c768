"""Weight/level sequence families with certified series-tail machinery.

A family is a finitely described generator of weights p_n (positive, with
sum p_n = inf) and levels sigma_n, n >= 1.  Everything the series layer
proves about f(y) = sum p_n exp(sigma_n y) rests on per-family certificates
declared here:

  * ``tail_ratio``      -- a ratio-test constant r < 1 valid for the whole
                           tail beyond an index, from monotonicity metadata;
  * ``tail_interval``   -- closed-form two-sided tail brackets (exact
                           geometric sums, integral tests, block-doubling
                           majorants);
  * ``boundary_bracket`` / ``boundary_divergent`` -- summability of the
                           weighted series at the domain endpoint y = -alpha.

A bound is returned only when the family's structure proves it; otherwise
the methods return None and callers must enlarge the truncation or reject.
Families are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError, DomainError, UnsupportedFamilyError

__all__ = [
    "SequenceFamily",
    "Arithmetic",
    "PowerLaw",
    "LogLevels",
    "WeightedGeometric",
    "Lattice3D",
    "ExplicitPrefix",
    "ExplosiveWeights",
    "ShiftedSigma",
    "PrefixStats",
    "SigmaMinSet",
    "generate",
    "lattice_levels",
    "prefix_stats",
    "sigma_min_set",
    "tail_bound",
    "flipped",
]

_PREFIX_SCAN = 64  # documented construction-time validity scan length


# ---------------------------------------------------------------------------
# result records


@dataclass(frozen=True)
class PrefixStats:
    """Partial weight sum and running level extrema over the first n terms."""

    n: int
    rho_n: float
    eta1_n: float
    eta2_n: float


@dataclass(frozen=True)
class SigmaMinSet:
    """The minimum level theta1, the indices attaining it, and their weight."""

    theta1: float
    indices: tuple[int, ...]
    p_sum: float


# ---------------------------------------------------------------------------
# base class


@dataclass(frozen=True)
class SequenceFamily:
    """Deterministic generator of (p_n, sigma_n); subclasses add parameters."""

    # -- term access --------------------------------------------------------

    def p(self, n: int) -> float:
        raise NotImplementedError

    def sigma(self, n: int) -> float:
        raise NotImplementedError

    def log_p(self, n: int) -> float:
        """ln(p_n); override where p_n overflows a float."""
        return math.log(self.p(n))

    def sigma_array(self, lo: int, hi: int) -> np.ndarray:
        """sigma_n for n in [lo, hi] inclusive."""
        return np.array([self.sigma(n) for n in range(lo, hi + 1)], dtype=float)

    def log_terms(self, y: float, lo: int, hi: int) -> np.ndarray:
        """ln(p_n) + sigma_n * y for n in [lo, hi], overflow-free."""
        logp = np.array([self.log_p(n) for n in range(lo, hi + 1)])
        return logp + self.sigma_array(lo, hi) * y

    # -- analytic metadata ---------------------------------------------------

    @property
    def alpha(self) -> float:
        """Endpoint of dom f: f is finite on (-inf, -alpha).  Only defined
        when sigma_n -> +inf; +inf when dom f is empty."""
        raise NotImplementedError

    @property
    def sigma_direction(self) -> int:
        """+1 if sigma_n -> inf, -1 if -> -inf, 0 if constant."""
        return +1

    @property
    def constant_sigma(self) -> bool:
        return False

    @property
    def dom_f_empty(self) -> bool:
        return False

    @property
    def sigma_increasing_from(self) -> int:
        """Index from which sigma is nondecreasing onward."""
        return 1

    @property
    def analytic_theta1(self) -> Optional[float]:
        return None

    # -- tail certificates ----------------------------------------------------
    # Tail of order (N, k):  T = sum_{n > N} p_n sigma_n^k exp(sigma_n y).

    def tail_ratio(self, y: float, n: int, moment: int = 0) -> Optional[float]:
        """Certified r >= sup_{m >= n} t_{m+1}/t_m for the moment-k terms,
        or None when the family cannot certify one."""
        return None

    def _direct_interval(self, y, n, moment):
        return None

    def boundary_bracket(self, n: int, moment: int = 0):
        """(lo, hi) bracket of the tail at y = -alpha, or None."""
        return None

    def boundary_divergent(self, moment: int = 0) -> Optional[bool]:
        """True/False when (non)summability at y = -alpha is certified."""
        return None

    def tail_interval(self, y: float, n: int, moment: int = 0):
        """Best available (lo, hi) bracket of the (N=n, k=moment) tail.

        Combines the ratio route, the family's closed forms, boundary
        domination for y <= -alpha, and moment absorption into the plain
        tail at a shifted ordinate.  None when nothing is certified.
        """
        los, his = [0.0], []
        r = self.tail_ratio(y, n, moment)
        if r is not None and r < 1.0:
            t_n = self._term(y, n, moment)
            his.append(t_n * r / (1.0 - r))
            los.append(self._term(y, n + 1, moment))
        direct = self._direct_interval(y, n, moment)
        if direct is not None:
            los.append(direct[0])
            his.append(direct[1])
        try:
            a = self.alpha
        except (NotImplementedError, UnsupportedFamilyError):
            a = None
        if a is not None and math.isfinite(a) and y <= -a:
            bb = self.boundary_bracket(n, moment)
            if bb is not None:
                # p sigma^k exp(sigma y) <= p sigma^k exp(-sigma alpha)
                his.append(bb[1])
                if y == -a:  # the bracket is two-sided exactly at the endpoint
                    los.append(bb[0])
        if not his and moment > 0 and a is not None and math.isfinite(a) and y < -a:
            # absorb sigma^k <= (k/(e eps))^k exp(eps sigma), sigma > 0;
            # the best eps trades the constant against the slower base tail,
            # scaling like 1/sigma for slowly spaced levels, so try a ladder
            gap = -a - y
            s_next = self.sigma(n + 1)
            ladder = {0.5 * gap, 0.125 * gap, 0.03125 * gap}
            if s_next > 0.0:
                ladder.add(min(0.5 * gap, 1.0 / s_next))
            found = False
            for eps in ladder:
                if eps <= 0.0:
                    continue
                base = self.tail_interval(y + eps, n, 0)
                if base is not None:
                    c = (moment / (math.e * eps)) ** moment
                    his.append(c * base[1])
                    found = True
            if found:
                los.append(self._term(y, n + 1, moment))
        if not his:
            return None
        hi = min(his)
        return min(max(los), hi), hi

    def _term(self, y, n, moment):
        s = self.sigma(n)
        if moment > 0 and s <= 0.0:
            return 0.0  # conservative for lower bounds only
        t = self.log_p(n) + s * y
        v = math.exp(t) if t < 700.0 else math.inf
        return v * s**moment


# ---------------------------------------------------------------------------
# concrete families


@dataclass(frozen=True)
class Arithmetic(SequenceFamily):
    """Unit weights, sigma_n = offset + slope * n.

    slope > 0 is the standard case; slope = 0 is the degenerate
    constant-level family; slope < 0 is accepted and normalized by the
    solver via a sign flip.
    """

    offset: float = 0.0
    slope: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.offset) and math.isfinite(self.slope)):
            raise ConfigurationError("arithmetic family needs finite offset/slope")

    def p(self, n):
        return 1.0

    def sigma(self, n):
        return self.offset + self.slope * n

    def sigma_array(self, lo, hi):
        return self.offset + self.slope * np.arange(lo, hi + 1, dtype=float)

    def log_terms(self, y, lo, hi):
        return self.sigma_array(lo, hi) * y

    @property
    def alpha(self):
        if self.slope > 0.0:
            return 0.0
        if self.slope == 0.0:
            return math.inf  # f(y) = exp(offset*y) * sum 1 diverges everywhere
        raise UnsupportedFamilyError("sigma -> -inf; normalize by sign flip first")

    @property
    def sigma_direction(self):
        return 0 if self.slope == 0.0 else (1 if self.slope > 0.0 else -1)

    @property
    def constant_sigma(self):
        return self.slope == 0.0

    @property
    def dom_f_empty(self):
        return self.slope == 0.0

    @property
    def analytic_theta1(self):
        return self.offset + self.slope if self.slope > 0.0 else None

    def tail_ratio(self, y, n, moment=0):
        if self.slope <= 0.0 or y >= 0.0:
            return None
        r = math.exp(self.slope * y)
        if moment > 0:
            s_n = self.sigma(n)
            if s_n <= 0.0:
                return None
            # (sigma_{m+1}/sigma_m)^k is decreasing in m for sigma > 0
            r *= (self.sigma(n + 1) / s_n) ** moment
        return r if r < 1.0 else None

    def _direct_interval(self, y, n, moment):
        # exact geometric moment tails
        if self.slope <= 0.0 or y >= 0.0:
            return None
        if moment > 0 and self.sigma(n + 1) <= 0.0:
            return None
        rho = math.exp(self.slope * y)
        if rho >= 1.0:  # slope*y underflowed to zero
            return None
        try:
            amp = math.exp(self.offset * y)
        except OverflowError:  # no certificate from this route
            return None
        s0 = rho ** (n + 1) / (1.0 - rho)
        if moment == 0:
            t = amp * s0
            return t, t
        s1 = rho ** (n + 1) * ((n + 1) - n * rho) / (1.0 - rho) ** 2
        a, b = self.offset, self.slope
        if moment == 1:
            t = amp * (a * s0 + b * s1)
            return t, t
        if moment == 2:
            s2 = (
                rho ** (n + 1)
                * ((n + 1) ** 2 - (2 * n * n + 2 * n - 1) * rho + n * n * rho * rho)
                / (1.0 - rho) ** 3
            )
            t = amp * (a * a * s0 + 2 * a * b * s1 + b * b * s2)
            return t, t
        return None

    def boundary_divergent(self, moment=0):
        # alpha = 0 and p_n = 1: terms do not vanish at y = 0
        return True if self.slope > 0.0 else None


def _block_doubling_tail(term_log, sigma, y, n, budget=64):
    """Upper bound on sum_{m > n} exp(term_log(m)) for terms nonincreasing in m
    whose level gaps sigma(2m+1) - sigma(m+1) are nondecreasing in m.

    Covers block (m, 2m] by m * t(m+1); once the certified block ratio
    2 exp((sigma(2m+1) - sigma(m+1)) y) drops to 1/2 the remaining blocks sum
    below twice the current one.
    """
    total = 0.0
    m = n
    for _ in range(budget):
        t = math.exp(term_log(m + 1))
        block = m * t
        ratio = 2.0 * math.exp((sigma(2 * m + 1) - sigma(m + 1)) * y)
        if ratio <= 0.5:
            return total + 2.0 * block
        total += block
        m *= 2
    return None


@dataclass(frozen=True)
class PowerLaw(SequenceFamily):
    """Unit weights, sigma_n = scale * n**exponent (scale > 0, exponent > 0)."""

    scale: float = 1.0
    exponent: float = 1.0

    def __post_init__(self):
        if self.exponent <= 0.0 or not math.isfinite(self.exponent):
            raise ConfigurationError("power-law exponent must be positive")
        if self.scale == 0.0 or not math.isfinite(self.scale):
            raise ConfigurationError("power-law scale must be nonzero finite")

    def p(self, n):
        return 1.0

    def sigma(self, n):
        return self.scale * float(n) ** self.exponent

    def sigma_array(self, lo, hi):
        return self.scale * np.arange(lo, hi + 1, dtype=float) ** self.exponent

    def log_terms(self, y, lo, hi):
        return self.sigma_array(lo, hi) * y

    @property
    def alpha(self):
        if self.scale > 0.0:
            return 0.0
        raise UnsupportedFamilyError("sigma -> -inf; normalize by sign flip first")

    @property
    def sigma_direction(self):
        return 1 if self.scale > 0.0 else -1

    @property
    def analytic_theta1(self):
        return self.scale if self.scale > 0.0 else None

    def tail_ratio(self, y, n, moment=0):
        if self.scale <= 0.0 or y >= 0.0 or self.exponent < 1.0:
            return None
        # gap is nondecreasing for exponent >= 1: infimum sits at m = n
        gap = self.sigma(n + 1) - self.sigma(n)
        r = math.exp(gap * y)
        if moment > 0:
            r *= ((n + 1) / n) ** (self.exponent * moment)
        return r if r < 1.0 else None

    def _direct_interval(self, y, n, moment):
        if self.scale <= 0.0 or y >= 0.0 or moment != 0:
            return None
        hi = _block_doubling_tail(lambda m: self.sigma(m) * y, self.sigma, y, n)
        return None if hi is None else (0.0, hi)

    def boundary_divergent(self, moment=0):
        return True if self.scale > 0.0 else None


@dataclass(frozen=True)
class LogLevels(SequenceFamily):
    """Unit weights, sigma_n = scale * ln(n+1); dom f endpoint alpha = 1/scale."""

    scale: float = 1.0

    def __post_init__(self):
        if self.scale == 0.0 or not math.isfinite(self.scale):
            raise ConfigurationError("log-levels scale must be nonzero finite")

    def p(self, n):
        return 1.0

    def sigma(self, n):
        return self.scale * math.log(n + 1.0)

    def sigma_array(self, lo, hi):
        return self.scale * np.log(np.arange(lo, hi + 1, dtype=float) + 1.0)

    def log_terms(self, y, lo, hi):
        return self.sigma_array(lo, hi) * y

    @property
    def alpha(self):
        if self.scale > 0.0:
            return 1.0 / self.scale
        raise UnsupportedFamilyError("sigma -> -inf; normalize by sign flip first")

    @property
    def sigma_direction(self):
        return 1 if self.scale > 0.0 else -1

    @property
    def analytic_theta1(self):
        return self.scale * math.log(2.0) if self.scale > 0.0 else None

    def _direct_interval(self, y, n, moment):
        # integral test on ln^k(w) w^(scale*y), w = x+1, which is elementary
        # for k <= 2 and decreasing once ln w > k/(-scale*y)
        if self.scale <= 0.0 or moment > 2:
            return None
        e = self.scale * y
        if e >= -1.0:
            return None
        m = -(e + 1.0)
        if moment > 0 and math.log(n + 1.0) <= moment / (-e):
            return None  # terms not yet decreasing at this index

        def integral(w):
            lw = math.log(w)
            if moment == 0:
                tail = 1.0 / m
            elif moment == 1:
                tail = lw / m + 1.0 / (m * m)
            else:
                tail = lw * lw / m + 2.0 * lw / (m * m) + 2.0 / (m**3)
            return self.scale**moment * w ** (e + 1.0) * tail

        return integral(n + 2.0), integral(n + 1.0)

    def boundary_divergent(self, moment=0):
        # at y = -alpha the terms are sigma^k/(n+1): harmonic or worse
        return True if self.scale > 0.0 else None


@dataclass(frozen=True)
class WeightedGeometric(SequenceFamily):
    """p_n = exp(rate*n)/n**power with sigma_n = n (rate > 0).

    The dom-f endpoint is alpha = rate; boundary summability is governed by
    power: power > k+1 makes the k-th boundary moment a zeta-type tail.
    """

    rate: float = 1.0
    power: float = 3.0

    def __post_init__(self):
        if self.rate <= 0.0 or not math.isfinite(self.rate):
            raise ConfigurationError("weighted-geometric rate must be positive")
        if not math.isfinite(self.power):
            raise ConfigurationError("weighted-geometric power must be finite")

    def p(self, n):
        t = self.rate * n - self.power * math.log(n)
        return math.exp(t) if t < 700.0 else math.inf

    def sigma(self, n):
        return float(n)

    def log_p(self, n):
        return self.rate * n - self.power * math.log(n)

    def sigma_array(self, lo, hi):
        return np.arange(lo, hi + 1, dtype=float)

    def log_terms(self, y, lo, hi):
        k = np.arange(lo, hi + 1, dtype=float)
        return (self.rate + y) * k - self.power * np.log(k)

    @property
    def alpha(self):
        return self.rate

    @property
    def analytic_theta1(self):
        return 1.0

    def tail_ratio(self, y, n, moment=0):
        r = math.exp(self.rate + y)
        e = moment - self.power
        if e > 0.0:
            r *= ((n + 1) / n) ** e  # sup over the tail sits at m = n
        return r if r < 1.0 else None

    def boundary_bracket(self, n, moment=0):
        # terms n^(moment - power): zeta-type integral-test bracket
        e = moment - self.power
        if e >= -1.0:
            return None
        c = -e - 1.0
        return (n + 1.0) ** (e + 1.0) / c, float(n) ** (e + 1.0) / c

    def boundary_divergent(self, moment=0):
        return moment - self.power >= -1.0


# -- 3-d isotropic lattice ---------------------------------------------------


class _LatticeTable:
    """Distinct values of i^2+j^2+k^2 over positive triples, with
    degeneracies, extended on demand; completeness of each prefix follows
    from enumerating all triples with sum <= L.

    The table is one read-only (values, degeneracy, ln degeneracy) triple of
    arrays that a rebuild replaces in a single assignment, so a reader that
    takes it once slices consistent arrays while another thread extends it.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._limit = 0
        self._table = (np.zeros(0), np.zeros(0, dtype=np.int64), np.zeros(0))

    def ensure(self, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The table, holding at least `count` levels."""
        table = self._table
        if len(table[0]) >= count:
            return table
        with self._lock:
            limit = max(self._limit, 16)
            while len(self._table[0]) < count:
                limit *= 2
                self._rebuild(limit)
            return self._table

    def _rebuild(self, limit: int) -> None:
        m = math.isqrt(limit) + 1
        sq = np.arange(1, m + 1) ** 2
        sums = (sq[:, None, None] + sq[None, :, None] + sq[None, None, :]).ravel()
        sums = sums[sums <= limit]
        counts = np.bincount(sums, minlength=limit + 1)
        values = np.nonzero(counts)[0]
        degeneracy = counts[values]
        table = (values.astype(float), degeneracy, np.log(degeneracy.astype(float)))
        for arr in table:
            arr.flags.writeable = False
        self._table = table
        self._limit = limit

    def level(self, n: int) -> tuple[int, int]:
        values, degeneracy, _ = self.ensure(n)
        return int(degeneracy[n - 1]), int(values[n - 1])


_LATTICE_TABLE = _LatticeTable()


@dataclass(frozen=True)
class Lattice3D(SequenceFamily):
    """Cubic-box level sequence: sigma_n = scale * (n_x^2+n_y^2+n_z^2) over
    the distinct values, p_n = the number of positive triples attaining it."""

    scale: float = 1.0

    def __post_init__(self):
        if self.scale <= 0.0 or not math.isfinite(self.scale):
            raise ConfigurationError("lattice scale must be positive")

    def p(self, n):
        deg, _ = _LATTICE_TABLE.level(n)
        return float(deg)

    def sigma(self, n):
        _, val = _LATTICE_TABLE.level(n)
        return self.scale * val

    def sigma_array(self, lo, hi):
        values = _LATTICE_TABLE.ensure(hi)[0]
        return self.scale * values[lo - 1 : hi]

    def log_terms(self, y, lo, hi):
        values, _, ln_degeneracy = _LATTICE_TABLE.ensure(hi)
        return ln_degeneracy[lo - 1 : hi] + self.scale * values[lo - 1 : hi] * y

    @property
    def alpha(self):
        return 0.0

    @property
    def analytic_theta1(self):
        return 3.0 * self.scale

    def _direct_interval(self, y, n, moment):
        if y >= 0.0:
            return None
        # degeneracy of value S is at most S (each admissible (i,j) fixes k),
        # so the tail is below scale^k * sum_{S > V} S^(k+1) rho^S
        _, v = _LATTICE_TABLE.level(n)
        rho_log = self.scale * y
        m = moment + 1
        eps = -0.5 * rho_log
        try:
            c = (m / (math.e * eps)) ** m
            q = math.exp(rho_log + eps)  # = exp(scale*y/2) < 1
            hi = self.scale**moment * c * q ** (v + 1) / (1.0 - q)
        except (ZeroDivisionError, OverflowError):
            return 0.0, math.inf  # y so near 0 that eps or 1 - q rounds to 0
        return 0.0, hi

    def boundary_divergent(self, moment=0):
        return True


@dataclass(frozen=True)
class ExplosiveWeights(SequenceFamily):
    """p_n = exp(rate*n^2), sigma_n = n: certified dom f = empty (the terms
    p_n e^{n y} exceed 1 once n >= -y/rate, for every real y)."""

    rate: float = 1.0

    def __post_init__(self):
        if self.rate <= 0.0 or not math.isfinite(self.rate):
            raise ConfigurationError("explosive rate must be positive")

    def p(self, n):
        t = self.rate * n * n
        return math.exp(t) if t < 700.0 else math.inf

    def sigma(self, n):
        return float(n)

    def log_p(self, n):
        return self.rate * n * n

    def log_terms(self, y, lo, hi):
        k = np.arange(lo, hi + 1, dtype=float)
        return self.rate * k * k + k * y

    @property
    def alpha(self):
        return math.inf

    @property
    def dom_f_empty(self):
        return True

    @property
    def analytic_theta1(self):
        return 1.0


@dataclass(frozen=True)
class ExplicitPrefix(SequenceFamily):
    """Explicit first m terms followed by a closed-form tail family.

    Explicit weights must satisfy the standing hypothesis p_n >= 1; the
    tail family is validated on its own terms.
    """

    weights: tuple[float, ...]
    levels: tuple[float, ...]
    tail: SequenceFamily

    def __post_init__(self):
        if len(self.weights) != len(self.levels) or not self.weights:
            raise ConfigurationError("explicit prefix needs equal-length nonempty p/sigma")
        for w in self.weights:
            if not (math.isfinite(w) and w >= 1.0):
                raise ConfigurationError(f"explicit weight {w} violates p_n >= 1")
        for s in self.levels:
            if not math.isfinite(s):
                raise ConfigurationError("explicit levels must be finite")
        if self.tail.constant_sigma:
            c = self.tail.sigma(len(self.weights) + 1)
            if any(s != c for s in self.levels):
                raise UnsupportedFamilyError(
                    "constant tail with differing prefix levels is neither "
                    "constant nor divergent to infinity"
                )

    @property
    def _m(self):
        return len(self.weights)

    def p(self, n):
        return self.weights[n - 1] if n <= self._m else self.tail.p(n)

    def sigma(self, n):
        return self.levels[n - 1] if n <= self._m else self.tail.sigma(n)

    def log_p(self, n):
        return math.log(self.weights[n - 1]) if n <= self._m else self.tail.log_p(n)

    @property
    def alpha(self):
        return self.tail.alpha

    @property
    def sigma_direction(self):
        return self.tail.sigma_direction

    @property
    def constant_sigma(self):
        return self.tail.constant_sigma  # prefix equality enforced above

    @property
    def dom_f_empty(self):
        return self.tail.dom_f_empty

    @property
    def sigma_increasing_from(self):
        return max(self._m + 1, self.tail.sigma_increasing_from)

    def tail_ratio(self, y, n, moment=0):
        return self.tail.tail_ratio(y, n, moment) if n >= self._m else None

    def _direct_interval(self, y, n, moment):
        return self.tail._direct_interval(y, n, moment) if n >= self._m else None

    def boundary_bracket(self, n, moment=0):
        return self.tail.boundary_bracket(n, moment) if n >= self._m else None

    def boundary_divergent(self, moment=0):
        return self.tail.boundary_divergent(moment)


@dataclass(frozen=True)
class ShiftedSigma(SequenceFamily):
    """sigma_n - shift with unchanged weights; tails rescale by exp(-shift*y).

    Used by the solver to normalize min sigma to a positive value; `shift`
    must lie strictly below every level of the base family.
    """

    base: SequenceFamily
    shift: float

    def __post_init__(self):
        if not math.isfinite(self.shift):
            raise ConfigurationError("shift must be finite")
        scan = max(_PREFIX_SCAN, self.base.sigma_increasing_from + 1)
        low = min(self.base.sigma(n) for n in range(1, scan + 1))
        if self.shift >= low:
            raise ConfigurationError(f"shift {self.shift} not below min sigma {low}")

    def p(self, n):
        return self.base.p(n)

    def sigma(self, n):
        return self.base.sigma(n) - self.shift

    def log_p(self, n):
        return self.base.log_p(n)

    def sigma_array(self, lo, hi):
        return self.base.sigma_array(lo, hi) - self.shift

    def log_terms(self, y, lo, hi):
        return self.base.log_terms(y, lo, hi) - self.shift * y

    @property
    def alpha(self):
        return self.base.alpha

    @property
    def sigma_direction(self):
        return self.base.sigma_direction

    @property
    def constant_sigma(self):
        return self.base.constant_sigma

    @property
    def dom_f_empty(self):
        return self.base.dom_f_empty

    @property
    def sigma_increasing_from(self):
        return self.base.sigma_increasing_from

    @property
    def analytic_theta1(self):
        t = self.base.analytic_theta1
        return None if t is None else t - self.shift

    def tail_ratio(self, y, n, moment=0):
        if moment == 0:
            return self.base.tail_ratio(y, n, 0)  # gaps are shift-invariant
        return None

    def _direct_interval(self, y, n, moment):
        if moment != 0:
            return None
        base = self.base._direct_interval(y, n, 0)
        if base is None:
            return None
        s = math.exp(-self.shift * y)
        return base[0] * s, base[1] * s

    def boundary_bracket(self, n, moment=0):
        a = self.base.alpha
        if not math.isfinite(a):
            return None
        s = math.exp(self.shift * a)
        b0 = self.base.boundary_bracket(n, 0)
        if moment == 0:
            return None if b0 is None else (b0[0] * s, b0[1] * s)
        if moment == 1:
            b1 = self.base.boundary_bracket(n, 1)
            if b0 is None or b1 is None:
                return None
            # interval arithmetic for (sigma - shift) = sigma^1 - shift*sigma^0
            if self.shift >= 0.0:
                lo, hi = b1[0] - self.shift * b0[1], b1[1] - self.shift * b0[0]
            else:
                lo, hi = b1[0] - self.shift * b0[0], b1[1] - self.shift * b0[1]
            return max(lo, 0.0), hi
        return None

    def boundary_divergent(self, moment=0):
        return self.base.boundary_divergent(moment)


def flipped(family: SequenceFamily) -> SequenceFamily:
    """The family with sigma_n replaced by -sigma_n, normalizing levels that
    decrease to -inf; only parametric families can flip."""
    if isinstance(family, Arithmetic):
        return Arithmetic(-family.offset, -family.slope)
    if isinstance(family, PowerLaw):
        return PowerLaw(-family.scale, family.exponent)
    if isinstance(family, LogLevels):
        return LogLevels(-family.scale)
    if isinstance(family, ExplicitPrefix):
        return ExplicitPrefix(
            family.weights,
            tuple(-s for s in family.levels),
            flipped(family.tail),
        )
    raise UnsupportedFamilyError(f"cannot flip levels of {type(family).__name__}")


# ---------------------------------------------------------------------------
# module operations


def generate(family: SequenceFamily, n: int) -> tuple[float, float]:
    """The n-th (p, sigma) pair, n >= 1."""
    if n < 1 or n != int(n):
        raise DomainError(f"term index must be a positive integer, got {n}")
    return family.p(n), family.sigma(n)


def lattice_levels(scale: float, count: int) -> list[tuple[int, float]]:
    """First `count` distinct 3-d lattice levels scale*(nx^2+ny^2+nz^2),
    ascending, each with its degeneracy."""
    if count < 1:
        raise DomainError("count must be >= 1")
    if scale <= 0.0:
        raise DomainError("scale must be positive")
    values, degeneracy, _ = _LATTICE_TABLE.ensure(count)
    return list(zip(degeneracy[:count].tolist(), (scale * values[:count]).tolist()))


def prefix_stats(family: SequenceFamily, n: int) -> PrefixStats:
    """Exact partial weight sum and running level extrema."""
    if n < 1:
        raise DomainError("n must be >= 1")
    weights = [family.p(k) for k in range(1, n + 1)]
    sigmas = [family.sigma(k) for k in range(1, n + 1)]
    return PrefixStats(n, math.fsum(weights), min(sigmas), max(sigmas))


def sigma_min_set(family: SequenceFamily, tie_tol: float = 1e-12) -> SigmaMinSet:
    """theta1 = min sigma_n with its attaining index set, found by scanning
    until the nondecreasing tail guarantees sigma_n > theta1 + tie_tol."""
    if family.sigma_direction != +1:
        raise UnsupportedFamilyError(
            "sigma must increase to infinity (normalize the family first)"
        )
    n0 = family.sigma_increasing_from
    head = [family.sigma(k) for k in range(1, n0 + 1)]
    theta1 = min(head)
    tol = tie_tol * max(1.0, abs(theta1))
    indices = [k + 1 for k, s in enumerate(head) if s <= theta1 + tol]
    n = n0 + 1
    while True:
        s = family.sigma(n)
        if s > theta1 + tol:
            break
        indices.append(n)
        n += 1
        if n > n0 + 10_000_000:
            raise UnsupportedFamilyError("level tie scan did not terminate")
    p_sum = math.fsum(family.p(k) for k in indices)
    return SigmaMinSet(theta1, tuple(indices), p_sum)


def tail_bound(family: SequenceFamily, y: float, n: int) -> Optional[float]:
    """Ratio-test upper bound on sum_{m > n} p_m exp(sigma_m y), or None if
    the family certifies no tail ratio at this index."""
    try:
        a = family.alpha
    except (NotImplementedError, UnsupportedFamilyError) as exc:
        raise DomainError("family has no dom-f endpoint; normalize first") from exc
    if not y < -a:
        raise DomainError(f"tail bound requires y < -alpha = {-a}, got {y}")
    r = family.tail_ratio(y, n, 0)
    if r is None or r >= 1.0:
        return None
    term_n = math.exp(family.log_p(n) + family.sigma(n) * y)
    return term_n * r / (1.0 - r)
