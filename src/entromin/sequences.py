"""Weight/level sequence families with certified series-tail machinery.

A family is a finitely described generator of weights p_n (positive, with
sum p_n = inf) and levels sigma_n, n >= 1.  Everything the series layer
proves about f(y) = sum p_n exp(sigma_n y) rests on what a family declares:

  * its terms: ``p`` and ``sigma`` (``log_p``, ``p_array``,
    ``sigma_array`` and ``log_terms`` where faster or overflow-free);
  * ``alpha``, the endpoint of dom f: f is finite on (-inf, -alpha), and
    alpha = +inf when dom f is empty; levels falling to -inf have none, and
    an undeclared alpha raises UnsupportedFamilyError;
  * ``sigma_direction`` when the levels do not tend to +inf, and
    ``sigma_increasing_from`` when they are not nondecreasing from n = 1;
  * its tail certificates, three in a leaf family: ``tail_ratio`` (a
    ratio-test constant r < 1 for the whole tail beyond an index),
    ``_direct_intervals``, the one closed-form hook (brackets for all asked
    moments from one call: exact geometric sums, integral tests, ratio and
    block-doubling majorants, and zeta-type tails at and beyond the
    endpoint y = -alpha) and ``boundary_divergent`` (summability there).

The base class derives the rest: ``constant_sigma`` is sigma_direction 0,
``dom_f_empty`` is alpha = +inf for levels not falling to -inf, and
``tail_intervals``, the brackets the series layer reads (all moments at one
index from one call; ``tail_interval`` is its one-moment view), combines a
leaf family's certificates (moments k >= 1 need positive levels).  A
wrapper (ExplicitPrefix, ShiftedSigma) declares ``tail_intervals`` from its
base's whole brackets (a shift falls back on the combiner where that has
none), and passes ``tail_ratio`` on where it holds.
theta1 = min sigma_n comes from ``sigma_min_set``, cached per family; the
attainment cone and degenerate cases follow from alpha and theta1.

A bound is returned only when the family's structure proves it; otherwise
the methods return None and callers must enlarge the truncation or reject.
Families are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import functools
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
    "SigmaMinSet",
    "lattice_levels",
    "sigma_min_set",
    "flipped",
]

_PREFIX_SCAN = 64  # documented construction-time validity scan length


# ---------------------------------------------------------------------------
# result records


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
    """Deterministic generator of (p_n, sigma_n); subclasses add parameters
    and declare what the module docstring lists.  constant_sigma and
    dom_f_empty are derived here from sigma_direction and alpha, and are
    not overridden."""

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

    def p_array(self, lo: int, hi: int) -> np.ndarray:
        """p_n for n in [lo, hi] inclusive, the floats p gives."""
        return np.array([self.p(n) for n in range(lo, hi + 1)], dtype=float)

    def log_terms(self, y: float, lo: int, hi: int) -> np.ndarray:
        """ln(p_n) + sigma_n * y for n in [lo, hi], overflow-free."""
        logp = np.array([self.log_p(n) for n in range(lo, hi + 1)])
        return logp + self.sigma_array(lo, hi) * y

    # -- analytic metadata ---------------------------------------------------

    @property
    def alpha(self) -> float:
        """Endpoint of dom f: f is finite on (-inf, -alpha).  Only defined
        when sigma_n does not tend to -inf; +inf when dom f is empty."""
        raise UnsupportedFamilyError("family has no dom-f endpoint; normalize it first")

    @property
    def sigma_direction(self) -> int:
        """+1 if sigma_n -> inf, -1 if -> -inf, 0 if constant."""
        return +1

    @property
    def constant_sigma(self) -> bool:
        return self.sigma_direction == 0

    @property
    def dom_f_empty(self) -> bool:
        return self.sigma_direction != -1 and self.alpha == math.inf

    @property
    def sigma_increasing_from(self) -> int:
        """Index from which sigma is nondecreasing onward."""
        return 1

    # -- tail certificates ----------------------------------------------------
    # Tail of order (N, k):  T = sum_{n > N} p_n sigma_n^k exp(sigma_n y).

    def tail_ratio(self, y: float, n: int, moment: int = 0) -> Optional[float]:
        """Certified r >= sup_{m >= n} t_{m+1}/t_m for the moment-k terms,
        or None when the family cannot certify one."""
        return None

    def _direct_intervals(self, y, n, moments):
        """Closed-form (lo, hi) brackets of the (N=n, k) tails, one per k in
        `moments` (None where there is none): a family with closed forms
        overrides this, taking pieces its moments share once."""
        return [None] * len(moments)

    def boundary_divergent(self, moment: int = 0) -> Optional[bool]:
        """True/False when (non)summability at y = -alpha is certified."""
        return None

    def tail_interval(self, y: float, n: int, moment: int = 0):
        """Best available (lo, hi) bracket of the (N=n, k=moment) tail, or
        None: the one-moment view of tail_intervals."""
        return self.tail_intervals(y, n, (moment,))[0]

    def tail_intervals(self, y: float, n: int, moments) -> list:
        """Best available (lo, hi) bracket of the (N=n, k) tail for each k in
        `moments`, in its order, from one call: what a summation pass reads
        at each block end.  Subclasses override this, never tail_interval.

        Combines the ratio route, the family's closed forms and moment
        absorption into the plain tail at a shifted ordinate, taking t_n,
        t_{n+1} and the absorbed base tails once for every moment.  None for
        a moment where nothing is certified.  For k >= 1 over a nonpositive
        level the family's routes must decline (lo = 0 floors every
        bracket), and absorption is not tried.
        """
        out = []
        t_n = t_next = bases = None  # (e^(ln p + sigma y), sigma), taken once
        for k, direct in zip(moments, self._direct_intervals(y, n, moments)):
            los, his = [0.0], []
            r = self.tail_ratio(y, n, k)
            if r is not None and r < 1.0:
                if t_n is None:
                    t_n = self._term(y, n)
                if t_next is None:
                    t_next = self._term(y, n + 1)
                his.append(t_n[0] * t_n[1] ** k * r / (1.0 - r))
                los.append(t_next[0] * t_next[1] ** k)
            if direct is not None:
                los.append(direct[0])
                his.append(direct[1])
            if not his and k > 0:
                if bases is None:
                    bases = self._absorbed_bases(y, n)
                for eps, base in bases.items():
                    # absorb sigma^k <= (k/(e eps))^k exp(eps sigma), sigma > 0
                    c = (k / (math.e * eps)) ** k
                    # c may underflow to 0 against a trivial base bracket
                    his.append(c * base[1] if base[1] < math.inf else math.inf)
                if his:
                    if t_next is None:
                        t_next = self._term(y, n + 1)
                    los.append(t_next[0] * t_next[1] ** k)
            if his:
                hi = min(his)
                out.append((min(max(los), hi), hi))
            else:
                out.append(None)
        return out

    def _absorbed_bases(self, y, n) -> dict:
        """{eps: plain-tail bracket at y + eps} for moment absorption, empty
        without a finite alpha above -y or with a nonpositive level past n.
        The best eps trades the constant (k/(e eps))^k against the slower
        base tail, scaling like 1/sigma for slowly spaced levels: a ladder."""
        try:
            a = self.alpha
        except UnsupportedFamilyError:
            return {}
        if not (math.isfinite(a) and y < -a):
            return {}
        last = max(n + 1, self.sigma_increasing_from)  # nondecreasing on
        if min(map(self.sigma, range(n + 1, last + 1))) <= 0.0:
            return {}
        gap = -a - y
        ladder = {0.5 * gap, 0.125 * gap, 0.03125 * gap}
        ladder.add(min(0.5 * gap, 1.0 / self.sigma(n + 1)))
        bases = {}
        for eps in ladder:
            if eps > 0.0:
                base = self.tail_interval(y + eps, n, 0)
                if base is not None:
                    bases[eps] = base
        return bases

    def _term(self, y, n):
        """(v, s) = (e^(ln p_n + sigma_n y), sigma_n): t_n of moment k is v s^k."""
        s = self.sigma(n)  # positive wherever a moment k >= 1 is asked for
        t = self.log_p(n) + s * y
        return (math.exp(t) if t < 700.0 else math.inf), s


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

    def _direct_intervals(self, y, n, moments):
        # exact geometric moment tails, from 1 - rho, e^(offset y) and
        # rho^(n+1) taken once for every moment
        if self.slope <= 0.0 or y >= 0.0:
            return [None] * len(moments)
        om = -math.expm1(self.slope * y)  # 1 - rho, rho = e^(slope y), without cancellation
        if om <= 2.0**-54:  # rho rounds to 1: only the trivial bracket is certain
            return [None if k and self.sigma(n + 1) <= 0.0 else (0.0, math.inf) for k in moments]
        try:
            amp = math.exp(self.offset * y)
        except OverflowError:  # no certificate from this route
            return [None] * len(moments)
        g = math.exp((n + 1) * self.slope * y)  # rho^(n+1)
        a, b = self.offset, self.slope
        s0 = g / om
        out = []
        for k in moments:
            t = None  # k > 2, or k >= 1 over a nonpositive level
            if k == 0:
                t = amp * s0
            elif k <= 2 and self.sigma(n + 1) > 0.0:
                s1 = g * (1.0 + n * om) / om**2
                if k == 1:
                    t = amp * (a * s0 + b * s1)
                else:
                    s2 = g * (2.0 + (2 * n - 1) * om + n * n * om * om) / om**3
                    t = amp * (a * a * s0 + 2 * a * b * s1 + b * b * s2)
            out.append(None if t is None else (t, t))
        return out

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

    def tail_ratio(self, y, n, moment=0):
        if self.scale <= 0.0 or y >= 0.0 or self.exponent < 1.0:
            return None
        # gap is nondecreasing for exponent >= 1: infimum sits at m = n
        gap = self.sigma(n + 1) - self.sigma(n)
        r = math.exp(gap * y)
        if moment > 0:
            r *= ((n + 1) / n) ** (self.exponent * moment)
        return r if r < 1.0 else None

    def _direct_intervals(self, y, n, moments):
        # a block-doubling majorant of the plain tail; none for k >= 1
        if self.scale <= 0.0 or y >= 0.0 or 0 not in moments:
            return [None] * len(moments)
        hi = _block_doubling_tail(lambda m: self.sigma(m) * y, self.sigma, y, n)
        return [None if k or hi is None else (0.0, hi) for k in moments]

    def tail_intervals(self, y, n, moments):
        # the terms are positive, so (0, inf) is a true bracket where no
        # finite one is certified, and the kernel's early give-up applies
        ivs = super().tail_intervals(y, n, moments)
        if self.scale > 0.0 and y < 0.0:
            return [(0.0, math.inf) if iv is None else iv for iv in ivs]
        return ivs

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

    def _direct_intervals(self, y, n, moments):
        # integral test on ln^k(w) w^(scale*y), w = x+1, which is elementary
        # for k <= 2 and decreasing once ln w > k/(-scale*y); the logs and
        # powers of w = n+2 and n+1 are taken once for every moment
        e = self.scale * y
        if self.scale <= 0.0 or e >= -1.0:
            return [None] * len(moments)
        m = -(e + 1.0)
        ends = [(math.log(w), w ** (e + 1.0)) for w in (n + 2.0, n + 1.0)]

        def integral(k, lw, pw):
            if k == 0:
                tail = 1.0 / m
            elif k == 1:
                tail = lw / m + 1.0 / (m * m)
            else:
                tail = lw * lw / m + 2.0 * lw / (m * m) + 2.0 / (m**3)
            return self.scale**k * pw * tail

        out = []
        for k in moments:
            if k > 2 or k > 0 and ends[1][0] <= k / (-e):  # ends[1][0] = ln(n+1)
                out.append(None)  # terms not yet decreasing at this index
            else:
                out.append(tuple(integral(k, lw, pw) for lw, pw in ends))
        return out

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

    def tail_ratio(self, y, n, moment=0):
        r = math.exp(self.rate + y)
        e = moment - self.power
        if e > 0.0:
            r *= ((n + 1) / n) ** e  # sup over the tail sits at m = n
        return r if r < 1.0 else None

    def _direct_intervals(self, y, n, moments):
        # at y = -rate the terms are n^(k - power), a zeta-type tail with an
        # integral-test bracket where k - power < -1; for y < -rate they are
        # smaller
        out = []
        for k in moments:
            e = k - self.power
            if y > -self.rate or e >= -1.0:
                out.append(None)
            else:
                c = -e - 1.0
                lo = (n + 1.0) ** (e + 1.0) / c if y == -self.rate else 0.0
                out.append((lo, float(n) ** (e + 1.0) / c))
        return out

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

    def p_array(self, lo, hi):
        return _LATTICE_TABLE.ensure(hi)[1][lo - 1 : hi].astype(float)

    def log_terms(self, y, lo, hi):
        values, _, ln_degeneracy = _LATTICE_TABLE.ensure(hi)
        return ln_degeneracy[lo - 1 : hi] + self.scale * values[lo - 1 : hi] * y

    @property
    def alpha(self):
        return 0.0

    def _direct_intervals(self, y, n, moments):
        if y >= 0.0:
            return [None] * len(moments)
        # degeneracy of value S is at most S (each admissible (i,j) fixes k),
        # so the tail is below scale^k * sum_{S > V} S^m rho^S, m = k + 1,
        # rho = e^(scale y).  Over S >= V + 1 the ratio of its terms is at
        # most r = (1 + 1/(V+1))^m rho: where r < 1 the sum is at most
        # (V+1)^m rho^(V+1) / (1 - r), at the terms' own rate.  Absorbing
        # S^m <= (m/(e eps))^m e^(eps S), eps = -scale y / 2, bounds it
        # everywhere, at half that rate, by (m/(e eps))^m q^(V+1) / (1 - q),
        # q = rho^(1/2); where r <= q the ratio bound is the smaller (as
        # (V+1)^m q^(V+1) <= (m/(e eps))^m), so absorption is taken only
        # where r > q, and the smaller of the two where both hold
        v1 = float(_LATTICE_TABLE.ensure(n)[0][n - 1]) + 1.0
        rho_log = self.scale * y
        eps = -0.5 * rho_log
        step, lv, head = math.log1p(1.0 / v1), math.log(v1), v1 * rho_log
        out = []
        for k in moments:
            m = k + 1
            log_r = m * step + rho_log
            try:
                c = self.scale**k
                if log_r <= -eps:
                    hi = c * math.exp(m * lv + head) / -math.expm1(log_r)
                else:
                    q = math.exp(-eps)
                    hi = c * (m / (math.e * eps)) ** m * q**v1 / (1.0 - q)
                    if log_r < 0.0:
                        hi = min(hi, c * math.exp(m * lv + head) / -math.expm1(log_r))
            except (ZeroDivisionError, OverflowError):
                hi = math.inf  # y so near 0 that eps or 1 - q rounds to 0
            out.append((0.0, hi))
        return out

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
    def sigma_increasing_from(self):
        return max(self._m + 1, self.tail.sigma_increasing_from)

    def tail_ratio(self, y, n, moment=0):
        # t_{m+1}/t_m for m >= n must compare tail-family terms only
        return self.tail.tail_ratio(y, n, moment) if n > self._m else None

    def tail_intervals(self, y, n, moments):
        # beyond the prefix every term belongs to the tail family
        if n >= self._m:
            return self.tail.tail_intervals(y, n, moments)
        return [None] * len(moments)

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
        if y == -math.inf:  # every shifted level is positive: each term is 0
            return np.full(hi - lo + 1, -math.inf)
        return self.base.log_terms(y, lo, hi) - self.shift * y

    @property
    def alpha(self):
        return self.base.alpha

    @property
    def sigma_direction(self):
        return self.base.sigma_direction

    @property
    def sigma_increasing_from(self):
        return self.base.sigma_increasing_from

    def tail_ratio(self, y, n, moment=0):
        if moment == 0:
            return self.base.tail_ratio(y, n, 0)  # gaps are shift-invariant
        return None

    def tail_intervals(self, y, n, moments):
        # (sigma - shift)^k = sum_j C(k, j) (-shift)^(k-j) sigma^j over the
        # base's brackets (j = 0..max k from one call) by interval arithmetic,
        # scaled by exp(-shift*y); where the base has none (j >= 1 needs
        # positive base levels) or e^t would magnify its rounding (a base
        # tail rounded to 0 can be a shifted tail of order 1), the combiner
        # brackets the shifted terms
        if y == -math.inf:  # every shifted level is positive: each term is 0
            return [(0.0, 0.0)] * len(moments)
        t = -self.shift * y
        if t > 600.0:  # the terms are positive: (0, inf) always holds
            ivs = super().tail_intervals(y, n, moments)
            return [(0.0, math.inf) if iv is None else iv for iv in ivs]
        base = self.base.tail_intervals(y, n, tuple(range(max(moments) + 1)))
        s = math.exp(t)  # t <= 600: finite, and 0 only where inf * s is nan
        out = []
        for k in moments:
            lo = hi = 0.0
            for j in range(k + 1):
                c = math.comb(k, j) * (-self.shift) ** (k - j)
                if c == 0.0:
                    continue  # shift = 0: skipped, so 0 * inf never makes nan
                iv = base[j]
                if iv is None:
                    out.append(super().tail_intervals(y, n, (k,))[0])
                    break
                if c > 0.0:
                    lo, hi = lo + c * iv[0], hi + c * iv[1]
                else:
                    lo, hi = lo + c * iv[1], hi + c * iv[0]
            else:
                out.append((max(lo, 0.0) * s, hi * s if hi < math.inf else math.inf))
        return out

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


def lattice_levels(scale: float, count: int) -> list[tuple[int, float]]:
    """First `count` distinct 3-d lattice levels scale*(nx^2+ny^2+nz^2),
    ascending, each with its degeneracy."""
    if count < 1:
        raise DomainError("count must be >= 1")
    if scale <= 0.0:
        raise DomainError("scale must be positive")
    values, degeneracy, _ = _LATTICE_TABLE.ensure(count)
    return list(zip(degeneracy[:count].tolist(), (scale * values[:count]).tolist()))


TIE_RTOL = 1e-12  # levels within TIE_RTOL max(1, |theta1|) of theta1 tie with it


@functools.lru_cache(maxsize=256)
def sigma_min_set(family: SequenceFamily) -> SigmaMinSet:
    """theta1 = min sigma_n with its attaining index set, found by scanning
    until the nondecreasing tail guarantees sigma_n beyond the tie
    (TIE_RTOL); cached per family, as families are immutable."""
    if family.sigma_direction != +1:
        raise UnsupportedFamilyError(
            "sigma must increase to infinity (normalize the family first)"
        )
    n0 = family.sigma_increasing_from
    head = [family.sigma(k) for k in range(1, n0 + 1)]
    theta1 = min(head)
    tol = TIE_RTOL * max(1.0, abs(theta1))
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

