"""Weight/level sequence families with certified series-tail machinery.

A family is a finitely described generator of weights p_n (positive, with
sum p_n = inf) and levels sigma_n, n >= 1.  Everything the series layer
proves about f(y) = sum p_n exp(sigma_n y) rests on what a family declares:

  * its terms, once: ``_term_arrays``, the y-free arrays of an index window
    (sigma_n first, then what ln p_n needs), and, unless its weights are
    all 1, ``log_terms`` (ln p_n + sigma_n y, overflow-free) combining them
    with y, and ``p_array`` where its weights are exact;
  * ``alpha``, the endpoint of dom f: f is finite on (-inf, -alpha), and
    alpha = +inf when dom f is empty; levels falling to -inf have none, and
    an undeclared alpha raises UnsupportedFamilyError;
  * ``sigma_direction`` when the levels do not tend to +inf, and
    ``sigma_increasing_from`` when they are not nondecreasing from n = 1;
  * its tail certificate, ``tail_intervals``: (lo, hi) brackets of the
    tails beyond an index for every asked moment from one call (moments k
    >= 1 need positive levels), what the series layer reads; with
    ``boundary_divergent`` (summability at y = -alpha).

The base class derives the rest: the family's term table (``_tabled``: the
``_term_arrays`` of [1, 2^13] and its (sigma_n, ln p_n) rows, built on
first read and read as slices), ``log_terms`` for unit weights (sigma_n
y), ``sigma_array`` (a copy of its levels), ``p_array`` (e^(ln p_n), inf
from ln p_n = 700 on), the scalars ``sigma``, ``log_p`` and ``p`` (an
element of each array; ``sigma`` and ``log_p`` read from the table's rows,
so that the block ends' levels and t_n, t_(n+1) cost no array),
``constant_sigma`` (sigma_direction 0) and ``dom_f_empty`` (alpha = +inf
for levels not falling to -inf), and the default ``tail_intervals``.
That default, ``_combined``, joins the ratio route (``tail_ratio``, a
ratio-test constant r < 1 for the whole tail beyond an index), the closed
forms its caller holds, and moment absorption into the plain tail at a
shifted ordinate.  Arithmetic and Lattice3D return their closed forms as
they are (Arithmetic's are the exact tails, where the ratio route's 1 - r
cancels near y = 0 and can round low; Lattice3D has no ratio route);
WeightedGeometric (zeta-type tails at and beyond y = -alpha), LogLevels
(integral tests) and PowerLaw (a block-doubling majorant) pass theirs to
``_combined``.  A wrapper (ExplicitPrefix, ShiftedSigma) brackets from its
base's whole brackets (a shift falls back on the default where that has
none), and passes ``tail_ratio`` on where it holds.
theta1 = min sigma_n comes from ``sigma_min_set``, kept on the family; the
attainment cone and degenerate cases follow from alpha and theta1.

A bound is returned only when the family's structure proves it; otherwise
the methods return None and callers must enlarge the truncation or reject.
Families are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _work
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
_TABLE_MAX = 2**13  # the term table's terms: windows reaching past it are built per call


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
    and declare what the module docstring lists, their terms as the y-free
    _term_arrays and, unless their weights are all 1, log_terms.  The term
    table, sigma_array, the scalar terms, constant_sigma and dom_f_empty
    are derived here, and are not overridden.

    The term table holds _term_arrays(1, _TABLE_MAX), _TABLE_MAX = 2^13
    terms (the windows of passes up to 8,192 terms), and (sigma_n, ln p_n)
    as one 2 x _TABLE_MAX array, sigma_n stored once, as its first row, and
    ln p_n = log_terms(0.0, 1, _TABLE_MAX).  It is built once, on the first
    read of any window or scalar, and never changed: its arrays are
    read-only, so any thread slices the same floats; under 256 KB per
    family (a wrapper's holds views of its base's).  Windows reaching past
    it are built per call.  sigma(n) and log_p(n) are elements of the
    table's rows, and past it of the window [n, n]."""

    # -- term access --------------------------------------------------------

    def _term_arrays(self, lo: int, hi: int) -> tuple:
        """The y-free arrays of the terms n in [lo, hi]: sigma_n first, then
        what log_terms combines with y; each element depends on its n
        alone, so a slice of a longer window holds the same floats."""
        raise NotImplementedError

    def log_terms(self, y: float, lo: int, hi: int, arrays=None) -> np.ndarray:
        """ln(p_n) + sigma_n * y for n in [lo, hi], overflow-free: a new
        array from the term table's slices, or from `arrays` where the
        caller holds the window's _tabled(lo, hi).  Here unit weights,
        sigma_n * y; a family with other weights overrides it."""
        return (arrays or self._tabled(lo, hi))[0] * y

    def sigma_array(self, lo: int, hi: int) -> np.ndarray:
        """sigma_n for n in [lo, hi] inclusive, a new array."""
        return self._tabled(lo, hi)[0].copy()

    def p_array(self, lo: int, hi: int) -> np.ndarray:
        """p_n for n in [lo, hi] inclusive: e^(ln p_n), inf where ln p_n >= 700."""
        log_p = self.log_terms(0.0, lo, hi)
        return np.where(log_p < 700.0, np.exp(np.minimum(log_p, 700.0)), math.inf)

    @functools.cached_property
    def _term_table(self):
        """(the _term_arrays, (sigma_n, ln p_n)) over [1, _TABLE_MAX],
        read-only, sigma_n stored once, as the first row of the pair; built
        with no warning: a level past the float maximum is inf, and a unit
        weight's ln p_n there inf * 0 = nan, as log_terms(0.0, n, n) reads."""
        if _work.on and (work := _work.local.record) is not None:
            work.tables_built += 1
        with np.errstate(over="ignore", invalid="ignore"):
            sigma, *rest = self._term_arrays(1, _TABLE_MAX)
            pair = np.empty((2, _TABLE_MAX))
            pair[0] = sigma
            arrays = (pair[0], *rest)
            pair[1] = self.log_terms(0.0, 1, _TABLE_MAX, arrays)
        for a in (pair, *arrays):
            a.flags.writeable = False
        return arrays, pair

    def _tabled(self, lo: int, hi: int) -> tuple:
        """The _term_arrays of [lo, hi], read-only: slices of the term table,
        or built for the call past _TABLE_MAX, where every such window is."""
        if hi > _TABLE_MAX:
            if _work.on and (work := _work.local.record) is not None:
                work.windows_built += 1
            return self._term_arrays(lo, hi)
        i = lo - 1
        return tuple([a[i:hi] for a in self._term_table[0]])

    def sigma(self, n: int) -> float:
        if n > _TABLE_MAX:
            return float(self._tabled(n, n)[0][0])
        return float(self._term_table[1][0, n - 1])

    def log_p(self, n: int) -> float:
        if n > _TABLE_MAX:
            return float(self.log_terms(0.0, n, n)[0])
        return float(self._term_table[1][1, n - 1])

    def p(self, n: int) -> float:
        return float(self.p_array(n, n)[0])

    # -- records derived from the family alone, each built on first read and
    # kept on the instance.  Up to Python 3.11 cached_property fills under one
    # lock per property, so cold fills of distinct families serialize; from
    # 3.12 two threads may each fill one, the last kept.  Outputs do not vary.

    @functools.cached_property
    def _sigma_min(self) -> SigmaMinSet:
        """sigma_min_set's record, found by scanning until the nondecreasing
        tail guarantees sigma_n beyond the tie (TIE_RTOL)."""
        if self.sigma_direction != +1:
            raise UnsupportedFamilyError(
                "sigma must increase to infinity (normalize the family first)"
            )
        n0 = self.sigma_increasing_from
        head = self.sigma_array(1, n0)
        theta1 = float(head.min())
        top = theta1 + TIE_RTOL * max(1.0, abs(theta1))
        # the tie run past n0, in blocks of 64 doubling up to 2^16, listed once it ends
        lo, size, last = n0 + 1, 64, n0 + 10_000_000
        while True:
            above = np.flatnonzero(self.sigma_array(lo, min(lo + size - 1, last)) > top)
            if above.size:
                break
            if lo + size > last:
                raise UnsupportedFamilyError("level tie scan did not terminate")
            lo, size = lo + size, min(2 * size, 2**16)
        indices = (np.flatnonzero(head <= top) + 1).tolist() + list(range(n0 + 1, lo + int(above[0])))
        p = self.p_array(1, indices[-1])[np.array(indices) - 1]
        return SigmaMinSet(theta1, tuple(indices), math.fsum(p.tolist()))

    @functools.cached_property
    def _profile(self):  # series.profile's record; series imports this module
        from .series import _build_profile
        return _build_profile(self)

    @functools.cached_property
    def _ladder(self):  # the slope ladder, filled as slope roots read it
        from .series import _Ladder
        return _Ladder(self)

    @functools.cached_property
    def _normal(self):  # (flip, shift, normal form), shared by every EmpSolver
        from .solver import _normal_form
        return _normal_form(self)

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

    def boundary_divergent(self, moment: int = 0) -> Optional[bool]:
        """True/False when (non)summability at y = -alpha is certified."""
        return None

    def tail_interval(self, y: float, n: int, moment: int = 0):
        """Best available (lo, hi) bracket of the (N=n, k=moment) tail, or
        None: the one-moment view of tail_intervals."""
        return self.tail_intervals(y, n, (moment,))[0]

    def tail_intervals(self, y: float, n: int, moments) -> list:
        """Best available (lo, hi) bracket of the (N=n, k) tail for each k in
        `moments`, in its order, from one call: the family's whole tail
        certificate, what a summation pass reads at each block end.
        Subclasses override this, never tail_interval.  Here the ratio
        route and moment absorption, with no closed form (_combined)."""
        return self._combined(y, n, moments, [None] * len(moments))

    def _combined(self, y, n, moments, closed) -> list:
        """The brackets of the k in `moments` from the ratio route
        (tail_ratio), the caller's closed forms `closed` (a (lo, hi) or None
        per moment) and, for k >= 1 where neither bounds the tail above,
        moment absorption into the plain tail at a shifted ordinate, keeping
        the largest lower and the smallest upper end; t_n and t_{n+1}
        (together) and the absorbed base tails are taken once for every
        moment.  None for a moment where nothing is certified.  For k >= 1
        over a nonpositive level the family's routes must decline (lo = 0
        floors every bracket), and absorption is not tried."""
        out = []
        terms = bases = None  # t_n, t_{n+1} as (e^(ln p + sigma y), sigma), taken once
        for k, direct in zip(moments, closed):
            lo, hi = 0.0, None
            r = self.tail_ratio(y, n, k)
            if r is not None and r < 1.0:
                terms = terms or self._terms(y, n)
                (v, s), (v_next, s_next) = terms
                lo, hi = max(lo, v_next * s_next**k), v * s**k * r / (1.0 - r)
            if direct is not None:
                lo = max(lo, direct[0])
                hi = direct[1] if hi is None else min(hi, direct[1])
            if hi is None and k > 0:
                if bases is None:
                    bases = self._absorbed_bases(y, n)
                for eps, base in bases.items():
                    # absorb sigma^k <= (k/(e eps))^k exp(eps sigma), sigma > 0
                    c = (k / (math.e * eps)) ** k
                    # c may underflow to 0 against a trivial base bracket
                    h = c * base[1] if base[1] < math.inf else math.inf
                    hi = h if hi is None else min(hi, h)
                if hi is not None:
                    terms = terms or self._terms(y, n)
                    v_next, s_next = terms[1]
                    lo = max(lo, v_next * s_next**k)
            out.append(None if hi is None else (min(lo, hi), hi))
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
        s = self._tabled(n + 1, last)[0].tolist()
        if min(s) <= 0.0:
            return {}
        gap = -a - y
        ladder = {0.5 * gap, 0.125 * gap, 0.03125 * gap, min(0.5 * gap, 1.0 / s[0])}
        bases = {}
        for eps in ladder:
            if eps > 0.0:
                base = self.tail_interval(y + eps, n, 0)
                if base is not None:
                    bases[eps] = base
        return bases

    def _terms(self, y, n):
        """(v, s) = (e^(ln p_m + sigma_m y), sigma_m) for m = n and n + 1,
        from the table's rows or past them one window [n, n + 1]: t_m of
        moment k is v s^k; s is positive wherever a k >= 1 is asked for."""
        if n < _TABLE_MAX:
            (s, s_next), (lp, lp_next) = self._term_table[1][:, n - 1 : n + 1].tolist()
        else:
            arrays = self._tabled(n, n + 1)
            s, s_next = arrays[0].tolist()
            lp, lp_next = self.log_terms(0.0, n, n + 1, arrays).tolist()
        t, t_next = lp + s * y, lp_next + s_next * y
        return [(math.exp(t) if t < 700.0 else math.inf, s),
                (math.exp(t_next) if t_next < 700.0 else math.inf, s_next)]


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

    def _term_arrays(self, lo, hi):
        return (self.offset + self.slope * np.arange(lo, hi + 1, dtype=float),)

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
        # the plain terms' ratio; the moments take their exact tails
        if moment or self.slope <= 0.0 or y >= 0.0:
            return None
        r = math.exp(self.slope * y)
        return r if r < 1.0 else None

    def tail_intervals(self, y, n, moments):
        # the exact geometric moment tails (k <= 4), from 1 - rho, e^(offset
        # y) and rho^(n+1) taken once for every moment; the ratio route's
        # 1 - r cancels near y = 0 and can round low, so it is not tried
        if self.slope <= 0.0 or y >= 0.0:
            return [None] * len(moments)
        om = -math.expm1(self.slope * y)  # 1 - rho, rho = e^(slope y), without cancellation
        # moments k >= 1 need sigma_(n+1) > 0: read once, and not for moment 0 alone
        c = self.sigma(n + 1) if moments != (0,) else 0.0
        positive = c > 0.0
        if om <= 2.0**-54:  # rho rounds to 1: only the trivial bracket is certain
            return [None if k and not positive else (0.0, math.inf) for k in moments]
        a, b = self.offset, self.slope
        try:
            amp, g = math.exp(a * y), math.exp((n + 1) * b * y)  # rho^(n+1)
        except OverflowError:  # e^(offset y) overflows: take it into g, as e^(sigma_(n+1) y)
            try:
                amp, g = 1.0, math.exp(self.sigma(n + 1) * y)
            except OverflowError:  # so does the tail's first term: none is certified
                return [None] * len(moments)
        s0 = g / om
        out = []
        for k in moments:
            t = None  # k > 4, or k >= 1 over a nonpositive level
            if k == 0:
                t = amp * s0
            elif k <= 2 and positive:
                s1 = g * (1.0 + n * om) / om**2
                if k == 1:
                    t = amp * (a * s0 + b * s1)
                else:
                    s2 = g * (2.0 + (2 * n - 1) * om + n * n * om * om) / om**3
                    t = amp * (a * a * s0 + 2 * a * b * s1 + b * b * s2)
            elif k <= 4 and positive:
                # sum_{j >= 0} (c + b j)^k rho^j, c = sigma_(n+1), from the
                # positive S_i = sum_j j^i rho^j, i <= k, one power of 1 - rho at a time
                rho = math.exp(b * y)
                s = [1.0, rho / om, rho * (1.0 + rho) / om**2, rho * (1.0 + (4.0 + rho) * rho) / om**3,
                     rho * (1.0 + (11.0 + (11.0 + rho) * rho) * rho) / om**4]
                binom = (1.0, 4.0, 6.0, 4.0, 1.0) if k == 4 else (1.0, 3.0, 3.0, 1.0)
                t = amp * s0 * math.fsum(m * c ** (k - i) * b**i * s[i] for i, m in enumerate(binom))
            out.append(None if t is None else (t, t))
        return out

    def boundary_divergent(self, moment=0):
        # alpha = 0 and p_n = 1: terms do not vanish at y = 0
        return True if self.slope > 0.0 else None


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

    def _term_arrays(self, lo, hi):
        return (self.scale * np.arange(lo, hi + 1, dtype=float) ** self.exponent,)

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

    def tail_intervals(self, y, n, moments):
        # the ratio route, a block-doubling majorant of the plain tail and,
        # for k >= 1, moment absorption into it; the terms are positive, so
        # (0, inf) is a true bracket where no finite one is certified, and
        # the kernel's early give-up applies
        if self.scale <= 0.0 or y >= 0.0:  # no route holds, absorption included
            return [None] * len(moments)
        hi = self._doubling_majorant(y, n) if 0 in moments else None
        closed = [None if k or hi is None else (0.0, hi) for k in moments]
        ivs = self._combined(y, n, moments, closed)
        return [(0.0, math.inf) if iv is None else iv for iv in ivs]

    def _doubling_majorant(self, y, n):
        """Upper bound on the plain tail sum_{m > n} e^(sigma_m y), y < 0, or
        None: the terms are nonincreasing and the level gaps sigma_(2m+1) -
        sigma_(m+1) nondecreasing in m.  Covers block (m, 2m] by m
        e^(sigma_(m+1) y); once the certified block ratio 2 e^((sigma_(2m+1)
        - sigma_(m+1)) y) drops to 1/2 the remaining blocks sum below twice
        the current one.  At most 64 blocks."""
        total = 0.0
        m = n
        for _ in range(64):
            s = self.sigma(m + 1)
            block = m * math.exp(s * y)
            if 2.0 * math.exp((self.sigma(2 * m + 1) - s) * y) <= 0.5:
                return total + 2.0 * block
            total += block
            m *= 2
        return None

    def boundary_divergent(self, moment=0):
        return True if self.scale > 0.0 else None


@dataclass(frozen=True)
class LogLevels(SequenceFamily):
    """Unit weights, sigma_n = scale * ln(n+1); dom f endpoint alpha = 1/scale."""

    scale: float = 1.0

    def __post_init__(self):
        if self.scale == 0.0 or not math.isfinite(self.scale):
            raise ConfigurationError("log-levels scale must be nonzero finite")

    def _term_arrays(self, lo, hi):
        return (self.scale * np.log(np.arange(lo, hi + 1, dtype=float) + 1.0),)

    @property
    def alpha(self):
        if self.scale > 0.0:
            return 1.0 / self.scale
        raise UnsupportedFamilyError("sigma -> -inf; normalize by sign flip first")

    @property
    def sigma_direction(self):
        return 1 if self.scale > 0.0 else -1

    def tail_intervals(self, y, n, moments):
        # integral test on ln^k(w) w^(scale*y), w = x+1, which is elementary
        # for k <= 2 and decreasing once ln w > k/(-scale*y); the logs and
        # powers of w = n+2 and n+1 are taken once for every moment, and
        # moment absorption tries the k it leaves open
        e = self.scale * y
        if self.scale <= 0.0 or e >= -1.0:  # y >= -alpha: no route holds
            return [None] * len(moments)
        m = -(e + 1.0)
        ends = [(math.log(w), w ** (e + 1.0)) for w in (n + 2.0, n + 1.0)]

        def integral(k, lw, pw):
            if k == 0:
                tail = 1.0 / m
            elif k == 1:
                tail = lw / m + 1.0 / (m * m)
            else:
                try:
                    cube = 2.0 / (m**3)
                except OverflowError:  # m^3 beyond the float maximum: 2/m^3 < 1.2e-308
                    cube = 2.3e-308
                tail = lw * lw / m + 2.0 * lw / (m * m) + cube
            return self.scale**k * pw * tail

        closed = []
        for k in moments:
            if k > 2 or k > 0 and ends[1][0] <= k / (-e):  # ends[1][0] = ln(n+1)
                closed.append(None)  # terms not yet decreasing at this index
            else:
                closed.append(tuple(integral(k, lw, pw) for lw, pw in ends))
        return self._combined(y, n, moments, closed)

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

    def _term_arrays(self, lo, hi):  # k and power ln k
        k = np.arange(lo, hi + 1, dtype=float)
        return k, self.power * np.log(k)

    def log_terms(self, y, lo, hi, arrays=None):
        k, power_ln_k = arrays or self._tabled(lo, hi)
        return (self.rate + y) * k - power_ln_k

    @property
    def alpha(self):
        return self.rate

    def tail_ratio(self, y, n, moment=0):
        r = math.exp(self.rate + y)
        e = moment - self.power
        if e > 0.0:
            r *= ((n + 1) / n) ** e  # sup over the tail sits at m = n
        return r if r < 1.0 else None

    def tail_intervals(self, y, n, moments):
        # the ratio route, and moment absorption where it fails; at y = -rate
        # the terms are n^(k - power), a zeta-type tail with an integral-test
        # bracket where k - power < -1, and for y < -rate they are smaller
        closed = []
        for k in moments:
            e = k - self.power
            if y > -self.rate or e >= -1.0:
                closed.append(None)
            else:
                c = -e - 1.0
                lo = (n + 1.0) ** (e + 1.0) / c if y == -self.rate else 0.0
                closed.append((lo, float(n) ** (e + 1.0) / c))
        return self._combined(y, n, moments, closed)

    def boundary_divergent(self, moment=0):
        return moment - self.power >= -1.0


# -- 3-d isotropic lattice ---------------------------------------------------


@functools.lru_cache(maxsize=None)  # one entry per power-of-two limit asked for
def _lattice_upto(limit: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct values S <= limit of i^2+j^2+k^2 over positive triples,
    ascending, with their degeneracies and the degeneracies' logs, as
    read-only arrays.  The pair sums j^2+k^2 are counted once, and each
    i^2 adds them shifted by i^2: O(limit) memory, with no triple built."""
    sq = np.arange(1, math.isqrt(limit) + 1) ** 2
    pairs = (sq[:, None] + sq[None, :]).ravel()
    pairs = np.bincount(pairs[pairs < limit], minlength=limit + 1)
    counts = np.zeros(limit + 1, dtype=pairs.dtype)
    for i2 in sq.tolist():
        counts[i2:] += pairs[: limit + 1 - i2]
    values = np.nonzero(counts)[0]
    degeneracy = counts[values]
    table = (values.astype(float), degeneracy, np.log(degeneracy.astype(float)))
    for arr in table:
        arr.flags.writeable = False
    return table


def _lattice(count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_lattice_upto at a power-of-two limit from 32 on that holds `count`
    levels (count levels from 3 on need a limit of count + 2 at least); a
    prefix of the levels is the same at every limit that holds it."""
    limit = max(32, 1 << (count + 1).bit_length())
    table = _lattice_upto(limit)
    while len(table[0]) < count:
        limit *= 2
        table = _lattice_upto(limit)
    return table


@dataclass(frozen=True)
class Lattice3D(SequenceFamily):
    """Cubic-box level sequence: sigma_n = scale * (n_x^2+n_y^2+n_z^2) over
    the distinct values, p_n = the number of positive triples attaining it."""

    scale: float = 1.0

    def __post_init__(self):
        if self.scale <= 0.0 or not math.isfinite(self.scale):
            raise ConfigurationError("lattice scale must be positive")

    def _term_arrays(self, lo, hi):  # scale * values and ln degeneracy
        values, _, ln_degeneracy = _lattice(hi)
        return self.scale * values[lo - 1 : hi], ln_degeneracy[lo - 1 : hi]

    def p_array(self, lo, hi):
        return _lattice(hi)[1][lo - 1 : hi].astype(float)

    def log_terms(self, y, lo, hi, arrays=None):
        s, ln_degeneracy = arrays or self._tabled(lo, hi)
        return ln_degeneracy + s * y

    @property
    def alpha(self):
        return 0.0

    def tail_intervals(self, y, n, moments):
        if y >= 0.0:
            return [None] * len(moments)
        # no ratio route: these closed forms are the only brackets.  The
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
        v1 = float(_lattice(n)[0][n - 1]) + 1.0
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

    def _term_arrays(self, lo, hi):  # k and rate k^2
        k = np.arange(lo, hi + 1, dtype=float)
        return k, self.rate * k * k

    def log_terms(self, y, lo, hi, arrays=None):
        k, rate_k2 = arrays or self._tabled(lo, hi)
        return rate_k2 + k * y

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

    @functools.cached_property
    def _head(self):
        """(w, ln w, levels) of the explicit terms as read-only arrays."""
        w = np.array(self.weights, dtype=float)
        head = (w, np.log(w), np.array(self.levels, dtype=float))
        for a in head:
            a.flags.writeable = False
        return head

    def _joined(self, head, tail, lo, hi):
        """head(w, ln w, s), the explicit terms with index in [lo, hi] as
        read-only slices of _head, joined to tail(max(lo, m + 1), hi) where
        hi > m; head returns a new array."""
        m = self._m
        if lo > m:
            return tail(lo, hi)
        part = head(*(a[lo - 1 : hi] for a in self._head))
        return part if hi <= m else np.concatenate((part, tail(m + 1, hi)))

    def _term_arrays(self, lo, hi):  # the joined levels, then the tail's window over [lo, hi]
        tail = self.tail._tabled(lo, hi)
        sigma = self._joined(lambda w, lw, s: s.copy(), lambda a, b: tail[0][a - lo :], lo, hi)
        return (sigma, *tail)

    def p_array(self, lo, hi):  # the given weights as they are
        return self._joined(lambda w, lw, s: w.copy(), self.tail.p_array, lo, hi)

    def log_terms(self, y, lo, hi, arrays=None):
        _, *window = arrays or self._tabled(lo, hi)

        def tail(a, b):
            return self.tail.log_terms(y, a, b, tuple([t[a - lo :] for t in window]))

        return self._joined(lambda w, lw, s: lw + s * y, tail, lo, hi)

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
        low = float(self.base.sigma_array(1, scan).min())
        if self.shift >= low:
            raise ConfigurationError(f"shift {self.shift} not below min sigma {low}")

    def _term_arrays(self, lo, hi):  # the shifted levels, then the base's window
        base = self.base._tabled(lo, hi)
        return (base[0] - self.shift, *base)

    def p_array(self, lo, hi):
        return self.base.p_array(lo, hi)

    def log_terms(self, y, lo, hi, arrays=None):
        if y == -math.inf:  # every shifted level is positive: each term is 0
            return np.full(hi - lo + 1, -math.inf)
        base = (arrays or self._tabled(lo, hi))[1:]
        return self.base.log_terms(y, lo, hi, base) - self.shift * y

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
    ascending, each with its degeneracy; DomainError unless count is an
    integer >= 1 (numpy integers included) and scale positive and finite."""
    try:
        n = operator.index(count)
    except TypeError:
        n = 0
    if n < 1:
        raise DomainError(f"count must be an integer >= 1, got {count!r}")
    if not (scale > 0.0 and math.isfinite(scale)):
        raise DomainError(f"scale must be positive and finite, got {scale!r}")
    values, degeneracy, _ = _lattice(n)
    return list(zip(degeneracy[:n].tolist(), (scale * values[:n]).tolist()))


TIE_RTOL = 1e-12  # levels within TIE_RTOL max(1, |theta1|) of theta1 tie with it


def sigma_min_set(family: SequenceFamily) -> SigmaMinSet:
    """theta1 = min sigma_n with its attaining index set: family._sigma_min."""
    return family._sigma_min
