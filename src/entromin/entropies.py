"""Pointwise entropies of ideal-gas statistics and their convex conjugates.

The three integrands are

    bose-einstein      u ln u - (1+u) ln(1+u)      on [0, inf)
    maxwell-boltzmann  u (ln u - 1)                on [0, inf)
    fermi-dirac        u ln u + (1-u) ln(1-u)      on [0, 1]

with 0 ln 0 := 0 and value +inf outside the stated domains, so callers can
form countable sums without special-casing.  Conjugates are exp(t),
log(1+exp(t)) and -log(1-exp(t)) (the latter finite only for t < 0), all
evaluated in overflow-safe branch-split form.  Derivative queries outside
the open domain interior raise DomainError: the subdifferential is empty
there, reporting a fake +/-inf slope would be wrong.

Every function is elementwise on a float or a numpy array: a float in gives
a float out, an array gives an array of its shape, and a derivative query
raises DomainError when any element lies outside the open domain.  No
floating-point warning escapes.

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .errors import DomainError

__all__ = [
    "Entropy",
    "entropy_value",
    "entropy_conjugate",
    "entropy_conjugate_derivative",
    "entropy_derivative",
]

_INF = math.inf
_LN2 = math.log(2.0)

# exp(t) overflows float64 beyond this
_EXP_OVERFLOW = 709.0


class Entropy(Enum):
    """Which of the three statistics; `a` is the sign constant in
    (W*)'(t) = exp(t) / (1 + a exp(t))."""

    BOSE_EINSTEIN = "be"
    MAXWELL_BOLTZMANN = "mb"
    FERMI_DIRAC = "fd"

    @property
    def a(self) -> int:
        return _A_CONST[self]


_A_CONST = {
    Entropy.BOSE_EINSTEIN: -1,
    Entropy.MAXWELL_BOLTZMANN: 0,
    Entropy.FERMI_DIRAC: 1,
}


def _out(r: np.ndarray):
    """A 0-d result as a Python float, any other as the array."""
    return float(r) if r.ndim == 0 else r


def _reject(outside: np.ndarray, x: np.ndarray, what: str) -> None:
    """DomainError naming the first element of x where outside is true."""
    if outside.any():
        raise DomainError(f"{what}, got {float(x[outside].flat[0])}")


def _xlogx(u: np.ndarray) -> np.ndarray:
    return np.where(u == 0.0, 0.0, u * np.log(u))


def entropy_value(kind: Entropy, u):
    """W(u), total on the reals; +inf encodes 'outside dom W'."""
    u = np.asarray(u, dtype=float)
    with np.errstate(all="ignore"):
        if kind is Entropy.MAXWELL_BOLTZMANN:
            w = np.where(u == _INF, _INF, _xlogx(u) - u)
        elif kind is Entropy.BOSE_EINSTEIN:
            # u ln u - (1+u) ln(1+u) cancels for large u: past u = 1 it is
            # -ln(1+u) - u ln(1 + 1/u), each term of one sign
            small = _xlogx(u) - (1.0 + u) * np.log1p(u)
            large = -np.log1p(u) - u * np.log1p(1.0 / u)
            w = np.where(u == _INF, -_INF, np.where(u <= 1.0, small, large))
        else:
            # (1-u) log1p(-u): (1-u) ln(1-u) loses its -u where 1-u rounds to 1
            rest = np.where(u == 1.0, 0.0, (1.0 - u) * np.log1p(-u))
            w = np.where(u > 1.0, _INF, _xlogx(u) + rest)
        # u < 0 or nan
        return _out(np.where(u >= 0.0, w, _INF))


def entropy_conjugate(kind: Entropy, t):
    """W*(t) = sup_u (u t - W(u)), in log1p-stable form."""
    t = np.asarray(t, dtype=float)
    with np.errstate(all="ignore"):
        if kind is Entropy.MAXWELL_BOLTZMANN:
            return _out(np.where(t > _EXP_OVERFLOW, _INF, np.exp(t)))
        if kind is Entropy.FERMI_DIRAC:
            # softplus
            return _out(
                np.where(t > 0.0, t + np.log1p(np.exp(-t)), np.log1p(np.exp(t)))
            )
        # bose-einstein: -ln(1 - e^t), finite only where exp(t) < 1, so for
        # t < 0 but not for a t just below 0 that rounds exp(t) to 1.0;
        # log1p(-e^t) cancels as t -> 0-, where -expm1(t) is 1 - e^t without
        # error (Maechler 2012: log1p(-e^t) below -ln 2, log(-expm1(t)) above)
        z = np.exp(t)
        w = np.where(t > -_LN2, -np.log(-np.expm1(t)), -np.log1p(-z))
        return _out(np.where(z >= 1.0, _INF, w))


def entropy_conjugate_derivative(kind: Entropy, t):
    """(W*)'(t) = exp(t) / (1 + a exp(t)); requires t in dom W*."""
    t = np.asarray(t, dtype=float)
    with np.errstate(all="ignore"):
        if kind is Entropy.MAXWELL_BOLTZMANN:
            return _out(np.where(t > _EXP_OVERFLOW, _INF, np.exp(t)))
        if kind is Entropy.FERMI_DIRAC:
            z = np.exp(t)
            return _out(np.where(t >= 0.0, 1.0 / (1.0 + np.exp(-t)), z / (1.0 + z)))
        _reject(t >= 0.0, t, "bose-einstein conjugate requires t < 0")
        # exp(t)/(1-exp(t)) = 1/(exp(-t)-1), exact for t near 0 via expm1;
        # 1/inf = 0 where expm1(-t) overflows
        return _out(1.0 / np.expm1(-t))


def entropy_derivative(kind: Entropy, u):
    """W'(u) on the interior of dom W; DomainError elsewhere."""
    u = np.asarray(u, dtype=float)
    with np.errstate(all="ignore"):
        if kind is Entropy.MAXWELL_BOLTZMANN:
            _reject(u <= 0.0, u, "maxwell-boltzmann derivative requires u > 0")
            return _out(np.log(u))
        if kind is Entropy.BOSE_EINSTEIN:
            _reject(u <= 0.0, u, "bose-einstein derivative requires u > 0")
            return _out(np.log(u) - np.log1p(u))
        _reject(~((u > 0.0) & (u < 1.0)), u, "fermi-dirac derivative requires 0 < u < 1")
        return _out(np.log(u) - np.log1p(-u))
