"""Regenerate perfbench/reference.json with mpmath.

The benchmark's oracles must not go through `entromin.series`, so the
constants they need for families whose series converge too slowly for a
brute-force sum are computed here once, at high precision, and stored:

* WeightedGeometric(1, 3): zeta(2), zeta(3) and theta2 = zeta(2)/zeta(3);
* LogLevels(1): f(y) = sum_{n>=1} (n+1)^y is the Hurwitz zeta(-y, 2) and
  f'(y) = -zeta'(-y, 2).  For each slope w = c * ln 2 of the slow-levels
  workload the root y of f'/f = w and the conjugate (ln f)*(w) = w y - ln f(y)
  are stored.

Run from the repository root:  python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
from pathlib import Path

import mpmath as mp

LOG_LEVEL_MULTIPLES = (1.5, 3.0, 4.5)
DIGITS = 40


def _loglevels_phi(y):
    s = -y
    return -mp.zeta(s, 2, derivative=1) / mp.zeta(s, 2)


def _loglevels_root(w):
    # phi increases from ln 2 (y -> -inf) to +inf (y -> -1)
    lo, hi = mp.mpf(-200), mp.mpf(-1) - mp.mpf(10) ** -30
    for _ in range(160):
        mid = (lo + hi) / 2
        if _loglevels_phi(mid) < w:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def build() -> dict:
    mp.mp.dps = DIGITS
    z2, z3 = mp.zeta(2), mp.zeta(3)
    ln2 = mp.log(2)
    loglevels = []
    for c in LOG_LEVEL_MULTIPLES:
        w = mp.mpf(c) * ln2
        y = _loglevels_root(w)
        conj = w * y - mp.log(mp.zeta(-y, 2))
        loglevels.append(
            {"multiple": c, "w": mp.nstr(w, 30), "y": mp.nstr(y, 30), "lnf_conjugate": mp.nstr(conj, 30)}
        )
    return {
        "generator": "perfbench/make_reference.py (mpmath %s, %d digits)" % (mp.__version__, DIGITS),
        "weighted_geometric_1_3": {
            "zeta2": mp.nstr(z2, 30),
            "zeta3": mp.nstr(z3, 30),
            "theta2": mp.nstr(z2 / z3, 30),
        },
        "loglevels_1": loglevels,
    }


if __name__ == "__main__":
    out = Path(__file__).with_name("reference.json")
    out.write_text(json.dumps(build(), indent=2) + "\n")
    print(f"wrote {out}")
