"""The CLI's output on every spec in specs/, byte for byte.

tests/golden/NAME.stdout and NAME.json (NAME.csv for the sweep) hold what
`python -m entromin.cli --spec specs/NAME.emp --out NAME.json` printed and
wrote at commit 622be7b; the three geometric_* files were re-pinned when
slope roots began to start from the cached slope ladder, which moved their
last digits (geometric_solve's y and x are now within 4.5e-16 of their
closed forms -ln 2 and 0, against 2.2e-14 and 4.3e-14 before), and again
when each slope root began at the Hermite interpolant of its two ladder
entries, one Newton step fewer (y and x are now 1.4e-15 and 2.7e-15 from
-ln 2 and 0, two sweep values moved 1-2 ulp to within 4.6e-16 of the exact
H, and verify's mb round-trip error reads 1.99e-16).
weighted_geometric_verify and lattice_verify were pinned at commit ec177e7,
before the entropy functions became elementwise on arrays; with
geometric_verify (Arithmetic(0, 1)) they hold verify's report on all three
of perfbench's families.  The three *_verify pairs were re-pinned when the
bose-einstein conjugate began to take -log(-expm1(t)) above t = -ln 2,
which moved only their Fenchel-Young equality gap (5.22e-15 to 5.33e-15).
lattice_forward and lattice_verify were re-pinned when the Lattice3D tail
bracket gained its ratio-test route, so that a lattice pass stops at an
earlier block end: lattice_forward's v moved from 6.121022812015456 to
...637 and its value from -3.039455566306101 to ...173 (1.9e-13 and
7.9e-14 from mpmath sums over 3,000 levels), and lattice_verify's
round-trip errors read 1.45e-13 and 2.55e-12 (8.32e-13 and 3.57e-12).
geometric_sweep and weighted_geometric_verify were re-pinned when a slope
root began to take its Newton iterates from the last pass's partial
moments with no pass of their own: the sweep's H at (2, 3) moved 1 ulp,
from -2.5232481437645475 to ...548 (3.4e-16 and 1.6e-16 from the exact H),
and verify's mb round-trip error reads 1.71e-14 (1.70e-14).
geometric_verify and weighted_geometric_verify were re-pinned when the
bose-einstein/fermi-dirac inverse began its certified Newton at the
minimizer of the 64-term dual, whose accepted points lie nearer the drawn
multipliers: verify's be/fd round-trip error moved from 2.40e-11 to
1.74e-12 and from 2.53e-11 to 2.08e-12, and nothing else.
lattice_verify and weighted_geometric_verify were re-pinned when that
proposal began to stop at residual norm r with r^2 <= tol / 10 and return
its Newton step unevaluated, whose residual is about r^2: verify's be/fd
round-trip error moved from 2.55e-12 to 2.46e-13 and from 2.08e-12 to
8.88e-16, and nothing else (geometric_verify still reads 1.74e-12).
The three *_verify pairs were re-pinned when the bose-einstein entropy
began to take -log1p(u) - u log1p(1/u) past u = 1, which moved only their
Fenchel-Young equality gap (5.33e-15 to 3.55e-15, now maxwell-boltzmann's).
The four geometric_* and weighted_geometric_* files that moved were
re-pinned when a warm slope root began to take its start and Newton points
from the slope ladder's model rungs, with no pass of its own:
geometric_solve's y and x moved to 2.2e-15 and 4.9e-15 from -ln 2 and 0
(1.4e-15 and 2.7e-15) and its printed terms by up to 1.3e-15 relative, the
sweep's H at (1, 3), (1.5, 3) and (2, 3) moved 1-3 ulp, to within 3.2e-16,
8.1e-16 and 3.0e-16 of the exact H (1.3e-16, 7.4e-17 and 1.4e-16), and
verify's mb round-trip error reads 3.13e-16 (1.99e-16) and 1.68e-14
(1.71e-14).
The same four were re-pinned when a warm root's Newton point began to be
certified by a Taylor step from its start point: geometric_solve's x and
y moved to 4.0e-15 and 2.0e-15 from 0 and -ln 2 (4.9e-15 and 2.2e-15),
the sweep's H at (1, 3), (1.5, 2) and (1.5, 3) to within 4.3e-17, 5.5e-18
and 2.5e-17 of the exact H (1.1e-16, 2.3e-16 and 2.7e-16), and verify's
mb round-trip error reads 1.99e-16 (3.13e-16) and 1.70e-14 (1.68e-14).
A change meant to keep every figure, such as a refactor, must leave these
files as they are.
"""

from pathlib import Path

import pytest

from entromin.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
SPECS = sorted(p.stem for p in (ROOT / "specs").glob("*.emp"))


@pytest.mark.parametrize("name", SPECS)
def test_cli_output_matches_golden(name, tmp_path, capsys):
    ext = "csv" if (GOLDEN / f"{name}.csv").exists() else "json"
    out = tmp_path / f"{name}.{ext}"
    assert main(["--spec", str(ROOT / "specs" / f"{name}.emp"), "--out", str(out)]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.stdout").read_text()
    assert out.read_bytes() == (GOLDEN / f"{name}.{ext}").read_bytes()
