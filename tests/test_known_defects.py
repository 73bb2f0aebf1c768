"""The register of known defects: one test per open defect, asserting the
right behaviour, and marked xfail(strict=True) with the error that the
defect gives today.

A change that mends a defect sees its test pass, which strict=True turns
into a failure (XPASS): the change removes the marker, and the test stays
as its regression test.  `raises=` names today's error, so a defect that
changes form, a refusal that turns into a wrong value for instance, fails
the suite as well.  An entry leaves the register only by being mended, and
no other test moves into it.  CHANGES.md lists each entry added or
removed; ROADMAP item 26 lists the open defects not yet entered.
"""

import pytest

from entromin import (
    Arithmetic,
    ConfigurationError,
    EmpSolver,
    Lattice3D,
    PowerLaw,
    RangeError,
    UnsupportedFamilyError,
)


def _item_21(error):
    return pytest.mark.xfail(strict=True, raises=error, reason="ROADMAP item 21")


class TestScaleRefusals:
    """Under sigma -> c sigma with v -> c v the value H is unchanged, so each
    problem here has the value of its rescaling to c = 1, which solves.  The
    solver refuses them: its profile probe and slope ladder sit at absolute
    y (-alpha - 1, -alpha - 2^(k/4)), and its level ties are absolute."""

    @_item_21(ConfigurationError)
    def test_lattice_levels_at_a_small_scale(self):
        # f could not be certified finite at y = -1
        got = EmpSolver(Lattice3D(1e-3)).solve_mb(1.0, 5.5e-3).value
        assert got == pytest.approx(-2.8825993032998696, rel=1e-12)  # Lattice3D(1) at (1, 5.5)

    @_item_21(ConfigurationError)
    def test_power_law_levels_at_a_small_scale(self):
        # f could not be certified finite at y = -1
        got = EmpSolver(PowerLaw(1e-3, 0.5)).solve_mb(1.0, 3.5e-3).value
        assert got == pytest.approx(-4.741867346462763, rel=1e-12)  # PowerLaw(1, 0.5) at (1, 3.5)

    @_item_21(RangeError)
    def test_arithmetic_levels_at_a_large_scale(self):
        # f(-1) underflows to 0, where the slope ladder starts
        got = EmpSolver(Arithmetic(3e3, 1e3)).solve_mb(1.0, 5e3).value
        assert got == pytest.approx(-2.3862943611198904, rel=1e-12)  # Arithmetic(3, 1) at (1, 5)

    @_item_21(UnsupportedFamilyError)
    def test_arithmetic_levels_at_a_tiny_scale(self):
        # the level tie scan does not terminate: the solver's build raises
        got = EmpSolver(Arithmetic(0.0, 1e-100)).solve_mb(1.0, 2e-100).value
        want = EmpSolver(Arithmetic(0.0, 1.0)).solve_mb(1.0, 2.0).value
        assert got == pytest.approx(want, rel=1e-12)
