"""Command-line front end: spec parsing round trips, per-mode outputs,
CSV determinism across worker counts, exit codes."""

import json
import math
import threading
from pathlib import Path

import pytest

from entromin import NumericalFailureError, series, solver
from entromin.cli import main
from entromin.rootfind import solve_bracketed
from entromin.specfile import ParseError, parse_spec

from conftest import serialize_spec

SPECS = Path(__file__).resolve().parent.parent / "specs"

GEO_SOLVE = """\
[family]
name = geometric

[problem]
entropy = mb
mode = solve
u = 1.0
v = 2.0

[tolerances]
tol = 1e-10
epsilon = 1e-6
"""


def _write(tmp_path, text, name="prob.emp"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestSpecFile:
    def test_round_trip_identity(self):
        spec = parse_spec(GEO_SOLVE)
        again = parse_spec(serialize_spec(spec))
        assert again == spec

    def test_round_trip_sweep_and_forward(self):
        sweep = GEO_SOLVE.replace("mode = solve\nu = 1.0\nv = 2.0", (
            "mode = sweep\nu_min = 0.5\nu_max = 2.0\nu_steps = 4\n"
            "v_min = 1.0\nv_max = 3.0\nv_steps = 3"
        ))
        spec = parse_spec(sweep)
        assert parse_spec(serialize_spec(spec)) == spec
        fwd = GEO_SOLVE.replace("mode = solve\nu = 1.0\nv = 2.0", "mode = forward\nx = 0.1\ny = -0.7")
        spec = parse_spec(fwd)
        assert parse_spec(serialize_spec(spec)) == spec

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ParseError) as err:
            parse_spec("[family]\nname = geometric\nbogus line\n")
        assert "line 3" in str(err.value)

    def test_unknown_entropy(self):
        with pytest.raises(ParseError):
            parse_spec(GEO_SOLVE.replace("entropy = mb", "entropy = zz"))

    def test_missing_targets(self):
        with pytest.raises(ParseError):
            parse_spec(GEO_SOLVE.replace("u = 1.0\n", ""))

    def test_family_parameters(self):
        text = GEO_SOLVE.replace(
            "name = geometric", "name = weighted-geometric\nrate = 1.0\npower = 3.0"
        )
        fam = parse_spec(text).build_family()
        assert fam.p(1) == pytest.approx(math.e, rel=1e-14)

    def test_explicit_family_block(self):
        text = GEO_SOLVE.replace(
            "name = geometric",
            "name = explicit\np = 1,1\nsigma = 2,2\ntail = arithmetic\n"
            "tail.offset = 2\ntail.slope = 1",
        )
        fam = parse_spec(text).build_family()
        assert fam.sigma(1) == 2.0 and fam.sigma(3) == 5.0


class TestSolveMode:
    def test_exit_zero_and_json_record(self, tmp_path, capsys):
        out = tmp_path / "rec.json"
        rc = main(["--spec", _write(tmp_path, GEO_SOLVE), "--out", str(out)])
        assert rc == 0
        rec = json.loads(out.read_text())
        assert rec["region"] == "interior"
        assert rec["attained"] is True
        assert rec["value"] == pytest.approx(-1.0 - 2.0 * math.log(2.0), abs=1e-9)
        assert rec["terms"][0] == pytest.approx(0.5, abs=1e-11)
        assert rec["multipliers"]["y"] == pytest.approx(-math.log(2.0), abs=1e-10)

    def test_csv_format(self, tmp_path):
        out = tmp_path / "rec.csv"
        rc = main(
            ["--spec", _write(tmp_path, GEO_SOLVE), "--out", str(out), "--format", "csv"]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "u,v,region,value,attained"
        assert lines[1].startswith("1.0,2.0,interior,")

    def test_infeasible_point_reports_inf(self, tmp_path):
        out = tmp_path / "rec.csv"
        text = GEO_SOLVE.replace("v = 2.0", "v = 0.5")
        rc = main(["--spec", _write(tmp_path, text), "--out", str(out), "--format", "csv"])
        assert rc == 0
        assert "below-cone,+inf,false" in out.read_text()

    def test_strict_feasible_exit_code(self, tmp_path):
        text = GEO_SOLVE.replace("v = 2.0", "v = 0.5")
        rc = main(["--spec", _write(tmp_path, text), "--strict-feasible"])
        assert rc == 3

    def test_beyond_theta2_trace(self, tmp_path, capsys):
        text = GEO_SOLVE.replace(
            "name = geometric", "name = weighted-geometric\nrate = 1.0\npower = 3.0"
        )
        rc = main(["--spec", _write(tmp_path, text)])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "beyond-theta2" in captured
        assert "attained  : false" in captured

    def test_be_inverse_via_cli(self, tmp_path, capsys):
        text = GEO_SOLVE.replace("entropy = mb", "entropy = be").replace(
            "u = 1.0\nv = 2.0", "u = 0.5\nv = 1.2"
        )
        rc = main(["--spec", _write(tmp_path, text)])
        assert rc == 0
        assert "best-effort" in capsys.readouterr().out

    def test_failed_be_inverse_exits_four(self, tmp_path, capsys):
        # v/u = 1 + 1e-6 sits so near theta1 = 1 that the dual Hessian
        # degenerates: the failure and its last iterate are reported, no file
        text = GEO_SOLVE.replace("entropy = mb", "entropy = be").replace(
            "v = 2.0", "v = 1.000001"
        )
        out = tmp_path / "rec.json"
        rc = main(["--spec", _write(tmp_path, text), "--out", str(out)])
        assert rc == 4
        printed = capsys.readouterr().out
        assert "numerical failure: newton dual hessian degenerate" in printed
        assert "last iterate: x = " in printed
        assert not out.exists()

    def test_terms_flag(self, tmp_path):
        out = tmp_path / "rec.json"
        rc = main(["--spec", _write(tmp_path, GEO_SOLVE), "--out", str(out), "--terms", "3"])
        assert rc == 0
        assert len(json.loads(out.read_text())["terms"]) == 3


class TestClassifyMode:
    def test_record(self, tmp_path):
        out = tmp_path / "rec.json"
        text = GEO_SOLVE.replace("mode = solve", "mode = classify")
        rc = main(["--spec", _write(tmp_path, text), "--out", str(out)])
        assert rc == 0
        rec = json.loads(out.read_text())
        assert rec["region"] == "interior" and rec["attained"] is True

    # (region, value = h*, attained) as printed when classify mode computed
    # each field by its own solver call
    @pytest.mark.parametrize(
        "spec, region, value, attained",
        [
            ("geometric_solve.emp", "interior", "-2.386294361119891", "true"),
            ("zeta_solve.emp", "beyond-theta2", "-3.184034175391493", "false"),
        ],
    )
    def test_output_of_shipped_specs(self, tmp_path, capsys, spec, region, value, attained):
        text = (SPECS / spec).read_text().replace("mode = solve", "mode = classify")
        path = _write(tmp_path, text)
        printed = f"region  : {region}\nvalue   : {value}\nh*      : {value}\n"
        rec = {
            "attained": attained == "true",
            "h_star": float(value),
            "mode": "classify",
            "region": region,
            "u": 1.0,
            "v": 2.0,
            "value": float(value),
        }
        out = tmp_path / "rec.json"
        assert main(["--spec", path, "--out", str(out)]) == 0
        assert capsys.readouterr().out == printed
        assert out.read_text() == json.dumps(rec, indent=2, sort_keys=True) + "\n"
        out = tmp_path / "rec.csv"
        assert main(["--spec", path, "--out", str(out), "--format", "csv"]) == 0
        assert capsys.readouterr().out == printed
        assert out.read_text() == (
            f"u,v,region,value,attained\n1.0,2.0,{region},{value},{attained}\n"
        )

    def test_one_slope_inversion(self, tmp_path, monkeypatch):
        calls = []
        inverse = series._invert_slope  # phi_inverse goes through it too

        def counting(*args, **kwargs):
            calls.append(args[1])
            return inverse(*args, **kwargs)

        monkeypatch.setattr(series, "_invert_slope", counting)
        text = GEO_SOLVE.replace("mode = solve", "mode = classify")
        assert main(["--spec", _write(tmp_path, text)]) == 0
        assert calls == [2.0]


class TestForwardMode:
    def test_record(self, tmp_path):
        out = tmp_path / "rec.json"
        text = GEO_SOLVE.replace(
            "mode = solve\nu = 1.0\nv = 2.0", "mode = forward\nx = 0.0\ny = -0.6931471805599453"
        )
        rc = main(["--spec", _write(tmp_path, text), "--out", str(out)])
        assert rc == 0
        rec = json.loads(out.read_text())
        assert rec["u"] == pytest.approx(1.0, abs=1e-10)
        assert rec["v"] == pytest.approx(2.0, abs=1e-10)

    @pytest.mark.parametrize("entropy", ["mb", "fd"])
    def test_huge_x_exits_four(self, tmp_path, capsys, entropy):
        text = GEO_SOLVE.replace(
            "mode = solve\nu = 1.0\nv = 2.0", "mode = forward\nx = 800.0\ny = -1.0"
        ).replace("entropy = mb", f"entropy = {entropy}")
        assert main(["--spec", _write(tmp_path, text)]) == 4
        assert "numerical failure" in capsys.readouterr().err

    def test_huge_negative_x_is_the_origin(self, tmp_path):
        out = tmp_path / "rec.json"
        text = GEO_SOLVE.replace(
            "mode = solve\nu = 1.0\nv = 2.0", "mode = forward\nx = -800.0\ny = -1.0"
        )
        assert main(["--spec", _write(tmp_path, text), "--out", str(out)]) == 0
        rec = json.loads(out.read_text())
        assert (rec["u"], rec["v"], rec["region"]) == (0.0, 0.0, "origin")


SWEEP = """\
[family]
name = geometric

[problem]
entropy = mb
mode = sweep
u_min = 1.0
u_max = 2.0
u_steps = 3
v_min = 1.0
v_max = 3.0
v_steps = 3

[tolerances]
tol = 1e-10
epsilon = 1e-6
"""


class TestSweepMode:
    def test_rows_and_order(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["--spec", _write(tmp_path, SWEEP), "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "u,v,region,value,attained"
        assert len(lines) == 10
        cells = [line.split(",")[:2] for line in lines[1:]]
        assert cells == sorted(cells, key=lambda r: (float(r[0]), float(r[1])))

    def test_bit_identical_across_workers(self, tmp_path):
        path = _write(tmp_path, SWEEP)
        outs = []
        for workers in ("1", "4"):
            out = tmp_path / f"sweep_{workers}.csv"
            rc = main(["--spec", path, "--out", str(out), "--workers", workers])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_rows_from_one_serial_solve_each(self, tmp_path, monkeypatch):
        threads = []
        solve_mb = solver.EmpSolver.solve_mb

        def counting(self, u, v):
            threads.append(threading.get_ident())
            return solve_mb(self, u, v)

        def no_value_mb(self, u, v):
            raise AssertionError("sweep rows come from solve_mb")

        monkeypatch.setattr(solver.EmpSolver, "solve_mb", counting)
        monkeypatch.setattr(solver.EmpSolver, "value_mb", no_value_mb)
        out = tmp_path / "sweep.csv"
        rc = main(["--spec", _write(tmp_path, SWEEP), "--out", str(out), "--workers", "4"])
        assert rc == 0
        assert threads == [threading.get_ident()] * 9
        assert len(out.read_text().splitlines()) == 10

    def test_grid_with_origin(self, tmp_path):
        text = SWEEP.replace("u_min = 1.0", "u_min = 0.0").replace("v_min = 1.0", "v_min = 0.0")
        out = tmp_path / "sweep.csv"
        rc = main(["--spec", _write(tmp_path, text), "--out", str(out)])
        assert rc == 0
        assert "0.0,0.0,origin,0.0,true" in out.read_text()

    def test_degenerate_constant_rows(self, tmp_path):
        text = SWEEP.replace("name = geometric", "name = constant\nlevel = 1.0")
        out = tmp_path / "sweep.csv"
        rc = main(["--spec", _write(tmp_path, text), "--out", str(out)])
        assert rc == 0
        rows = out.read_text().splitlines()[1:]
        ray = [r for r in rows if r.split(",")[0] == r.split(",")[1]]
        assert ray and all("degenerate-constant-sigma,-inf,false" in r for r in ray)

    def test_sweep_requires_mb(self, tmp_path):
        text = SWEEP.replace("entropy = mb", "entropy = fd")
        rc = main(["--spec", _write(tmp_path, text)])
        assert rc == 2


class TestVerifyMode:
    def test_geometric_suite_passes(self, tmp_path, capsys):
        text = GEO_SOLVE.replace("mode = solve\nu = 1.0\nv = 2.0", "mode = verify")
        rc = main(["--spec", _write(tmp_path, text)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_corrupted_weights_fail_construction(self, tmp_path):
        text = GEO_SOLVE.replace(
            "name = geometric",
            "name = explicit\np = 0.5,1\nsigma = 1,2\ntail = arithmetic\n"
            "tail.offset = 2\ntail.slope = 1",
        ).replace("mode = solve\nu = 1.0\nv = 2.0", "mode = verify")
        rc = main(["--spec", _write(tmp_path, text)])
        assert rc == 2

    def test_zeta_suite_exercises_dichotomy(self, tmp_path, capsys):
        text = GEO_SOLVE.replace(
            "name = geometric", "name = weighted-geometric\nrate = 1.0\npower = 3.0"
        ).replace("mode = solve\nu = 1.0\nv = 2.0", "mode = verify")
        rc = main(["--spec", _write(tmp_path, text)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "beyond-theta2-dichotomy" in out

    def test_degenerate_family_suite(self, tmp_path, capsys):
        text = GEO_SOLVE.replace("name = geometric", "name = constant\nlevel = 5.0").replace(
            "mode = solve\nu = 1.0\nv = 2.0", "mode = verify"
        )
        rc = main(["--spec", _write(tmp_path, text)])
        assert rc == 0
        assert "degenerate-detection" in capsys.readouterr().out

    def test_all_divergent_family_suite(self, tmp_path, capsys):
        text = GEO_SOLVE.replace("name = geometric", "name = divergent").replace(
            "mode = solve\nu = 1.0\nv = 2.0", "mode = verify"
        )
        rc = main(["--spec", _write(tmp_path, text)])
        assert rc == 0
        assert (
            "PASS  degenerate-detection: cone region degenerate-all-divergent, "
            "value -inf, h = +inf"
        ) in capsys.readouterr().out.splitlines()


class TestExitCodes:
    def test_missing_file(self):
        assert main(["--spec", "/nonexistent/x.emp"]) == 2

    def test_malformed_spec(self, tmp_path):
        assert main(["--spec", _write(tmp_path, "not a spec at all")]) == 2

    def test_unknown_family(self, tmp_path):
        text = GEO_SOLVE.replace("name = geometric", "name = nosuch")
        assert main(["--spec", _write(tmp_path, text)]) == 2

    def test_non_bracket_is_a_numerical_failure(self, tmp_path, capsys, monkeypatch):
        with pytest.raises(NumericalFailureError, match="not a bracket"):
            solve_bracketed(lambda x: x, 1.0, 2.0, 1.0, 2.0, residual_tol=1e-12)

        def solve_mb(self, u, v):
            return solve_bracketed(lambda x: x, 1.0, 2.0, 1.0, 2.0, residual_tol=1e-12)

        monkeypatch.setattr(solver.EmpSolver, "solve_mb", solve_mb)
        assert main(["--spec", _write(tmp_path, GEO_SOLVE)]) == 4
        assert "numerical failure: not a bracket" in capsys.readouterr().err
