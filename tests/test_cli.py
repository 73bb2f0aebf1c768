"""Command-line front end: spec parsing round trips, per-mode outputs,
CSV determinism across worker counts, exit codes."""

import dataclasses
import json
import math
import threading
from pathlib import Path

import pytest

from entromin import NumericalFailureError, Region, cli, sequences, series, solver
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

    def test_equal_specs_share_one_family(self):
        # one instance per family, so that its term table is built once
        text = GEO_SOLVE.replace("name = geometric", "name = loglevels\nscale = 0.75")
        fam = parse_spec(text).build_family()
        assert parse_spec(text).build_family() is fam
        assert parse_spec(text.replace("mode = solve", "mode = classify")).build_family() is fam


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

    def test_strict_feasible_exit_code(self, tmp_path, capsys):
        text = GEO_SOLVE.replace("mode = solve", "mode = classify").replace("v = 2.0", "v = 0.5")
        assert main(["--spec", _write(tmp_path, text), "--strict-feasible"]) == 3
        assert capsys.readouterr().out.startswith("region  : below-cone\n")


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

    def test_strict_feasible_exits_zero(self, tmp_path, monkeypatch):
        # the requested multipliers are always feasible, even where the
        # certified sums of a tiny u land (u, v) below the cone
        path = _write(tmp_path, FORWARD)
        assert main(["--spec", path, "--strict-feasible"]) == 0
        forward_solve = solver.EmpSolver.forward_solve

        def below_cone(self, kind, x, y):
            return dataclasses.replace(forward_solve(self, kind, x, y), region=Region.BELOW_CONE)

        monkeypatch.setattr(solver.EmpSolver, "forward_solve", below_cone)
        out = tmp_path / "rec.json"
        assert main(["--spec", path, "--strict-feasible", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["region"] == "below-cone"


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


FORWARD = GEO_SOLVE.replace("mode = solve\nu = 1.0\nv = 2.0", "mode = forward\nx = 0.1\ny = -0.7")


class TestSpecErrors:
    """Each error path of the spec parser, with its exact message and line
    (0 where no one line is at fault)."""

    @pytest.mark.parametrize(
        "text, message",
        [
            (GEO_SOLVE.replace("u = 1.0", "u = one"), "line 7: u: not a number: 'one'"),
            (SWEEP.replace("u_steps = 3", "u_steps = 2.5"), "line 9: u_steps: not an integer: '2.5'"),
            (GEO_SOLVE.replace("[problem]", "[extra]"), "line 4: unknown section [extra]"),
            ("name = geometric\n", "line 1: key outside any section"),
            (GEO_SOLVE.replace("u = 1.0", "u ="), "line 7: empty value for 'u'"),
            (GEO_SOLVE.replace("v = 2.0", "v = 2.0\nv = 3.0"), "line 9: duplicate key 'v'"),
            (GEO_SOLVE.replace("name = geometric", ""), "line 0: missing [family] name"),
            (GEO_SOLVE.replace("mode = solve", "mode = bogus"), "line 6: unknown mode 'bogus'"),
            (SWEEP.replace("v_steps = 3\n", ""), "line 0: sweep mode requires v_steps"),
            (SWEEP.replace("v_steps = 3", "v_steps = 0"), "line 0: sweep step counts must be >= 1"),
            (FORWARD.replace("y = -0.7\n", ""), "line 0: forward mode requires y"),
            (GEO_SOLVE.replace("v = 2.0", "v = 2.0\nw = 3.0"), "line 9: unexpected key 'w'"),
            (GEO_SOLVE.replace("epsilon = 1e-6", "epsilon = 1e-6\neps = 1"), "line 13: unexpected key 'eps'"),
            (GEO_SOLVE.replace("tol = 1e-10", "tol = 0"), "line 11: tol must be positive"),
            (GEO_SOLVE.replace("tol = 1e-10", "tol = inf"), "line 11: tol must be positive"),
        ],
    )
    def test_parse_error(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_spec(text)
        assert str(err.value) == message
        assert err.value.line == int(message.split(":")[0].split()[1])

    @pytest.mark.parametrize(
        "family, message",
        [
            ("name = explicit\np = 1,1", "line 2: explicit family needs p and sigma lists"),
            ("name = geometric\nbogus = 1", "line 3: family 'geometric' has no parameter 'bogus'"),
            ("name = nosuch", "line 2: unknown family 'nosuch'"),
            # an explicit family ignored keys it does not read
            (
                "name = explicit\np = 1\nsigma = 1\nbogus = 1",
                "line 5: family 'explicit' has no parameter 'bogus'",
            ),
            (
                "name = weighted-geometric\nrate = -1",
                "line 2: weighted-geometric rate must be positive",
            ),
            # a family parameter that is not a number raised a raw ValueError
            ("name = geometric\nslope = abc", "line 3: slope: not a number: 'abc'"),
            ("name = explicit\np = 1,x\nsigma = 1,2", "line 3: p: not a number: 'x'"),
            ("name = constant\nlevel = high", "line 3: level: not a number: 'high'"),
            (
                "name = explicit\np = 1\nsigma = 1\ntail = arithmetic\ntail.slope = q",
                "line 6: tail.slope: not a number: 'q'",
            ),
            ("name = explicit\np = 1\nsigma = 1\ntail = nosuch", "line 5: unknown family 'nosuch'"),
        ],
    )
    def test_family_error(self, tmp_path, capsys, family, message):
        text = GEO_SOLVE.replace("name = geometric", family)
        with pytest.raises(ParseError) as err:
            parse_spec(text).build_family()
        assert str(err.value) == message
        assert main(["--spec", _write(tmp_path, text)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


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

    def test_csv_to_stdout_without_out(self, tmp_path, capsys):
        path = _write(tmp_path, SWEEP)
        out = tmp_path / "sweep.csv"
        assert main(["--spec", path, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert main(["--spec", path, "--format", "json"]) == 0
        assert capsys.readouterr().out == out.read_text()

    def test_strict_feasible_exit_code(self, tmp_path):
        # v < u lies below the cone v >= theta1 u = u at every row
        below = SWEEP.replace("v_min = 1.0", "v_min = 0.1").replace("v_max = 3.0", "v_max = 0.5")
        assert main(["--spec", _write(tmp_path, below), "--strict-feasible"]) == 3
        assert main(["--spec", _write(tmp_path, below)]) == 0
        # one feasible row is enough
        assert main(["--spec", _write(tmp_path, SWEEP), "--strict-feasible"]) == 0

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

    def test_second_run_builds_no_term_table(self, monkeypatch, capsys):
        # a second verify of one spec in the same process reads the family's
        # term table as the first left it: no term-array window ending at
        # or below its 2^13 terms is built again
        path = str(SPECS / "lattice_verify.emp")
        assert main(["--spec", path]) == 0
        calls = []
        for cls in vars(sequences).values():
            if isinstance(cls, type) and "_term_arrays" in vars(cls):
                def counting(self, lo, hi, _term_arrays=vars(cls)["_term_arrays"]):
                    calls.append((type(self).__name__, lo, hi))
                    return _term_arrays(self, lo, hi)

                monkeypatch.setattr(cls, "_term_arrays", counting)
        assert main(["--spec", path]) == 0
        assert "FAIL" not in capsys.readouterr().out
        assert [c for c in calls if c[2] <= sequences._TABLE_MAX] == []

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

    def test_raising_check_fails_and_exits_four(self, tmp_path, capsys, monkeypatch):
        def raising(solver, spec):
            raise NumericalFailureError("no bracket")

        monkeypatch.setattr(cli, "_check_truncation", raising)
        text = GEO_SOLVE.replace("mode = solve\nu = 1.0\nv = 2.0", "mode = verify")
        out = tmp_path / "rec.json"
        assert main(["--spec", _write(tmp_path, text), "--out", str(out)]) == 4
        lines = capsys.readouterr().out.splitlines()
        assert "FAIL  truncation-convergence: raised NumericalFailureError: no bracket" in lines
        assert sum(line.startswith("PASS  ") for line in lines) == len(lines) - 1
        checks = json.loads(out.read_text())["checks"]
        assert {"check": "truncation-convergence", "pass": False,
                "detail": "raised NumericalFailureError: no bracket"} in checks


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
