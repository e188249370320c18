import json
import os
import subprocess
import sys

import numpy as np
import pytest

from schemeflow import expr as ex
from schemeflow import polyring as pr
from schemeflow.cli import (
    EXIT_ERROR,
    EXIT_FAILED,
    EXIT_OK,
    EXIT_REFUSED,
    SchemeFileError,
    load_scheme,
    main,
)
from schemeflow.cring import SchemePresentation
from schemeflow.curves import IntegratorOptions

from helpers import count_integrations

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

SPHERE_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "schemes", "sphere_rotation.json"
)

LINE_SCHEME = {
    "variables": ["x", "y"],
    "ideal": ["y^2"],
    "derivation": {"x": "1", "y": "y"},
    "flow_closed_form": ["x + t", "y*exp(t)"],
    "options": {"horizon": 20.0},
    "declared_flags": {"germ_determined": True},
}

SQUARE_SCHEME = {
    "variables": ["x", "y"],
    "region": ["x^2 - 1", "y^2 - 1"],
    "derivation": {"x": "-y", "y": "x"},
    "options": {"horizon": 20.0},
    "declared_flags": {"germ_determined": True},
}


@pytest.fixture
def line_path(tmp_path):
    p = tmp_path / "line.json"
    p.write_text(json.dumps(LINE_SCHEME))
    return str(p)


@pytest.fixture
def power_path(tmp_path):
    # x^400 overflows a double at x = 1000
    p = tmp_path / "power.json"
    p.write_text(json.dumps(dict(LINE_SCHEME, ideal=["x^400 - 1"])))
    return str(p)


@pytest.fixture
def square_path(tmp_path):
    p = tmp_path / "square.json"
    p.write_text(json.dumps(SQUARE_SCHEME))
    return str(p)


class TestLoadScheme:
    def test_well_formed(self, line_path):
        sf = load_scheme(line_path)
        assert sf.scheme.vars.names == ("x", "y")
        assert len(sf.field.coeffs) == 2
        assert sf.flow_closed_form is not None
        assert sf.options.horizon == 20.0
        assert sf.declared_flags["germ_determined"] is True

    def test_derivation_must_cover_variables(self, tmp_path):
        bad = dict(LINE_SCHEME, derivation={"x": "1"})
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(bad))
        with pytest.raises(SchemeFileError, match="derivation"):
            load_scheme(str(p))

    def test_unknown_keys_rejected(self, tmp_path):
        bad = dict(LINE_SCHEME, extra_field=1)
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(bad))
        with pytest.raises(SchemeFileError, match="unknown keys"):
            load_scheme(str(p))

    @pytest.mark.parametrize(
        "key, value",
        [
            ("rel_tol", 1e-8),
            ("abs_tol", 1e-9),
            ("horizon", 7),  # read as 7.0
            ("probe_step", 1e-5),
            ("event_tol", 1e-11),
            ("max_steps", 123),
            ("max_steps", 1e6),  # an integral float is an integer
            ("unknown_opt", 1),
        ],
    )
    def test_options_reach_the_integrator(self, key, value, tmp_path, capsys):
        # every IntegratorOptions field, read as its default's type; any
        # other key exits 1
        p = tmp_path / "opts.json"
        p.write_text(json.dumps(dict(LINE_SCHEME, options={key: value})))
        if key == "unknown_opt":
            assert main(["validate", "--scheme", str(p)]) == EXIT_ERROR
            want = f"error: {p}: unknown options ['unknown_opt']\n"
            assert capsys.readouterr().err == want
            return
        got = getattr(load_scheme(str(p)).options, key)
        assert got == value and type(got) is type(getattr(IntegratorOptions(), key))

    @pytest.mark.parametrize(
        "key, value, why",
        [
            ("horizon", True, "option 'horizon' must be a number"),
            ("horizon", "abc", "option 'horizon' must be a number"),
            ("horizon", None, "option 'horizon' must be a number"),
            ("horizon", 10**400, "option 'horizon' is too large"),
            ("eps_z", "abc", "option 'eps_z' must be a number"),
            ("eps_z", False, "option 'eps_z' must be a number"),
            ("max_steps", 2.7, "option 'max_steps' must be an integer"),
            ("max_steps", False, "option 'max_steps' must be a number"),
            ("max_steps", 0, "bad options: max_steps must be at least 1"),
            ("rel_tol", float("nan"), "bad options: rel_tol must be positive"),
            ("eps_z", float("nan"), "zero-set tolerance must be positive"),
        ],
    )
    def test_bad_option_values_exit_one(self, key, value, why, tmp_path, capsys):
        p = tmp_path / "opts.json"
        p.write_text(json.dumps(dict(LINE_SCHEME, options={key: value})))
        assert main(["validate", "--scheme", str(p)]) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {p}: {why}\n"

    def test_non_string_expression_rejected(self, tmp_path):
        bad = dict(SQUARE_SCHEME, region=[3])
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(bad))
        with pytest.raises(SchemeFileError, match="must be a string"):
            load_scheme(str(p))

    def test_expression_errors_reported(self, tmp_path):
        bad = dict(LINE_SCHEME, ideal=["abs(y)"])
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(bad))
        with pytest.raises(SchemeFileError, match="non-smooth"):
            load_scheme(str(p))


class TestCheckCommand:
    def test_certified_exits_zero(self, line_path, capsys):
        code = main(["check", "--scheme", line_path])
        assert code == EXIT_OK
        assert "certified" in capsys.readouterr().out

    def test_failing_derivation_exits_two(self, tmp_path, capsys):
        bad = dict(LINE_SCHEME, derivation={"x": "0", "y": "1"})
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(bad))
        code = main(["check", "--scheme", str(p)])
        assert code == EXIT_FAILED
        out = capsys.readouterr().out
        assert "2*y" in out

    def test_degree_cap_exits_two(self, tmp_path, monkeypatch, capsys):
        scheme = dict(
            LINE_SCHEME,
            ideal=["x^3 - 2*x*y", "x^2*y - 2*y^2 + x"],
            derivation={"x": "x", "y": "y"},
        )
        del scheme["flow_closed_form"]
        p = tmp_path / "cap.json"
        p.write_text(json.dumps(scheme))
        real = pr.groebner_basis
        monkeypatch.setattr(
            pr, "groebner_basis", lambda gens, order, degree_cap: real(gens, order, 1)
        )
        assert main(["check", "--scheme", str(p)]) == EXIT_FAILED
        assert "error:" in capsys.readouterr().err

    def test_non_string_expression_exits_one(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(dict(SQUARE_SCHEME, region=[3])))
        assert main(["check", "--scheme", str(p)]) == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_malformed_file_exits_one(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        assert main(["check", "--scheme", str(p)]) == EXIT_ERROR
        assert main(["check", "--scheme", str(tmp_path / "missing.json")]) == EXIT_ERROR


class TestCurveCommand:
    def test_translation_rows(self, line_path, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        code = main([
            "curve", "--scheme", line_path, "--point", "2,0",
            "--samples", "5", "--out", str(out),
        ])
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[1] == "t,x1,x2,residual"
        for row in lines[2:]:
            t, x1, x2, _ = row.split(",")
            assert abs(float(x1) - (2.0 + float(t))) <= 1e-6
            assert abs(float(x2)) <= 1e-9

    def test_corner_single_row(self, square_path, tmp_path):
        out = tmp_path / "corner.csv"
        code = main([
            "curve", "--scheme", square_path, "--point", "1,1", "--out", str(out),
        ])
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert "singleton" in lines[0]
        assert len(lines) == 3

    def test_point_off_scheme_exits_two(self, line_path):
        assert main(["curve", "--scheme", line_path, "--point", "0,0.5"]) == EXIT_FAILED

    def test_overflowing_point_exits_two(self, power_path, capsys):
        assert main(["curve", "--scheme", power_path, "--point=1000,0"]) == EXIT_FAILED
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "residual inf" in err

    @pytest.mark.parametrize("command", ["curve", "flow"])
    def test_nan_point_exits_one(self, command, square_path, capsys):
        # the square's constraints are all NaN there, so its residual reads 0
        argv = [command, "--scheme", square_path, "--point", "nan,0"]
        assert main(argv + (["--time", "0.5"] if command == "flow" else [])) == EXIT_ERROR
        assert capsys.readouterr().err == "error: point (nan, 0.0) has a NaN coordinate\n"

    def test_step_limit_exits_two(self, tmp_path, capsys):
        p = tmp_path / "short.json"
        p.write_text(json.dumps(dict(LINE_SCHEME, options={"horizon": 20.0, "max_steps": 2})))
        assert main(["curve", "--scheme", str(p), "--point", "2,0"]) == EXIT_FAILED
        assert "error: exceeded 2 accepted steps" in capsys.readouterr().err


    def test_stiff_field_prints_only_the_step_limit(self, tmp_path):
        # the stiff field's accepted steps overflow the dense output; numpy's
        # warnings about that must not reach stderr
        p = tmp_path / "stiff.json"
        p.write_text(json.dumps({
            "variables": ["x", "y"],
            "ideal": ["y"],
            "derivation": {"x": "-1000000*x", "y": "0"},
            "options": {"horizon": 1.0, "max_steps": 3000},
        }))
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.run(
            [sys.executable, "-m", "schemeflow.cli", "curve", "--scheme", str(p), "--point", "1,0"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == EXIT_FAILED
        assert proc.stderr == "error: exceeded 3000 accepted steps\n"
        assert proc.stdout == ""

    def test_scientific_notation_in_a_scheme_file(self, tmp_path, capsys):
        # 1e6 and 1E6 are the exact integer, 2.5e-3 the exact 1/400
        p = tmp_path / "sci.json"
        p.write_text(json.dumps(dict(
            LINE_SCHEME, derivation={"x": "2.5e-3*1E6 - 1.5e3", "y": "1e0*y"}
        )))
        sf = load_scheme(str(p))
        assert ex.format_expr(sf.field.coeffs[0]) == "1000"
        code = main(["flow", "--scheme", str(p), "--point", "1,0", "--time", "2"])
        assert code == EXIT_OK
        x, y = capsys.readouterr().out.strip().split(",")
        assert abs(float(x) - 2001.0) <= 1e-9 and float(y) == 0.0


class TestFlowCommand:
    def test_flow_value(self, line_path, capsys):
        code = main(["flow", "--scheme", line_path, "--point", "1,0", "--time", "2"])
        assert code == EXIT_OK
        x, y = capsys.readouterr().out.strip().split(",")
        assert abs(float(x) - 3.0) <= 1e-9
        assert abs(float(y)) <= 1e-12

    def test_corner_time_exits_two(self, square_path):
        code = main(["flow", "--scheme", square_path, "--point", "1,1", "--time", "0.5"])
        assert code == EXIT_FAILED

    def test_overflowing_point_exits_two(self, power_path, capsys):
        code = main(["flow", "--scheme", power_path, "--point=1000,0", "--time", "1"])
        assert code == EXIT_FAILED
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "residual inf" in err

    def test_step_limit_exits_two(self, tmp_path, capsys):
        p = tmp_path / "short.json"
        p.write_text(json.dumps(dict(LINE_SCHEME, options={"horizon": 20.0, "max_steps": 2})))
        code = main(["flow", "--scheme", str(p), "--point", "1,0", "--time", "2"])
        assert code == EXIT_FAILED
        assert "error: exceeded 2 accepted steps" in capsys.readouterr().err


class TestDomainCommand:
    def test_csv_written(self, line_path, tmp_path):
        out = tmp_path / "domain.csv"
        code = main([
            "domain", "--scheme", line_path, "--grid", "9",
            "--box=-3:3,-1:1", "--out", str(out),
        ])
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x1,x2,Kp_lo,Kp_hi,lo_closed,hi_closed,class"
        assert len(lines) == 10
        assert all("horizon-complete" in ln for ln in lines[1:])

    def test_one_integration_per_row(self, square_path, tmp_path, monkeypatch):
        log = count_integrations(monkeypatch)
        out = tmp_path / "domain.csv"
        code = main([
            "domain", "--scheme", square_path, "--grid", "3",
            "--box=-0.2:1,-0.2:1", "--out", str(out),
        ])
        assert code == EXIT_OK
        rows = out.read_text().strip().splitlines()[1:]
        assert len(rows) == 9
        assert {"singleton", "closed", "horizon-complete"} <= {r.split(",")[-1] for r in rows}
        assert len(log.points) == len(rows) == len(set(log.points))
        assert len(log.batches) == 1

    def test_base_points_checked_in_batches(self, square_path, tmp_path, monkeypatch):
        # every residual call of the run has a batch of points, none one point
        real = SchemePresentation.residual_fn
        widths = []

        def recording_residual_fn(scheme):
            f = real(scheme)

            def recording(p):
                widths.append(p.shape[1] if isinstance(p, np.ndarray) and p.ndim == 2 else 1)
                return f(p)

            return recording

        monkeypatch.setattr(SchemePresentation, "residual_fn", recording_residual_fn)
        out = tmp_path / "domain.csv"
        code = main([
            "domain", "--scheme", square_path, "--grid", "9", "--box=-1:1,-1:1", "--out", str(out),
        ])
        assert code == EXIT_OK
        assert widths and widths.count(1) == 0

    @pytest.mark.parametrize("box", ["0:0,-1:1", "1:-1,-1:1", "-1:inf,-1:1", "nan:1,-1:1"])
    def test_empty_or_reversed_box_exits_one(self, square_path, box, capsys):
        code = main(["domain", "--scheme", square_path, "--grid", "3", f"--box={box}"])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err.startswith("error: box axis")

    def test_impossible_grid_exits_one(self, square_path, capsys):
        # 10^16 grid points: numpy refuses the allocation at once.  Never
        # test with a grid that could really be allocated.
        assert main(["domain", "--scheme", square_path, "--grid", "100000000"]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: ") and err.count("\n") == 1

    def test_deterministic_bytes(self, line_path, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["domain", "--scheme", line_path, "--grid", "7", "--box=-3:3,-1:1"]
        assert main(args + ["--out", str(a)]) == EXIT_OK
        assert main(args + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()


class TestGroupoidCommand:
    def test_passes_on_complete_field(self, line_path, capsys):
        code = main([
            "groupoid", "--scheme", line_path, "--samples", "50", "--box=-3:3,-1:1",
        ])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "verdict: pass" in out
        assert "pullback identities" in out

    def test_refuses_incomplete_field(self, square_path, capsys):
        code = main(["groupoid", "--scheme", square_path, "--samples", "10"])
        assert code == EXIT_REFUSED
        assert "refused" in capsys.readouterr().err

    @pytest.mark.parametrize("seed, samples", [(5, 100), (0, 150), (2, 150)])
    def test_refuses_a_target_curve_cut_short(self, seed, samples, capsys):
        # drift cuts a target's curve short of a time the axiom sweep reads
        code = main([
            "groupoid", "--scheme", SPHERE_PATH, "--seed", str(seed), "--samples", str(samples),
        ])
        captured = capsys.readouterr()
        assert code == EXIT_REFUSED
        assert captured.out == ""
        assert "Traceback" not in captured.err
        (line,) = captured.err.splitlines()
        assert line.startswith("refused: curve through (")
        assert " outside [" in line and line.endswith("requires horizon-complete curves")

    def test_field_compiled_once_per_job(self, monkeypatch):
        # the completeness gate and both sweep waves integrate curves; they
        # share one compiled right-hand side
        compiled = []
        real = ex.as_callable

        def counting(e):
            compiled.append(e)
            return real(e)

        monkeypatch.setattr(ex, "as_callable", counting)
        argv = ["groupoid", "--scheme", SPHERE_PATH, "--samples", "3", "--seed", "5"]
        assert main(argv) == EXIT_OK
        coeffs = load_scheme(SPHERE_PATH).field.coeffs
        assert sum(e == coeffs for e in compiled) == 1


class TestValidateCommand:
    def test_reports_and_exits_zero(self, line_path, capsys):
        assert main(["validate", "--scheme", line_path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "t=0 identity ok" in out
        assert out.strip().endswith("ok")

    def test_bad_closed_form_exits_one(self, tmp_path):
        bad = dict(LINE_SCHEME, flow_closed_form=["x + t + 1", "y"])
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(bad))
        assert main(["validate", "--scheme", str(p)]) == EXIT_ERROR


# every subcommand with the flags it needs on the thickened line
_COMMAND_TAILS = {
    "check": [],
    "curve": ["--point", "2,0", "--samples", "5"],
    "domain": ["--grid", "3", "--box=-3:3,-1:1"],
    "flow": ["--point", "1,0", "--time", "2"],
    "groupoid": ["--samples", "5", "--box=-3:3,-1:1"],
    "validate": [],
}


class TestFlags:
    def test_usage_errors_exit_one(self, line_path, capsys):
        assert main(["check"]) == EXIT_ERROR
        assert "the following arguments are required: --scheme" in capsys.readouterr().err
        assert main(["domain", "--scheme", line_path, "--grid", "x"]) == EXIT_ERROR
        assert "argument --grid: invalid int value: 'x'" in capsys.readouterr().err
        assert main(["check", "--help"]) == EXIT_OK
        assert "--scheme" in capsys.readouterr().out

    @pytest.mark.parametrize("command", sorted(set(_COMMAND_TAILS) - {"groupoid"}))
    def test_seed_only_on_groupoid(self, command, line_path, capsys):
        argv = [command, "--scheme", line_path, *_COMMAND_TAILS[command], "--seed", "1"]
        assert main(argv) == EXIT_ERROR
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(_COMMAND_TAILS))
    def test_out_holds_what_stdout_would(self, command, line_path, tmp_path, capsys):
        argv = [command, "--scheme", line_path, *_COMMAND_TAILS[command]]
        assert main(argv) == EXIT_OK
        stdout = capsys.readouterr().out
        out = tmp_path / "out.txt"
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == ""
        assert stdout and out.read_text() == stdout
