import json
import math
import re

import numpy as np
import pytest

from sck.cli import (
    COMMANDS,
    SUBCOMMANDS,
    build_report,
    main,
    payload_rows,
    render_csv,
    render_json,
    run_subcommand,
)
from sck.config import ConfigError, parse_pi_expression, parse_run_config

PI2 = math.pi**2


def run_cli(tmp_path, subcommand, config, name="cfg.json", extra=()):
    cfg_path = tmp_path / name
    cfg_path.write_text(json.dumps(config))
    out_path = tmp_path / f"out_{subcommand}_{name}.{config.get('format', 'json')}"
    code = main([subcommand, "--config", str(cfg_path), "--output", str(out_path), *extra])
    text = out_path.read_text() if out_path.exists() else None
    return code, text


EXAMPLE2 = {"system": {"example2": {"N": 4, "b_coeffs": [0.5, 0.5, 0.5, 0.5]}}}
SMALL_SIM = {"T": 0.2, "dt": 0.01, "n_paths": 200, "seed": 11}
DIVFORM_ELLIPTICITY = {
    "system": {"divform1d": {"N": 4, "a": 1.0, "c": 2.0, "b": 1.0}},
    "ellipticity": {"alpha": 0.6, "grid_points": 200},
}

# one config per subcommand, on EXAMPLE2
EVERY_SUBCOMMAND = [
    ("check-n2", {"lambda_grid": ["-3*pi^2"]}),
    ("lambda-set", {"lambda_grid": [0, 1]}),
    ("verdict", {"lambda_grid": [0]}),
    ("invariant-subspace", {}),
    ("assemble", {}),
    ("b-coeffs", {}),
    ("check-n1", {}),
    ("ellipticity", DIVFORM_ELLIPTICITY),
    ("simulate-forward", {"sim": SMALL_SIM, "x0": [1, 0, 0, 0],
                          "control": {"type": "constant", "u": [1.0]}}),
    ("duality", {"sim": SMALL_SIM, "x0": [1, 1, 1, 1],
                 "terminal": {"type": "deterministic", "xi": [0, 1, 0, 0]}}),
    ("girsanov", {"sim": SMALL_SIM, "x0": [1, 1, 1, 1],
                  "girsanov": {"lambda": -1.0, "dt_list": [0.02, 0.01]}}),
    ("apriori", {"sim": SMALL_SIM,
                 "terminal": {"type": "deterministic", "xi": [0.3, 1.0, -0.5, 0.2]}}),
    ("convergence", {"sim": SMALL_SIM,
                     "convergence": {"n_list": [10, 100], "delta_list": [0.1, 0.001]}}),
]

# CSV header of every subcommand, pinned as documented in the README table.
CSV_HEADERS = {
    "check-n1": "condition,lambda,alpha,alpha_im,sigma_min,violated",
    "check-n2": "condition,lambda,alpha,alpha_im,sigma_min,violated",
    "invariant-subspace": "vector_index,coordinate,value",
    "lambda-set": "lambda,in_set,margin,boundary",
    "verdict": "key,value",
    "assemble": "matrix,row,col,value",
    "ellipticity": "key,value",
    "b-coeffs": "mode_index,eigenvalue,coefficient,near_zero",
    "simulate-forward": "time,coordinate,mean,second_moment",
    "duality": "key,value",
    "girsanov": "dt,sup_error",
    "apriori": "sample_index,xi_mean_square,sup_mean_y_square,int_mean_z_square,ratio",
    "convergence": "nres,delta,err_yosida,err_mollifier,err_total,err_bsde",
}


class TestPiExpression:
    def test_forms(self):
        assert parse_pi_expression("pi") == math.pi
        assert parse_pi_expression("-3*pi^2") == pytest.approx(-3 * PI2, rel=1e-15)
        assert parse_pi_expression("2.5") == 2.5
        assert parse_pi_expression("pi^2*0.5") == pytest.approx(0.5 * PI2)
        assert parse_pi_expression("-2") == -2.0

    def test_rejects_garbage(self):
        for bad in ("pi+1", "3**2", "sin(pi)", "", "pi^", "--3"):
            with pytest.raises(ConfigError):
                parse_pi_expression(bad)


class TestParseRunConfig:
    def test_exactly_one_system_source(self):
        with pytest.raises(ConfigError, match="exactly one"):
            parse_run_config({"system": {}})
        with pytest.raises(ConfigError, match="exactly one"):
            parse_run_config({"system": {
                "example2": {"N": 2, "b_coeffs": [1, 1]},
                "matrices": {"A": [[-1]], "B": [[1]]},
            }})

    def test_missing_field_has_path(self):
        with pytest.raises(ConfigError, match="system.matrices.B"):
            parse_run_config({"system": {"matrices": {"A": [[-1.0]]}}})

    def test_lambda_grid_pi_strings(self):
        cfg = parse_run_config(dict(EXAMPLE2, lambda_grid=["-3*pi^2", 0]))
        assert cfg.lambda_grid[0] == pytest.approx(-3 * PI2)

    def test_pi_expression_errors_name_the_field(self):
        with pytest.raises(ConfigError, match=r"^lambda_grid\[1\]: malformed pi-expression"):
            parse_run_config(dict(EXAMPLE2, lambda_grid=[0, "pi+1"]))
        with pytest.raises(ConfigError, match=r"^lambda_grid\[0\]: value is not finite"):
            parse_run_config(dict(EXAMPLE2, lambda_grid=["10^400"]))

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown top-level"):
            parse_run_config(dict(EXAMPLE2, bogus=1))

    def test_resolved_reparses_identically(self):
        raw = dict(
            EXAMPLE2,
            lambda_grid=["-3*pi^2"],
            sim={"T": 1.0, "dt": 0.1, "n_paths": 10, "seed": 3},
        )
        cfg = parse_run_config(raw)
        again = parse_run_config(json.loads(json.dumps(cfg.resolved)))
        assert again.resolved == cfg.resolved

    def test_resolved_form_is_pinned(self):
        # key order matters: reports serialize resolved in this order
        linear = {"type": "linear_in_wt", "xi0": [1, 0, 0, 0], "xi1": ["pi", 0, 0, 0]}
        coefficients = {"a": {"type": "constant", "value": "pi"},
                        "c": {"type": "trigonometric", "sin": [0.2]}, "b": 1}
        cfg = parse_run_config({
            "output_path": "r.json",
            "apriori": {"terminals": [{"type": "deterministic", "xi": ["pi", 0, 0, 0]}]},
            "ellipticity": {},
            "convergence": {"n_list": [10, 100], "delta_list": [0.1, 0.01]},
            "girsanov": {"lambda": "-pi", "dt_list": [0.1, 0.05]},
            "explicit_points": [["-3*pi^2", -1]],
            "terminal": linear,
            "control": {"type": "constant", "u": ["2*pi"]},
            "x0": ["pi", 1, 0, 0],
            "sim": {"T": 0.5, "dt": "0.1", "n_paths": 10, "seed": 3},
            "lambda_grid": ["-3*pi^2", 0],
            "tolerances": {"psd_tol": 1e-9},
            "system": {"divform1d": {"N": 4, **coefficients}},
        })
        expected = {
            "system": {"divform1d": {"N": 4, "quad_order": 16, **coefficients}},
            "tolerances": {"psd_tol": 1e-9, "eps_a": 1e-6},
            "lambda_grid": [-(3 * PI2), 0.0],
            "format": "json",
            "n_regression_times": 11,
            "sim": {"T": 0.5, "dt": 0.1, "n_paths": 10, "seed": 3, "regression_degree": 1},
            "x0": [math.pi, 1.0, 0.0, 0.0],
            "control": {"type": "constant", "u": ["2*pi"]},
            "terminal": linear,
            "explicit_points": [[-(3 * PI2), -1.0]],
            "girsanov": {"lambda": -math.pi, "dt_list": [0.1, 0.05]},
            "convergence": {"n_list": [10, 100], "delta_list": [0.1, 0.01], "lambda": 1.0},
            "ellipticity": {"alpha": 0.6, "grid_points": 1000},
            "apriori": {"terminals": [{"type": "deterministic", "xi": ["pi", 0, 0, 0]}]},
            "output_path": "r.json",
        }
        assert cfg.resolved == expected
        assert json.dumps(cfg.resolved) == json.dumps(expected)

    def test_absent_sections_leave_no_key(self):
        cfg = parse_run_config(EXAMPLE2)
        assert list(cfg.resolved) == [
            "system", "tolerances", "lambda_grid", "format", "n_regression_times"]
        matrices = parse_run_config(
            {"system": {"matrices": {"A": [[-1]], "B": [[1]], "C": [[0.5]]}}})
        expected = {"matrices": {"A": [[-1.0]], "B": [[1.0]], "gamma": 0.0, "C": [[0.5]]}}
        assert json.dumps(matrices.resolved["system"]) == json.dumps(expected)

    def test_given_sections_appear_and_null_is_absent(self):
        cfg = parse_run_config(dict(EXAMPLE2, explicit_points=[], girsanov={"dt_list": [0.1]},
                                    apriori={}, x0=None, format=None))
        assert cfg.resolved["explicit_points"] == []
        assert cfg.resolved["girsanov"] == {"dt_list": [0.1]}
        assert cfg.resolved["apriori"] == {"terminals": []}
        assert "x0" not in cfg.resolved and cfg.x0 is None
        assert cfg.format == cfg.resolved["format"] == "json"

    @pytest.mark.parametrize("section,value,message", [
        ("girsanov", [1], "girsanov: expected an object"),
        ("girsanov", {"lambda": 1.0, "dt": [0.1]}, "girsanov: unknown fields ['dt']"),
        ("convergence", {"lamda": 2.0}, "convergence: unknown fields ['lamda']"),
        ("convergence", {"n_list": 5}, "convergence.n_list: expected an array"),
        ("ellipticity", [0.6], "ellipticity: expected an object"),
        ("ellipticity", {"alpah": 0.6}, "ellipticity: unknown fields ['alpah']"),
        ("apriori", "terminals", "apriori: expected an object"),
        ("apriori", {"terminals": 4}, "apriori.terminals: expected an array"),
        ("apriori", {"terminals": [{"type": "deterministic", "xi": [1, 0, 0, 0], "eta": 1}]},
         "apriori.terminals[0]: unknown fields ['eta']"),
        ("explicit_points", 5, "explicit_points: expected an array"),
        ("sim", dict(SMALL_SIM, paths=3), "sim: unknown fields ['paths']"),
        ("control", {"type": "zero", "u": [1.0]}, "control: unknown fields ['u']"),
        ("terminal", {"type": "deterministic", "xi": [1, 0, 0, 0], "eta": 1},
         "terminal: unknown fields ['eta']"),
        ("system", {"example2": {"N": 4, "b_coeffs": [1, 1, 1, 1], "M": 1}},
         "system.example2: unknown fields ['M']"),
        ("system", {"matrices": {"A": [[-1]], "B": [[1]], "D": [[1]]}},
         "system.matrices: unknown fields ['D']"),
        ("system", {"divform1d": {"N": 4, "a": {"type": "constant", "value": 1, "v": 2},
                                  "c": 0, "b": 1}},
         "system.divform1d.a: unknown fields ['v']"),
        ("system", {"example2": {"N": 4, "b_coeffs": [1, 1, 1, 1]}, "extra": 1},
         "system: unknown fields ['extra']"),
        # JSON integers too large for a double
        ("lambda_grid", [10**400], "lambda_grid[0]: value is not finite"),
        ("system", {"matrices": {"A": [[-1, 0], [0, -(10**400)]], "B": [[1], [1]]}},
         "system.matrices.A[1][1]: value is not finite"),
        # one case per field parser and section gate
        ("lambda_grid", [True], "lambda_grid[0]: expected a number, got a boolean"),
        ("lambda_grid", [[1]], "lambda_grid[0]: expected a number or pi-expression string"),
        ("n_regression_times", 2.5, "n_regression_times: expected an integer"),
        ("n_regression_times", 1, "n_regression_times: must be >= 2"),
        ("system", {"matrices": {"A": [], "B": [[1]]}},
         "system.matrices.A: expected a non-empty row-major matrix"),
        ("system", {"matrices": {"A": [[-1, 0], [0]], "B": [[1], [1]]}},
         "system.matrices.A[1]: ragged matrix rows"),
        ("explicit_points", [[1.0]], "explicit_points[0]: expected [lambda, alpha]"),
        ("format", "xml", "format: must be one of ('json', 'csv'), got 'xml'"),
        ("output_path", 5, "output_path: expected a string"),
        ("control", [1], "control: expected an object"),
        ("terminal", "xi", "terminal: expected an object"),
        ("control", {"u": [1.0]}, "control.type: missing required field"),
        ("terminal", {"type": "cubic"}, "terminal.type: unknown terminal type 'cubic'"),
        ("system", {"divform1d": {"N": 4, "a": "one", "c": 0, "b": 1}},
         "system.divform1d.a: expected a coefficient object or a number"),
        ("system", [1], "system: expected an object"),
    ])
    def test_malformed_section_is_rejected(self, tmp_path, capsys, section, value, message):
        raw = dict(EXAMPLE2, **{section: value})
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
            parse_run_config(raw)
        code, text = run_cli(tmp_path, "check-n1", raw)
        assert code == 1 and text is None
        assert capsys.readouterr().err.startswith(f"sck: input error: {message}")

    @pytest.mark.parametrize("raw, message", [
        ([EXAMPLE2], "config: top level must be an object"),
        ({"lambda_grid": [0]}, "config.system: missing required field"),
    ])
    def test_malformed_top_level_is_rejected(self, tmp_path, capsys, raw, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_run_config(raw)
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["check-n1", "--config", str(cfg_path), "--output", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"sck: input error: {message}\n"
        assert not (tmp_path / "o").exists()


class TestVerdictCommand:
    def test_example2_report(self, tmp_path):
        code, text = run_cli(tmp_path, "verdict", dict(EXAMPLE2, lambda_grid=["-3*pi^2", 0]))
        assert code == 0
        rep = json.loads(text)
        p = rep["payload"]
        assert p["verdict"] == "NotApproxControllable"
        assert p["invariant_subspace_dim"] >= 1
        assert p["n1_passed"] is True
        assert p["n2_passed"] is False
        hits = [q for q in p["n2"]["points"]
                if q["violated"] and abs(q["lambda"] + 3 * PI2) < 1e-9]
        assert hits and abs(hits[0]["alpha"] + 4 * PI2) < 1e-6
        assert rep["tool"]["name"] == "sck"
        assert "version" in rep["tool"]
        assert rep["duration_seconds"] >= 0.0
        assert rep["config"]["system"]["example2"]["N"] == 4

    def test_check_n1_clean(self, tmp_path):
        code, text = run_cli(tmp_path, "check-n1", EXAMPLE2)
        assert code == 0
        p = json.loads(text)["payload"]
        assert p["passed"] is True
        assert all(not q["violated"] for q in p["points"])


class TestErrorStatuses:
    def test_malformed_config(self, tmp_path):
        code, _ = run_cli(tmp_path, "check-n1", {"system": {"matrices": {"A": [[-1.0]]}}})
        assert code == 1

    def test_retired_tolerance_is_rejected(self, tmp_path, capsys):
        code, text = run_cli(tmp_path, "check-n1", dict(EXAMPLE2, tolerances={"rank_tol": 1e-9}))
        assert code == 1 and text is None
        assert capsys.readouterr().err.startswith(
            "sck: input error: tolerances: unknown fields ['rank_tol']")

    def test_explicit_lambda_outside_the_set(self, tmp_path, capsys):
        raw = {"system": {"matrices": {"A": [[-1, 0], [1, -1]], "B": [[1], [0]],
                                       "C1": [[0, 0], [-0.2, 1]]}},
               "lambda_grid": [0.0], "explicit_points": [[5.0, 4.0]]}
        code, text = run_cli(tmp_path, "check-n2", raw)
        assert code == 1 and text is None
        assert "lambda=5.0 is outside the joint-dissipativity set" in capsys.readouterr().err

    def test_unknown_subcommand(self, tmp_path):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(EXAMPLE2))
        assert main(["frobnicate", "--config", str(cfg_path), "--output", "x"]) == 1

    def test_unreadable_config(self):
        assert main(["check-n1", "--config", "/nonexistent.json", "--output", "x"]) == 1

    def test_missing_sim_section(self, tmp_path):
        code, _ = run_cli(tmp_path, "duality", dict(EXAMPLE2, x0=[1, 1, 1, 1]))
        assert code == 1

    def test_zero_step_horizon_is_rejected(self, tmp_path, capsys):
        raw = dict(EXAMPLE2, sim={"T": 1e-20, "dt": 1, "n_paths": 10, "seed": 3},
                   x0=[1, 1, 1, 1], terminal={"type": "deterministic", "xi": [0, 1, 0, 0]})
        code, text = run_cli(tmp_path, "duality", raw)
        assert code == 1 and text is None
        assert capsys.readouterr().err.startswith("sck: input error: sim: T = 1e-20 ")

    def test_write_failure_is_io_error(self, tmp_path):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(EXAMPLE2))
        code = main(["check-n1", "--config", str(cfg_path),
                     "--output", str(tmp_path / "no_dir" / "out.json")])
        assert code == 2

    @pytest.mark.parametrize("sub, step", [("duality", 24), ("apriori", 24),
                                           ("simulate-forward", 11)])
    def test_numerical_failure_is_exit_2(self, tmp_path, capsys, sub, step):
        # explicit Euler at dt = 0.1 is unstable for the mode at -16 pi^2; the
        # dual recursion runs from K = 50 down, so grid step 24 is backward step 26
        raw = dict(EXAMPLE2, sim={"T": 5, "dt": 0.1, "n_paths": 200, "seed": 11},
                   x0=[1, 1, 1, 1], terminal={"type": "deterministic", "xi": [0, 1, 0, 0]})
        code, text = run_cli(tmp_path, sub, raw)
        assert code == 2 and text is None
        where = (f"ensemble blew up at step {step}" if sub == "simulate-forward"
                 else f"dual recursion blew up at backward step {50 - step}")
        assert capsys.readouterr().err.startswith(f"sck: numerical failure: {where} (dt=0.1)")

    def test_overflowed_semigroup_is_exit_2(self, tmp_path, capsys, recwarn):
        # exp(800) is inf: the gaps inf - inf must not read as converged zeros,
        # and the one-line diagnostic is all that is printed
        raw = {"system": {"matrices": {"A": [[800, 0], [0, -2]], "B": [[1], [0.5]],
                                       "C": [[0.1, 0], [0, 0.1]]}},
               "sim": {"T": 1, "dt": 0.1, "n_paths": 10, "seed": 1},
               "convergence": {"n_list": [1000, 2000], "delta_list": [0.1, 0.01]}}
        code, text = run_cli(tmp_path, "convergence", raw)
        assert code == 2 and text is None
        assert capsys.readouterr().err == (
            "sck: numerical failure: matrix exponential overflowed the double range\n")
        assert [str(w.message) for w in recwarn] == []

    def test_zero_quad_order_is_rejected(self, tmp_path, capsys):
        raw = {"system": {"divform1d": {"N": 8, "quad_order": 0, "a": 1.0, "c": 0.0, "b": 1.0}}}
        code, text = run_cli(tmp_path, "assemble", raw)
        assert code == 1 and text is None
        assert capsys.readouterr().err == (
            "sck: input error: system.divform1d: quad_order must be >= 2N = 16, got 0\n")

    def test_negative_verdict_still_succeeds(self, tmp_path):
        code, text = run_cli(tmp_path, "verdict", EXAMPLE2)
        assert code == 0
        assert json.loads(text)["payload"]["verdict"] == "NotApproxControllable"

    @pytest.mark.parametrize("sub,extra,missing", [
        ("simulate-forward", {}, "sim"),
        ("duality", {}, "sim"),
        ("girsanov", {}, "sim"),
        ("apriori", {}, "sim"),
        ("convergence", {}, "sim"),
        ("simulate-forward", {"sim": SMALL_SIM}, "x0"),
        ("duality", {"sim": SMALL_SIM}, "x0"),
        ("girsanov", {"sim": SMALL_SIM}, "x0"),
        ("apriori", {"sim": SMALL_SIM}, "terminal"),
        ("convergence", {"sim": SMALL_SIM}, "convergence.n_list"),
        ("duality", {"sim": SMALL_SIM, "x0": [1, 1, 1, 1]}, "terminal"),
        ("girsanov", {"sim": SMALL_SIM, "x0": [1, 1, 1, 1]}, "girsanov.lambda"),
        ("girsanov", {"sim": SMALL_SIM, "x0": [1, 1, 1, 1], "girsanov": {"lambda": 1.0}},
         "girsanov.dt_list"),
        ("convergence", {"sim": SMALL_SIM, "convergence": {"n_list": [10]}},
         "convergence.delta_list"),
        ("check-n2", {}, "lambda_grid"),
        ("lambda-set", {}, "lambda_grid"),
    ])
    def test_first_missing_section_is_named(self, tmp_path, sub, extra, missing):
        raw = dict(EXAMPLE2, **extra)
        code, text = run_cli(tmp_path, sub, raw)
        assert code == 1 and text is None
        with pytest.raises(ConfigError, match=f"^{re.escape(missing)}: required"):
            run_subcommand(sub, parse_run_config(raw))

    @pytest.mark.parametrize("sub, extra, message", [
        ("duality", {"x0": [1, 1]}, "x0: expected shape (4,) for (n), got (2,)"),
        ("girsanov", {"x0": [1, 1, 1]}, "x0: expected shape (4,) for (n), got (3,)"),
        ("duality", {"control": {"type": "constant", "u": [1, 1]}},
         "control.u: expected shape (1,) for (m), got (2,)"),
        ("simulate-forward", {"control": {"type": "piecewise", "values": [[1.0]] * 19}},
         "control.values: expected shape (20, 1) for (K, m), got (19, 1)"),
        ("girsanov", {"control": {"type": "piecewise", "values": [[1.0, 2.0]] * 20}},
         "control.values: expected shape (20, 1) for (K, m), got (20, 2)"),
        ("simulate-forward", {"control": {"type": "feedback", "K": [[1, 2, 3]]}},
         "control.K: expected shape (1, 4) for (m, n), got (1, 3)"),
        ("duality", {"terminal": {"type": "deterministic", "xi": [0, 1]}},
         "terminal.xi: expected shape (4,) for (n), got (2,)"),
        ("duality", {"terminal": {"type": "linear_in_wt", "xi0": [1, 0, 0], "xi1": [0, 1, 0]}},
         "terminal.xi0: expected shape (4,) for (n), got (3,)"),
        ("duality", {"terminal": {"type": "linear_in_wt", "xi0": [1, 0, 0, 0], "xi1": [0, 1]}},
         "terminal: xi0 and xi1 must have the same length"),
        ("convergence", {"terminal": {"type": "deterministic", "xi": [0, 1, 0]}},
         "terminal.xi: expected shape (4,) for (n), got (3,)"),
        ("apriori", {"terminal": {"type": "deterministic", "xi": [0, 1]}},
         "terminal.xi: expected shape (4,) for (n), got (2,)"),
        ("apriori", {"apriori": {"terminals": [
            {"type": "deterministic", "xi": [c, 0, 0, 0]} for c in (1, 2)
        ] + [{"type": "deterministic", "xi": [3, 0]}]}},
         "apriori.terminals[2].xi: expected shape (4,) for (n), got (2,)"),
        ("girsanov", {"girsanov": {"lambda": 1.0, "dt_list": [0.01, 0.003]}},
         "girsanov.dt_list[1]: T/dt = 66.66666666666667 is not an integer"),
        ("girsanov", {"control": {"type": "piecewise", "values": [[1.0]] * 20},
                      "girsanov": {"lambda": 1.0, "dt_list": [0.01, 0.005]}},
         "girsanov.dt_list[1]: piecewise control must have shape (40, 1), got (20, 1)"),
        # a library error of a section's own fields is named under the section
        ("girsanov", {"girsanov": {"lambda": 1.0, "dt_list": [0.01, 0.02]}},
         "girsanov.dt_list must be strictly decreasing"),
        ("convergence", {"convergence": {"n_list": [10, 5], "delta_list": [0.1]}},
         "convergence.n_list must be strictly increasing"),
        ("convergence", {"convergence": {"n_list": [0, 10], "delta_list": [0.1]}},
         "convergence.n_list[0] must be >= 1, got 0"),
        ("convergence", {"convergence": {"n_list": [10], "delta_list": [0.1, 0.2]}},
         "convergence.delta_list must be strictly decreasing"),
        ("ellipticity", {**DIVFORM_ELLIPTICITY, "ellipticity": {"grid_points": 99}},
         "ellipticity.grid_points must be >= 100, got 99"),
        ("ellipticity", {**DIVFORM_ELLIPTICITY, "ellipticity": {"alpha": 0.5}},
         "ellipticity.alpha must be > 1/2, got 0.5"),
    ])
    def test_size_errors_name_the_field(self, tmp_path, capsys, sub, extra, message):
        raw = {**EXAMPLE2, "sim": SMALL_SIM, "x0": [1, 1, 1, 1],
               "terminal": {"type": "deterministic", "xi": [0, 1, 0, 0]},
               "girsanov": {"lambda": 1.0, "dt_list": [0.01]},
               "convergence": {"n_list": [10], "delta_list": [0.1]}, **extra}
        code, text = run_cli(tmp_path, sub, raw)
        assert code == 1 and text is None
        assert capsys.readouterr().err == f"sck: input error: {message}\n"

    @pytest.mark.parametrize("system, message", [
        ({"example2": {"N": 4, "b_coeffs": [0.5, 0.5]}},
         "system.example2: b_coeffs must have length 4, got 2"),
        ({"matrices": {"A": [[-1.0]], "B": [[1.0]], "gamma": 0.7}},
         "system.matrices: gamma must lie in [0, 1/2), got 0.7"),
        ({"matrices": {"A": [[-1.0, 0.0]], "B": [[1.0]]}},
         "system.matrices: A must be square, got shape (1, 2)"),
        ({"divform1d": {"N": 1, "a": 1.0, "c": 0.0, "b": 1.0}},
         "system.divform1d: N must be >= 2, got 1"),
        ({"divform1d": {"N": 4, "a": -1.0, "c": 0.0, "b": 1.0}},
         "system.divform1d: diffusion coefficient is not nonnegative on (0,1): "
         "min a = -1.000e+00"),
    ])
    def test_assembly_errors_name_the_source(self, tmp_path, capsys, system, message):
        code, text = run_cli(tmp_path, "check-n1", {"system": system})
        assert code == 1 and text is None
        assert capsys.readouterr().err == f"sck: input error: {message}\n"

    @pytest.mark.parametrize("env, extra, message", [
        ("abc", (), "SCK_THREADS: expected a non-negative integer, got 'abc'"),
        ("-2", (), "SCK_THREADS: expected a non-negative integer, got '-2'"),
        ("abc", ("--threads", "-1"), "--threads must be >= 0"),
    ])
    def test_threads_errors_name_the_source(self, tmp_path, capsys, monkeypatch,
                                            env, extra, message):
        monkeypatch.setenv("SCK_THREADS", env)
        code, text = run_cli(tmp_path, "check-n1", EXAMPLE2, extra=extra)
        assert code == 1 and text is None
        assert capsys.readouterr().err == f"sck: input error: {message}\n"

    def test_seed_errors_name_the_flag(self, tmp_path, capsys):
        raw = dict(EXAMPLE2, sim=SMALL_SIM, x0=[1, 0, 0, 0])
        code, text = run_cli(tmp_path, "simulate-forward", raw, extra=("--seed", "-5"))
        assert code == 1 and text is None
        assert capsys.readouterr().err == (
            "sck: input error: --seed: seed must fit in an unsigned 64-bit integer\n")

    def test_config_that_is_not_json(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text("{not json")
        code = main(["check-n1", "--config", str(cfg_path), "--output", str(tmp_path / "o")])
        assert code == 1 and not (tmp_path / "o").exists()
        assert capsys.readouterr().err.startswith(
            "sck: input error: config is not valid JSON: ")

    def test_seed_without_sim_section(self, tmp_path, capsys):
        code, text = run_cli(tmp_path, "check-n1", EXAMPLE2, extra=("--seed", "5"))
        assert code == 1 and text is None
        assert capsys.readouterr().err == (
            "sck: input error: --seed given but config has no sim section\n")

    def test_no_output_path(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(EXAMPLE2))
        assert main(["check-n1", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == (
            "sck: input error: no output path: pass --output or set output_path\n")

    def test_noise_given_twice(self, tmp_path, capsys):
        system = {"matrices": {"A": [[-1.0]], "B": [[1.0]], "C": [[0.5]], "C1": [[0.5]]}}
        code, text = run_cli(tmp_path, "check-n1", {"system": system})
        assert code == 1 and text is None
        assert capsys.readouterr().err == (
            "sck: input error: system.matrices: pass either C or the C1/C2 split, not both\n")

    def test_ellipticity_needs_named_coefficients(self, tmp_path, capsys):
        code, text = run_cli(tmp_path, "ellipticity", EXAMPLE2)
        assert code == 1 and text is None
        assert capsys.readouterr().err == (
            "sck: input error: ellipticity: requires a divform1d system with named coefficients\n")

    def test_unknown_subcommand_in_library_calls(self):
        with pytest.raises(ConfigError, match="unknown subcommand"):
            run_subcommand("frobnicate", parse_run_config(dict(EXAMPLE2, sim=SMALL_SIM)))
        with pytest.raises(ConfigError, match="unknown subcommand"):
            payload_rows("frobnicate", {})


class TestEllipticityCommand:
    DIVFORM = {
        "system": {"divform1d": {
            "N": 4, "a": {"type": "constant", "value": 1.0},
            "c": {"type": "constant", "value": 2.0},
            "b": {"type": "constant", "value": 1.0},
        }},
        "ellipticity": {"alpha": 0.6, "grid_points": 200},
    }

    def test_failing_pair_reports_not_ok(self, tmp_path):
        code, text = run_cli(tmp_path, "ellipticity", self.DIVFORM)
        assert code == 0
        p = json.loads(text)["payload"]
        assert p["ok"] is False
        assert p["min_margin"] == pytest.approx(-1.4)

    def test_assemble_rejects_same_system_when_non_elliptic(self, tmp_path):
        bad = {"system": {"divform1d": {
            "N": 4, "a": {"type": "polynomial", "coeffs": [0.5, -1.0]},
            "c": 0.0, "b": 1.0,
        }}}
        code, _ = run_cli(tmp_path, "assemble", bad)
        assert code == 1

    def test_assemble_payload(self, tmp_path):
        good = {"system": {"divform1d": {"N": 3, "a": 1.0, "c": 0.0, "b": 1.0}}}
        code, text = run_cli(tmp_path, "assemble", good)
        assert code == 0
        p = json.loads(text)["payload"]
        A = np.array(p["A"])
        assert np.max(np.abs(A - np.diag([-PI2, -4 * PI2, -9 * PI2]))) <= 1e-9


class TestCsvAndParity:
    def test_format_flag_overrides_config(self, tmp_path):
        code, text = run_cli(tmp_path, "check-n1", dict(EXAMPLE2, format="json"),
                             extra=("--format", "csv"))
        assert code == 0
        assert text.splitlines()[0] == CSV_HEADERS["check-n1"]

    def test_lambda_set_csv(self, tmp_path):
        cfg = dict(EXAMPLE2, lambda_grid=[-5, 0, 5], format="csv")
        code, text = run_cli(tmp_path, "lambda-set", cfg)
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0] == "lambda,in_set,margin,boundary"
        assert len(lines) == 4
        assert all(line.endswith(",true," + repr(-PI2) + ",false") for line in lines[1:])

    @pytest.mark.parametrize("sub,extra", EVERY_SUBCOMMAND)
    def test_csv_matches_json_numbers(self, tmp_path, sub, extra):
        base = dict(EXAMPLE2, **extra)
        code_j, text_j = run_cli(tmp_path, sub, dict(base, format="json"), name="j.json")
        code_c, text_c = run_cli(tmp_path, sub, dict(base, format="csv"), name="c.json")
        assert code_j == 0 and code_c == 0
        payload = json.loads(text_j)["payload"]
        assert render_csv(sub, payload) == text_c
        assert text_c.splitlines()[0] == CSV_HEADERS[sub]

    def test_numpy_scalar_cells(self):
        payload = {"ok": np.bool_(True), "min_margin": np.float64(0.1), "alpha": np.float64(0.6),
                   "grid_points": np.int64(200)}
        assert render_csv("ellipticity", payload) == (
            "key,value\nok,true\nmin_margin,0.1\nalpha,0.6\ngrid_points,200\n")

    def test_every_subcommand_has_a_pinned_header(self):
        assert set(CSV_HEADERS) == set(SUBCOMMANDS)

    def test_payload_rows_float_roundtrip(self, tmp_path):
        cfg = dict(EXAMPLE2, lambda_grid=[0])
        _, text = run_cli(tmp_path, "lambda-set", cfg)
        payload = json.loads(text)["payload"]
        _, rows = payload_rows("lambda-set", payload)
        for row in rows:
            for v in row:
                if isinstance(v, float):
                    assert float(repr(v)) == v


class TestRenderJson:
    """render_json writes the bytes of json.dumps(report, indent=2,
    allow_nan=False) + newline, numpy leaves as their tolist(), the
    reference kept here."""

    @staticmethod
    def reference(report):
        return json.dumps(report, indent=2, allow_nan=False, default=lambda o: o.tolist()) + "\n"

    @pytest.mark.parametrize("sub,extra", EVERY_SUBCOMMAND + [
        ("verdict", {"system": {"divform1d": {
            "N": 16, "a": {"type": "trigonometric", "offset": 1.0, "sin": [0.5]},
            "c": {"type": "trigonometric", "cos": [0.3]},
            "b": {"type": "polynomial", "coeffs": [0.0, 1.0, -1.0]}}},
            "lambda_grid": [-1.0, 0.5, 40.0]}),
    ])
    def test_every_subcommand_report(self, sub, extra):
        cfg = parse_run_config(dict(EXAMPLE2, **extra))
        report = build_report(sub, cfg, run_subcommand(sub, cfg), 0.25, 2)
        assert render_json(report) == self.reference(report)

    def test_every_json_shape(self):
        report = {
            "floats": [0.1, -0.0, 1e-300, 1e16, 5e-324, -1.7976931348623157e308],
            "mixed": [1.0, 2, True, None, "x", [], {}, [1.5, [2.5]], {"k": []}],
            "ints": [1, -2, 10**30], "bools": [True, False], "empty": [], "none": None,
            "nested": [[1.0, 2.0], [], [3.0]], "tuple": (1.0, "a"), "float64": np.float64(0.3),
            "floats_then_int": [1.0, 2.0, 3], "text": "quote \" tab \t é \u2028",
            "keys": {1: "int", 2.5: "float", False: "bool", None: "none"},
            "deep": {"a": {"b": {"c": [{"d": 1.25}]}}},
        }
        assert render_json(report) == self.reference(report)

    def test_numpy_leaves(self):
        report = {
            "bool": np.bool_(True), "int": np.int64(-3), "float": np.float64(0.1),
            "zero_d": np.array(2.5), "vector": np.array([0.5, -1.0, 1e-300]),
            "matrix": np.arange(6.0).reshape(2, 3), "empty": np.zeros(0),
            "list": [np.float64(1.5), 2.5, np.array([1.0]), {"b": np.bool_(False)}],
            "dict": {"rows": [np.zeros((0, 2)), np.int64(7), [np.float64(-0.0)]]},
        }
        assert render_json(report) == self.reference(report)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("where", ["list", "mixed", "scalar", "array", "numpy-scalar"])
    def test_non_finite_float_is_exit_1(self, tmp_path, capsys, monkeypatch, bad, where):
        value = {"list": [1.0, bad], "mixed": [1, bad], "scalar": bad,
                 "array": np.array([1.0, bad]), "numpy-scalar": np.float64(bad)}[where]
        # the report holds a numpy value as its tolist(), so json's message names that
        plain = value.tolist() if isinstance(value, (np.ndarray, np.generic)) else value
        with pytest.raises(ValueError) as stdlib:
            self.reference({"payload": {"x": plain}})
        monkeypatch.setitem(COMMANDS, "assemble", (lambda cfg: {"x": value}, None))
        code, text = run_cli(tmp_path, "assemble", EXAMPLE2)
        assert code == 1 and text is None
        assert capsys.readouterr().err == f"sck: input error: {stdlib.value}\n"


class TestSimulationCommands:
    SIM = {"T": 0.5, "dt": 0.01, "n_paths": 200, "seed": 11}

    def test_simulate_forward(self, tmp_path):
        cfg = dict(EXAMPLE2, sim=self.SIM, x0=[1, 0, 0, 0],
                   control={"type": "constant", "u": [1.0]})
        code, text = run_cli(tmp_path, "simulate-forward", cfg)
        assert code == 0
        p = json.loads(text)["payload"]
        assert len(p["times"]) == 51
        assert p["mean"][0] == [1.0, 0.0, 0.0, 0.0]

    def test_duality_command(self, tmp_path):
        cfg = dict(EXAMPLE2, sim=dict(self.SIM, n_paths=2000), x0=[1, 1, 1, 1],
                   terminal={"type": "deterministic", "xi": [0, 1, 0, 0]},
                   control={"type": "constant", "u": [1.0]})
        code, text = run_cli(tmp_path, "duality", cfg)
        assert code == 0
        p = json.loads(text)["payload"]
        assert p["passed"] is True

    def test_girsanov_command(self, tmp_path):
        cfg = dict(EXAMPLE2, sim=self.SIM, x0=[1, 1, 1, 1],
                   girsanov={"lambda": -1.0, "dt_list": [0.01, 0.005]})
        code, text = run_cli(tmp_path, "girsanov", cfg)
        assert code == 0
        p = json.loads(text)["payload"]
        assert len(p["points"]) == 2
        assert p["points"][0]["sup_error"] > p["points"][1]["sup_error"]

    def test_apriori_default_rescalings(self, tmp_path):
        cfg = dict(EXAMPLE2, sim=dict(self.SIM, n_paths=500),
                   terminal={"type": "deterministic", "xi": [0.3, 1.0, -0.5, 0.2]})
        code, text = run_cli(tmp_path, "apriori", cfg)
        assert code == 0
        p = json.loads(text)["payload"]
        assert len(p["samples"]) == 5
        assert p["scale_ok"] is True

    def test_apriori_given_terminals(self, tmp_path):
        # five terminals of their own shapes, none a rescaling of `terminal`
        xis = [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 3, 0], [0, 0, 0, 4], [5, 5, 0, 0]]
        cfg = dict(EXAMPLE2, sim=dict(self.SIM, n_paths=500),
                   terminal={"type": "deterministic", "xi": [0.3, 1.0, -0.5, 0.2]},
                   apriori={"terminals": [{"type": "deterministic", "xi": xi} for xi in xis]})
        code, text = run_cli(tmp_path, "apriori", cfg)
        assert code == 0
        samples = json.loads(text)["payload"]["samples"]
        assert [s["xi_mean_square"] for s in samples] == pytest.approx(
            [1.0, 4.0, 9.0, 16.0, 50.0], rel=1e-12)

    def test_convergence_command(self, tmp_path):
        cfg = dict(EXAMPLE2, sim=dict(self.SIM, n_paths=100),
                   convergence={"n_list": [10, 100], "delta_list": [0.1, 0.001],
                                "lambda": 1.0})
        code, text = run_cli(tmp_path, "convergence", cfg)
        assert code == 0
        p = json.loads(text)["payload"]
        assert p["yosida_decreasing_in_n"] is True
        assert len(p["rows"]) == 4

    def test_seed_override_changes_results(self, tmp_path):
        base = dict(EXAMPLE2, sim=self.SIM, x0=[1, 0, 0, 0])
        _, t1 = run_cli(tmp_path, "simulate-forward", base, name="a.json")
        _, t2 = run_cli(tmp_path, "simulate-forward", base, name="b.json",
                        extra=("--seed", "999"))
        p1, p2 = json.loads(t1), json.loads(t2)
        assert p1["payload"] != p2["payload"]
        assert p2["config"]["sim"]["seed"] == 999

    def test_threads_do_not_change_payload(self, tmp_path):
        base = dict(EXAMPLE2, sim=self.SIM, x0=[1, 0, 0, 0])
        _, t1 = run_cli(tmp_path, "simulate-forward", base, name="a.json",
                        extra=("--threads", "1"))
        _, t2 = run_cli(tmp_path, "simulate-forward", base, name="b.json",
                        extra=("--threads", "4"))
        p1, p2 = json.loads(t1), json.loads(t2)
        assert json.dumps(p1["payload"]) == json.dumps(p2["payload"])

    def test_roundtrip_resolved_config(self, tmp_path):
        cfg = dict(EXAMPLE2, sim=self.SIM, x0=[1, 0, 0, 0],
                   control={"type": "constant", "u": [0.5]})
        _, t1 = run_cli(tmp_path, "simulate-forward", cfg, name="orig.json")
        rep = json.loads(t1)
        _, t2 = run_cli(tmp_path, "simulate-forward", rep["config"], name="resolved.json")
        rep2 = json.loads(t2)
        assert json.dumps(rep["payload"]) == json.dumps(rep2["payload"])

    def test_threads_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SCK_THREADS", "3")
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(dict(EXAMPLE2, sim=self.SIM, x0=[1, 0, 0, 0])))
        out = tmp_path / "o.json"
        assert main(["simulate-forward", "--config", str(cfg_path), "--output", str(out)]) == 0
        assert json.loads(out.read_text())["threads"] == 3

    def test_explicit_points_forwarded(self, tmp_path):
        cfg = dict(EXAMPLE2, lambda_grid=["-3*pi^2"],
                   explicit_points=[["-3*pi^2", "-4*pi^2"], ["-3*pi^2", -1.0]])
        code, text = run_cli(tmp_path, "check-n2", cfg)
        assert code == 0
        p = json.loads(text)["payload"]
        assert any(abs(q["alpha"] + 1.0) < 1e-12 for q in p["points"])
