"""Command-line interface: subcommand dispatch and report serialization.

Reports embed the tool version, the fully resolved configuration, the seed
and the wall-clock duration; the numerical results live under ``payload``.
Re-running the embedded config reproduces the payload bit for bit.  Exit
status: 0 analysis success (including negative verdicts), 1 input error,
2 numerical or I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from typing import Any, Optional

import numpy as np

from . import __version__, bsde, controllability, galerkin, sde, systems
from .config import ConfigError, RunConfig, parse_run_config
from .exceptions import NumericsError

SUBCOMMANDS = (
    "check-n1", "check-n2", "invariant-subspace", "lambda-set", "verdict",
    "assemble", "ellipticity", "b-coeffs", "simulate-forward", "duality",
    "girsanov", "apriori", "convergence",
)


def _jsonable(obj: Any) -> Any:
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _hautus_payload(report: controllability.HautusReport) -> dict:
    def point(p):
        return {
            "lambda": p.lam, "alpha": p.alpha, "alpha_im": p.alpha_im,
            "sigma_min": p.sigma_min, "violated": p.violated,
        }

    payload = {
        "condition": report.condition,
        "passed": report.passed,
        "min_sigma": report.min_sigma if report.points else None,
        "points": [point(p) for p in report.points],
        "complex_points": [point(p) for p in report.complex_points],
        "witness": None if report.witness is None else report.witness.tolist(),
    }
    if report.witness_point is not None:
        payload["witness_point"] = point(report.witness_point)
    return payload


def _subspace_payload(basis: systems.SubspaceBasis) -> dict:
    return {"dim": basis.dim, "basis": basis.basis.tolist()}


def _require_feature(value, name: str):
    if value is None or (isinstance(value, (list, np.ndarray)) and len(value) == 0):
        raise ConfigError(f"{name}: required by this subcommand")
    return value


def _terminal_samples(cfg: RunConfig):
    if cfg.apriori_terminals:
        return cfg.apriori_terminals
    base = _require_feature(cfg.terminal, "terminal")
    return [base.scaled(c) for c in (1.0, 2.0, 4.0, 8.0, 16.0)]


def run_subcommand(name: str, cfg: RunConfig) -> dict:
    """Execute one subcommand and return its JSON-ready payload."""
    tol = cfg.tolerances

    if name == "ellipticity":
        a_fn, c_fn = cfg.coefficient_fns()
        ok, margin = galerkin.check_ellipticity(
            a_fn, c_fn, cfg.ellipticity_alpha, cfg.ellipticity_grid_points,
            psd_tol=tol.psd_tol,
        )
        return {
            "ok": ok, "min_margin": margin,
            "alpha": cfg.ellipticity_alpha, "grid_points": cfg.ellipticity_grid_points,
        }

    system = cfg.make_system()

    if name == "check-n1":
        rep = controllability.check_condition(
            system, [], "N1", tol, explicit_points=cfg.explicit_points or None
        )
        return _hautus_payload(rep)
    if name == "check-n2":
        grid = _require_feature(cfg.lambda_grid, "lambda_grid")
        rep = controllability.check_condition(
            system, grid, "N2", tol, explicit_points=cfg.explicit_points or None
        )
        return _hautus_payload(rep)
    if name == "invariant-subspace":
        basis = controllability.strict_invariant_subspace(system.A, system.C, system.B, tol)
        return _subspace_payload(basis)
    if name == "lambda-set":
        grid = _require_feature(cfg.lambda_grid, "lambda_grid")
        pts = systems.lambda_set(system, grid, tol)
        return {"points": [
            {"lambda": p.lam, "in_set": p.in_set, "margin": p.margin, "boundary": p.boundary}
            for p in pts
        ]}
    if name == "verdict":
        v = controllability.verdict(system, cfg.lambda_grid, tol)
        return {
            "verdict": v.verdict,
            "invariant_subspace_dim": v.invariant_subspace_dim,
            "n1_passed": v.n1_passed,
            "n2_passed": v.n2_passed,
            "commuting_case": v.commuting_case,
            "consistency_warning": v.consistency_warning,
            "lambdas_used": v.lambdas_used,
            "finite_dimensional": True,
            "n1": _hautus_payload(v.n1_report),
            "n2": None if v.n2_report is None else _hautus_payload(v.n2_report),
            "subspace": _subspace_payload(v.subspace),
        }
    if name == "assemble":
        return {
            "n": system.n, "m": system.m, "gamma": system.gamma,
            "A": system.A.tolist(), "B": system.B.tolist(),
            "C1": system.C1.tolist(), "C2": system.C2.tolist(),
        }
    if name == "b-coeffs":
        modes = galerkin.b_coefficient_test(system, tol)
        return {"modes": [
            {"mode_index": m.mode_index, "eigenvalue": m.eigenvalue,
             "coefficient": m.coefficient, "near_zero": m.near_zero}
            for m in modes
        ]}

    sim = _require_feature(cfg.sim, "sim")

    if name == "simulate-forward":
        x0 = _require_feature(cfg.x0, "x0")
        times, mean, second = sde.ensemble_moments(system, x0, cfg.control, sim)
        return {"times": times.tolist(), "mean": mean.tolist(),
                "second_moment": second.tolist()}
    if name == "duality":
        x0 = _require_feature(cfg.x0, "x0")
        terminal = _require_feature(cfg.terminal, "terminal")
        rep = bsde.duality_check(system, x0, cfg.control, terminal, sim,
                                 cfg.n_regression_times)
        return {
            "lhs": rep.lhs, "rhs": rep.rhs, "stderr": rep.stderr,
            "bias_allowance": rep.bias_allowance, "dt": rep.dt,
            "passed": rep.passed, "feedback_control": rep.feedback_control,
        }
    if name == "girsanov":
        x0 = _require_feature(cfg.x0, "x0")
        if cfg.girsanov_lambda is None:
            raise ConfigError("girsanov.lambda: required by this subcommand")
        dts = _require_feature(cfg.girsanov_dt_list, "girsanov.dt_list")
        points = sde.girsanov_check(system, cfg.girsanov_lambda, x0, cfg.control, sim, dts)
        return {
            "lambda": cfg.girsanov_lambda,
            "points": [{"dt": d, "sup_error": e} for d, e in points],
            "fitted_order": sde.fit_convergence_order(points),
        }
    if name == "apriori":
        rep = bsde.apriori_bound_check(system, _terminal_samples(cfg), sim,
                                       cfg.n_regression_times)
        return {
            "k_hat": rep.k_hat, "scale_spread": rep.scale_spread, "scale_ok": rep.scale_ok,
            "samples": [
                {"sample_index": s.index, "xi_mean_square": s.xi_mean_square,
                 "sup_mean_y_square": s.sup_mean_y_square,
                 "int_mean_z_square": s.int_mean_z_square, "ratio": s.ratio}
                for s in rep.samples
            ],
        }
    if name == "convergence":
        n_list = _require_feature(cfg.convergence_n_list, "convergence.n_list")
        d_list = _require_feature(cfg.convergence_delta_list, "convergence.delta_list")
        rep = bsde.approximation_convergence(
            system, cfg.terminal, sim, n_list, d_list,
            lam=cfg.convergence_lambda, n_regression_times=cfg.n_regression_times,
        )
        return {
            "lambda": rep.lam, "n_list": rep.n_list, "delta_list": rep.delta_list,
            "yosida_decreasing_in_n": rep.yosida_decreasing_in_n,
            "mollifier_decreasing_in_delta": rep.mollifier_decreasing_in_delta,
            "total_decreasing_in_delta_at_max_n": rep.total_decreasing_in_delta_at_max_n,
            "bsde_decreasing_in_n": rep.bsde_decreasing_in_n,
            "bsde_decreasing_in_delta_at_max_n": rep.bsde_decreasing_in_delta_at_max_n,
            "rows": [
                {"nres": r.nres, "delta": r.delta, "err_yosida": r.err_yosida,
                 "err_mollifier": r.err_mollifier, "err_total": r.err_total,
                 "err_bsde": r.err_bsde}
                for r in rep.rows
            ],
        }
    raise ConfigError(f"unknown subcommand {name!r}")


# ---------------------------------------------------------------------------
# serialization

def payload_rows(subcommand: str, payload: dict) -> tuple[list[str], list[list]]:
    """Flatten a payload into the fixed-header point table used for CSV."""
    if subcommand in ("check-n1", "check-n2"):
        header = ["condition", "lambda", "alpha", "alpha_im", "sigma_min", "violated"]
        rows = [
            [payload["condition"], p["lambda"], p["alpha"], p["alpha_im"],
             p["sigma_min"], p["violated"]]
            for p in payload["points"] + payload["complex_points"]
        ]
        return header, rows
    if subcommand == "invariant-subspace":
        basis = payload["basis"]
        rows = []
        for j in range(payload["dim"]):
            for i, row in enumerate(basis):
                rows.append([j, i, row[j]])
        return ["vector_index", "coordinate", "value"], rows
    if subcommand == "lambda-set":
        return (
            ["lambda", "in_set", "margin", "boundary"],
            [[p["lambda"], p["in_set"], p["margin"], p["boundary"]]
             for p in payload["points"]],
        )
    if subcommand == "verdict":
        keys = ["verdict", "invariant_subspace_dim", "n1_passed", "n2_passed",
                "commuting_case", "consistency_warning"]
        return ["key", "value"], [[k, payload[k]] for k in keys]
    if subcommand == "assemble":
        rows = []
        for name in ("A", "B", "C1", "C2"):
            M = payload[name]
            for i, row in enumerate(M):
                for j, v in enumerate(row):
                    rows.append([name, i, j, v])
        return ["matrix", "row", "col", "value"], rows
    if subcommand == "ellipticity":
        keys = ["ok", "min_margin", "alpha", "grid_points"]
        return ["key", "value"], [[k, payload[k]] for k in keys]
    if subcommand == "b-coeffs":
        return (
            ["mode_index", "eigenvalue", "coefficient", "near_zero"],
            [[m["mode_index"], m["eigenvalue"], m["coefficient"], m["near_zero"]]
             for m in payload["modes"]],
        )
    if subcommand == "simulate-forward":
        rows = []
        for t, mean, second in zip(payload["times"], payload["mean"], payload["second_moment"]):
            for i, (m, s) in enumerate(zip(mean, second)):
                rows.append([t, i, m, s])
        return ["time", "coordinate", "mean", "second_moment"], rows
    if subcommand == "duality":
        keys = ["lhs", "rhs", "stderr", "bias_allowance", "dt", "passed",
                "feedback_control"]
        return ["key", "value"], [[k, payload[k]] for k in keys]
    if subcommand == "girsanov":
        return (
            ["dt", "sup_error"],
            [[p["dt"], p["sup_error"]] for p in payload["points"]],
        )
    if subcommand == "apriori":
        header = ["sample_index", "xi_mean_square", "sup_mean_y_square",
                  "int_mean_z_square", "ratio"]
        return header, [[s[k] for k in header] for s in payload["samples"]]
    if subcommand == "convergence":
        header = ["nres", "delta", "err_yosida", "err_mollifier", "err_total", "err_bsde"]
        return header, [[r[k] for k in header] for r in payload["rows"]]
    raise ConfigError(f"unknown subcommand {subcommand!r}")


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def render_csv(subcommand: str, payload: dict) -> str:
    header, rows = payload_rows(subcommand, payload)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_csv_cell(v) for v in row])
    return buf.getvalue()


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2, allow_nan=False) + "\n"


def build_report(subcommand: str, cfg: RunConfig, payload: dict,
                 duration: float, threads: int) -> dict:
    return {
        "tool": {"name": "sck", "version": __version__},
        "subcommand": subcommand,
        "seed": None if cfg.sim is None else cfg.sim.seed,
        "threads": threads,
        "duration_seconds": duration,
        "config": cfg.resolved,
        "payload": _jsonable(payload),
    }


# ---------------------------------------------------------------------------
# entry point

class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the contract wants 1
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="sck", description="stochastic controllability kit")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="path to the JSON run configuration")
    parser.add_argument("--output", help="report path (overrides config output_path)")
    parser.add_argument("--format", choices=("json", "csv"), help="report format override")
    parser.add_argument("--seed", type=int, help="seed override for simulation runs")
    parser.add_argument(
        "--threads", type=int, default=None,
        help="recorded in the report envelope only; sck computes in one "
             "process and results never depend on it; falls back to SCK_THREADS",
    )
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        threads = args.threads
        if threads is None:
            threads = int(os.environ.get("SCK_THREADS", "0"))
        if threads < 0:
            raise ConfigError("--threads must be >= 0")

        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc

        cfg = parse_run_config(raw)
        if args.seed is not None:
            if cfg.sim is None:
                raise ConfigError("--seed given but config has no sim section")
            cfg.sim = sde.SimConfig(
                T=cfg.sim.T, dt=cfg.sim.dt, n_paths=cfg.sim.n_paths,
                seed=args.seed, regression_degree=cfg.sim.regression_degree,
            )
            cfg.resolved["sim"]["seed"] = args.seed
        if args.format:
            cfg.format = args.format
            cfg.resolved["format"] = args.format
        output_path = args.output or cfg.output_path
        if output_path is None:
            raise ConfigError("no output path: pass --output or set output_path")

        start = time.perf_counter()
        payload = run_subcommand(args.subcommand, cfg)
        duration = time.perf_counter() - start

        if cfg.format == "csv":
            text = render_csv(args.subcommand, _jsonable(payload))
        else:
            text = render_json(build_report(args.subcommand, cfg, payload, duration, threads))
        try:
            with open(output_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"sck: I/O error: {exc}", file=sys.stderr)
            return 2
        return 0
    except ValueError as exc:
        print(f"sck: input error: {exc}", file=sys.stderr)
        return 1
    except NumericsError as exc:
        print(f"sck: numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
