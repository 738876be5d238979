"""Command-line interface: subcommand dispatch and report serialization.

Each subcommand is one entry of ``COMMANDS``: a run function that builds its
payload from the run configuration, and a rows function that flattens that
payload into the subcommand's CSV table.
Reports embed the tool version, the resolved configuration, the seed
and the wall-clock duration; the numerical results live under ``payload``.
Re-running the embedded config reproduces the payload bit for bit on the
same BLAS kernel.  Exit status: 0 analysis success (including negative
verdicts), 1 input error, 2 numerical or I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from dataclasses import replace
from json.encoder import encode_basestring_ascii
from typing import Optional

import numpy as np

from . import __version__, bsde, controllability, galerkin, sde, systems
from .config import FORMATS, ConfigError, RunConfig, parse_run_config
from .exceptions import DimensionError, DomainError, NumericsError

# Keys shared by a payload and its CSV header.  _fields reads each key from the
# attribute of the same name, or from _ATTRIBUTE[key] where the name differs.
_HAUTUS_POINT = ("lambda", "alpha", "alpha_im", "sigma_min", "violated")
_LAMBDA_POINT = ("lambda", "in_set", "margin", "boundary")
_VERDICT = ("verdict", "invariant_subspace_dim", "n1_passed", "n2_passed",
            "commuting_case", "consistency_warning")
_MATRICES = ("A", "B", "C1", "C2")
_ELLIPTICITY = ("ok", "min_margin", "alpha", "grid_points")
_B_MODE = ("mode_index", "eigenvalue", "coefficient", "near_zero")
_DUALITY = ("lhs", "rhs", "lhs_mc", "stderr", "dt", "passed", "feedback_control")
_GIRSANOV_POINT = ("dt", "sup_error")
_APRIORI_SAMPLE = ("sample_index", "xi_mean_square", "sup_mean_y_square",
                   "int_mean_z_square", "ratio")
_CONVERGENCE_ROW = ("nres", "delta", "err_yosida", "err_mollifier", "err_total", "err_bsde")
_ATTRIBUTE = {"lambda": "lam", "sample_index": "index"}


def _fields(obj, *names: str) -> dict:
    """Payload dict of the named attributes of a result object, in order."""
    return {k: getattr(obj, _ATTRIBUTE.get(k, k)) for k in names}


def _hautus_payload(report: controllability.HautusReport) -> dict:
    payload = {
        "condition": report.condition,
        "passed": report.passed,
        "min_sigma": report.min_sigma if report.points else None,
        "points": [_fields(p, *_HAUTUS_POINT) for p in report.points],
        "complex_points": [_fields(p, *_HAUTUS_POINT) for p in report.complex_points],
        "witness": report.witness,
    }
    if report.witness_point is not None:
        payload["witness_point"] = _fields(report.witness_point, *_HAUTUS_POINT)
    return payload


def _terminal_samples(cfg: RunConfig):
    if cfg.apriori["terminals"]:
        return cfg.apriori["terminals"]
    base = cfg.require("terminal")
    return [type(base)(*(c * v for v in vars(base).values())) for c in (1.0, 2.0, 4.0, 8.0, 16.0)]


# shape of each configured array by field name: system sizes n, m and steps K
_SHAPES = {"x0": "n", "u": "m", "values": "Km", "K": "mn", "xi": "n", "xi0": "n", "xi1": "n"}


def _simulation(cfg: RunConfig, rows: bool = True):
    """The assembled system and the sim section, once the given x0, control and
    terminals fit them (else a ConfigError naming the field); K only if ``rows``."""
    system, sim = cfg.make_system(), cfg.require("sim")
    sizes = {"n": system.n, "m": system.m, "K": sim.n_steps if rows else None}
    arrays = {} if cfg.x0 is None else {"x0": cfg.x0}
    terminals = [(f"apriori.terminals[{i}]", t) for i, t in enumerate(cfg.apriori["terminals"])]
    for path, spec in [("control", cfg.control), ("terminal", cfg.terminal), *terminals]:
        arrays.update((f"{path}.{k}", v) for k, v in (vars(spec) if spec else {}).items())
    for path, value in arrays.items():
        dims = _SHAPES[path.rpartition(".")[2]]
        want = tuple(got if sizes[d] is None else sizes[d] for d, got in zip(dims, value.shape))
        if value.shape != want:
            raise ConfigError(f"{path}: expected shape {want} for ({', '.join(dims)}), got {value.shape}")
    return system, sim


# ---------------------------------------------------------------------------
# subcommands: each run(cfg) builds the payload, assembling the system itself
# so that a missing section is reported only after assembly succeeded

def _hautus(system, grid, condition: str, cfg: RunConfig) -> dict:
    return _hautus_payload(controllability.check_condition(
        system, grid, condition, cfg.tolerances, explicit_points=cfg.explicit_points or None
    ))


def _check_n1(cfg: RunConfig) -> dict:
    return _hautus(cfg.make_system(), [], "N1", cfg)


def _check_n2(cfg: RunConfig) -> dict:
    system = cfg.make_system()
    return _hautus(system, cfg.require("lambda_grid"), "N2", cfg)


def _invariant_subspace(cfg: RunConfig) -> dict:
    system = cfg.make_system()
    basis = controllability.strict_invariant_subspace(system.A, system.C, system.B)
    return _fields(basis, "dim", "basis")


def _lambda_set(cfg: RunConfig) -> dict:
    system = cfg.make_system()
    grid = cfg.require("lambda_grid")
    return {"points": [_fields(p, *_LAMBDA_POINT)
                       for p in systems.lambda_set(system, grid, cfg.tolerances)]}


def _verdict(cfg: RunConfig) -> dict:
    v = controllability.verdict(cfg.make_system(), cfg.lambda_grid, cfg.tolerances)
    return {
        **_fields(v, *_VERDICT, "lambdas_used"),
        "finite_dimensional": True,
        "n1": _hautus_payload(v.n1_report),
        "n2": None if v.n2_report is None else _hautus_payload(v.n2_report),
        "subspace": _fields(v.subspace, "dim", "basis"),
    }


def _assemble(cfg: RunConfig) -> dict:
    return _fields(cfg.make_system(), "n", "m", "gamma", *_MATRICES)


def _in_section(section: str, fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` for the subcommand reading config ``section``:
    an input error names its field, so it is re-raised under the section."""
    try:
        return fn(*args, **kwargs)
    except (DomainError, DimensionError) as exc:
        raise ConfigError(f"{section}.{exc}") from exc


def _ellipticity(cfg: RunConfig) -> dict:
    a_fn, c_fn = cfg.coefficient_fns()
    alpha, grid_points = cfg.ellipticity["alpha"], cfg.ellipticity["grid_points"]
    ok, margin = _in_section("ellipticity", galerkin.check_ellipticity,
                             a_fn, c_fn, alpha, grid_points, psd_tol=cfg.tolerances.psd_tol)
    return dict(zip(_ELLIPTICITY, (ok, margin, alpha, grid_points)))


def _b_coeffs(cfg: RunConfig) -> dict:
    modes = galerkin.b_coefficient_test(cfg.make_system())
    return {"modes": [_fields(m, *_B_MODE) for m in modes]}


def _simulate_forward(cfg: RunConfig) -> dict:
    system, sim = _simulation(cfg)
    x0 = cfg.require("x0")
    moments = sde.ensemble_moments(system, x0, cfg.control, sim)
    return dict(zip(("times", "mean", "second_moment"), moments))


def _duality(cfg: RunConfig) -> dict:
    system, sim = _simulation(cfg)
    x0 = cfg.require("x0")
    terminal = cfg.require("terminal")
    rep = bsde.duality_check(system, x0, cfg.control, terminal, sim)
    return _fields(rep, *_DUALITY)


def _girsanov(cfg: RunConfig) -> dict:
    system, sim = _simulation(cfg, rows=False)  # each dt has its own grid
    x0 = cfg.require("x0")
    lam = cfg.require("girsanov.lambda")
    dts = cfg.require("girsanov.dt_list")
    points = _in_section("girsanov", sde.girsanov_check, system, lam, x0, cfg.control, sim, dts)
    return {
        "lambda": lam,
        "points": [dict(zip(_GIRSANOV_POINT, p)) for p in points],
        "fitted_order": sde.fit_convergence_order(points),
    }


def _apriori(cfg: RunConfig) -> dict:
    system, sim = _simulation(cfg)
    rep = bsde.apriori_bound_check(system, _terminal_samples(cfg), sim, cfg.n_regression_times)
    return {
        **_fields(rep, "k_hat", "scale_spread", "scale_ok"),
        "samples": [_fields(s, *_APRIORI_SAMPLE) for s in rep.samples],
    }


def _convergence(cfg: RunConfig) -> dict:
    system, sim = _simulation(cfg)
    n_list = cfg.require("convergence.n_list")
    d_list = cfg.require("convergence.delta_list")
    rep = _in_section(
        "convergence", bsde.approximation_convergence, system, cfg.terminal, sim, n_list, d_list,
        lam=cfg.convergence["lambda"], n_regression_times=cfg.n_regression_times,
    )
    return {
        **_fields(rep, "lambda", "n_list", "delta_list", "yosida_decreasing_in_n",
                  "mollifier_decreasing_in_delta", "total_decreasing_in_delta_at_max_n",
                  "bsde_decreasing_in_n", "bsde_decreasing_in_delta_at_max_n"),
        "rows": [_fields(r, *_CONVERGENCE_ROW) for r in rep.rows],
    }


# ---------------------------------------------------------------------------
# CSV tables: each rows(payload) flattens a payload, as run returns it or as
# its JSON report reads back, into (header, rows)

def _key_value(*keys: str):
    return lambda payload: (["key", "value"], [[k, payload[k]] for k in keys])


def _records(list_key: str, header: tuple[str, ...]):
    return lambda payload: (list(header), [[r[k] for k in header] for r in payload[list_key]])


def _hautus_rows(payload: dict):
    return ["condition", *_HAUTUS_POINT], [
        [payload["condition"], *(p[k] for k in _HAUTUS_POINT)]
        for p in payload["points"] + payload["complex_points"]
    ]


def _subspace_rows(payload: dict):
    return ["vector_index", "coordinate", "value"], [
        [j, i, row[j]] for j in range(payload["dim"]) for i, row in enumerate(payload["basis"])
    ]


def _matrix_rows(payload: dict):
    return ["matrix", "row", "col", "value"], [
        [name, i, j, v]
        for name in _MATRICES for i, row in enumerate(payload[name]) for j, v in enumerate(row)
    ]


def _moment_rows(payload: dict):
    return ["time", "coordinate", "mean", "second_moment"], [
        [t, i, m, s]
        for t, mean, second in zip(payload["times"], payload["mean"], payload["second_moment"])
        for i, (m, s) in enumerate(zip(mean, second))
    ]


# name -> (run, rows); the order is the order of the --help choices
COMMANDS = {
    "check-n1": (_check_n1, _hautus_rows),
    "check-n2": (_check_n2, _hautus_rows),
    "invariant-subspace": (_invariant_subspace, _subspace_rows),
    "lambda-set": (_lambda_set, _records("points", _LAMBDA_POINT)),
    "verdict": (_verdict, _key_value(*_VERDICT)),
    "assemble": (_assemble, _matrix_rows),
    "ellipticity": (_ellipticity, _key_value(*_ELLIPTICITY)),
    "b-coeffs": (_b_coeffs, _records("modes", _B_MODE)),
    "simulate-forward": (_simulate_forward, _moment_rows),
    "duality": (_duality, _key_value(*_DUALITY)),
    "girsanov": (_girsanov, _records("points", _GIRSANOV_POINT)),
    "apriori": (_apriori, _records("samples", _APRIORI_SAMPLE)),
    "convergence": (_convergence, _records("rows", _CONVERGENCE_ROW)),
}
SUBCOMMANDS = tuple(COMMANDS)


def _command(name: str):
    if name not in COMMANDS:
        raise ConfigError(f"unknown subcommand {name!r}")
    return COMMANDS[name]


def run_subcommand(name: str, cfg: RunConfig) -> dict:
    """Execute one subcommand and return its payload (numpy values become JSON
    types when the report is rendered)."""
    return _command(name)[0](cfg)


def payload_rows(subcommand: str, payload: dict) -> tuple[list[str], list[list]]:
    """Flatten a payload into the fixed-header point table used for CSV."""
    return _command(subcommand)[1](payload)


def _csv_cell(v) -> str:
    if isinstance(v, np.generic):
        v = v.item()
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
    """``json.dumps(report, indent=2, allow_nan=False) + "\\n"``, byte for byte,
    with each numpy array or scalar written as its ``tolist()``.

    ``indent`` rules out json's C encoder, and its Python one takes one
    generator step per value; here each list of floats, most of a report,
    is written in one join."""
    return _json(report, "\n") + "\n"


def _json(obj, nl: str) -> str:
    """obj as json.dumps(obj, indent=2, allow_nan=False) writes it at the
    depth whose line break and indent are ``nl``.  Whatever is not a
    non-empty list, a non-empty dict with str keys or a plain scalar goes to
    json itself, a numpy value as its tolist(); json's only raw line breaks
    are those of its layout."""
    inner = nl + "  "
    if type(obj) is list and obj:
        if type(obj[0]) is float:
            try:
                text = ("," + inner).join(map(float.__repr__, obj))
            except TypeError:  # not only floats
                pass
            else:
                if "n" not in text:  # no nan or inf, which json refuses
                    return "[" + inner + text + nl + "]"
        return "[" + inner + ("," + inner).join(_json(v, inner) for v in obj) + nl + "]"
    if type(obj) is dict and obj and all(type(k) is str for k in obj):
        return "{" + inner + ("," + inner).join(
            f"{encode_basestring_ascii(k)}: {_json(v, inner)}" for k, v in obj.items()
        ) + nl + "}"
    if type(obj) is str:
        return encode_basestring_ascii(obj)
    if obj is None or type(obj) is bool:
        return "null" if obj is None else "true" if obj else "false"
    if type(obj) is int or (type(obj) is float and math.isfinite(obj)):
        return repr(obj)
    if isinstance(obj, (np.ndarray, np.generic)):
        return _json(obj.tolist(), nl)
    return json.dumps(obj, indent=2, allow_nan=False).replace("\n", nl)


def build_report(subcommand: str, cfg: RunConfig, payload: dict,
                 duration: float, threads: int) -> dict:
    return {
        "tool": {"name": "sck", "version": __version__},
        "subcommand": subcommand,
        "seed": None if cfg.sim is None else cfg.sim.seed,
        "threads": threads,
        "duration_seconds": duration,
        "config": cfg.resolved,
        "payload": payload,
    }


# ---------------------------------------------------------------------------
# entry point

class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the contract wants 1
    def error(self, message):
        raise ConfigError(message)


# built once, at import: the first parser makes gettext import locale, which
# is start-up work and should not land in the first run
_PARSER = _Parser(prog="sck", description="stochastic controllability kit")
_PARSER.add_argument("subcommand", choices=SUBCOMMANDS)
_PARSER.add_argument("--config", required=True, help="path to the JSON run configuration")
_PARSER.add_argument("--output", help="report path (overrides config output_path)")
_PARSER.add_argument("--format", choices=FORMATS, help="report format override")
_PARSER.add_argument("--seed", type=int, help="seed override for simulation runs")
_PARSER.add_argument(
    "--threads", type=int, default=None,
    help="recorded in the report envelope only; sck computes in one "
         "process and results never depend on it; falls back to SCK_THREADS",
)


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        threads = args.threads
        if threads is None:
            env = os.environ.get("SCK_THREADS", "0")
            try:
                threads = int(env)
            except ValueError:
                threads = -1
            if threads < 0:
                raise ConfigError(f"SCK_THREADS: expected a non-negative integer, got {env!r}")
        elif threads < 0:
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
            try:
                cfg.sim = replace(cfg.sim, seed=args.seed)
            except DomainError as exc:
                raise ConfigError(f"--seed: {exc}") from exc
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
            text = render_csv(args.subcommand, payload)
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
