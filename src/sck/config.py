"""Run-configuration parsing and validation for the CLI.

A run configuration is one JSON document.  Matrices are row-major nested
arrays of finite doubles.  Scalar fields that are naturally multiples of
powers of pi (the lambda grid, shift points) may be written with a tiny
fixed grammar -- numbers, ``pi``, ``*``, ``^`` and a leading minus, e.g.
``"-3*pi^2"`` -- evaluated here, never a general expression engine.
Validation errors carry the dotted field path of the offending entry.

Every parser maps ``(value, path)`` to ``(parsed value, resolved form)``.
A JSON object is read by its field table, ``{name: parse}`` for a required
field or ``{name: (parse, default)}``, and unknown fields are rejected.  The
top-level sections are the fields of :class:`RunConfig`.

System assembly is deferred to :meth:`RunConfig.make_system` so that
subcommands that only inspect coefficients (the ellipticity check) can run
even when assembly itself would be rejected.
"""

from __future__ import annotations

import dataclasses
import math
import re
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Optional

import numpy as np

from . import bsde, galerkin, sde
from .exceptions import DimensionError, DomainError
from .systems import StochasticSystem, ToleranceConfig

__all__ = ["ConfigError", "RunConfig", "parse_run_config", "parse_pi_expression"]

FORMATS = ("json", "csv")


class ConfigError(ValueError):
    """Malformed run configuration; message starts with the field path."""


_ATOM = r"\s*(pi|[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)"
_FACTOR = rf"{_ATOM}(?:\s*\^{_ATOM})?"
_EXPRESSION = re.compile(rf"(?:\s*-)?{_FACTOR}(?:\s*\*{_FACTOR})*")


def parse_pi_expression(text: str) -> float:
    """Evaluate the fixed grammar: ['-'] factor ('*' factor)* with
    factor = (number | pi) ['^' (number | pi)]; whitespace may precede any
    token."""
    if not _EXPRESSION.fullmatch(text):
        raise ConfigError(f"malformed pi-expression {text!r}")
    value = -1.0 if text.lstrip().startswith("-") else 1.0
    for factor in re.findall(_FACTOR, text):
        base, exponent = (math.pi if t == "pi" else float(t) for t in (factor[0], factor[1] or "1"))
        value *= base ** exponent
    return value


# ---------------------------------------------------------------------------
# parsers: parse(value, path) -> (parsed value, resolved form)

def _number(value: Any, path: str) -> tuple[float, float]:
    if isinstance(value, bool):
        raise ConfigError(f"{path}: expected a number, got a boolean")
    if not isinstance(value, (int, float, str)):
        raise ConfigError(f"{path}: expected a number or pi-expression string")
    try:
        out = parse_pi_expression(value) if isinstance(value, str) else float(value)
    except OverflowError:
        out = math.inf  # an integer or a power too large for a double
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if not math.isfinite(out):
        raise ConfigError(f"{path}: value is not finite")
    return out, out


def _int(value: Any, path: str) -> tuple[int, int]:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer")
    return value, value


def _array(item: Callable, what: str) -> Callable:
    """Parser of a JSON array whose entries ``item`` reads."""
    def parse(value: Any, path: str):
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected an array of {what}")
        pairs = [item(v, f"{path}[{i}]") for i, v in enumerate(value)]
        return [v for v, _ in pairs], [r for _, r in pairs]
    return parse


_vector = _array(_number, "numbers")


def _matrix(value: Any, path: str):
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a non-empty row-major matrix")
    rows = []
    for i, row in enumerate(value):
        rows.append(_vector(row, f"{path}[{i}]")[0])
        if len(rows[i]) != len(rows[0]):
            raise ConfigError(f"{path}[{i}]: ragged matrix rows")
    return rows, rows


def _pair(value: Any, path: str):
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"{path}: expected [lambda, alpha]")
    return _vector(value, path)


def _x0(value: Any, path: str):
    x0, resolved = _vector(value, path)
    return np.array(x0), resolved


def _grid_size(value: Any, path: str):
    if _int(value, path)[0] < 2:
        raise ConfigError(f"{path}: must be >= 2")
    return value, value


def _format(value: Any, path: str):
    if value not in FORMATS:
        raise ConfigError(f"{path}: must be one of {FORMATS}, got {value!r}")
    return value, value


def _string(value: Any, path: str):
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected a string")
    return value, value


def _object(fields: dict, spec: Any, path: str) -> tuple[dict, dict]:
    """Parser of a JSON object by its field table.  An absent or null field
    takes its default (``...``: required); a None value has no resolved form.
    The empty path is the top level."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{path}: expected an object")
    unknown = set(spec) - set(fields)
    if unknown:
        raise ConfigError(f"{path}: unknown fields {sorted(unknown)}")
    values, resolved = {}, {}
    for name, entry in fields.items():
        parse, default = entry if isinstance(entry, tuple) else (entry, ...)
        field_path = f"{path}.{name}" if path else name
        value = spec.get(name)
        if value is None:
            value = default(values) if callable(default) else default
        if value is ...:
            raise ConfigError(f"{field_path}: missing required field")
        values[name] = None
        if value is not None:
            values[name], resolved[name] = parse(value, field_path)
    return values, resolved


def _built(fields: dict, build: Callable) -> Callable:
    """Parser of an object whose field values are passed to ``build``."""
    def parse(spec: Any, path: str):
        values, resolved = _object(fields, spec, path)
        try:
            return build(**values), resolved
        except (DomainError, DimensionError) as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    return parse


def _dataclass(cls) -> Callable:
    """Parser of a section whose fields, with their defaults, are those of the
    dataclass ``cls``; each is a number or an integer by annotation."""
    leaf = {"float": _number, "int": _int}
    return _built({
        f.name: (leaf[f.type], ... if f.default is dataclasses.MISSING else f.default)
        for f in dataclasses.fields(cls)
    }, cls)


def _kinds(noun: str, kinds: dict) -> Callable:
    """Parser of a tagged union: ``type`` names the kind, and the kind's
    ``(fields, build)`` entry reads the other fields.  The resolved form is
    the object as written."""
    kinds = {kind: _built(*entry) for kind, entry in kinds.items()}

    def parse(spec: Any, path: str):
        if not isinstance(spec, dict):
            raise ConfigError(f"{path}: expected an object")
        kind = spec.get("type")
        if kind is None:
            raise ConfigError(f"{path}.type: missing required field")
        if not isinstance(kind, str) or kind not in kinds:
            raise ConfigError(f"{path}.type: unknown {noun} type {kind!r}")
        rest = {k: v for k, v in spec.items() if k != "type"}
        return kinds[kind](rest, path)[0], spec
    return parse


_CONTROL = _kinds("control", {
    "zero": ({}, sde.ZeroControl),
    "constant": ({"u": _vector}, sde.ConstantControl),
    "piecewise": ({"values": _matrix}, sde.PiecewiseConstantControl),
    "feedback": ({"K": _matrix}, sde.FeedbackControl),
})

_TERMINAL = _kinds("terminal", {
    "deterministic": ({"xi": _vector}, bsde.DeterministicTerminal),
    "linear_in_wt": ({"xi0": _vector, "xi1": _vector}, bsde.LinearInWTTerminal),
})

_COEFFICIENT = _kinds("coefficient", {
    "constant": ({"value": _number}, galerkin.constant),
    "polynomial": ({"coeffs": _vector}, galerkin.polynomial),
    "trigonometric": (
        {"offset": (_number, 0.0), "sin": (_vector, []), "cos": (_vector, [])},
        lambda offset, sin, cos: galerkin.trigonometric(offset, sin, cos),
    ),
})


def _coefficient(spec: Any, path: str):
    if isinstance(spec, (int, float)) and not isinstance(spec, bool):
        return galerkin.constant(float(spec)), spec
    if not isinstance(spec, dict):
        raise ConfigError(f"{path}: expected a coefficient object or a number")
    return _COEFFICIENT(spec, path)


# system source -> (fields, build(tolerances, **parts)); the source is named
# by its key, and build runs only in RunConfig.make_system
_SYSTEMS = {
    "matrices": (
        {"A": _matrix, "B": _matrix, "gamma": (_number, 0.0),
         "C": (_matrix, None), "C1": (_matrix, None), "C2": (_matrix, None)},
        lambda tolerances, **parts: StochasticSystem(**parts),
    ),
    "example2": (
        {"N": _int, "b_coeffs": _vector},
        lambda tolerances, N, b_coeffs: galerkin.assemble_example2(N, b_coeffs),
    ),
    "divform1d": (
        {"N": _int, "quad_order": (_int, lambda parts: max(2 * parts["N"], 16)),
         "a": _coefficient, "c": _coefficient, "b": _coefficient},
        lambda tolerances, N, quad_order, a, c, b: galerkin.assemble_divform_1d(
            galerkin.HeatSystemSpec(N=N, a_fn=a, c_fn=c, b_fn=b, quad_order=quad_order),
            tolerances,
        ),
    ),
}


def _system(spec: Any, path: str):
    if not isinstance(spec, dict):
        raise ConfigError(f"{path}: expected an object")
    sources = [k for k in _SYSTEMS if k in spec]
    if len(sources) != 1:
        raise ConfigError(
            f"{path}: exactly one of matrices/example2/divform1d required, got {sources}"
        )
    kind = sources[0]
    values, resolved = _object({kind: partial(_object, _SYSTEMS[kind][0])}, spec, path)
    return (kind, values[kind]), resolved


def _section(parse: Callable, default: Any = None, shown: bool = False):
    """A RunConfig field read from the top-level key of the same name.  The
    resolved config has the section if it is given, or if ``shown``."""
    return field(metadata={"parse": parse, "default": default, "shown": shown})


@dataclass
class RunConfig:
    """Fully validated run configuration plus its normalized JSON form.

    Each field is one top-level section, in the order of ``resolved``.
    ``resolved`` re-serializes to an equivalent document: defaults are filled
    in and pi-expressions evaluated, except in ``control``, ``terminal``,
    ``apriori.terminals`` and the ``divform1d`` coefficients, which are
    copied as written.  Re-running it reproduces a report's numerical
    payload bit for bit on the same BLAS kernel.
    """

    system: tuple[str, dict] = _section(_system, ..., shown=True)
    tolerances: ToleranceConfig = _section(_dataclass(ToleranceConfig), {}, shown=True)
    lambda_grid: list[float] = _section(_vector, [], shown=True)
    format: str = _section(_format, "json", shown=True)
    n_regression_times: int = _section(_grid_size, 11, shown=True)
    sim: Optional[sde.SimConfig] = _section(_dataclass(sde.SimConfig))
    x0: Optional[np.ndarray] = _section(_x0)
    control: Any = _section(_CONTROL, {"type": "zero"})
    terminal: Any = _section(_TERMINAL)
    explicit_points: list[list[float]] = _section(_array(_pair, "[lambda, alpha] pairs"), [])
    girsanov: dict = _section(
        partial(_object, {"lambda": (_number, None), "dt_list": (_vector, [])}), {})
    convergence: dict = _section(partial(_object, {
        "n_list": (_array(_int, "integers"), []),
        "delta_list": (_vector, []),
        "lambda": (_number, 1.0),
    }), {})
    ellipticity: dict = _section(
        partial(_object, {"alpha": (_number, 0.6), "grid_points": (_int, 1000)}), {})
    apriori: dict = _section(
        partial(_object, {"terminals": (_array(_TERMINAL, "terminal objects"), [])}), {})
    output_path: Optional[str] = _section(_string)
    resolved: dict = field(repr=False, default_factory=dict)

    def make_system(self) -> StochasticSystem:
        """Assemble the configured system (deferred so coefficient-only
        subcommands can run even if assembly would be rejected); a rejection
        names the system source."""
        kind, parts = self.system
        try:
            return _SYSTEMS[kind][1](self.tolerances, **parts)
        except (DomainError, DimensionError) as exc:
            raise ConfigError(f"system.{kind}: {exc}") from exc

    def coefficient_fns(self) -> tuple[Callable, Callable]:
        """(a, c) coefficient callables for the ellipticity check."""
        kind, parts = self.system
        if kind != "divform1d":
            raise ConfigError(
                "ellipticity: requires a divform1d system with named coefficients"
            )
        return parts["a"], parts["c"]

    def require(self, path: str) -> Any:
        """The value of a section, or of ``section.field``, that a subcommand
        needs; ConfigError when it is absent or empty."""
        section, _, key = path.partition(".")
        value = getattr(self, section)[key] if key else getattr(self, section)
        if value is None or (isinstance(value, (list, np.ndarray)) and len(value) == 0):
            raise ConfigError(f"{path}: required by this subcommand")
        return value


_SECTIONS = [f for f in dataclasses.fields(RunConfig) if f.metadata]


def parse_run_config(raw: Any) -> RunConfig:
    """Validate a decoded JSON document into a RunConfig: one pass over the
    section table, in resolved order."""
    if not isinstance(raw, dict):
        raise ConfigError("config: top level must be an object")
    unknown = set(raw) - {f.name for f in _SECTIONS}
    if unknown:
        raise ConfigError(f"config: unknown top-level fields {sorted(unknown)}")
    if "system" not in raw:
        raise ConfigError("config.system: missing required field")
    values, resolved = _object(
        {f.name: (f.metadata["parse"], f.metadata["default"]) for f in _SECTIONS}, raw, "")
    shown = {f.name for f in _SECTIONS if f.metadata["shown"] or raw.get(f.name) is not None}
    return RunConfig(**values, resolved={k: v for k, v in resolved.items() if k in shown})
