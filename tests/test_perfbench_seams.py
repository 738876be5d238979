"""The benchmark's seams into sck.

perfbench/worker.py wraps public functions by name and does arithmetic on
their spans: ``bsde.regression_s`` subtracts a direct solve from the
``bsde.solve_dual_bsde`` span, which only the duality companion enters, and
``controllability.s_per_shift`` adds the N1 and N2 ``check_condition`` spans
of the verdict companion.  ``direct_layers`` reads the parsed config's
``n_regression_times``, and the apriori workload sends ``regression_degree``.
If any of these stops holding, every traced benchmark run fails, so a
change to them goes together with a change to perfbench/ and to this file.
perfbench/workloads.py is imported from its file and not modified.
"""

import importlib.util
import os

import pytest

from sck import bsde, controllability
from sck.cli import _jsonable, run_subcommand
from sck.config import parse_run_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def counting(monkeypatch, module, name) -> list:
    """Wrap ``module.name`` as the benchmark's tracer does; returns the list
    of (args, kwargs) of every call."""
    calls, orig = [], getattr(module, name)

    def wrapped(*args, **kwargs):
        calls.append((args, kwargs))
        return orig(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapped)
    return calls


def run_companion(workloads, subcommand):
    sub, raw, oracle = next(c for c in workloads.companions() if c[0] == subcommand)
    payload = _jsonable(run_subcommand(sub, parse_run_config(raw)))
    assert oracle(raw, payload)[0] == []


def test_duality_companion_enters_solve_dual_bsde(workloads, monkeypatch):
    calls = counting(monkeypatch, bsde, "solve_dual_bsde")
    run_companion(workloads, "duality")
    assert calls


def test_verdict_companion_enters_both_scans(workloads, monkeypatch):
    calls = counting(monkeypatch, controllability, "check_condition")
    run_companion(workloads, "verdict")
    # the tracer's label: the condition keyword, else the third argument
    labels = [kwargs.get("condition", args[2] if len(args) > 2 else "?") for args, kwargs in calls]
    assert sorted(labels) == ["N1", "N2"]


def test_apriori_config_parses(workloads):
    cfg = parse_run_config(workloads.apriori_config(1))
    assert cfg.sim.regression_degree == 1
    assert cfg.n_regression_times >= 2
