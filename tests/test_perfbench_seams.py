"""The benchmark's seams into sck.

perfbench/worker.py wraps public functions by name and does arithmetic on
their spans: ``bsde.regression_s`` subtracts a direct solve from the
``bsde.solve_dual_bsde`` span, which only the duality companion enters, and
``controllability.s_per_shift`` adds the N1 and N2 ``check_condition`` spans
of the verdict companion.  Its tracer keeps one span stack for every
thread, so each function it wraps must run on the calling thread; verdict's
helper thread runs only private functions.  ``direct_layers`` reads the
parsed config's ``n_regression_times``, and the apriori workload sends
``regression_degree``.  If any of these stops holding, every traced
benchmark run fails, so a change to them goes together with a change to
perfbench/ and to this file.  perfbench/workloads.py and worker.py are
imported from their files and not modified.
"""

import importlib.util
import json
import os
import threading

import pytest

from sck import bsde, controllability
from sck.cli import render_json, run_subcommand
from sck.config import parse_run_config
from sck.exceptions import DomainError

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(ROOT, "perfbench", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    return load("workloads")


def counting(monkeypatch, module, name) -> list:
    """Wrap ``module.name`` as the benchmark's tracer does; returns the list
    of (args, kwargs, thread id) of every call."""
    calls, orig = [], getattr(module, name)

    def wrapped(*args, **kwargs):
        calls.append((args, kwargs, threading.get_ident()))
        return orig(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapped)
    return calls


def run_companion(workloads, subcommand):
    sub, raw, oracle = next(c for c in workloads.companions() if c[0] == subcommand)
    payload = json.loads(render_json(run_subcommand(sub, parse_run_config(raw))))
    assert oracle(raw, payload)[0] == []


def test_duality_companion_enters_solve_dual_bsde(workloads, monkeypatch):
    calls = counting(monkeypatch, bsde, "solve_dual_bsde")
    run_companion(workloads, "duality")
    assert calls


def test_verdict_companion_enters_both_scans(workloads, monkeypatch):
    calls = counting(monkeypatch, controllability, "check_condition")
    run_companion(workloads, "verdict")
    # the tracer's label: the condition keyword, else the third argument
    labels = [kwargs.get("condition", args[2] if len(args) > 2 else "?") for args, kwargs, _ in calls]
    assert sorted(labels) == ["N1", "N2"]


def test_verdict_runs_every_traced_function_on_the_calling_thread(workloads, monkeypatch):
    class Recorder:
        """Stands in for the benchmark's tracer: its ``install`` wraps each
        function through ``wrap``, here with ``counting``."""

        def __init__(self):
            self.calls = {}

        def wrap(self, owner, attr, name, label=None, counts=None):
            self.calls[owner, attr] = counting(monkeypatch, owner, attr)

    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    recorder = Recorder()
    load("worker").install(recorder)
    run_companion(workloads, "verdict")
    calls = {key: len(c) for key, c in recorder.calls.items()}
    for name in ("verdict", "strict_invariant_subspace", "commuting_case_check"):
        assert calls[controllability, name] == 1
    assert calls[controllability, "check_condition"] == 2
    # the lambda set is decided once, through the traced name
    assert calls[controllability, "lambda_set"] == 1
    threads = {ident for c in recorder.calls.values() for *_, ident in c}
    assert threads == {threading.get_ident()}


def test_direct_n2_scan_still_checks_lambda(workloads):
    _, raw, _ = next(c for c in workloads.companions() if c[0] == "verdict")
    system = parse_run_config(raw).make_system()
    with pytest.raises(DomainError, match="lambda=40.0 is outside"):
        controllability.check_condition(system, [1.0, 40.0], "N2")


def test_apriori_config_parses(workloads):
    cfg = parse_run_config(workloads.apriori_config(1))
    assert cfg.sim.regression_degree == 1
    assert cfg.n_regression_times >= 2
