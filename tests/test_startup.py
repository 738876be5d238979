"""Start-up contract of the package and the CLI.

Importing sck loads no scipy: only a matrix exponential needs it, and its
import costs more than most subcommands.  The first run of a subcommand that
takes no exponential imports nothing at all, so no first-call cost lands in
the run.  Each check runs in a fresh interpreter that imports sck from src/.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

from sck.cli import render_json, run_subcommand
from sck.config import parse_run_config

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

BASE = {
    "system": {"example2": {"N": 4, "b_coeffs": [0.5, 0.5, 0.5, 0.5]}},
    "sim": {"T": 0.2, "dt": 0.01, "n_paths": 200, "seed": 11},
    "x0": [1.0, 0.5, -0.5, 0.2],
    "control": {"type": "constant", "u": [1.0]},
}
DETERMINISTIC = {"type": "deterministic", "xi": [0.3, 1.0, -0.5, 0.2]}
LINEAR = {"type": "linear_in_wt", "xi0": [0.3, 1.0, -0.5, 0.2], "xi1": [1.0, 0.0, 0.5, 0.0]}

# the first cli.main run in a fresh process: exit status and the modules it added
FIRST_RUN = """
import json, sys
import sck.cli
before = set(sys.modules)
status = sck.cli.main(sys.argv[1:])
print(json.dumps([status, sorted(set(sys.modules) - before)]))
"""


def fresh(code: str, *args: str):
    """The JSON that ``code`` prints when a fresh interpreter runs it."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code, *args], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def cli_args(tmp_path, subcommand: str, config: dict) -> list[str]:
    cfg_path, out_path = tmp_path / "cfg.json", tmp_path / "out.json"
    cfg_path.write_text(json.dumps(config))
    return [subcommand, "--config", str(cfg_path), "--output", str(out_path)]


def test_import_loads_no_scipy():
    code = ("import json, sys, sck, sck.cli\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))")
    assert fresh(code) == []


def test_package_surface_is_every_module_surface():
    import sck
    from sck import bsde, controllability, galerkin, sde, systems

    modules = (bsde, controllability, galerkin, sde, systems)
    assert len(set(sck.__all__)) == len(sck.__all__)
    assert sck.__all__ == ["__version__", *(name for m in modules for name in m.__all__)]
    for m in modules:
        for name in m.__all__:
            assert getattr(sck, name) is getattr(m, name), name


@pytest.mark.parametrize("subcommand, extra", [
    ("verdict", {"lambda_grid": [-1.0, 0.5]}),
    ("duality", {"terminal": DETERMINISTIC}),
    ("duality", {"terminal": LINEAR}),
    ("apriori", {"terminal": LINEAR}),
], ids=["verdict", "duality-deterministic", "duality-linear", "apriori"])
def test_first_run_imports_nothing(tmp_path, subcommand, extra):
    assert fresh(FIRST_RUN, *cli_args(tmp_path, subcommand, {**BASE, **extra})) == [0, []]


def test_convergence_in_a_fresh_process(tmp_path):
    config = {**BASE, "terminal": LINEAR,
              "convergence": {"n_list": [10, 100], "delta_list": [0.1, 0.01]}}
    args = cli_args(tmp_path, "convergence", config)
    assert fresh(FIRST_RUN, *args)[0] == 0
    payload = json.loads((tmp_path / "out.json").read_text())["payload"]
    assert payload == json.loads(render_json(run_subcommand("convergence", parse_run_config(config))))


def test_semigroup_apply_in_a_fresh_process():
    A = [[-1.0, 2.0, 0.0], [0.0, -3.0, 1.0], [0.5, 0.0, -2.0]]
    x = [1.0, -0.5, 0.25]
    code = ("import json, sck\n"
            f"print(json.dumps(sck.semigroup_apply({A}, 0.7, {x}).tolist()))")
    expected = scipy.linalg.expm(0.7 * np.array(A)) @ np.array(x)
    assert np.array_equal(fresh(code), expected)
