"""Decisions do not depend on the OpenBLAS kernel.

numpy's OpenBLAS, when built with DYNAMIC_ARCH, picks its kernels per process
from ``OPENBLAS_CORETYPE``, so one machine can run other platforms' BLAS code.
A small digest of decisions and values is computed in a fresh interpreter
under the default kernel and under a few others: decisions must agree
exactly, and values to 1e-12 relative.
"""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
CORETYPES = ["Haswell", "Nehalem", "SandyBridge"]

DIGEST = """
import ctypes, json
import numpy as np
from sck import (HeatSystemSpec, assemble_divform_1d, assemble_example2, b_coefficient_test,
                 check_condition, strict_invariant_subspace)
from sck.cli import run_subcommand
from sck.config import parse_run_config
from sck.galerkin import polynomial, trigonometric


def openblas(name):
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            f = getattr(lib, f"{prefix}_{name}{suffix}", None)
            if f is not None:
                f.restype = ctypes.c_char_p
                return f().decode()
    return None


def scan(rep):
    p = rep.witness_point
    return {"flags": [q.violated for q in rep.points],
            "witness_point": None if p is None else [p.lam, p.alpha]}


N = 32
parity = assemble_divform_1d(HeatSystemSpec(
    N, trigonometric(1.0, [0.5]), trigonometric(0.0, [], [0.3]), polynomial([0.0, 1.0, -1.0])))
example2 = assemble_example2(4, [0.5**0.5, 0.5**0.5, 0.1, 0.1])
base = {
    "system": {"example2": {"N": 4, "b_coeffs": [0.5, 0.5, 0.5, 0.5]}},
    "sim": {"T": 0.2, "dt": 0.01, "n_paths": 200, "seed": 11},
    "x0": [1.0, 0.5, -0.5, 0.2],
    "control": {"type": "constant", "u": [1.0]},
    "terminal": {"type": "linear_in_wt", "xi0": [0.3, 1.0, -0.5, 0.2],
                 "xi1": [1.0, 0.0, 0.5, 0.0]},
}
duality = run_subcommand("duality", parse_run_config(base))
digest = {
    "n1": scan(check_condition(parity, [], "N1")),
    "n2": scan(check_condition(parity, [-1.0, 1.0], "N2")),
    "b_coeffs": [m.near_zero for m in b_coefficient_test(parity)],
    "subspace_dim": strict_invariant_subspace(parity.A, parity.C, parity.B).dim,
    "example2_witness_point": scan(check_condition(example2, [-3 * np.pi**2], "N2"))["witness_point"],
    "duality": [duality["lhs"], duality["rhs"]],
    "k_hat": run_subcommand("apriori", parse_run_config(base))["k_hat"],
}
print(json.dumps({"config": openblas("get_config"), "core": openblas("get_corename"),
                  "digest": digest}))
"""


def digest(coretype=None) -> dict:
    """What DIGEST prints in a fresh interpreter under ``coretype``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    env.pop("OPENBLAS_CORETYPE", None)
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    out = subprocess.run([sys.executable, "-c", DIGEST], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def assert_same(expected, got, path="digest"):
    """Decisions (bools, ints, None) exactly, floats to 1e-12 relative."""
    if isinstance(expected, float):
        assert got == pytest.approx(expected, rel=1e-12, abs=0.0), path
    elif isinstance(expected, dict):
        assert sorted(got) == sorted(expected), path
        for key in expected:
            assert_same(expected[key], got[key], f"{path}.{key}")
    elif isinstance(expected, list):
        assert len(got) == len(expected), path
        for i, (e, g) in enumerate(zip(expected, got)):
            assert_same(e, g, f"{path}[{i}]")
    else:
        assert got == expected and type(got) is type(expected), path


def test_decisions_agree_across_kernels():
    default = digest()
    if default["config"] is None or "DYNAMIC_ARCH" not in default["config"]:
        pytest.skip("numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS")
    d = default["digest"]
    # the parity system's known answer: half the modes uncontrolled
    assert sum(d["n1"]["flags"]) == sum(d["b_coeffs"]) == 16
    assert sum(d["n2"]["flags"]) == 32 and d["subspace_dim"] == 31
    for coretype in CORETYPES:
        other = digest(coretype)
        assert other["core"].lower() == coretype.lower(), "OPENBLAS_CORETYPE was not applied"
        assert_same(d, other["digest"], f"digest[{coretype}]")


SWEEPS = """
import hashlib, json
import numpy as np
from sck import (ConstantControl, DeterministicTerminal, SimConfig, StochasticSystem,
                 duality_check, ensemble_moments, girsanov_check)


def system(n):
    rng = np.random.default_rng(n)
    G, C = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    return StochasticSystem(G - (np.linalg.norm(G, 2) + 0.5) * np.eye(n),
                            rng.standard_normal((n, 1)), C=0.5 * C / np.linalg.norm(C, 2))


def digest(*arrays):
    return hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)).hexdigest()


u = ConstantControl(np.ones(1))
x0 = np.random.default_rng(100).standard_normal(64)
moments = ensemble_moments(system(64), x0, u, SimConfig(T=0.1, dt=0.01, n_paths=3001, seed=0))
rep = duality_check(system(16), x0[:16], u, DeterministicTerminal(x0[16:32]),
                    SimConfig(T=0.1, dt=0.01, n_paths=20001, seed=5))
points = girsanov_check(system(64), -0.5, x0, u, SimConfig(T=0.1, dt=0.01, n_paths=3001, seed=3),
                        [0.01])
print(json.dumps({"moments": digest(*moments),
                  "duality": digest(np.array([rep.lhs, rep.rhs, rep.lhs_mc, rep.stderr])),
                  "girsanov": digest(np.array(points))}))
"""


def thread_runs(script: str) -> list[dict]:
    """What ``script`` prints in a fresh interpreter on one OpenBLAS thread
    and on two."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    runs = []
    for threads in ("1", "2"):
        env["OPENBLAS_NUM_THREADS"] = threads
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        runs.append(json.loads(out.stdout))
    return runs


def test_sweeps_bitwise_equal_across_blas_thread_counts():
    # an odd path count splits unevenly over two OpenBLAS threads; the
    # sweep's products run on one thread each, so the bits must not move
    runs = thread_runs(SWEEPS)
    assert runs[0] == runs[1]


ALGEBRA = """
import hashlib, json
from sck.cli import render_json, run_subcommand
from sck.config import parse_run_config

cfg = {"system": {"divform1d": {
           "N": 256, "a": {"type": "trigonometric", "offset": 1.0, "sin": [0.5]},
           "c": {"type": "trigonometric", "cos": [0.3]},
           "b": {"type": "polynomial", "coeffs": [0.0, 1.0, -1.0]}}},
       "lambda_grid": [-1.0, -0.5, 0.5, 1.0]}
print(json.dumps({sub: hashlib.sha256(render_json(run_subcommand(sub, parse_run_config(cfg)))
                                      .encode()).hexdigest()
                  for sub in ("b-coeffs", "lambda-set")}))
"""


def test_algebra_bitwise_equal_across_blas_thread_counts():
    # at N = 256 the eigensolvers of b-coeffs and lambda-set split their
    # work over two OpenBLAS threads unless pinned to one
    runs = thread_runs(ALGEBRA)
    assert runs[0] == runs[1]
