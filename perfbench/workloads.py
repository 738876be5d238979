"""Benchmark workloads: a seeded sck run configuration and an oracle each.

A workload turns the benchmark seed into one JSON run configuration for one
``sck`` subcommand.  Its oracle checks the report payload against an answer
computed here, without calling into sck.  Every op of a run uses the same
configuration, so the cold op and the warm repeats do identical work.
"""

from __future__ import annotations

import math

import numpy as np

DT = 1e-3

# C4 flagship system: example2 at N = 4.  Noise acts on mode 1 only and the
# terminal is e_2, so both duality sides are deterministic.
FLAGSHIP_B = [1 / math.sqrt(2), 1 / math.sqrt(2), 0.1, 0.1]
FLAGSHIP_XI = [0.0, 1.0, 0.0, 0.0]
DUALITY_T = 0.05

APRIORI_N = 16
APRIORI_T = 0.1
APRIORI_PATHS = 10_000

# divform1d on (0, 1), symmetric under x -> 1 - x: a and b are even about
# x = 1/2 and c is odd, so A and C keep sine-mode parity and every even mode
# lies in Ker B^T.  Each pencil operator then has exactly N/2 violations.
VERDICT_N = 128
VERDICT_LAMBDAS = [-1.0, -0.5, 0.5, 1.0]
NOT_CONTROLLABLE = "NotApproxControllable"


def verdict_coefficients() -> dict:
    return {
        "a": {"type": "trigonometric", "offset": 1.0, "sin": [0.5]},
        "c": {"type": "trigonometric", "cos": [0.3]},
        "b": {"type": "polynomial", "coeffs": [0.0, 1.0, -1.0]},
    }


def _sim_seed(seed: int) -> int:
    return int(np.random.default_rng([seed, 1]).integers(2**63))


def duality_config(seed: int) -> dict:
    return {
        "system": {"example2": {"N": 4, "b_coeffs": FLAGSHIP_B}},
        "sim": {"T": DUALITY_T, "dt": DT, "n_paths": 100_000, "seed": _sim_seed(seed)},
        "x0": [1.0, 1.0, 1.0, 1.0],
        "control": {"type": "constant", "u": [1.0]},
        "terminal": {"type": "deterministic", "xi": FLAGSHIP_XI},
    }


def duality_oracle(cfg: dict, payload: dict) -> tuple[list[str], dict]:
    """lhs is <m_K, xi> for the discrete mean recursion
    m_{k+1} = (I + dt A) m_k + dt B u, exact here because xi = e_2 sees no noise."""
    n = len(FLAGSHIP_B)
    A = np.diag(-((np.arange(1, n + 1) * np.pi) ** 2))
    Bu = np.array(FLAGSHIP_B) * cfg["control"]["u"][0]
    sim = cfg["sim"]
    m = np.array(cfg["x0"])
    for _ in range(round(sim["T"] / sim["dt"])):
        m = m + sim["dt"] * (A @ m + Bu)
    expected = float(m @ np.array(FLAGSHIP_XI))
    errors = []
    if abs(payload["lhs"] - expected) > 1e-12 * abs(expected):
        errors.append(f"lhs {payload['lhs']!r} != mean recursion {expected!r}")
    if payload["passed"] is not True:
        errors.append("duality check did not pass")
    return errors, {}


def apriori_config(seed: int) -> dict:
    rng = np.random.default_rng([seed, 2])
    n = APRIORI_N
    G = rng.standard_normal((n, n)) / math.sqrt(n)
    S = rng.standard_normal((n, n)) / math.sqrt(n)
    # symmetric part -(G G^T + I) <= -I, so A is strictly dissipative
    A = -(G @ G.T) - np.eye(n) + (S - S.T)
    C = 0.5 * rng.standard_normal((n, n)) / math.sqrt(n)
    B = rng.standard_normal((n, 1))
    return {
        "system": {"matrices": {"A": A.tolist(), "B": B.tolist(), "C": C.tolist()}},
        "sim": {"T": APRIORI_T, "dt": DT, "n_paths": APRIORI_PATHS,
                "seed": _sim_seed(seed), "regression_degree": 1},
        "terminal": {"type": "linear_in_wt", "xi0": rng.standard_normal(n).tolist(),
                     "xi1": rng.standard_normal(n).tolist()},
    }


def apriori_oracle(cfg: dict, payload: dict) -> tuple[list[str], dict]:
    """The five terminals are rescalings sharing one noise sample, so every
    ratio is the same by linearity; Y_T = xi is regressed exactly, so k_hat >= 1."""
    errors = []
    if len(payload["samples"]) != 5:
        errors.append(f"expected 5 terminal samples, got {len(payload['samples'])}")
    if abs(payload["scale_spread"] - 1.0) > 1e-9:
        errors.append(f"scale_spread {payload['scale_spread']!r} is not 1")
    if not payload["k_hat"] >= 1.0 - 1e-9:
        errors.append(f"k_hat {payload['k_hat']!r} < 1")
    return errors, {}


def verdict_config(seed: int) -> dict:
    # The inputs do not depend on the seed: the oracle is analytic at these
    # coefficients, and the recall it measures is a tracked finding.
    return {
        "system": {"divform1d": {"N": VERDICT_N, **verdict_coefficients()}},
        "lambda_grid": VERDICT_LAMBDAS,
    }


def verdict_oracle(cfg: dict, payload: dict) -> tuple[list[str], dict]:
    """Even modes span an invariant subspace inside Ker B^T of dimension N/2;
    the largest strictly invariant one has dimension N - 1, and each pencil
    operator has N/2 even-parity violations."""
    N = cfg["system"]["divform1d"]["N"]
    lambdas = cfg["lambda_grid"]
    errors = []
    if payload["verdict"] != NOT_CONTROLLABLE:
        errors.append(f"verdict {payload['verdict']!r}")
    if payload["invariant_subspace_dim"] != N - 1:
        errors.append(f"subspace dim {payload['invariant_subspace_dim']} != {N - 1}")
    if payload["consistency_warning"] is not False:
        errors.append("consistency_warning is set")
    if payload["lambdas_used"] != lambdas:
        errors.append(f"lambdas_used {payload['lambdas_used']} != {lambdas}")
    n1 = sum(p["violated"] for p in payload["n1"]["points"])
    per_lam = {lam: 0 for lam in lambdas}
    for p in (payload["n2"] or {"points": []})["points"]:
        per_lam[p["lambda"]] = per_lam.get(p["lambda"], 0) + p["violated"]
    for lam, count in [("N1", n1)] + list(per_lam.items()):
        if count > N // 2:
            errors.append(f"{count} violations at {lam} exceed N/2 = {N // 2}")
    n2 = sum(per_lam.values())
    return errors, {
        "n1_flagged": n1, "n1_expected": N // 2,
        "n2_flagged": n2, "n2_expected": N // 2 * len(lambdas),
    }


def companions() -> list[tuple[str, dict, object]]:
    """Two small fixed ops, traced beside every workload's op.  A layer the
    workload's op never enters is timed on these instead, so every per-layer
    metric is a measured value on every workload."""
    duality = duality_config(0)
    duality["sim"].update(T=0.01, n_paths=2000)
    verdict = verdict_config(0)
    verdict["system"]["divform1d"]["N"] = 16
    verdict["lambda_grid"] = [-1.0, 1.0]
    return [("duality", duality, duality_oracle), ("verdict", verdict, verdict_oracle)]


WORKLOADS = {
    "duality-n4": ("duality", duality_config, duality_oracle),
    "apriori-n16": ("apriori", apriori_config, apriori_oracle),
    "verdict-galerkin": ("verdict", verdict_config, verdict_oracle),
}


def recall(info: dict) -> float:
    """Flagged over expected pencil violations; 1 when none are expected."""
    expected = info.get("n1_expected", 0) + info.get("n2_expected", 0)
    if expected == 0:
        return 1.0
    return (info["n1_flagged"] + info["n2_flagged"]) / expected
