"""Reproduce the measured layer table of ROADMAP item 1 from outside sck,
together with earlier measurements of the benchmark's workloads.

    python3 perfbench/layer_table.py

Run from the root of a source checkout (sck is imported from ``src/``).
Prints one markdown row per claim: what was claimed, what this machine
measures now.  Takes about two minutes and ~300 MiB.  Rows whose
quantity cannot be timed through sck's public functions are derived by
difference or through a private helper, and say so.  NOTES.md records a
run of it.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import sck  # noqa: E402
import sck.cli  # noqa: E402
from workloads import (  # noqa: E402
    FLAGSHIP_B, FLAGSHIP_XI, apriori_config, verdict_coefficients, verdict_config,
)


def row(what: str, claim: str, measured: str):
    print(f"| {what} | {claim} | {measured} |", flush=True)


def timed(fn):
    start = time.perf_counter()
    out = fn()
    return time.perf_counter() - start, out


def cli_op(argv: list[str]) -> tuple[float, int, float]:
    """Wall seconds, minor faults and system seconds of one sck.cli.main call."""
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    wall, rc = timed(lambda: sck.cli.main(argv))
    r1 = resource.getrusage(resource.RUSAGE_SELF)
    if rc != 0:
        raise SystemExit(f"sck {argv[0]} exited with status {rc}")
    return wall, r1.ru_minflt - r0.ru_minflt, r1.ru_stime - r0.ru_stime


def noise_pass(sim) -> float:
    """Seconds to draw every step's increments once, one step at a time as
    the solvers do.  This goes through the private ``_step_normals``:
    ``brownian_increments`` adds a strided copy into a (paths x steps)
    array, which at 1000 steps costs more than the draws themselves."""
    root = np.sqrt(sim.dt)
    start = time.perf_counter()
    for k in range(sim.n_steps):
        sck.sde._step_normals(sim.seed, k, sim.n_paths) * root
    return time.perf_counter() - start


def divform(N: int):
    raw = {"system": {"divform1d": {"N": N, **verdict_coefficients()}}}
    return sck.config.parse_run_config(raw).make_system()


def main():
    out = os.path.join(os.path.dirname(HERE), ".perfbench_out")
    os.makedirs(out, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="layer_table-", dir=out)
    cfg_path, out_path = os.path.join(tmp, "c.json"), os.path.join(tmp, "r.json")
    print("| what | claimed | measured here |\n|---|---|---|")

    # earlier measurements of the duality op at T = 0.25, first op in the process
    flagship = {
        "system": {"example2": {"N": 4, "b_coeffs": FLAGSHIP_B}},
        "sim": {"T": 0.25, "dt": 1e-3, "n_paths": 100_000, "seed": 42},
        "x0": [1.0] * 4, "control": {"type": "constant", "u": [1.0]},
        "terminal": {"type": "deterministic", "xi": FLAGSHIP_XI},
    }
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(flagship, fh)
    argv = ["duality", "--config", cfg_path, "--output", out_path]
    cold = cli_op(argv)
    warm = cli_op(argv)
    row("duality T=0.25, first op: wall / minor faults / sys", "4.8-5.9 s / ~775k / ~1.5 s",
        f"{cold[0]:.2f} s / {cold[1]} / {cold[2]:.2f} s")
    row("duality T=0.25, repeat op: wall / minor faults", "3.1-4.2 s / ~7k",
        f"{warm[0]:.2f} s / {warm[1]}")
    sim = sck.SimConfig(T=0.25, dt=1e-3, n_paths=100_000, seed=42)
    t, _ = timed(lambda: sck.sde.brownian_increments(sim))
    row("one full noise pass, T=0.25, 100k paths (brownian_increments)", "0.74 s",
        f"{t:.2f} s; per-step draws alone {noise_pass(sim):.2f} s")

    # C4 flagship: T = 1, 100k paths, 1000 steps
    sys4 = sck.assemble_example2(4, FLAGSHIP_B)
    c4 = sck.SimConfig(T=1.0, dt=1e-3, n_paths=100_000, seed=42)
    total, _ = timed(lambda: sck.duality_check(
        sys4, np.ones(4), sck.ConstantControl(np.array([1.0])),
        sck.DeterministicTerminal(np.array(FLAGSHIP_XI)), c4))
    row("C4 flagship, total (library call)", "21.5 s", f"{total:.2f} s")
    noise = noise_pass(c4)
    row("...noise generation (each step drawn 3x)", "6.1 s",
        f"{3 * noise:.2f} s (3 x one pass of {noise:.2f} s, private _step_normals)")
    X = np.ones((c4.n_paths, 4))

    def blowups():
        # private helper: one call per forward step and per backward step
        for k in range(2 * c4.n_steps):
            sck.sde._check_blowup(X, k, c4.dt)

    blow, _ = timed(blowups)
    row("...blow-up checks", "1.6 s", f"{blow:.2f} s (private _check_blowup, 2000 calls)")
    row("...array temporaries in the step loops", "~13.5 s",
        f"{total - 3 * noise - blow:.2f} s (total minus the two rows above)")

    for N in (64, 128, 256):
        system = divform(N)
        t, _ = timed(lambda: sck.check_condition(system, [], "N1"))
        row(f"N1 pencil scan, N = {N}", {64: "0.05 s", 128: "0.42 s", 256: "4.2 s"}[N],
            f"{t:.2f} s")
    system = divform(256)
    t, _ = timed(lambda: sck.check_condition(system, [-1.0, 1.0], "N2"))
    row("N2 scan, 2 lambda values (-1, 1), N = 256", "7.2 s", f"{t:.2f} s")
    t, _ = timed(lambda: sck.strict_invariant_subspace(system.A, system.C, system.B))
    row("Invariant-subspace sweep, N = 256", "0.06 s", f"{t:.3f} s")
    t, _ = timed(lambda: divform(256))
    row("Assembly, N = 256 (parse + assemble)", "0.09 s", f"{t:.3f} s")

    # apriori-n16 at the size of the earlier measurement: one solve, P = 10k, T = 0.5
    raw = apriori_config(0)
    raw["sim"]["T"] = 0.5
    cfg = sck.config.parse_run_config(raw)
    system = cfg.make_system()
    t, _ = timed(lambda: sck.solve_dual_bsde(system, cfg.terminal, cfg.sim))
    noise_t = noise_pass(cfg.sim)
    row("apriori n=16 solve, P = 10k, T = 0.5: total / noise draws",
        "0.86 s / 0.30 s", f"{t:.2f} s / {2 * noise_t:.2f} s (2 passes, private _step_normals)")

    # verdict-galerkin op at N = 128
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(verdict_config(0), fh)
    wall, _, _ = cli_op(["verdict", "--config", cfg_path, "--output", out_path])
    with open(out_path, encoding="utf-8") as fh:
        payload = json.load(fh)["payload"]
    system = divform(128)
    n2, _ = timed(lambda: sck.check_condition(system, payload["lambdas_used"], "N2"))
    row("verdict N = 128, 4 lambdas: op / N2 scan", "2.8 s / 2.4 s", f"{wall:.2f} s / {n2:.2f} s")
    n1 = sum(p["violated"] for p in payload["n1"]["points"])
    n2f = sum(p["violated"] for p in payload["n2"]["points"])
    row("verdict N = 128: N1 / N2 flags of 64 / 256 expected", "63 / 252", f"{n1} / {n2f}")
    for name in os.listdir(tmp):
        os.remove(os.path.join(tmp, name))
    os.rmdir(tmp)


if __name__ == "__main__":
    main()
