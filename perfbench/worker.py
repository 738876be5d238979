"""One benchmark worker process; started by run.py in a fresh interpreter.

    worker.py --mode ops|trace --workload NAME --seed N [--warm K]

The first line on stdout is READY, printed once sck (with numpy and scipy)
is imported; run.py times set-up up to that line.  The last line is one
JSON result.

ops    run the workload's op through ``sck.cli.main`` once cold, then ``--warm``
       times warm on identical inputs.
trace  run the op cold, warm, traced and warm again, with the two small
       companion ops traced next to it; then call the MC layers directly on
       the op's inputs and run the scaling sweep.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import shutil
import statistics
import sys
import time

import numpy as np
import scipy

import sck
from sck import bsde, cli, config, controllability, galerkin, sde, systems
from tracing import Tracer
from workloads import FLAGSHIP_B, WORKLOADS, companions, recall, verdict_coefficients

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def environment() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), None)
    except OSError:
        pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    threads = blas_config = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is not None and threads is None:
                    get_threads.restype = ctypes.c_int
                    threads = get_threads()
                if get_config is not None and blas_config is None:
                    get_config.restype = ctypes.c_char_p
                    blas_config = get_config().decode()
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas_config,
        "blas_threads": threads,
    }


class Op:
    """One ``sck <subcommand>`` call on a fixed config, checked by an oracle."""

    def __init__(self, subcommand: str, config: dict, oracle, workdir: str, tag: str):
        self.subcommand, self.config, self.oracle = subcommand, config, oracle
        self.config_path = os.path.join(workdir, f"{tag}-config.json")
        self.report_path = os.path.join(workdir, f"{tag}-report.json")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        self.argv = [subcommand, "--config", self.config_path, "--output", self.report_path]

    def run(self, tracer=None, op_id=None) -> dict:
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        if tracer is None:
            rc = cli.main(self.argv)
        else:
            with tracer.span("cli.main", op=op_id):
                rc = cli.main(self.argv)
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        errors, info = [f"{self.subcommand}: exit status {rc}"], {}
        if rc == 0:
            with open(self.report_path, encoding="utf-8") as fh:
                errors, info = self.oracle(self.config, json.load(fh)["payload"])
        return {
            "wall_s": wall, "rc": rc, "ok": not errors, "errors": errors, "info": info,
            "recall": recall(info) if not errors else 0.0,
            "minflt": after.ru_minflt - before.ru_minflt,
            "process_sys_s": after.ru_stime,
            "cpu_s": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
        }


def run_ops(op: Op, warm: int) -> dict:
    return {"ops": [op.run() for _ in range(1 + warm)]}


# -- traced run -------------------------------------------------------------


def install(tracer):
    """Wrap the public functions the ops reach, one span name per layer."""
    def shift_count(report):
        return {"shifts": len(report.points) + len(report.complex_points)}

    def condition(*args, **kwargs):
        return kwargs.get("condition", args[2] if len(args) > 2 else "?")

    tracer.wrap(cli, "parse_run_config", "config.parse_run_config")
    tracer.wrap(config.RunConfig, "make_system", "config.make_system")
    tracer.wrap(cli, "run_subcommand", "cli.run_subcommand")
    for name in ("assemble_divform_1d", "assemble_example2"):
        tracer.wrap(galerkin, name, f"galerkin.{name}")
    tracer.wrap(systems, "lambda_set", "systems.lambda_set")
    tracer.wrap(controllability, "lambda_set", "systems.lambda_set")
    tracer.wrap(controllability, "verdict", "controllability.verdict")
    tracer.wrap(controllability, "check_condition", "controllability.check_condition",
                label=condition, counts=shift_count)
    tracer.wrap(controllability, "strict_invariant_subspace",
                "controllability.strict_invariant_subspace")
    tracer.wrap(controllability, "commuting_case_check", "controllability.commuting_case_check")
    for name in ("duality_check", "apriori_bound_check", "solve_dual_bsde"):
        tracer.wrap(bsde, name, f"bsde.{name}")
    for name in ("brownian_increments", "simulate_forward"):
        tracer.wrap(sde, name, f"sde.{name}")


def _median_time(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _slope(xs, ys) -> float:
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def scaling_sweep() -> dict:
    """Layer time against its size: noise pass and forward sweep against path
    count, and the N1 scan against Galerkin dimension."""
    sys4 = galerkin.assemble_example2(4, FLAGSHIP_B)
    paths = [25_000, 50_000, 100_000]
    noise, forward = [], []
    for P in paths:
        cfg = sde.SimConfig(T=0.02, dt=1e-3, n_paths=P, seed=1)
        noise.append(_median_time(lambda: sde.brownian_increments(cfg), 3))
        forward.append(_median_time(lambda: sde.simulate_forward(
            sys4, np.ones(4), sde.ZeroControl(), cfg, record_steps=[]), 3))
    dims = [32, 64, 128]
    n1 = []
    for N in dims:
        raw = {"system": {"divform1d": {"N": N, **verdict_coefficients()}}}
        system = config.parse_run_config(raw).make_system()
        n1.append(_median_time(
            lambda: controllability.check_condition(system, [], "N1"), 3 if N < 128 else 1))
    return {
        "paths": paths, "noise_s": noise, "forward_s": forward, "dims": dims, "n1_s": n1,
        "sde.noise_scaling_exp": _slope(paths, noise),
        "sde.forward_scaling_exp": _slope(paths, forward),
        "controllability.n1_scaling_exp": _slope(dims, n1),
    }


def direct_layers(tracer, cfg) -> None:
    """Call the MC layers directly on a parsed config: a full-grid noise pass
    and a forward sweep with the op's record steps (op id ``direct``), and
    the backward solve on the terminal's deterministic part xi0 (op id
    ``direct-det``)."""
    system = cfg.make_system()
    x0 = cfg.x0 if cfg.x0 is not None else np.ones(system.n)
    terminal = cfg.terminal
    xi0 = terminal.xi if isinstance(terminal, bsde.DeterministicTerminal) else terminal.xi0
    steps = np.round(np.linspace(0, cfg.sim.n_steps, cfg.n_regression_times)).astype(int)
    with tracer.span("direct", op="direct"):
        sde.brownian_increments(cfg.sim)
        sde.simulate_forward(system, x0, cfg.control, cfg.sim, record_steps=steps)
    with tracer.span("direct", op="direct-det"):
        bsde.solve_dual_bsde(system, bsde.DeterministicTerminal(xi0), cfg.sim,
                             cfg.n_regression_times)


def op_layers(tracer, op, info: dict) -> dict:
    """Layer metrics read from one op's spans; None where the op never
    entered the layer."""
    scans = ("controllability.check_condition.N1", "controllability.check_condition.N2")
    n1_s, n2_s = (tracer.total(op, name) for name in scans)
    shifts = sum(s["counts"].get("shifts", 0) for s in tracer.spans
                 if s["op"] == op and s["name"] in scans)
    solves = [tracer.duration(s) for s in tracer.find(op, "bsde.solve_dual_bsde")]
    duality = tracer.find(op, "bsde.duality_check")
    n1_exp, n2_exp = info.get("n1_expected"), info.get("n2_expected")
    return {
        "bsde.solve_s": statistics.median(solves) if solves else None,
        "bsde.duality_self_s": tracer.self_time(duality[0]["id"]) if duality else None,
        "controllability.n1_s": n1_s,
        "controllability.n2_s": n2_s,
        "controllability.subspace_s": tracer.total(op, "controllability.strict_invariant_subspace"),
        "controllability.shifts": shifts or None,
        "controllability.n1_recall": info["n1_flagged"] / n1_exp if n1_exp else None,
        "controllability.n2_recall": info["n2_flagged"] / n2_exp if n2_exp else None,
        "galerkin.assemble_s": tracer.total(op, "galerkin."),
        "systems.lambda_set_s": tracer.total(op, "systems.lambda_set"),
        "config.parse_s": tracer.total(op, "config.parse_run_config"),
        "cli.serialize_s": sum(tracer.self_time(s["id"]) for s in tracer.find(op, "cli.main")),
    }


def run_trace(op: Op, workdir: str) -> dict:
    extras = [Op(*c, workdir, f"companion{i}") for i, c in enumerate(companions())]
    cold, warm = op.run(), op.run()
    tracer = Tracer()
    install(tracer)
    try:
        traced = op.run(tracer, "traced")
        companion_ops = [extra.run(tracer, "companion") for extra in extras]
    finally:
        tracer.unwrap_all()
    # untraced ops on both sides of the traced one cancel a linear drift in
    # machine speed out of the overhead estimate
    warm_after = op.run()

    own = op_layers(tracer, "traced", traced["info"])
    info = {k: sum(c["info"].get(k, 0) for c in companion_ops)
            for k in ("n1_flagged", "n1_expected", "n2_flagged", "n2_expected")}
    spare = op_layers(tracer, "companion", info)
    metrics = {k: spare[k] if v is None else v for k, v in own.items()}

    sim_op = op if "sim" in op.config else next(e for e in extras if "sim" in e.config)
    cfg = config.parse_run_config(sim_op.config)
    install(tracer)
    try:
        direct_layers(tracer, cfg)
    finally:
        tracer.unwrap_all()
    noise_s = tracer.duration(tracer.find("direct", "sde.brownian_increments")[0])
    forward_s = tracer.duration(tracer.find("direct", "sde.simulate_forward")[0])
    solve_det_s = tracer.duration(tracer.find("direct-det", "bsde.solve_dual_bsde")[0])
    metrics.update({
        "sde.noise_pass_s": noise_s,
        "sde.forward_s": forward_s,
        "sde.euler_self_s": forward_s - noise_s,
        "sde.ns_per_path_step": 1e9 * forward_s / (cfg.sim.n_paths * cfg.sim.n_steps),
        "bsde.solve_det_s": solve_det_s,
        "bsde.regression_s": metrics["bsde.solve_s"] - solve_det_s,
        "controllability.s_per_shift": (metrics["controllability.n1_s"]
                                        + metrics["controllability.n2_s"])
                                       / metrics["controllability.shifts"],
        "proc.minflt_cold": cold["minflt"],
        "proc.minflt_warm": warm["minflt"],
        "proc.sys_s_cold": cold["process_sys_s"],
        "proc.cpu_per_wall": warm["cpu_s"] / warm["wall_s"],
        "trace.overhead_frac": 2 * traced["wall_s"] / (warm["wall_s"] + warm_after["wall_s"]) - 1,
    })
    sweep = scaling_sweep()
    metrics.update({k: v for k, v in sweep.items() if "." in k})
    return {
        "ops": [cold, warm, traced, *companion_ops, warm_after], "metrics": metrics,
        "from_companions": sorted(k for k, v in own.items() if v is None),
        "sweep": sweep, "spans": tracer.spans, "trace_errors": tracer.additivity_errors(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("ops", "trace"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--warm", type=int, default=1)
    args = parser.parse_args()

    src = os.path.realpath(os.path.join(ROOT, "src"))
    if not os.path.realpath(sck.__file__).startswith(src + os.sep):
        raise SystemExit(f"sck was imported from {sck.__file__}, not from {src}")
    print("READY", flush=True)

    workdir = os.path.join(ROOT, ".perfbench_out", f"worker-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        subcommand, make_config, oracle = WORKLOADS[args.workload]
        op = Op(subcommand, make_config(args.seed), oracle, workdir, "op")
        result = run_trace(op, workdir) if args.mode == "trace" else run_ops(op, args.warm)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["env"] = environment()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
