"""sck benchmark: run one workload, print every metric, check every output.

    python3 perfbench/run.py --workload duality-n4 --seed 1 --seconds 34 --trace 0

Run from the root of a source checkout; sck is imported from ``src/``.
Every op runs in a fresh worker process (``worker.py``), one at a time.

--trace 0  end-to-end metrics.  One op worker warms the machine up and is
           not timed; then op workers run one after another for at most
           ``--seconds``.  Each runs the op once cold and once warm and gives
           one sample of set-up, cold and warm time.  Values are medians.
--trace 1  per-layer metrics from one traced worker (see worker.py).

Prints the environment, one line per metric (value, unit, sample count),
then one JSON line: {"correct", "attempted", "failed", "metrics"}.  The
full record, with every sample and span, goes to .perfbench_out/.  Exits 1
when any op fails its oracle or the trace does not add up, 2 when a worker
cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
WARM_OPS = 1
# every worker is killed once the run has lasted this long
DEADLINE = time.perf_counter() + 170.0


class WorkerError(RuntimeError):
    pass


def spawn(mode: str, workload: str, seed: int, warm: int = WARM_OPS) -> tuple[float, dict]:
    """Run one worker to completion; return (set-up seconds, its result)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
            "--workload", workload, "--seed", str(seed), "--warm", str(warm)]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(DEADLINE - start, 0.0), proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest, _ = proc.communicate()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
    if first.strip() != "READY" or proc.returncode != 0:
        raise WorkerError(f"{mode} worker exited with status {proc.returncode}")
    lines = rest.strip().splitlines()
    return setup, (json.loads(lines[-1]) if lines else {})


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def summary(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "p25": q[0], "p75": q[2],
            "n": len(values), "samples": values}


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    # The untimed first worker, which runs the op once, brings the files and
    # memory the op touches into the state every later worker finds them in.
    # Then a worker is started only if one more, as long as the last, still
    # ends within the time.
    _, warmup = spawn("ops", workload, seed, warm=0)
    setups, workers = [], []
    start = time.perf_counter()
    last = 0.0
    while not workers or time.perf_counter() - start + last <= seconds:
        begin = time.perf_counter()
        setup, result = spawn("ops", workload, seed)
        last = time.perf_counter() - begin
        setups.append(setup)
        workers.append(result)
    ops = [op for w in [warmup, *workers] for op in w["ops"]]
    failed = sum(not op["ok"] for op in ops)
    return {
        "env": workers[0]["env"], "ops": ops, "failed": failed, "errors": [],
        "samples": {
            "setup_s": setups,
            "cold_op_s": [w["ops"][0]["wall_s"] for w in workers],
            "warm_op_s": [op["wall_s"] for w in workers for op in w["ops"][1:]],
            "peak_rss_mb": [w["maxrss_mb"] for w in workers],
            "ok_frac": [1.0 - failed / len(ops)],
            "violation_recall": [op["recall"] for op in ops],
        },
    }


def per_layer(workload: str, seed: int) -> dict:
    _, result = spawn("trace", workload, seed)
    ops = result["ops"]
    return {
        "env": result["env"], "ops": ops, "failed": sum(not op["ok"] for op in ops),
        "errors": result["trace_errors"], "from_companions": result["from_companions"],
        "sweep": result["sweep"], "spans": result["spans"],
        "samples": {k: [v] for k, v in result["metrics"].items()},
    }


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    spec = load_spec()
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]],
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "sck", "__init__.py")):
        print(f"perfbench: no sck sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    try:
        if args.trace:
            record = per_layer(args.workload, args.seed)
        else:
            record = end_to_end(args.workload, args.seed, args.seconds)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(record["samples"]):
        print("perfbench: metrics differ from BENCHMARK.json", file=sys.stderr)
        return 2
    samples = record.pop("samples")
    record["metrics"] = {k: dict(summary(samples[k]), unit=u) for k, u in units.items()}
    record["env"]["git_commit"] = git_commit()
    record["args"] = vars(args)
    errors = record["errors"] + [e for op in record["ops"] for e in op["errors"]]
    correct = not errors
    with open(os.path.join(
            OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w",
            encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print("env: " + json.dumps(record["env"]))
    for err in errors:
        print(f"FAILED: {err}")
    for name, m in record["metrics"].items():
        print(f"{name:36s} {m['median']:14.6g} {m['unit']:8s} n={m['n']:<3d} "
              f"p25={m['p25']:.6g} p75={m['p75']:.6g}")
    print(json.dumps({
        "correct": correct, "attempted": len(record["ops"]), "failed": record["failed"],
        "metrics": {k: {"value": m["median"], "unit": m["unit"]}
                    for k, m in record["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
