"""Record the benchmark's end-to-end metrics of git revisions in one file.

    python3 tools/bench_record.py --label 10 [--seed 1] parent=HEAD~1 change=HEAD

Each NAME=REV argument is exported with ``git archive`` into a fresh
directory, and that checkout's own ``perfbench/run.py --trace 0`` runs every
workload of this repo's BENCHMARK.json.  Each workload's ``run_seconds`` is
split into four quarter-length runs per checkout, taken in mirrored order
(A B B A B A A B for two checkouts), so that a host that drifts during the
workload, even within a few seconds, weighs on every checkout alike.  The
record ``.perfbench_out/<workload>-seed<n>-trace0.json`` of every run is read
back, and BENCH_<label>.json at the repo root gets, per NAME, the commit, the
environment record and every end-to-end metric's median and quartiles over
the pooled samples of all four runs.  Exits 1 when any run fails its oracles.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export(rev: str, dest: str) -> str:
    """Write the files of ``rev`` to ``dest``; return the full commit hash."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", commit))) as tar:
        tar.extractall(dest, filter="data")
    return commit


def run_workload(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    status = subprocess.run(argv, cwd=checkout, stdout=subprocess.DEVNULL).returncode
    if status == 2:
        raise RuntimeError(f"perfbench could not run {workload} in {checkout}")
    path = os.path.join(checkout, ".perfbench_out", f"{workload}-seed{seed}-trace0.json")
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    errors = record["errors"] + [e for op in record["ops"] for e in op["errors"]]
    return {
        "env": record["env"],
        "attempted": len(record["ops"]),
        "failed": record["failed"],
        "errors": errors,
        "metrics": {name: {k: m[k] for k in ("samples", "unit")}
                    for name, m in record["metrics"].items()},
    }


def pooled(runs: list[dict]) -> dict:
    """One revision's runs of one workload as one result: ops and errors
    summed, and each metric's samples pooled into one median and quartiles,
    computed as perfbench's own summary computes them."""
    metrics = {}
    for name, m in runs[0]["metrics"].items():
        values = [v for r in runs for v in r["metrics"][name]["samples"]]
        q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
        metrics[name] = {"median": statistics.median(values), "p25": q[0], "p75": q[2],
                         "n": len(values), "unit": m["unit"]}
    return {"attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "errors": [e for r in runs for e in r["errors"]], "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="file name suffix: BENCH_<label>.json")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("revisions", nargs="+", metavar="NAME=REV")
    args = parser.parse_args()
    named = [r.split("=", 1) for r in args.revisions]
    if any(len(pair) != 2 for pair in named):
        parser.error("revisions must be given as NAME=REV")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]

    records = {}
    with tempfile.TemporaryDirectory(prefix="bench_record-") as tmp:
        checkouts = {}
        for name, rev in named:
            checkouts[name] = os.path.join(tmp, name)
            records[name] = {"rev": rev, "commit": export(rev, checkouts[name]),
                             "env": None, "workloads": {}}
        for workload in (w["name"] for w in spec["workloads"]):
            runs = {name: [] for name in checkouts}
            order = list(checkouts)
            for name in order + order[::-1] + order[::-1] + order:
                result = run_workload(checkouts[name], workload, args.seed, seconds / 4)
                env = result.pop("env")
                env.pop("git_commit", None)  # an exported tree has no git history
                records[name]["env"] = records[name]["env"] or env
                runs[name].append(result)
                print(f"{name:10s} {workload:18s} warm_op_s "
                      f"{statistics.median(result['metrics']['warm_op_s']['samples']):.4g} s "
                      f"failed {result['failed']}", flush=True)
            for name, results in runs.items():
                records[name]["workloads"][workload] = pooled(results)

    out = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"label": args.label, "seed": args.seed, "seconds": seconds,
                   "records": records}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {out}")
    failed = any(r["failed"] or r["errors"]
                 for rec in records.values() for r in rec["workloads"].values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
