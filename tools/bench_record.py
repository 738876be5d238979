"""Record the benchmark's end-to-end metrics of git revisions in one file.

    python3 tools/bench_record.py --label 10 [--seed 1] parent=HEAD~1 change=HEAD

Each NAME=REV argument is exported with ``git archive`` into a fresh
directory, and that checkout's own ``perfbench/run.py --trace 0`` runs every
workload of this repo's BENCHMARK.json for its ``run_seconds``, the
checkouts taking turns within each workload.  The record
``.perfbench_out/<workload>-seed<n>-trace0.json`` of every run is read back,
and BENCH_<label>.json at the repo root gets, per NAME, the commit, the
environment record and every end-to-end metric's median and quartiles.
Exits 1 when any run fails its oracles.
"""

from __future__ import annotations

import argparse
import io
import json
import os
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
        "metrics": {name: {k: m[k] for k in ("median", "p25", "p75", "n", "unit")}
                    for name, m in record["metrics"].items()},
    }


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
            for name, checkout in checkouts.items():
                result = run_workload(checkout, workload, args.seed, seconds)
                env = result.pop("env")
                env.pop("git_commit", None)  # an exported tree has no git history
                records[name]["env"] = records[name]["env"] or env
                records[name]["workloads"][workload] = result
                print(f"{name:10s} {workload:18s} warm_op_s "
                      f"{result['metrics']['warm_op_s']['median']:.4g} s "
                      f"failed {result['failed']}", flush=True)

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
