"""Time the forward sweep in-process across state sizes, for this checkout.

    python3 tools/sweep_sizes.py [--repeats 7] [--sizes 2 4 8 16 64]

Imports sck from this checkout's ``src`` and prints, for each state size n,
the median and quartiles of the wall time of ``duality_check`` (30 steps of
dt 1e-3, 100k paths up to n = 8 and 20k above), of ``girsanov_check`` on the
same grid and paths (one dt, lambda = -0.5, the same constant control) and
of ``simulate_flow(record=False)`` on the same grid (paths chosen so that
one (n, n, n_paths) flow buffer holds 2M values).  Every size uses one seeded
random system with sym(A) negative definite.  The benchmark's workloads
time n = 4 only; run this in two checkouts, turn about, to compare sizes.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from sck import StochasticSystem  # noqa: E402
from sck.bsde import DeterministicTerminal, duality_check  # noqa: E402
from sck.sde import ConstantControl, SimConfig, girsanov_check, simulate_flow  # noqa: E402

T, DT, FLOW_VALUES = 0.03, 1e-3, 2_000_000


def system(n: int) -> StochasticSystem:
    rng = np.random.default_rng(n)
    G = rng.standard_normal((n, n))
    C = rng.standard_normal((n, n))
    return StochasticSystem(G - (np.linalg.norm(G, 2) + 0.5) * np.eye(n),
                            rng.standard_normal((n, 1)), C=0.5 * C / np.linalg.norm(C, 2))


def quartiles(fn, repeats: int) -> tuple[float, float, float]:
    """(p25, median, p75) of ``repeats`` timed calls after one warm-up."""
    fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return tuple(float(q) for q in np.percentile(times, [25, 50, 75]))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--sizes", type=int, nargs="+", default=[2, 4, 8, 16, 64])
    args = parser.parse_args()
    print(f"{'op':14s} {'n':>3s} {'paths':>7s} {'median_s':>9s} {'p25_s':>9s} {'p75_s':>9s}")
    for n in args.sizes:
        s, x0 = system(n), np.ones(n)
        dual = SimConfig(T=T, dt=DT, n_paths=100_000 if n <= 8 else 20_000, seed=1)
        flow = SimConfig(T=T, dt=DT, n_paths=min(100_000, FLOW_VALUES // (n * n)), seed=1)
        ops = [
            ("duality_check", dual, lambda: duality_check(
                s, x0, ConstantControl(np.ones(1)), DeterministicTerminal(x0), dual)),
            ("girsanov_check", dual, lambda: girsanov_check(
                s, -0.5, x0, ConstantControl(np.ones(1)), dual, [DT])),
            ("simulate_flow", flow, lambda: simulate_flow(s, flow, record=False)),
        ]
        for name, cfg, fn in ops:
            p25, med, p75 = quartiles(fn, args.repeats)
            print(f"{name:14s} {n:3d} {cfg.n_paths:7d} {med:9.4f} {p25:9.4f} {p75:9.4f}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
