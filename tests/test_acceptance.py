"""Acceptance suite: one test per release criterion.

Each criterion prints a single PASS/FAIL line on the real stdout (visible
with or without pytest capture) and asserts both its numerical tolerances
and its runtime budget.  Monte Carlo criteria freeze golden values produced
by this implementation (same seed, same noise keying: reruns are exact).
"""

import contextlib
import json
import time

import numpy as np
import pytest

from oracles import check_largest_invariant, random_dissipative_system
from sck import (
    ConstantControl,
    DeterministicTerminal,
    LinearInWTTerminal,
    SimConfig,
    StochasticSystem,
    ToleranceConfig,
    approximation_convergence,
    assemble_divform_1d,
    assemble_example2,
    check_condition,
    duality_check,
    fit_convergence_order,
    girsanov_check,
    lambda_set,
    solve_dual_bsde,
    strict_invariant_subspace,
)
from sck.cli import main as cli_main
from sck.galerkin import HeatSystemSpec, constant

PI2 = np.pi**2
B_COEFFS = np.array([1 / np.sqrt(2), 1 / np.sqrt(2), 0.1, 0.1])


def example2_system():
    return assemble_example2(4, B_COEFFS)


@contextlib.contextmanager
def criterion(cid, description, budget_seconds):
    # run `pytest tests/test_acceptance.py -s` to see one line per criterion
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {cid} FAIL  {description}", flush=True)
        raise
    elapsed = time.perf_counter() - start
    status = "PASS" if elapsed < budget_seconds else "FAIL (over budget)"
    print(
        f"ACCEPTANCE {cid} {status}  {description}  [{elapsed:.2f}s < {budget_seconds:.0f}s]",
        flush=True,
    )
    assert elapsed < budget_seconds, f"{cid} exceeded runtime budget: {elapsed:.2f}s"


def test_c01_example2_counterexample():
    with criterion("C1", "projection-noise counterexample under the lambda-shifted pencil test", 1.0):
        sys_ = example2_system()
        lam, alpha = -3 * PI2, -4 * PI2
        rep = check_condition(sys_, [lam], "N2", explicit_points=[(lam, alpha)])
        at_point = [p for p in rep.points
                    if abs(p.lam - lam) < 1e-9 and abs(p.alpha - alpha) < 1e-6]
        assert at_point, "no report entry at the requested (lambda, alpha)"
        assert min(p.sigma_min for p in at_point) <= 1e-8
        assert all(p.violated for p in at_point)

        expected = np.array([-B_COEFFS[1] / B_COEFFS[0], 1.0, 0.0, 0.0])
        expected /= np.linalg.norm(expected)
        w = rep.witness
        assert w is not None
        assert np.arctan2(np.linalg.norm(w - (w @ expected) * expected), abs(w @ expected)) <= 1e-6

        zeta = np.array([-B_COEFFS[1] / B_COEFFS[0], 1.0, 0.0, 0.0])
        pencil = sys_.A.T + lam * sys_.C.T - alpha * np.eye(4)
        resid = np.linalg.norm(pencil @ zeta) + np.linalg.norm(sys_.B.T @ zeta)
        assert resid <= 1e-10 * np.linalg.norm(zeta)


def test_c02_example2_n1_positive():
    with criterion("C2", "projection-noise system passes the unshifted pencil test with margin", 1.0):
        rep = check_condition(example2_system(), [], "N1")
        assert rep.passed
        assert not [p for p in rep.points if p.violated]
        assert rep.min_sigma >= 1e-3


def test_c03_invariant_subspace_consistency():
    with criterion("C3", "strictly invariant subspace vs brute-force oracle", 10.0):
        sys_ = example2_system()
        V = strict_invariant_subspace(sys_.A, sys_.C, sys_.B)
        assert V.dim >= 1
        w = np.array([-B_COEFFS[1] / B_COEFFS[0], 1.0, 0.0, 0.0])
        assert V.contains(w / np.linalg.norm(w), 1e-9)

        rng = np.random.default_rng(2024)
        for k in range(20):
            n = int(rng.integers(2, 4))
            A, B, C = random_dissipative_system(rng, n, c_scale=1.0)
            result = strict_invariant_subspace(A, C, B)
            ok, msg = check_largest_invariant(A, C, B, result, rng, n_random=200)
            assert ok, f"oracle disagreement on corpus item {k}: {msg}"


# golden values produced by this implementation at seed 42 (frozen); both
# sides are exact for the Euler scheme, so FLAGSHIP_RHS is FLAGSHIP_LHS up
# to round-off
FLAGSHIP_LHS = 0.017911224007836176
FLAGSHIP_RHS = 0.01791122400783613
# both flagship sides are deterministic (noise acts only on mode 1 and
# xi = e2), so every sample is bitwise identical and the standard error is
# exactly zero, not a frozen round-off value
FLAGSHIP_STDERR = 0.0


def test_c04_duality_identity():
    with criterion("C4", "forward/backward duality identity, flagship + corpus", 300.0):
        sys_ = example2_system()
        cfg = SimConfig(T=1.0, dt=1e-3, n_paths=100_000, seed=42)
        rep = duality_check(sys_, np.ones(4), ConstantControl(np.array([1.0])),
                            DeterministicTerminal(np.array([0.0, 1.0, 0.0, 0.0])), cfg)
        assert rep.passed
        assert abs(rep.lhs - rep.rhs) <= 1e-12 * abs(rep.lhs)
        assert rep.lhs == pytest.approx(FLAGSHIP_LHS, rel=1e-12)
        assert rep.rhs == pytest.approx(FLAGSHIP_RHS, rel=1e-12)
        assert rep.stderr == pytest.approx(FLAGSHIP_STDERR, rel=1e-9, abs=1e-25)

        rng = np.random.default_rng(777)
        for k in range(20):
            n = int(rng.integers(2, 6))
            A, B, C = random_dissipative_system(rng, n, c_scale=0.5)
            s = StochasticSystem(A, B, C=C)
            run = SimConfig(T=1.0, dt=2e-3, n_paths=20_000, seed=4000 + k)
            if rng.uniform() < 0.5:
                terminal = DeterministicTerminal(rng.standard_normal(n))
            else:
                terminal = LinearInWTTerminal(rng.standard_normal(n),
                                              0.5 * rng.standard_normal(n))
            out = duality_check(s, rng.standard_normal(n),
                                ConstantControl(0.5 * np.ones(s.m)), terminal, run)
            assert out.passed, f"corpus item {k}: {out}"


def test_c05_deterministic_terminal_bsde():
    with criterion("C5", "backward solution against the matrix-exponential closed form", 60.0):
        sys_ = example2_system()
        cfg = SimConfig(T=1.0, dt=1e-2, n_paths=10_000, seed=7)
        xi = np.array([0.3, 1.0, -0.5, 0.2])
        sol = solve_dual_bsde(sys_, DeterministicTerminal(xi), cfg)
        norm_a = np.linalg.norm(sys_.A, 2)
        y_gap = np.max(np.linalg.norm(sol.Y.mean(axis=1) - sol.y_exact, axis=1))
        assert y_gap <= 20.0 * cfg.dt * np.linalg.norm(xi) * np.exp(norm_a * cfg.T)
        z_rms = np.max(np.sqrt(np.mean(np.sum(sol.Z**2, axis=2), axis=1)))
        assert z_rms <= 5.0 * (np.sqrt(cfg.dt) + 1.0 / np.sqrt(cfg.n_paths)) * np.linalg.norm(xi)


def test_c06_girsanov_equivalence():
    with criterion("C6", "exponential-martingale transform vs direct scheme", 120.0):
        sys_ = example2_system()
        cfg = SimConfig(T=1.0, dt=1e-2, n_paths=4000, seed=99)
        u = ConstantControl(np.array([1.0]))
        zero_pts = girsanov_check(sys_, 0.0, np.ones(4), u, cfg, [1e-2])
        assert zero_pts[0][1] == 0.0

        pts = girsanov_check(sys_, -1.0, np.ones(4), u, cfg,
                             [1e-2, 5e-3, 2.5e-3, 1.25e-3])
        errs = [e for _, e in pts]
        assert all(b < a for a, b in zip(errs, errs[1:])), f"not monotone: {errs}"
        order = fit_convergence_order(pts)
        assert order is not None and order >= 0.4, f"fitted order {order}"


def test_c07_approximation_convergence():
    with criterion("C7", "resolvent-smoothing and mollifier semigroup limits", 30.0):
        rng = np.random.default_rng(321)
        G = rng.standard_normal((4, 4))
        A = G - (np.linalg.norm(G, 2) + 0.5) * np.eye(4)
        C = rng.standard_normal((4, 4))
        C /= np.linalg.norm(C, 2)
        s = StochasticSystem(A, rng.standard_normal((4, 1)), C=C)
        cfg = SimConfig(T=1.0, dt=1e-2, n_paths=100, seed=55)
        rep = approximation_convergence(s, None, cfg, [10, 100, 1000],
                                        [1e-1, 1e-2, 1e-4], lam=1.0)
        yos = [rep.row(n, 1e-2).err_yosida for n in (10, 100, 1000)]
        assert yos[0] > yos[1] > yos[2], f"smoothing gaps not decreasing: {yos}"
        tot = [rep.row(1000, d).err_total for d in (1e-1, 1e-2, 1e-4)]
        assert tot[0] > tot[1] > tot[2], f"total gaps not decreasing: {tot}"

        s0 = StochasticSystem(np.zeros((4, 4)), np.ones((4, 1)), C=C)
        rep0 = approximation_convergence(s0, None, cfg, [10, 1000], [1e-1, 1e-4])
        assert all(r.err_yosida == 0.0 and r.err_mollifier == 0.0 and r.err_total == 0.0
                   for r in rep0.rows)


def test_c08_galerkin_correctness():
    with criterion("C8", "spectral assembly: eigenvalues, skewness, nestedness", 5.0):
        spec = HeatSystemSpec(N=8, a_fn=constant(1.0), c_fn=constant(0.0),
                              b_fn=constant(1.0))
        s = assemble_divform_1d(spec)
        k = np.arange(1, 9, dtype=float)
        assert np.max(np.abs(s.A - np.diag(-((k * np.pi) ** 2)))) <= 1e-9

        spec_c = HeatSystemSpec(N=8, a_fn=constant(1.0), c_fn=constant(0.7),
                                b_fn=constant(1.0))
        s_c = assemble_divform_1d(spec_c)
        assert np.max(np.abs(s_c.C + s_c.C.T)) <= 1e-9

        spec_2n = HeatSystemSpec(N=16, a_fn=constant(1.0), c_fn=constant(0.7),
                                 b_fn=constant(1.0))
        s_2n = assemble_divform_1d(spec_2n)
        assert np.max(np.abs(s_2n.A[:8, :8] - s_c.A)) <= 1e-9
        assert np.max(np.abs(s_2n.C[:8, :8] - s_c.C)) <= 1e-9


def test_c09_lambda_set():
    with criterion("C9", "joint-dissipativity set membership", 5.0):
        cfg = ToleranceConfig()
        rng = np.random.default_rng(404)
        # systems built to satisfy the joint hypothesis accept the origin
        for _ in range(10):
            n = int(rng.integers(2, 6))
            C1 = rng.standard_normal((n, n))
            D = rng.standard_normal((n, n))
            D = D - (np.linalg.norm(D, 2) + 0.1) * np.eye(n)
            A = D - (0.5 + 2 * cfg.eps_a) * C1.T @ C1
            s = StochasticSystem(A, np.ones((n, 1)), C1=C1)
            (pt,) = lambda_set(s, [0.0], cfg)
            assert pt.in_set

        # bounded-noise systems (C1 = 0) accept the entire grid
        grid = np.linspace(-50.0, 50.0, 21)
        for _ in range(5):
            n = int(rng.integers(2, 6))
            G = rng.standard_normal((n, n))
            A = G - (np.linalg.norm(G, 2) + 0.1) * np.eye(n)
            s = StochasticSystem(A, np.ones((n, 1)), C2=rng.standard_normal((n, n)))
            assert all(p.in_set for p in lambda_set(s, grid, cfg))


def test_c10_reproducibility(tmp_path):
    with criterion("C10", "byte-identical payloads across seed-fixed reruns and thread hints", 60.0):
        config = {
            "system": {"example2": {"N": 4, "b_coeffs": list(B_COEFFS)}},
            "sim": {"T": 1.0, "dt": 0.01, "n_paths": 500, "seed": 31415},
            "x0": [1.0, 0.0, 0.5, 0.0],
            "control": {"type": "constant", "u": [1.0]},
            "terminal": {"type": "deterministic", "xi": [0.0, 1.0, 0.0, 0.0]},
            "girsanov": {"lambda": -1.0, "dt_list": [0.01, 0.005]},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        for sub in ("simulate-forward", "duality", "girsanov"):
            payloads = []
            for threads in ("1", "4"):
                out = tmp_path / f"{sub}_{threads}.json"
                code = cli_main([sub, "--config", str(cfg_path),
                                 "--output", str(out), "--threads", threads])
                assert code == 0
                payloads.append(json.dumps(json.loads(out.read_text())["payload"]))
            assert payloads[0] == payloads[1], f"{sub}: payloads differ across --threads"
