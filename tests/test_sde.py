import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg

from sck import (
    ConstantControl,
    FeedbackControl,
    PiecewiseConstantControl,
    SimConfig,
    StochasticSystem,
    ZeroControl,
    brownian_increments,
    ensemble_moments,
    fit_convergence_order,
    girsanov_check,
    simulate_flow,
    simulate_forward,
)
from sck import sde, systems
from sck.exceptions import DimensionError, DomainError, StabilityError
from sck.sde import BLOWUP_LIMIT, _check_blowup


def scalar_system(a=-1.0, c=0.5):
    return StochasticSystem(np.array([[a]]), np.zeros((1, 1)), C=np.array([[c]]))


def random_system(rng, n, m):
    """Non-symmetric A and C of norm about 1, so a transposed operator shows."""
    A = rng.standard_normal((n, n)) / np.sqrt(n) - 2.0 * np.eye(n)
    C = 0.5 * rng.standard_normal((n, n)) / np.sqrt(n)
    return StochasticSystem(A, rng.standard_normal((n, m)), C=C)


def reference_states(s, x0, u_of, cfg):
    """Row-vector Euler loop X <- X + (X A^T + u B^T) dt + (X C^T) dW,
    shape (n_paths, K+1, n)."""
    dW = brownian_increments(cfg)
    X = np.tile(x0, (cfg.n_paths, 1))
    ref = [X]
    for k in range(cfg.n_steps):
        X = X + (X @ s.A.T + u_of(k, X) @ s.B.T) * cfg.dt + (X @ s.C.T) * dW[:, k, None]
        ref.append(X)
    return np.stack(ref, axis=1)


def controls(rng, s, n_steps):
    """kind -> (control, u_of(k, X)) with random values for system s."""
    u = rng.standard_normal(s.m)
    V = rng.standard_normal((n_steps, s.m))
    K = 0.3 * rng.standard_normal((s.m, s.n)) / np.sqrt(s.n)
    return {
        "zero": (ZeroControl(), lambda k, X: np.zeros((X.shape[0], s.m))),
        "constant": (ConstantControl(u), lambda k, X: u),
        "piecewise": (PiecewiseConstantControl(V), lambda k, X: V[k]),
        "feedback": (FeedbackControl(K), lambda k, X: X @ K.T),
    }


class TestSimConfig:
    def test_grid_must_divide(self):
        with pytest.raises(DomainError):
            SimConfig(T=1.0, dt=0.3, n_paths=10, seed=1)

    def test_basic_validation(self):
        with pytest.raises(DomainError):
            SimConfig(T=-1.0, dt=0.1, n_paths=10, seed=1)
        with pytest.raises(DomainError):
            SimConfig(T=1.0, dt=0.1, n_paths=1, seed=1)
        with pytest.raises(DomainError):
            SimConfig(T=1.0, dt=0.1, n_paths=10, seed=1, regression_degree=7)
        with pytest.raises(DomainError):
            SimConfig(T=1.0, dt=0.1, n_paths=10, seed=-1)

    @pytest.mark.parametrize("field", ["n_paths", "seed", "regression_degree"])
    def test_integer_fields_reject_floats(self, field):
        # seed 1.5 would draw seed 1's noise, n_paths 10.5 fail inside a sweep
        fields = dict(T=1.0, dt=0.1, n_paths=10, seed=1, regression_degree=1)
        fields[field] += 0.5
        with pytest.raises(DomainError, match=rf"^{field} must be an integer"):
            SimConfig(**fields)
        fields[field] = np.int64(fields[field] - 0.5)  # numpy integers are integers
        assert getattr(SimConfig(**fields), field) == fields[field]

    def test_grid_properties(self):
        cfg = SimConfig(T=1.0, dt=0.25, n_paths=2, seed=0)
        assert cfg.n_steps == 4
        assert np.allclose(cfg.times, [0.0, 0.25, 0.5, 0.75, 1.0])


class TestBrownianSource:
    def test_block_consistency(self):
        cfg = SimConfig(T=1.0, dt=0.05, n_paths=64, seed=123)
        full = brownian_increments(cfg)
        block = brownian_increments(cfg, 7, 15)
        assert np.array_equal(full[:, 7:15], block)

    def test_increments_are_the_per_step_draws(self):
        # the stored block and the forward ensemble's increments are exactly
        # the per-step draws scaled by sqrt(dt), column k for step k
        cfg = SimConfig(T=0.2, dt=0.01, n_paths=50, seed=9)
        block = brownian_increments(cfg, 3, 17)
        ens = simulate_forward(scalar_system(), np.ones(1), ZeroControl(), cfg, record_steps=[])
        assert block.shape == (50, 14)
        assert ens.increments.shape == (50, cfg.n_steps)
        for k in range(cfg.n_steps):
            dw = sde._step_normals(cfg.seed, k, cfg.n_paths) * np.sqrt(cfg.dt)
            assert np.array_equal(ens.increments[:, k], dw)
            if 3 <= k < 17:
                assert np.array_equal(block[:, k - 3], dw)

    def test_seed_sensitivity(self):
        cfg1 = SimConfig(T=1.0, dt=0.1, n_paths=16, seed=1)
        cfg2 = SimConfig(T=1.0, dt=0.1, n_paths=16, seed=2)
        assert not np.array_equal(brownian_increments(cfg1), brownian_increments(cfg2))

    def test_statistics(self):
        cfg = SimConfig(T=1.0, dt=1e-2, n_paths=2000, seed=99)
        inc = brownian_increments(cfg)
        n_total = inc.size
        assert abs(inc.mean()) <= 5.0 / np.sqrt(n_total) * np.sqrt(cfg.dt)
        assert abs(inc.var() / cfg.dt - 1.0) <= 0.1


class TestSimulateForward:
    def test_noiseless_matches_semigroup(self):
        A = np.array([[-1.0, 0.4], [0.0, -2.0]])
        s = StochasticSystem(A, np.zeros((2, 1)))
        cfg = SimConfig(T=1.0, dt=1e-3, n_paths=2, seed=0)
        x0 = np.array([1.0, -0.5])
        ens = simulate_forward(s, x0, ZeroControl(), cfg)
        worst = 0.0
        for i, t in enumerate(ens.times):
            exact = scipy.linalg.expm(t * A) @ x0
            worst = max(worst, np.linalg.norm(ens.states[0, i] - exact))
        assert worst <= 5.0 * cfg.dt  # first-order deterministic Euler error

    def test_initial_state_recorded(self):
        s = scalar_system()
        cfg = SimConfig(T=0.5, dt=0.05, n_paths=7, seed=4)
        ens = simulate_forward(s, [2.0], ZeroControl(), cfg)
        assert np.all(ens.states[:, 0, 0] == 2.0)

    def test_geometric_mean_and_second_moment(self):
        a, c, x0 = -1.0, 0.5, 1.0
        s = scalar_system(a, c)
        cfg = SimConfig(T=1.0, dt=1e-3, n_paths=100_000, seed=7)
        ens = simulate_forward(s, [x0], ZeroControl(), cfg)
        xT = ens.states[:, -1, 0]
        m1, se1 = xT.mean(), xT.std(ddof=1) / np.sqrt(len(xT))
        assert abs(m1 - x0 * np.exp(a)) <= 3 * se1 + 5 * cfg.dt
        sq = xT**2
        m2, se2 = sq.mean(), sq.std(ddof=1) / np.sqrt(len(sq))
        assert abs(m2 - x0**2 * np.exp(2 * a + c**2)) <= 3 * se2 + 5 * cfg.dt

    def test_bit_reproducible(self):
        s = scalar_system()
        cfg = SimConfig(T=1.0, dt=0.01, n_paths=50, seed=5)
        e1 = simulate_forward(s, [1.0], ZeroControl(), cfg)
        e2 = simulate_forward(s, [1.0], ZeroControl(), cfg)
        assert np.array_equal(e1.states, e2.states)
        assert np.array_equal(e1.increments, e2.increments)

    def test_affine_in_initial_state(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((3, 3)) - 3 * np.eye(3)
        B = rng.standard_normal((3, 2))
        C = 0.3 * rng.standard_normal((3, 3))
        s = StochasticSystem(A, B, C=C)
        cfg = SimConfig(T=0.5, dt=0.01, n_paths=20, seed=11)
        u = ConstantControl(np.array([0.3, -0.2]))
        x0 = np.array([1.0, 0.0, -1.0])
        y0 = np.array([0.5, 2.0, 0.25])
        e_sum = simulate_forward(s, x0 + y0, u, cfg)
        e_x = simulate_forward(s, x0, u, cfg)
        e_y = simulate_forward(s, y0, ZeroControl(), cfg)
        assert np.allclose(e_sum.states, e_x.states + e_y.states, rtol=1e-12, atol=1e-12)

    def test_blowup_detected(self):
        s = StochasticSystem(np.array([[50.0]]), np.zeros((1, 1)))
        cfg = SimConfig(T=10.0, dt=1.0, n_paths=2, seed=0)
        with pytest.raises(StabilityError):
            simulate_forward(s, [1.0], ZeroControl(), cfg)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -2 * BLOWUP_LIMIT])
    def test_blowup_check_rejects(self, bad):
        X = np.ones((3, 2))
        X[1, 0] = bad
        with pytest.raises(StabilityError):
            _check_blowup(X, 1, 0.1)

    def test_blowup_check_accepts_limit(self):
        _check_blowup(np.array([[BLOWUP_LIMIT, -BLOWUP_LIMIT]]), 1, 0.1)

    def test_record_steps_subset(self):
        s = scalar_system()
        cfg = SimConfig(T=1.0, dt=0.1, n_paths=5, seed=2)
        full = simulate_forward(s, [1.0], ZeroControl(), cfg)
        part = simulate_forward(s, [1.0], ZeroControl(), cfg, record_steps=[5])
        assert np.allclose(part.times, [0.0, 0.5, 1.0])
        assert np.array_equal(part.states[:, 1, 0], full.states[:, 5, 0])

    def test_control_shapes_validated(self):
        s = scalar_system()
        cfg = SimConfig(T=1.0, dt=0.5, n_paths=2, seed=0)
        with pytest.raises(DimensionError):
            simulate_forward(s, [1.0], ConstantControl(np.ones(3)), cfg)
        with pytest.raises(DimensionError):
            simulate_forward(s, [1.0], PiecewiseConstantControl(np.ones((5, 1))), cfg)
        with pytest.raises(DimensionError):
            simulate_forward(s, [1.0], FeedbackControl(np.ones((2, 2))), cfg)

    def test_piecewise_and_feedback_run(self):
        s = StochasticSystem(np.diag([-1.0, -2.0]), np.eye(2), C=0.1 * np.eye(2))
        cfg = SimConfig(T=1.0, dt=0.25, n_paths=4, seed=6)
        vals = np.arange(8.0).reshape(4, 2)
        e1 = simulate_forward(s, [1.0, 1.0], PiecewiseConstantControl(vals), cfg)
        e2 = simulate_forward(s, [1.0, 1.0], FeedbackControl(-0.5 * np.eye(2)), cfg)
        assert np.all(np.isfinite(e1.states)) and np.all(np.isfinite(e2.states))

    @pytest.mark.parametrize(
        "control, u_of",
        [
            (ZeroControl(), lambda k, X: np.zeros((X.shape[0], 2))),
            (ConstantControl(np.array([0.5, -1.0])), lambda k, X: np.array([0.5, -1.0])),
            (PiecewiseConstantControl(np.arange(8.0).reshape(4, 2)),
             lambda k, X: np.arange(8.0).reshape(4, 2)[k]),
            (FeedbackControl(np.array([[-0.5, 0.2], [0.0, -1.0]])),
             lambda k, X: X @ np.array([[-0.5, 0.2], [0.0, -1.0]]).T),
        ],
        ids=["zero", "constant", "piecewise", "feedback"],
    )
    def test_matches_reference_loop(self, control, u_of):
        A = np.array([[-1.0, 0.3], [0.2, -2.0]])
        B = np.array([[1.0, 0.5], [0.0, 1.0]])
        C = np.array([[0.1, 0.2], [-0.3, 0.1]])
        s = StochasticSystem(A, B, C=C)
        cfg = SimConfig(T=1.0, dt=0.25, n_paths=4, seed=6)
        ens = simulate_forward(s, [1.0, -1.0], control, cfg)
        dW = brownian_increments(cfg)
        assert np.array_equal(ens.increments, dW)
        X = np.tile([1.0, -1.0], (cfg.n_paths, 1))
        ref = [X]
        for k in range(cfg.n_steps):
            X = X + (X @ A.T + u_of(k, X) @ B.T) * cfg.dt + (X @ C.T) * dW[:, k, None]
            ref.append(X)
        assert np.allclose(ens.states, np.stack(ref, axis=1), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("kind", ["zero", "constant", "piecewise", "feedback"])
    @pytest.mark.parametrize("n", [1, 16])
    def test_matches_reference_loop_at_size(self, n, kind):
        # the 2-state case above cannot show every transposed operator
        rng = np.random.default_rng(n)
        s = random_system(rng, n, m=min(n, 3))
        cfg = SimConfig(T=1.0, dt=0.1, n_paths=6, seed=7)
        control, u_of = controls(rng, s, cfg.n_steps)[kind]
        x0 = rng.standard_normal(n)
        ens = simulate_forward(s, x0, control, cfg)
        ref = reference_states(s, x0, u_of, cfg)
        assert np.allclose(ens.states, ref, rtol=1e-12, atol=1e-12)


class TestSimulateFlow:
    def test_noiseless_flow_equals_euler_exponential(self):
        A = np.array([[-1.0, 0.2], [0.1, -2.0]])
        s = StochasticSystem(A, np.zeros((2, 1)))
        cfg = SimConfig(T=1.0, dt=1e-3, n_paths=2, seed=0)
        fl = simulate_flow(s, cfg, record=False)
        assert np.allclose(fl.flows[0, -1], scipy.linalg.expm(A), atol=5 * cfg.dt)
        assert np.array_equal(fl.flows[0, -1], fl.flows[1, -1])

    def test_initial_flow_is_identity(self):
        s = scalar_system()
        cfg = SimConfig(T=0.2, dt=0.1, n_paths=3, seed=1)
        fl = simulate_flow(s, cfg)
        assert np.all(fl.flows[:, 0, 0, 0] == 1.0)

    def test_mean_flow_matches_semigroup(self):
        rng = np.random.default_rng(17)
        A = rng.standard_normal((2, 2)) - 2.5 * np.eye(2)
        C = 0.5 * rng.standard_normal((2, 2))
        s = StochasticSystem(A, np.zeros((2, 1)), C=C)
        cfg = SimConfig(T=1.0, dt=1e-3, n_paths=20000, seed=19)
        fl = simulate_flow(s, cfg, record=False)
        target = scipy.linalg.expm(A)
        sample = fl.flows[:, -1]
        se = sample.std(axis=0, ddof=1) / np.sqrt(cfg.n_paths)
        assert np.all(np.abs(sample.mean(axis=0) - target) <= 3 * se + 10 * cfg.dt)

    def test_flow_times_initial_state_matches_forward(self):
        rng = np.random.default_rng(23)
        A = rng.standard_normal((2, 2)) - 2 * np.eye(2)
        C = 0.4 * rng.standard_normal((2, 2))
        s = StochasticSystem(A, np.zeros((2, 1)), C=C)
        cfg = SimConfig(T=0.5, dt=0.01, n_paths=30, seed=29)
        x0 = np.array([1.0, -2.0])
        fl = simulate_flow(s, cfg)
        fw = simulate_forward(s, x0, ZeroControl(), cfg)
        recon = np.einsum("pkij,j->pki", fl.flows, x0)
        assert np.allclose(recon, fw.states, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 16])
    def test_flow_times_initial_state_matches_forward_at_size(self, n):
        rng = np.random.default_rng(40 + n)
        s = random_system(rng, n, m=1)
        cfg = SimConfig(T=0.5, dt=0.01, n_paths=30, seed=29)
        x0 = rng.standard_normal(n)
        fl = simulate_flow(s, cfg)
        fw = simulate_forward(s, x0, ZeroControl(), cfg)
        recon = np.einsum("pkij,j->pki", fl.flows, x0)
        assert np.allclose(recon, fw.states, rtol=1e-12, atol=1e-12)
        final = simulate_flow(s, cfg, record=False)
        assert np.array_equal(final.flows[:, -1], fl.flows[:, -1])


class TestEnsembleMoments:
    def test_matches_full_simulation(self):
        s = scalar_system()
        cfg = SimConfig(T=1.0, dt=0.1, n_paths=40, seed=8)
        times, mean, second = ensemble_moments(s, [1.0], ZeroControl(), cfg)
        ens = simulate_forward(s, [1.0], ZeroControl(), cfg)
        # reduction order differs between streamed and strided means
        assert np.allclose(mean[:, 0], ens.states[:, :, 0].mean(axis=0), rtol=1e-12)
        assert np.allclose(second[:, 0], (ens.states[:, :, 0] ** 2).mean(axis=0), rtol=1e-12)
        assert np.array_equal(times, ens.times)


class TestTwoThreadSweep:
    """The sweep's helper thread: every way a sweep ends unwinds it, and
    which thread runs which task of a step moves no bit."""

    @pytest.fixture
    def unwound(self):
        """A check that the helper is joined and the OpenBLAS pool is back at
        2 threads (set here so that pinning to 1 shows); the pool part is
        skipped without OpenBLAS."""
        blas = systems._blas_threads()
        before = blas[0]() if blas else None
        if blas:
            blas[1](2)
        threads = threading.active_count()

        def check(inside=False):
            assert threading.active_count() == threads + inside
            if blas:
                assert blas[0]() == (1 if inside else 2)

        yield check
        if blas:
            blas[1](before)

    @staticmethod
    def bounded(fn):
        """What ``fn`` raises, run in a daemon thread so that a hang fails
        the test instead of stalling it; None if it returns."""
        raised = []

        def run():
            try:
                fn()
            except BaseException as exc:
                raised.append(exc)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(30)
        assert not thread.is_alive(), "the sweep hung"
        return raised[0] if raised else None

    def test_stability_error_unwinds(self, unwound):
        s = StochasticSystem(np.array([[50.0]]), np.zeros((1, 1)))
        cfg = SimConfig(T=10.0, dt=1.0, n_paths=1001, seed=0)
        raised = self.bounded(lambda: simulate_forward(s, [1.0], ZeroControl(), cfg))
        assert isinstance(raised, StabilityError) and "at step 8 " in str(raised)
        unwound()

    def test_shifted_lane_stability_error_unwinds(self, unwound):
        # only girsanov's X~ lane blows up: the original equation stays
        # bounded on the same noise, and the shifted pair reports the step
        s = scalar_system()
        cfg = SimConfig(T=10.0, dt=1.0, n_paths=1001, seed=0)
        assert np.abs(simulate_forward(s, [1.0], ZeroControl(), cfg).states).max() < 2.0
        raised = self.bounded(lambda: girsanov_check(s, 50.0, [1.0], ZeroControl(), cfg, [1.0]))
        assert isinstance(raised, StabilityError) and "at step 7 " in str(raised)
        unwound()

    def test_consumer_closing_early_unwinds(self, unwound):
        cfg = SimConfig(T=1.0, dt=0.1, n_paths=1001, seed=0)
        sweep = sde._forward_sweep(scalar_system(), [1.0], ZeroControl(), cfg)
        unwound()  # nothing starts before the sweep is iterated
        assert [k for k, _, _ in (next(sweep), next(sweep))] == [0, 1]
        unwound(inside=True)
        assert self.bounded(sweep.close) is None
        unwound()

    def test_failing_draw_unwinds(self, unwound, monkeypatch):
        boom = RuntimeError("draw failed")
        real = sde._step_normals

        def failing(seed, step, n_paths, out=None):
            if step == 3:
                raise boom
            return real(seed, step, n_paths, out)

        monkeypatch.setattr(sde, "_step_normals", failing)
        cfg = SimConfig(T=1.0, dt=0.1, n_paths=1001, seed=0)
        seen = []

        def consume():
            for k, _, _ in sde._forward_sweep(scalar_system(), [1.0], ZeroControl(), cfg):
                seen.append(k)

        assert self.bounded(consume) is boom
        assert seen == [0, 1, 2, 3]  # X_3 needs dW_2 only
        unwound()

    @pytest.mark.parametrize("failing", ["helper", "consumer"])
    def test_failing_product_on_either_thread_unwinds(self, unwound, monkeypatch, failing):
        # the consuming thread starts its first product only once the helper
        # has taken one, so each thread runs a product: the consumer claims
        # its own here and waits on the Future of the helper's
        boom, helper_took, consumer = RuntimeError("failed"), threading.Event(), []
        real_product = sde._product

        def product(M, X, out):
            if threading.get_ident() not in consumer:
                helper_took.set()
                if failing == "helper":
                    raise boom
            else:
                assert helper_took.wait(10), "the helper never took a product"
                if failing == "consumer":
                    raise boom
            real_product(M, X, out)

        def consume():
            consumer.append(threading.get_ident())
            simulate_forward(scalar_system(), [1.0], ZeroControl(),
                             SimConfig(T=1.0, dt=0.1, n_paths=1001, seed=0))

        monkeypatch.setattr(sde, "_product", product)
        assert self.bounded(consume) is boom
        unwound()

    def test_concurrent_sweeps_under_fast_switching(self, unwound):
        # three consumers, each sweep with its own helper: six threads on
        # fewer cores, switching every 10 us; every result must match a
        # serial run, and the shared OpenBLAS pin must come back to 2
        rng = np.random.default_rng(67)
        s = random_system(rng, 3, 1)
        cfg = SimConfig(T=0.2, dt=0.01, n_paths=257, seed=23)
        gain = FeedbackControl(0.3 * rng.standard_normal((1, 3)))

        def run():
            fw = simulate_forward(s, np.ones(3), gain, cfg)
            return fw.states.tobytes() + simulate_flow(s, cfg).flows.tobytes()

        expected, results = run(), []

        def consume():
            for _ in range(3):
                results.append(run())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=consume, daemon=True) for _ in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads), "a sweep hung"
        assert len(results) == 9 and all(r == expected for r in results)
        unwound()

    def test_claim_winner_moves_no_bit(self, monkeypatch):
        rng = np.random.default_rng(61)
        s = random_system(rng, 3, 2)
        gain = FeedbackControl(0.3 * rng.standard_normal((2, 3)))
        cfg = SimConfig(T=0.06, dt=0.01, n_paths=301, seed=19)
        lam, me, takers = -0.7, threading.get_ident(), []
        noises = (s.C, s.C + lam * np.eye(3))

        def sweeps():
            """Every array of the three runs as bytes, and whether this
            thread took each C X (one per step for states, one per column
            for flows, one per lane for girsanov's X and X~)."""
            takers.clear()
            ens = [simulate_forward(s, np.ones(3), gain, cfg), simulate_flow(s, cfg)]
            points = girsanov_check(s, lam, np.ones(3), gain, cfg, [cfg.dt])
            arrays = [a for e in ens for a in vars(e).values()] + [np.array(points)]
            return [a.tobytes() for a in arrays], list(takers)

        free, _ = sweeps()
        real_product, real_offload = sde._product, sde._offload

        def product(M, X, out):
            if any(np.array_equal(M, C) for C in noises):
                takers.append(threading.get_ident() == me)
            real_product(M, X, out)

        class LateHelper(ThreadPoolExecutor):
            """A helper that sleeps 20 ms before each job."""

            def submit(self, fn, /, *args):
                super().submit(time.sleep, 0.02)
                return super().submit(fn, *args)

        def late_offload(pool, jobs):
            """_offload whose claims of products first sleep 20 ms."""
            def late(claim):
                def run():
                    time.sleep(0.02)
                    return claim()
                return run
            claims = real_offload(pool, jobs)
            return [late(c) for c in claims] if jobs[0][0] is product else claims

        monkeypatch.setattr(sde, "_product", product)
        runs = {}
        for helper_first in (False, True):
            with monkeypatch.context() as m:
                if helper_first:
                    m.setattr(sde, "_offload", late_offload)
                else:
                    m.setattr(sde, "ThreadPoolExecutor", LateHelper)
                runs[helper_first] = sweeps()
        steps = cfg.n_steps * (1 + 3 + 2)
        mine, taken = runs[False]
        assert len(taken) == steps and all(taken)  # the helper was always late
        helpers, taken = runs[True]
        assert len(taken) == steps and not any(taken)  # this thread was always late
        assert mine == free and helpers == free


class TestGirsanov:
    def test_zero_lambda_is_exact(self):
        rng = np.random.default_rng(31)
        A = rng.standard_normal((3, 3)) - 3 * np.eye(3)
        C = 0.5 * rng.standard_normal((3, 3))
        B = rng.standard_normal((3, 2))
        s = StochasticSystem(A, B, C=C)
        cfg = SimConfig(T=1.0, dt=0.01, n_paths=50, seed=37)
        pts = girsanov_check(s, 0.0, np.ones(3), ConstantControl(np.array([1.0, -1.0])), cfg, [0.01])
        assert pts[0][1] == 0.0

    @pytest.mark.parametrize("kind", ["constant", "feedback"])
    def test_matches_row_vector_reference(self, kind):
        rng = np.random.default_rng(53)
        s = random_system(rng, 3, m=2)
        lam, x0 = -1.0, rng.standard_normal(3)
        cfg = SimConfig(T=1.0, dt=0.02, n_paths=40, seed=59)
        control, u_of = controls(rng, s, cfg.n_steps)[kind]
        dts = [0.02, 0.01]
        pts = girsanov_check(s, lam, x0, control, cfg, dts)
        A2_T, C2_T = (s.A + lam * s.C).T, (s.C + lam * np.eye(3)).T
        for (dt, err), dt_ref in zip(pts, dts):
            run = SimConfig(T=1.0, dt=dt_ref, n_paths=cfg.n_paths, seed=cfg.seed)
            dW = brownian_increments(run)
            X = np.tile(x0, (run.n_paths, 1))
            Xt, W, sup = X.copy(), np.zeros(run.n_paths), np.zeros(run.n_paths)
            for k in range(run.n_steps):
                E = np.exp(lam * W - 0.5 * lam**2 * (k * dt_ref))
                bu = u_of(k, X) @ s.B.T
                X, Xt = (X + (X @ s.A.T + bu) * dt_ref + (X @ s.C.T) * dW[:, k, None],
                         Xt + (Xt @ A2_T + E[:, None] * bu) * dt_ref + (Xt @ C2_T) * dW[:, k, None])
                W = W + dW[:, k]
                E = np.exp(lam * W - 0.5 * lam**2 * ((k + 1) * dt_ref))
                sup = np.maximum(sup, np.linalg.norm(E[:, None] * X - Xt, axis=1))
            assert dt == dt_ref
            assert err == pytest.approx(np.mean(sup), rel=1e-12)

    def test_error_decays_with_dt(self):
        from sck import assemble_example2

        s = assemble_example2(4, np.array([1.0, 1.0, 0.1, 0.1]) / np.sqrt(2))
        cfg = SimConfig(T=1.0, dt=0.01, n_paths=2000, seed=41)
        pts = girsanov_check(s, -1.0, np.ones(4), ConstantControl(np.array([1.0])), cfg,
                             [1e-2, 5e-3, 2.5e-3])
        errs = [e for _, e in pts]
        assert errs[0] > errs[1] > errs[2]
        assert fit_convergence_order(pts) >= 0.4

    def test_degenerate_transformed_diffusion(self):
        # C = -lam * I makes the transformed diffusion vanish entirely
        lam = 0.8
        A = np.diag([-1.0, -2.0])
        s = StochasticSystem(A, np.ones((2, 1)), C=-lam * np.eye(2))
        cfg = SimConfig(T=1.0, dt=0.02, n_paths=500, seed=43)
        pts = girsanov_check(s, lam, np.ones(2), ZeroControl(), cfg, [2e-2, 1e-2, 5e-3])
        errs = [e for _, e in pts]
        assert errs[0] > errs[2] > 0.0

    def test_dt_list_validation(self, monkeypatch):
        def no_noise(*args):
            raise AssertionError("noise drawn before dt_list was checked")

        monkeypatch.setattr(sde, "_step_normals", no_noise)
        s = scalar_system()
        cfg = SimConfig(T=1.0, dt=0.01, n_paths=10, seed=0)
        with pytest.raises(DomainError):
            girsanov_check(s, 0.5, [1.0], ZeroControl(), cfg, [1e-2, 1e-2])
        with pytest.raises(DomainError):
            girsanov_check(s, 0.5, [1.0], ZeroControl(), cfg, [])
        with pytest.raises(DomainError):
            # 0.3 does not divide the horizon
            girsanov_check(s, 0.5, [1.0], ZeroControl(), cfg, [0.3])
        # a later entry is checked before the first one is simulated
        short = SimConfig(T=0.1, dt=0.01, n_paths=10, seed=0)
        with pytest.raises(DomainError, match=r"^dt_list\[1\]: T/dt = 33.333333333333336 is"):
            girsanov_check(s, 0.5, [1.0], ZeroControl(), short, [0.01, 0.003])
        # so is the control against each grid
        with pytest.raises(DimensionError, match=r"^dt_list\[1\]: piecewise control must have "
                                                 r"shape \(20, 1\), got \(10, 1\)$"):
            girsanov_check(s, 0.5, [1.0], PiecewiseConstantControl(np.ones((10, 1))), short,
                           [0.01, 0.005])

    def test_x0_length_checked_before_simulation(self, monkeypatch):
        s = StochasticSystem(np.diag([-1.0, -2.0]), np.ones((2, 1)))
        cfg = SimConfig(T=1.0, dt=0.1, n_paths=4, seed=0)

        def no_noise(*args):
            raise AssertionError("noise drawn before x0 was checked")

        monkeypatch.setattr(sde, "_step_normals", no_noise)
        with pytest.raises(DimensionError, match="x0"):
            girsanov_check(s, 0.5, np.ones(3), ZeroControl(), cfg, [0.1])

    @pytest.mark.parametrize("lam", [np.nan, np.inf])
    def test_non_finite_lambda_is_rejected(self, lam):
        # not read as an unstable scheme that a smaller time step would cure
        cfg = SimConfig(T=1.0, dt=0.1, n_paths=4, seed=0)
        with pytest.raises(DomainError, match=r"^lam contains non-finite"):
            girsanov_check(scalar_system(), lam, [1.0], ZeroControl(), cfg, [0.1])


class TestFitOrder:
    def test_clean_power_law(self):
        pts = [(0.1, 0.05), (0.05, 0.025), (0.025, 0.0125)]
        assert fit_convergence_order(pts) == pytest.approx(1.0, abs=1e-12)

    def test_zero_errors_give_none(self):
        assert fit_convergence_order([(0.1, 0.0), (0.05, 0.0)]) is None
        assert fit_convergence_order([(0.1, 1.0)]) is None
