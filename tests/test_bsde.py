import importlib.util
import json
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from oracles import random_dissipative_system
from sck import (
    ConstantControl,
    DeterministicTerminal,
    FeedbackControl,
    LinearInWTTerminal,
    PiecewiseConstantControl,
    SimConfig,
    StochasticSystem,
    ZeroControl,
    apriori_bound_check,
    approximation_convergence,
    assemble_example2,
    brownian_increments,
    duality_check,
    simulate_flow,
    simulate_forward,
    solve_dual_bsde,
    yosida,
)
from sck import bsde as bsde_module
from sck import sde as sde_module
from sck.cli import run_subcommand
from sck.config import parse_run_config
from sck.exceptions import DimensionError, DomainError, NumericsError


def example2():
    return assemble_example2(4, np.array([1.0, 1.0, 0.1, 0.1]) / np.array([np.sqrt(2), np.sqrt(2), 1.0, 1.0]))


class TestSolveDualBsde:
    def test_static_equation_exact(self):
        # A = 0, C = 0: flows are exactly the identity, so Y == xi, Z == 0
        s = StochasticSystem(np.zeros((2, 2)), np.ones((2, 1)))
        cfg = SimConfig(T=1.0, dt=0.1, n_paths=100, seed=3)
        xi = np.array([0.7, -0.2])
        sol = solve_dual_bsde(s, DeterministicTerminal(xi), cfg)
        # flows are exactly the identity; only the ensemble mean rounds
        assert np.allclose(sol.Y, np.broadcast_to(xi, sol.Y.shape), rtol=1e-15)
        assert np.all(sol.Z == 0.0)
        assert np.allclose(sol.y_exact, xi)

    def test_deterministic_terminal_matches_closed_form(self):
        s = example2()
        cfg = SimConfig(T=1.0, dt=1e-2, n_paths=4000, seed=11)
        xi = np.array([0.3, 1.0, -0.5, 0.2])
        sol = solve_dual_bsde(s, DeterministicTerminal(xi), cfg)
        assert sol.y_exact is not None
        # exact curve is exp((T-t) A^T) xi
        for j, t in enumerate(sol.times):
            assert np.allclose(
                sol.y_exact[j], scipy.linalg.expm((cfg.T - t) * s.A.T) @ xi
            )
        gap = np.max(np.linalg.norm(sol.Y.mean(axis=1) - sol.y_exact, axis=1))
        assert gap <= 0.05 * np.linalg.norm(xi)
        assert np.all(sol.Z == 0.0)

    def test_terminal_reproduced_pathwise(self):
        s = example2()
        cfg = SimConfig(T=1.0, dt=1e-2, n_paths=3000, seed=13)
        xi0 = np.array([0.2, 0.0, 0.1, 0.0])
        xi1 = np.array([0.0, 1.0, 0.0, 0.0])
        sol = solve_dual_bsde(s, LinearInWTTerminal(xi0, xi1), cfg)
        target = xi0[None, :] + sol.w[:, -1][:, None] * xi1[None, :]
        # degree-1 regression reproduces an affine terminal exactly
        assert np.allclose(sol.Y[-1], target, atol=1e-8)

    def test_linear_terminal_scalar_closed_form(self):
        # dY = -aY dt + Z dW with terminal W_T has the explicit solution
        # Y_t = e^{a(T-t)} W_t, Z_t = e^{a(T-t)}
        a, T = -0.8, 1.0
        s = StochasticSystem(np.array([[a]]), np.zeros((1, 1)))
        cfg = SimConfig(T=T, dt=1e-3, n_paths=40000, seed=5)
        sol = solve_dual_bsde(s, LinearInWTTerminal(np.zeros(1), np.ones(1)), cfg)
        coarse = sol.times[1] - sol.times[0]
        for j in range(len(sol.times) - 1):
            t = sol.times[j]
            y_exact = np.exp(a * (T - t)) * sol.w[:, j]
            y_err = np.abs(sol.Y[j, :, 0] - y_exact).max()
            assert y_err <= 0.02 + 3.0 / np.sqrt(cfg.n_paths)
            z_exact = np.exp(a * (T - t))
            z_est = sol.Z[j, :, 0].mean()
            z_se = sol.Z[j, :, 0].std(ddof=1) / np.sqrt(cfg.n_paths)
            assert abs(z_est - z_exact) <= 3 * z_se + 3.0 * coarse * (1 + abs(a)) * z_exact

    def test_z_is_discrete_exact_on_every_grid_time(self):
        # dY = -aY dt + Z dW with Y_T = W_T: the Euler dual has
        # Z_k = y_1(k+1) = (1 + a dt)^(K-k-1) on every path, with no lag of a
        # grid segment; the last grid point carries Z_{K-1} = 1
        a, T = -0.8, 1.0
        s = StochasticSystem(np.array([[a]]), np.zeros((1, 1)))
        cfg = SimConfig(T=T, dt=1e-3, n_paths=2000, seed=6)
        term = LinearInWTTerminal(np.zeros(1), np.ones(1))
        for n_reg in (6, 21):
            sol = solve_dual_bsde(s, term, cfg, n_regression_times=n_reg)
            assert len(sol.times) == n_reg
            steps = np.round(sol.times / cfg.dt).astype(int)
            z_exact = (1 + a * cfg.dt) ** np.maximum(cfg.n_steps - steps - 1, 0)
            np.testing.assert_allclose(
                sol.Z[:, :, 0], np.broadcast_to(z_exact[:, None], sol.Z.shape[:2]),
                rtol=1e-12, atol=0,
            )

    def test_higher_regression_degree_stays_consistent(self):
        # the conditional expectation is affine in W_t, so degree 3 must
        # agree with degree 1 in RMS (cubic fits wiggle on extreme-W paths)
        a, T = -0.5, 1.0
        s = StochasticSystem(np.array([[a]]), np.zeros((1, 1)))
        term = LinearInWTTerminal(np.zeros(1), np.ones(1))
        cfg1 = SimConfig(T=T, dt=1e-2, n_paths=20000, seed=8, regression_degree=1)
        cfg3 = SimConfig(T=T, dt=1e-2, n_paths=20000, seed=8, regression_degree=3)
        sol1 = solve_dual_bsde(s, term, cfg1)
        sol3 = solve_dual_bsde(s, term, cfg3)
        assert np.sqrt(np.mean((sol1.Y - sol3.Y) ** 2)) <= 0.01

    def test_y0_is_discrete_mean_flow_adjoint(self):
        # the step factors I + dt A^T + C^T dW_k are independent with mean
        # I + dt A^T, so E[Phi(0, T)^T xi] = (I + dt A^T)^K xi exactly; Y_0
        # is that value on every path, and the flow sample mean scatters
        # around it by Monte Carlo noise only
        rng = np.random.default_rng(53)
        A = rng.standard_normal((3, 3)) - 2 * np.eye(3)
        C = 0.5 * rng.standard_normal((3, 3))
        s = StochasticSystem(A, np.zeros((3, 1)), C=C)
        cfg = SimConfig(T=0.5, dt=0.01, n_paths=2000, seed=59)
        xi = np.array([0.4, -1.0, 0.7])
        sol = solve_dual_bsde(s, DeterministicTerminal(xi), cfg)
        exact = np.linalg.matrix_power(np.eye(3) + cfg.dt * A.T, cfg.n_steps) @ xi
        assert np.max(np.abs(sol.Y[0] - exact)) <= 1e-12 * np.linalg.norm(exact)
        flows = simulate_flow(s, cfg, record=False).flows[:, -1]
        samples = np.einsum("pij,i->pj", flows, xi)
        se = samples.std(axis=0, ddof=1) / np.sqrt(cfg.n_paths)
        assert np.all(se > 0)
        assert np.all(np.abs(samples.mean(axis=0) - exact) <= 3 * se)

    def test_three_paths_degree_three_solves_exactly(self):
        # no regression design to become rank-deficient: with a = -1 and
        # dt = 0.5, y_1(k) = 0.5^(K-k), so Y_k = 0.5^(2-k) W_k and
        # Z_k = 0.5^(1-k), with Z_{K-1} = 1 at the last grid point
        s = StochasticSystem(np.array([[-1.0]]), np.zeros((1, 1)))
        cfg = SimConfig(T=1.0, dt=0.5, n_paths=3, seed=1, regression_degree=3)
        sol = solve_dual_bsde(s, LinearInWTTerminal(np.zeros(1), np.ones(1)), cfg)
        assert sol.times.tolist() == [0.0, 0.5, 1.0]
        assert np.all(sol.w[:, 0] == 0.0)
        assert np.array_equal(sol.w[:, 1:], np.cumsum(brownian_increments(cfg), axis=1))
        np.testing.assert_allclose(sol.Y[:, :, 0], np.array([[0.25], [0.5], [1.0]]) * sol.w.T,
                                   rtol=1e-12, atol=0)
        np.testing.assert_allclose(sol.Z[:, :, 0], np.broadcast_to([[0.5], [1.0], [1.0]], (3, 3)),
                                   rtol=1e-12, atol=0)

    def test_dimension_mismatch(self):
        s = example2()
        cfg = SimConfig(T=1.0, dt=0.1, n_paths=10, seed=0)
        with pytest.raises(DimensionError):
            solve_dual_bsde(s, DeterministicTerminal(np.ones(3)), cfg)

    def test_unsupported_terminal_rejected(self):
        cfg = SimConfig(T=1.0, dt=0.1, n_paths=10, seed=0)
        with pytest.raises(DomainError, match=r"^unsupported terminal specification: 'xi'$"):
            solve_dual_bsde(example2(), "xi", cfg)

    def test_needs_two_grid_times(self):
        cfg = SimConfig(T=1.0, dt=0.1, n_paths=10, seed=0)
        with pytest.raises(DomainError, match=r"^n_regression_times must be >= 2, got 1$"):
            solve_dual_bsde(example2(), DeterministicTerminal(np.ones(4)), cfg,
                            n_regression_times=1)

    def test_grid_size_must_be_an_integer(self):
        cfg = SimConfig(T=1.0, dt=0.1, n_paths=10, seed=0)
        with pytest.raises(DomainError, match=r"^n_regression_times must be an integer, got 2\.5$"):
            solve_dual_bsde(example2(), DeterministicTerminal(np.ones(4)), cfg, 2.5)

    @pytest.mark.parametrize("system", ["example2", "random"])
    def test_y_exact_is_the_closed_form_bitwise(self, system):
        if system == "example2":
            s = example2()
        else:
            A, B, C = random_dissipative_system(np.random.default_rng(23), 4, c_scale=0.5)
            s = StochasticSystem(A, B, C=C)
        cfg = SimConfig(T=0.5, dt=1e-2, n_paths=10, seed=11)
        xi = np.array([0.3, 1.0, -0.5, 0.2])
        sol = solve_dual_bsde(s, DeterministicTerminal(xi), cfg)
        assert sol.y_exact.shape == (len(sol.times), 4)
        for j, t in enumerate(sol.times):
            assert np.array_equal(sol.y_exact[j], scipy.linalg.expm((cfg.T - t) * s.A.T) @ xi)

    def test_y_exact_is_none_for_a_linear_terminal(self):
        cfg = SimConfig(T=1.0, dt=0.1, n_paths=10, seed=0)
        sol = solve_dual_bsde(example2(), LinearInWTTerminal(np.ones(4), np.ones(4)), cfg)
        assert sol.y_exact is None


class TestDualityCheck:
    def test_uncontrolled_deterministic_terminal(self):
        # reduces to <E X_T, xi> = <x0, exp(T A^T) xi>
        rng = np.random.default_rng(15)
        A, _, C = random_dissipative_system(rng, 3, c_scale=0.5)
        s = StochasticSystem(A, np.zeros((3, 1)), C=C)
        cfg = SimConfig(T=1.0, dt=2e-3, n_paths=20000, seed=17)
        rep = duality_check(s, np.ones(3), ZeroControl(),
                            DeterministicTerminal(np.array([0.5, -1.0, 0.25])), cfg)
        assert rep.passed
        assert not rep.feedback_control

    def test_no_control_operator(self):
        rng = np.random.default_rng(19)
        A, _, C = random_dissipative_system(rng, 2, c_scale=0.4)
        s = StochasticSystem(A, np.zeros((2, 2)), C=C)
        cfg = SimConfig(T=1.0, dt=2e-3, n_paths=10000, seed=23)
        rep = duality_check(s, np.array([1.0, -1.0]), ZeroControl(),
                            LinearInWTTerminal(np.ones(2), 0.5 * np.ones(2)), cfg)
        assert rep.passed

    def test_constant_control_random_corpus(self):
        rng = np.random.default_rng(27)
        for k in range(5):
            n = int(rng.integers(2, 5))
            A, B, C = random_dissipative_system(rng, n, c_scale=0.5)
            s = StochasticSystem(A, B, C=C)
            cfg = SimConfig(T=1.0, dt=2e-3, n_paths=10000, seed=100 + k)
            term = DeterministicTerminal(rng.standard_normal(n))
            rep = duality_check(s, rng.standard_normal(n),
                                ConstantControl(0.5 * np.ones(s.m)), term, cfg)
            assert rep.passed, f"corpus item {k}: {rep}"

    def test_feedback_flagged(self):
        rng = np.random.default_rng(29)
        A, _, C = random_dissipative_system(rng, 2, c_scale=0.3)
        s = StochasticSystem(A, np.eye(2), C=C)
        cfg = SimConfig(T=1.0, dt=2e-3, n_paths=10000, seed=31)
        rep = duality_check(s, np.ones(2), FeedbackControl(-0.2 * np.eye(2)),
                            DeterministicTerminal(np.array([1.0, 0.5])), cfg)
        assert rep.feedback_control
        assert rep.passed

    def test_deterministic_sides_give_zero_stderr(self):
        # noise acts only on mode 1 and xi = e2: every sample on both sides is
        # identical, so the standard error is exactly zero, not mean round-off
        cfg = SimConfig(T=1.0, dt=1e-2, n_paths=2000, seed=5)
        rep = duality_check(example2(), np.ones(4), ConstantControl(np.array([1.0])),
                            DeterministicTerminal(np.array([0.0, 1.0, 0.0, 0.0])), cfg)
        assert rep.stderr == 0.0
        assert rep.passed

    @pytest.mark.parametrize("kind", ["zero", "constant", "piecewise"])
    def test_lhs_is_the_mean_recursion(self, kind):
        # C = e1 e1^T and xi = e2: mode 2 sees no noise, so X_K . xi is the
        # discrete mean recursion m_{k+1} = (I + dt A) m_k + dt B u_k on every path
        s = example2()
        cfg = SimConfig(T=0.5, dt=0.01, n_paths=300, seed=13)
        values = np.sin(np.arange(cfg.n_steps))[:, None]
        control, u_of = {
            "zero": (ZeroControl(), lambda k: np.zeros(1)),
            "constant": (ConstantControl(np.array([1.5])), lambda k: np.array([1.5])),
            "piecewise": (PiecewiseConstantControl(values), lambda k: values[k]),
        }[kind]
        xi = np.array([0.0, 1.0, 0.0, 0.0])
        x0 = np.array([1.0, -0.5, 2.0, 0.25])
        rep = duality_check(s, x0, control, DeterministicTerminal(xi), cfg)
        m = x0
        for k in range(cfg.n_steps):
            m = m + cfg.dt * (s.A @ m + s.B @ u_of(k))
        assert rep.lhs == pytest.approx(m @ xi, rel=1e-12)
        assert rep.passed

    def test_rhs_is_the_exact_sum_of_the_solvers(self):
        # rebuild both exact sides from the public solvers and the forward
        # mean recursions m_{k+1} = F m_k + dt B u_k, c_{k+1} = F c_k + dt C m_k
        # (c_k = E[W_k X_k]); lhs_mc is the path mean of <X_T, Y_T>
        s, x0, control, term, cfg = self.linear_case()
        rep = duality_check(s, x0, control, term, cfg)

        coef = solve_dual_bsde(s, term, cfg).coef
        bu = cfg.dt * control.values @ s.B.T
        assert rep.rhs == pytest.approx(x0 @ coef[0, 0] + np.sum(bu * coef[1:, 0]), rel=1e-12)
        m, c = x0, np.zeros(3)
        for k in range(cfg.n_steps):
            m, c = m + cfg.dt * s.A @ m + bu[k], c + cfg.dt * (s.A @ c + s.C @ m)
        assert rep.lhs == pytest.approx(m @ term.xi0 + c @ term.xi1, rel=1e-12)
        assert rep.lhs == pytest.approx(rep.rhs, rel=1e-12)

        ens = simulate_forward(s, x0, control, cfg, record_steps=[])
        w_T = ens.increments.sum(axis=1)
        y_T = term.xi0 + w_T[:, None] * term.xi1
        assert rep.lhs_mc == pytest.approx(np.mean(np.sum(ens.states[:, -1] * y_T, axis=1)),
                                           rel=1e-12)
        assert rep.passed

    def test_stochastic_stderr_is_sample_standard_error(self):
        # rebuild the lhs samples from the public solver and compare with the
        # textbook estimator, so centring cannot hide Monte Carlo noise
        rng = np.random.default_rng(43)
        A, B, C = random_dissipative_system(rng, 3, c_scale=0.5)
        s = StochasticSystem(A, B, C=C)
        cfg = SimConfig(T=1.0, dt=1e-2, n_paths=2000, seed=47)
        x0, xi, u = rng.standard_normal(3), rng.standard_normal(3), 0.5 * np.ones(s.m)
        rep = duality_check(s, x0, ConstantControl(u), DeterministicTerminal(xi), cfg)

        ens = simulate_forward(s, x0, ConstantControl(u), cfg, record_steps=[])
        lhs_samples = ens.states[:, -1] @ xi
        assert rep.lhs_mc == pytest.approx(np.mean(lhs_samples), rel=1e-12)
        expected = np.std(lhs_samples, ddof=1) / np.sqrt(cfg.n_paths)
        assert rep.stderr > 0
        assert rep.stderr == pytest.approx(expected, rel=1e-9)

    @staticmethod
    def linear_case():
        """(system, x0, piecewise control, linear_in_wt terminal, cfg) with C != 0."""
        rng = np.random.default_rng(61)
        A, B, C = random_dissipative_system(rng, 3, m=2, c_scale=0.5)
        cfg = SimConfig(T=1.0, dt=1e-2, n_paths=4000, seed=67)
        control = PiecewiseConstantControl(rng.standard_normal((cfg.n_steps, 2)))
        term = LinearInWTTerminal(rng.standard_normal(3), rng.standard_normal(3))
        return StochasticSystem(A, B, C=C), rng.standard_normal(3), control, term, cfg

    @pytest.mark.parametrize("helper, system", [
        # (I + dt A) in place of (I + dt A^T) in the backward step
        ("_dual_coefficients", lambda s: StochasticSystem(s.A.T, s.B, C=s.C)),
        # C dropped from the backward lift (j + 1) dt C^T y_{j+1}
        ("_dual_coefficients", lambda s: StochasticSystem(s.A, s.B)),
        # a lift of (j + 2) dt: at degree 1 that is 2 dt C^T y_1, the lift of 2 C
        ("_dual_coefficients", lambda s: StochasticSystem(s.A, s.B, C=2 * s.C)),
        # the forward moments without their j dt C M_{j-1} term
        ("_forward_moments", lambda s: StochasticSystem(s.A, s.B)),
    ], ids=["backward-A-for-AT", "backward-lift-without-C", "backward-lift-(j+2)dt",
            "forward-without-C"])
    def test_each_mutant_fails(self, monkeypatch, helper, system):
        # the helper runs on the mutated system in place of the one it is given
        case = self.linear_case()
        assert duality_check(*case).passed
        original = getattr(bsde_module, helper)
        monkeypatch.setattr(bsde_module, helper, lambda s, *args: original(system(s), *args))
        assert not duality_check(*case).passed

    def test_cancelling_sides_pass_on_the_scale_of_their_terms(self):
        # x0 is orthogonal to y_0(0) and there is no control: both sides are
        # round-off around 0, where 16 eps K (|lhs| + |rhs|) would fail a
        # correct run; the gate's scale, the sizes of the products summed,
        # does not
        rng = np.random.default_rng(73)
        A, B, C = random_dissipative_system(rng, 4, c_scale=0.5)
        s = StochasticSystem(A, B, C=C)
        cfg = SimConfig(T=0.5, dt=1e-2, n_paths=2000, seed=79)
        term = DeterministicTerminal(rng.standard_normal(4))
        y0 = solve_dual_bsde(s, term, cfg).coef[0, 0]
        v = rng.standard_normal(4)
        rep = duality_check(s, v - (v @ y0) / (y0 @ y0) * y0, ZeroControl(), term, cfg)
        assert rep.passed
        assert max(abs(rep.lhs), abs(rep.rhs)) < 1e-15
        assert abs(rep.lhs - rep.rhs) > 16 * np.finfo(float).eps * cfg.n_steps * (
            abs(rep.lhs) + abs(rep.rhs))

    def test_feedback_with_a_linear_terminal_pairs_every_row(self, monkeypatch):
        # under u = K X the rhs pairs dt B K M_1(k) with y_1(k + 1): the run
        # passes, and dropping that row from the rhs fails
        rng = np.random.default_rng(83)
        A, B, C = random_dissipative_system(rng, 3, m=2, c_scale=0.5)
        s = StochasticSystem(A, B, C=C)
        cfg = SimConfig(T=1.0, dt=1e-2, n_paths=4000, seed=89)
        case = (s, rng.standard_normal(3), FeedbackControl(-0.5 * rng.standard_normal((2, 3))),
                LinearInWTTerminal(rng.standard_normal(3), rng.standard_normal(3)), cfg)
        rep = duality_check(*case)
        assert rep.feedback_control
        assert rep.passed

        moments = bsde_module._forward_moments

        def without_w_row(*args):
            M, rows = moments(*args)
            return M, rows[:, :1]

        monkeypatch.setattr(bsde_module, "_forward_moments", without_w_row)
        dropped = duality_check(*case)
        assert dropped.lhs == rep.lhs
        assert not dropped.passed

    def test_simulator_gate_fails_on_a_scaled_terminal(self, monkeypatch):
        # Y_T on the paths 5 % too large moves lhs_mc only: the exact pair
        # and its gate are untouched, and the simulator gate fails
        case = self.linear_case()
        clean = duality_check(*case)
        solve = bsde_module.solve_dual_bsde

        def scaled(*args):
            sol = solve(*args)
            sol.Y = np.concatenate([sol.Y[:-1], 1.05 * sol.Y[-1:]])
            return sol

        monkeypatch.setattr(bsde_module, "solve_dual_bsde", scaled)
        rep = duality_check(*case)
        assert (rep.lhs, rep.rhs) == (clean.lhs, clean.rhs)
        assert rep.lhs_mc == pytest.approx(1.05 * clean.lhs_mc, rel=1e-12)
        assert clean.passed
        assert not rep.passed


class TestAprioriBound:
    def test_exact_scale_invariance(self):
        s = example2()
        cfg = SimConfig(T=1.0, dt=1e-2, n_paths=2000, seed=37)
        xi = np.array([0.3, 1.0, -0.5, 0.2])
        terms = [DeterministicTerminal(c * xi) for c in (1.0, 2.0, 4.0, 8.0, 16.0)]
        rep = apriori_bound_check(s, terms, cfg)
        assert rep.scale_ok
        assert rep.scale_spread <= 1.0 + 1e-10
        ratios = [r.ratio for r in rep.samples]
        assert max(ratios) / min(ratios) <= 1.0 + 1e-10

    def test_static_system_ratio_one(self):
        s = StochasticSystem(np.zeros((2, 2)), np.ones((2, 1)))
        cfg = SimConfig(T=1.0, dt=0.1, n_paths=500, seed=41)
        xi = np.array([1.0, 1.0])
        terms = [DeterministicTerminal(c * xi) for c in (1.0, 2.0, 4.0, 8.0, 16.0)]
        rep = apriori_bound_check(s, terms, cfg)
        assert rep.k_hat == pytest.approx(1.0, abs=1e-12)

    def test_requires_five_samples(self):
        s = example2()
        cfg = SimConfig(T=1.0, dt=0.1, n_paths=100, seed=0)
        with pytest.raises(DomainError):
            apriori_bound_check(s, [DeterministicTerminal(np.ones(4))] * 3, cfg)

    def test_requires_nonzero_samples(self):
        s = StochasticSystem(-np.eye(2), np.ones((2, 1)))
        cfg = SimConfig(T=1.0, dt=0.1, n_paths=100, seed=0)
        terms = [DeterministicTerminal(c * np.ones(2)) for c in (1.0, 2.0, 0.0, 3.0, 4.0)]
        with pytest.raises(DomainError, match=r"^terminal sample 2 has zero mean square$"):
            apriori_bound_check(s, terms, cfg)

    def test_requires_distinct_norms(self):
        s = example2()
        cfg = SimConfig(T=1.0, dt=0.1, n_paths=100, seed=0)
        xi = np.ones(4)
        terms = [DeterministicTerminal(xi) for _ in range(5)]
        with pytest.raises(DomainError):
            apriori_bound_check(s, terms, cfg)

    def test_mixed_shapes(self):
        s = example2()
        cfg = SimConfig(T=1.0, dt=1e-2, n_paths=2000, seed=43)
        terms = [
            DeterministicTerminal(np.array([1.0, 0.0, 0.0, 0.0])),
            DeterministicTerminal(np.array([0.0, 2.0, 0.0, 0.0])),
            LinearInWTTerminal(np.zeros(4), np.array([0.5, 0.0, 0.0, 0.0])),
            LinearInWTTerminal(np.zeros(4), np.array([1.5, 0.0, 0.0, 0.0])),
            DeterministicTerminal(np.array([0.0, 0.0, 3.0, 0.0])),
        ]
        rep = apriori_bound_check(s, terms, cfg)
        assert rep.k_hat > 0.0
        assert len(rep.samples) == 5

    def test_frozen_bound_regression(self):
        # golden value produced by this implementation (seeded)
        s = example2()
        cfg = SimConfig(T=1.0, dt=1e-2, n_paths=5000, seed=2718)
        rng = np.random.default_rng(1618)
        terms = [DeterministicTerminal(rng.standard_normal(4)) for _ in range(5)]
        rep = apriori_bound_check(s, terms, cfg)
        assert np.isfinite(rep.k_hat)
        assert rep.k_hat == pytest.approx(1.000000000000137, rel=1e-12)


    def test_z_energy_is_exact_trapezoid(self):
        # Z_k = y_1(k+1) on every path, so int E|Z|^2 is the trapezoid of
        # |y_1(k+1)|^2 over the grid, with y_1(k) = (I + dt A^T)^(K-k) xi1
        rng = np.random.default_rng(61)
        A, _, C = random_dissipative_system(rng, 3, c_scale=0.5)
        s = StochasticSystem(A, np.zeros((3, 1)), C=C)
        cfg = SimConfig(T=0.5, dt=0.01, n_paths=500, seed=67)
        xi0, xi1 = rng.standard_normal(3), rng.standard_normal(3)
        scales = (1.0, 2.0, 3.0, 4.0, 5.0)
        rep = apriori_bound_check(
            s, [LinearInWTTerminal(c * xi0, c * xi1) for c in scales], cfg
        )
        steps = np.unique(np.round(np.linspace(0, cfg.n_steps, 11)).astype(int))
        F = np.eye(3) + cfg.dt * A.T
        z2 = [np.sum((np.linalg.matrix_power(F, max(cfg.n_steps - k - 1, 0)) @ xi1) ** 2)
              for k in steps]
        expected = np.trapezoid(z2, x=cfg.dt * steps)
        for c, sample in zip(scales, rep.samples):
            assert sample.int_mean_z_square == pytest.approx(c * c * expected, rel=1e-12)

    def test_k_hat_at_least_one_on_benchmark_inputs(self):
        # Y_T is xi bit for bit, so sup_t E|Y_t|^2 >= E|xi|^2 and every ratio
        # is >= 1 exactly on the apriori benchmark's seed-1 inputs
        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        payload = run_subcommand("apriori", parse_run_config(workloads.apriori_config(1)))
        assert payload["k_hat"] >= 1.0
        assert all(sample["ratio"] >= 1.0 for sample in payload["samples"])


    def test_exact_energies_match_monte_carlo(self):
        # E|Y_k|^2 = |y_0(k)|^2 + t_k |y_1(k)|^2 and E|Z_k|^2 = |y_1(k+1)|^2
        # against the path means of the sampled dual solution, with C != 0
        rng = np.random.default_rng(71)
        A, _, C = random_dissipative_system(rng, 3, c_scale=0.8)
        s = StochasticSystem(A, np.zeros((3, 1)), C=C)
        cfg = SimConfig(T=0.5, dt=0.01, n_paths=4000, seed=73)
        xi0, xi1 = rng.standard_normal(3), rng.standard_normal(3)
        terms = [LinearInWTTerminal(c * xi0, c * xi1) for c in (1.0, 2.0, 3.0, 4.0, 5.0)]
        rep = apriori_bound_check(s, terms, cfg)

        coef = bsde_module._dual_coefficients(s, terms[0], cfg)
        sol = solve_dual_bsde(s, terms[0], cfg)
        steps = np.round(sol.times / cfg.dt).astype(int)
        exact_y2 = np.sum(coef[steps, 0] ** 2, axis=1) + sol.times * np.sum(coef[steps, 1] ** 2, axis=1)
        exact_z2 = np.sum(coef[np.minimum(steps + 1, cfg.n_steps), 1] ** 2, axis=1)
        y2 = np.sum(sol.Y * sol.Y, axis=2)  # (grid, paths)
        mc_y2 = y2.mean(axis=1)
        se_y2 = y2.std(axis=1, ddof=1) / np.sqrt(cfg.n_paths)
        # W_0 = 0 on every path, so the t = 0 row is exact up to round-off
        assert mc_y2[0] == pytest.approx(exact_y2[0], rel=1e-12)
        assert se_y2[0] <= 1e-12 * exact_y2[0]
        assert np.all(np.abs(mc_y2[1:] - exact_y2[1:]) <= 3.0 * se_y2[1:])
        assert np.allclose(np.mean(np.sum(sol.Z * sol.Z, axis=2), axis=1), exact_z2, rtol=1e-12)

        sample = rep.samples[0]
        assert sample.xi_mean_square == pytest.approx(exact_y2[-1], rel=1e-12)
        assert sample.sup_mean_y_square == pytest.approx(np.max(exact_y2), rel=1e-12)
        assert sample.int_mean_z_square == pytest.approx(
            np.trapezoid(exact_z2, x=sol.times), rel=1e-12)

    def test_draws_no_noise(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("apriori_bound_check reached a path computation")

        monkeypatch.setattr(sde_module, "_step_normals", forbidden)
        monkeypatch.setattr(bsde_module, "solve_dual_bsde", forbidden)
        rng = np.random.default_rng(79)
        A, _, C = random_dissipative_system(rng, 3, c_scale=0.5)
        s = StochasticSystem(A, np.zeros((3, 1)), C=C)
        cfg = SimConfig(T=0.5, dt=0.01, n_paths=500, seed=83)
        xi0, xi1 = rng.standard_normal(3), rng.standard_normal(3)
        rep = apriori_bound_check(
            s, [LinearInWTTerminal(c * xi0, c * xi1) for c in (1.0, 2.0, 3.0, 4.0, 5.0)], cfg)
        assert rep.k_hat >= 1.0

    def test_payload_ignores_seed_and_path_count(self):
        rng = np.random.default_rng(89)
        A, B, C = random_dissipative_system(rng, 3, m=1, c_scale=0.5)
        raw = {
            "system": {"matrices": {"A": A.tolist(), "B": B.tolist(), "C": C.tolist()}},
            "terminal": {"type": "linear_in_wt", "xi0": rng.standard_normal(3).tolist(),
                         "xi1": rng.standard_normal(3).tolist()},
        }
        payloads = {
            json.dumps(run_subcommand("apriori", parse_run_config(
                {**raw, "sim": {"T": 0.5, "dt": 0.01, "n_paths": paths, "seed": seed}})))
            for paths in (2, 5000) for seed in (1, 2**63)
        }
        assert len(payloads) == 1


class TestApproximationConvergence:
    def test_random_system_flags(self, monkeypatch):
        draws = []
        real_normals = sde_module._step_normals
        monkeypatch.setattr(sde_module, "_step_normals",
                            lambda *args: draws.append(args) or real_normals(*args))
        rng = np.random.default_rng(123)
        A, B, C = random_dissipative_system(rng, 4, c_scale=1.0)
        s = StochasticSystem(A, B, C=C)
        cfg = SimConfig(T=1.0, dt=1e-2, n_paths=1000, seed=21)
        rep = approximation_convergence(
            s, DeterministicTerminal(np.ones(4)), cfg, [10, 100, 1000],
            [1e-1, 1e-2, 1e-4], lam=1.0,
        )
        assert rep.yosida_decreasing_in_n
        assert rep.mollifier_decreasing_in_delta
        assert rep.total_decreasing_in_delta_at_max_n
        assert rep.bsde_decreasing_in_n
        assert rep.bsde_decreasing_in_delta_at_max_n
        # Y of a deterministic terminal does not depend on C
        assert all(r.err_bsde == 0.0 for r in rep.rows)

        linear = LinearInWTTerminal(np.ones(4), 0.5 * np.ones(4))
        lin = approximation_convergence(
            s, linear, cfg, [10, 100, 1000], [1e-1, 1e-2, 1e-4], lam=1.0,
        )
        gaps = [lin.row(n_, 1e-4).err_bsde for n_ in (10, 100, 1000)]
        assert gaps[-1] > 0.0
        assert gaps[-1] < 1e-3 * gaps[0]
        assert lin.bsde_decreasing_in_n
        assert lin.bsde_decreasing_in_delta_at_max_n
        # the gaps come from the coefficient recursions, without noise, and
        # equal the path mean of |Y_mod - Y|^2 on sampled solutions
        assert draws == []
        E_d = scipy.linalg.expm(1e-4 * A)
        J, _ = yosida(A, 10)
        s_mod = StochasticSystem(A, B, C=J.T @ E_d @ C @ E_d @ J)
        diff = solve_dual_bsde(s_mod, linear, cfg).Y - solve_dual_bsde(s, linear, cfg).Y
        sampled = float(np.max(np.mean(np.sum(diff * diff, axis=2), axis=1)))
        assert gaps[0] == pytest.approx(sampled, rel=1e-9)

    def test_zero_drift_exact(self):
        s = StochasticSystem(np.zeros((2, 2)), np.ones((2, 1)),
                             C=np.array([[0.0, 1.0], [0.0, 0.0]]))
        cfg = SimConfig(T=1.0, dt=0.1, n_paths=100, seed=2)
        rep = approximation_convergence(s, DeterministicTerminal(np.ones(2)), cfg,
                                        [10, 1000], [1e-1, 1e-4])
        for row in rep.rows:
            assert row.err_yosida == 0.0
            assert row.err_mollifier == 0.0
            assert row.err_total == 0.0
            assert row.err_bsde == 0.0

    def test_semigroup_only_mode(self):
        s = StochasticSystem(-np.eye(2), np.ones((2, 1)), C=0.3 * np.eye(2))
        cfg = SimConfig(T=1.0, dt=0.1, n_paths=10, seed=1)
        rep = approximation_convergence(s, None, cfg, [10, 100], [1e-1, 1e-3])
        assert rep.bsde_decreasing_in_n is None
        assert all(r.err_bsde is None for r in rep.rows)

    def test_list_validation(self):
        s = StochasticSystem(-np.eye(2), np.ones((2, 1)))
        cfg = SimConfig(T=1.0, dt=0.1, n_paths=10, seed=1)
        with pytest.raises(DomainError):
            approximation_convergence(s, None, cfg, [100, 10], [1e-1])
        with pytest.raises(DomainError):
            approximation_convergence(s, None, cfg, [10], [1e-3, 1e-1])
        with pytest.raises(DomainError):
            approximation_convergence(s, None, cfg, [], [1e-1])

    @pytest.mark.parametrize("n_list, delta_list, message", [
        ([0, 10], [1e-1], "n_list[0] must be >= 1, got 0"),
        ([10], [1e-1, 0.0], "delta_list entries must be positive"),
        ([10.5, 20.9], [1e-1], "n_list[0] must be an integer, got 10.5"),
        ([10], [np.nan, 1e-3], "delta_list contains non-finite entries"),
        ([10], [np.inf, 1e-3], "delta_list contains non-finite entries"),
    ])
    def test_list_entries_are_checked(self, n_list, delta_list, message):
        s = StochasticSystem(-np.eye(2), np.ones((2, 1)))
        cfg = SimConfig(T=1.0, dt=0.1, n_paths=10, seed=1)
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            approximation_convergence(s, None, cfg, n_list, delta_list)

    @pytest.mark.parametrize("n_list, message", [
        ([True], "n_list[0] must be an integer, got True"),  # once ran n = 1
        ([10, np.float64(20.0)], "n_list[1] must be an integer, got np.float64(20.0)"),
    ])
    def test_levels_must_be_integers(self, n_list, message):
        s = StochasticSystem(-np.eye(2), np.ones((2, 1)))
        cfg = SimConfig(T=1.0, dt=0.1, n_paths=10, seed=1)
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            approximation_convergence(s, None, cfg, n_list, [1e-1])
        rep = approximation_convergence(s, None, cfg, [np.int64(10)], [1e-1])
        assert rep.n_list == [10] and type(rep.n_list[0]) is int

    def test_row_of_a_level_not_run(self):
        s = StochasticSystem(-np.eye(2), np.ones((2, 1)), C=0.3 * np.eye(2))
        cfg = SimConfig(T=1.0, dt=0.1, n_paths=10, seed=1)
        rep = approximation_convergence(s, None, cfg, [10, 100], [1e-1, 1e-3])
        assert rep.row(100, 1e-3).nres == 100
        with pytest.raises(KeyError, match=r"^\(7, 0\.5\)$"):
            rep.row(7, 0.5)

    @pytest.mark.parametrize("lam", [np.nan, np.inf])
    def test_non_finite_lambda_is_rejected(self, lam):
        s = StochasticSystem(-np.eye(2), np.ones((2, 1)), C=0.3 * np.eye(2))
        cfg = SimConfig(T=1.0, dt=0.1, n_paths=10, seed=1)
        with pytest.raises(DomainError, match=r"^lam contains non-finite"):
            approximation_convergence(s, None, cfg, [10, 100], [1e-1, 1e-3], lam=lam)

    def test_overflowed_semigroup_raises(self):
        # exp(800) overflows: inf - inf gaps would read as converged zeros
        s = StochasticSystem(np.diag([800.0, -2.0]), [[1.0], [0.5]], C=0.1 * np.eye(2))
        cfg = SimConfig(T=1.0, dt=0.1, n_paths=10, seed=1)
        with pytest.raises(NumericsError, match="matrix exponential overflowed"):
            approximation_convergence(s, None, cfg, [1000, 2000], [0.1, 0.01])


class TestConvergenceCost:
    @pytest.fixture
    def expm_calls(self, monkeypatch):
        """Arguments of every scipy.linalg.expm call, in order."""
        calls = []
        expm = scipy.linalg.expm

        def counting(a, *args, **kwargs):
            calls.append(a)
            return expm(a, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "expm", counting)
        return calls

    @staticmethod
    def c7_system():
        rng = np.random.default_rng(321)
        G = rng.standard_normal((4, 4))
        A = G - (np.linalg.norm(G, 2) + 0.5) * np.eye(4)
        C = rng.standard_normal((4, 4))
        C /= np.linalg.norm(C, 2)
        return StochasticSystem(A, rng.standard_normal((4, 1)), C=C)

    @pytest.mark.parametrize("n_list, delta_list, terminal", [
        ([10, 100, 1000], [1e-1, 1e-2, 1e-4], None),
        ([10, 100, 1000], [1e-1, 1e-2, 1e-4], LinearInWTTerminal(np.ones(4), 0.5 * np.ones(4))),
        ([10, 1000], [1e-1], None),
        ([10], [1e-1, 1e-2, 1e-3, 1e-4], DeterministicTerminal(np.ones(4))),
    ])
    def test_one_exponential_per_operator_and_time(self, expm_calls, n_list, delta_list,
                                                   terminal):
        cfg = SimConfig(T=1.0, dt=1e-2, n_paths=100, seed=55)
        approximation_convergence(self.c7_system(), terminal, cfg, n_list, delta_list)
        N, D = len(n_list), len(delta_list)
        # the exact semigroup once, E_d and the mollified one per delta, the
        # smoothed one per (n, delta): 276 calls at 3 x 3
        assert len(expm_calls) == 21 * (1 + D + D * N) + D

    def test_duality_takes_no_exponential(self, expm_calls):
        cfg = SimConfig(T=1.0, dt=1e-2, n_paths=100, seed=55)
        duality_check(self.c7_system(), np.ones(4), ConstantControl(np.ones(1)),
                      DeterministicTerminal(np.ones(4)), cfg)
        assert expm_calls == []

    def test_y_exact_takes_one_exponential_per_grid_time_on_first_read(self, expm_calls):
        cfg = SimConfig(T=1.0, dt=1e-2, n_paths=100, seed=55)
        sol = solve_dual_bsde(self.c7_system(), DeterministicTerminal(np.ones(4)), cfg)
        assert expm_calls == []
        first = sol.y_exact
        assert len(expm_calls) == len(sol.times)
        assert sol.y_exact is first
        assert len(expm_calls) == len(sol.times)
