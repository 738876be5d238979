import dataclasses

import numpy as np
import pytest

from sck import (
    StochasticSystem,
    SubspaceBasis,
    ToleranceConfig,
    is_dissipative,
    lambda_set,
    semigroup_apply,
    yosida,
)
from sck.exceptions import DimensionError, DomainError, SingularResolventError


class TestStochasticSystem:
    def test_full_noise_shorthand(self):
        A = np.diag([-1.0, -2.0])
        C = np.array([[0.0, 1.0], [0.0, 0.0]])
        s = StochasticSystem(A, np.ones((2, 1)), C=C)
        assert np.array_equal(s.C1, C)
        assert np.array_equal(s.C2, np.zeros((2, 2)))
        assert np.array_equal(s.C, C)

    def test_split_is_not_stored_redundantly(self):
        s = StochasticSystem(np.diag([-1.0]), np.ones((1, 1)),
                             C1=np.array([[0.5]]), C2=np.array([[0.25]]))
        assert s.C[0, 0] == 0.75

    def test_dimension_errors(self):
        with pytest.raises(DimensionError):
            StochasticSystem(np.ones((2, 3)), np.ones((2, 1)))
        with pytest.raises(DimensionError):
            StochasticSystem(np.diag([-1.0, -1.0]), np.ones((3, 1)))
        with pytest.raises(DimensionError):
            StochasticSystem(np.diag([-1.0, -1.0]), np.ones((2, 1)), C1=np.eye(3))

    def test_rejects_non_finite_and_bad_gamma(self):
        A = np.diag([-1.0, -2.0])
        bad = A.copy()
        bad[0, 0] = np.nan
        with pytest.raises(DomainError):
            StochasticSystem(bad, np.ones((2, 1)))
        with pytest.raises(DomainError):
            StochasticSystem(A, np.ones((2, 1)), gamma=0.5)

    def test_both_c_forms_rejected(self):
        A = np.diag([-1.0])
        with pytest.raises(DomainError):
            StochasticSystem(A, np.ones((1, 1)), C1=A, C=A)


class TestSubspaceBasis:
    def test_trivial_subspace(self):
        b = SubspaceBasis(np.zeros((3, 0)))
        assert b.dim == 0
        assert b.contains(np.zeros(3), 1e-9)
        assert not b.contains(np.array([1.0, 0.0, 0.0]), 1e-9)
        assert not b.contains(np.array([1e-3, 0.0, 0.0]), 1e-2)  # relative, as for dim > 0

    def test_orthonormality_enforced(self):
        with pytest.raises(DomainError):
            SubspaceBasis(np.array([[1.0], [1.0]]))

    def test_non_finite_basis_rejected(self):
        # NaN > ORTHO_TOL is False, so only the finiteness check catches it
        with pytest.raises(DomainError, match="basis contains non-finite entries"):
            SubspaceBasis(np.array([[np.nan], [0.0]]))

    def test_callers_array_stays_writeable(self):
        basis = np.array([[1.0], [0.0]])
        b = SubspaceBasis(basis)
        assert basis.flags.writeable and not b.basis.flags.writeable
        basis[0, 0] = 0.0
        assert b.basis[0, 0] == 1.0

    def test_contains(self):
        b = SubspaceBasis(np.array([[1.0], [0.0]]))
        assert b.contains(np.array([2.0, 0.0]), 1e-9)
        assert not b.contains(np.array([1.0, 1.0]), 1e-9)


class TestToleranceConfig:
    def test_defaults(self):
        assert [(f.name, f.default) for f in dataclasses.fields(ToleranceConfig)] == [
            ("psd_tol", 1e-10), ("eps_a", 1e-6)]

    def test_validation(self):
        with pytest.raises(DomainError):
            ToleranceConfig(psd_tol=-1e-3)
        with pytest.raises(DomainError):
            ToleranceConfig(eps_a=0.0)
        with pytest.raises(TypeError):
            ToleranceConfig(rank_tol=1e-9)


class TestIsDissipative:
    def test_negative_definite(self):
        assert is_dissipative(-np.eye(3), 0.0)

    def test_skew_symmetric(self):
        assert is_dissipative(np.array([[0.0, 1.0], [-1.0, 0.0]]), 0.0)

    def test_indefinite(self):
        assert not is_dissipative(np.diag([1.0, -2.0]), 0.0)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            is_dissipative(np.ones((2, 3)))


class TestLambdaSet:
    def test_bounded_noise_accepts_everything(self):
        # C1 = 0 makes the test reduce to dissipativity of A alone
        s = StochasticSystem(np.diag([-1.0, -3.0]), np.ones((2, 1)),
                             C2=np.array([[0.0, 2.0], [0.0, 0.0]]))
        pts = lambda_set(s, [-5.0, 0.0, 5.0])
        assert all(p.in_set for p in pts)

    def test_origin_always_accepted_under_joint_dissipativity(self):
        # build systems satisfying the joint hypothesis by construction
        rng = np.random.default_rng(42)
        cfg = ToleranceConfig()
        for _ in range(10):
            n = int(rng.integers(2, 5))
            C1 = rng.standard_normal((n, n))
            D = rng.standard_normal((n, n))
            D = D - (np.linalg.norm(D, 2) + 0.1) * np.eye(n)
            A = D - (0.5 + 2 * cfg.eps_a) * C1.T @ C1
            s = StochasticSystem(A, np.ones((n, 1)), C1=C1)
            (pt,) = lambda_set(s, [0.0], cfg)
            assert pt.in_set

    def test_margin_value(self):
        cfg = ToleranceConfig()
        s = StochasticSystem(-4.0 * np.eye(2), np.ones((2, 1)), C1=np.eye(2))
        (pt,) = lambda_set(s, [0.0], cfg)
        assert pt.in_set
        assert pt.margin == pytest.approx(-4.0 + 0.5 + cfg.eps_a, abs=1e-12)

    def test_eps_a_monotonicity(self):
        # shrinking eps_a never removes an accepted lambda
        rng = np.random.default_rng(7)
        for _ in range(5):
            n = 3
            C1 = rng.standard_normal((n, n))
            A = rng.standard_normal((n, n))
            A = A - (np.linalg.norm(A, 2)) * np.eye(n)
            s = StochasticSystem(A, np.ones((n, 1)), C1=C1)
            grid = np.linspace(-2.0, 2.0, 9)
            loose = lambda_set(s, grid, ToleranceConfig(eps_a=1e-3))
            tight = lambda_set(s, grid, ToleranceConfig(eps_a=1e-8))
            for p_loose, p_tight in zip(loose, tight):
                if p_loose.in_set:
                    assert p_tight.in_set

    def test_positive_half_line_for_dissipative_c1(self):
        # dissipative C1 under the joint hypothesis keeps every lambda >= 0
        rng = np.random.default_rng(3)
        cfg = ToleranceConfig()
        for _ in range(5):
            n = 3
            G = rng.standard_normal((n, n))
            C1 = G - (np.linalg.norm(G, 2) + 0.1) * np.eye(n)
            D = rng.standard_normal((n, n))
            D = D - (np.linalg.norm(D, 2) + 0.1) * np.eye(n)
            A = D - (0.5 + 2 * cfg.eps_a) * C1.T @ C1
            s = StochasticSystem(A, np.ones((n, 1)), C1=C1)
            pts = lambda_set(s, [0.0, 0.5, 1.0, 3.0, 10.0], cfg)
            assert all(p.in_set for p in pts)

    def test_empty_grid_rejected(self):
        s = StochasticSystem(-np.eye(2), np.ones((2, 1)))
        with pytest.raises(DomainError):
            lambda_set(s, [])


class TestYosida:
    def test_zero_operator(self):
        J, An = yosida(np.zeros((3, 3)), 5)
        assert np.allclose(J, np.eye(3))
        assert np.allclose(An, np.zeros((3, 3)))

    def test_scalar(self):
        J, An = yosida(np.array([[-1.0]]), 1)
        assert J[0, 0] == pytest.approx(0.5)
        assert An[0, 0] == pytest.approx(-0.5)

    def test_strong_convergence_monotone(self):
        rng = np.random.default_rng(11)
        G = rng.standard_normal((4, 4))
        A = G - (np.linalg.norm(G, 2) + 0.2) * np.eye(4)
        x = rng.standard_normal(4)
        errs = []
        for nres in (10, 100, 1000):
            _, An = yosida(A, nres)
            errs.append(np.linalg.norm(An @ x - A @ x))
        assert errs[0] > errs[1] > errs[2]

    def test_approximant_stays_dissipative_and_contractive(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            G = rng.standard_normal((n, n))
            A = G - (np.linalg.norm(G, 2) + 0.1) * np.eye(n)
            for nres in (1, 7, 50):
                J, An = yosida(A, nres)
                assert is_dissipative(An, 1e-10)
                assert np.linalg.norm(J, 2) <= 1.0 + 1e-10

    def test_singular_resolvent(self):
        # nres = 1 is an eigenvalue of this (non-dissipative) matrix
        with pytest.raises(SingularResolventError):
            yosida(np.array([[1.0]]), 1)


class TestSemigroupApply:
    def test_identity_at_zero_time(self):
        A = np.array([[-1.0, 2.0], [0.0, -3.0]])
        x = np.array([1.5, -0.5])
        assert np.array_equal(semigroup_apply(A, 0.0, x), x)

    def test_laplacian_eigenvalues(self):
        A = np.diag([-np.pi**2, -4 * np.pi**2])
        out = semigroup_apply(A, 1.0, np.array([1.0, 1.0]))
        assert out[0] == pytest.approx(np.exp(-np.pi**2), rel=1e-12)
        assert out[1] == pytest.approx(np.exp(-4 * np.pi**2), rel=1e-12)

    def test_contraction_for_dissipative(self):
        rng = np.random.default_rng(2)
        G = rng.standard_normal((4, 4))
        A = G - (np.linalg.norm(G, 2) + 0.1) * np.eye(4)
        x = rng.standard_normal(4)
        for t in (0.1, 0.7, 2.0, 10.0):
            assert np.linalg.norm(semigroup_apply(A, t, x)) <= np.linalg.norm(x)

    def test_semigroup_law(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((5, 5))
        A = A - np.linalg.norm(A, 2) * np.eye(5)
        x = rng.standard_normal(5)
        lhs = semigroup_apply(A, 0.9, x)
        rhs = semigroup_apply(A, 0.4, semigroup_apply(A, 0.5, x))
        assert np.linalg.norm(lhs - rhs) <= 1e-9 * np.linalg.norm(lhs)

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            semigroup_apply(np.eye(2), -0.1, np.ones(2))

    def test_deterministic(self):
        A = np.array([[-1.0, 0.3], [0.2, -2.0]])
        x = np.array([0.4, 1.0])
        assert np.array_equal(semigroup_apply(A, 0.37, x), semigroup_apply(A, 0.37, x))
