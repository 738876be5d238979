import numpy as np
import pytest

from oracles import reference_divform
from sck import (
    HeatSystemSpec,
    assemble_divform_1d,
    assemble_example2,
    b_coefficient_test,
    check_ellipticity,
    is_dissipative,
    lambda_set,
    strict_invariant_subspace,
    verdict,
)
from sck import systems
from sck.exceptions import DomainError, EllipticityError, EvaluationError
from sck.galerkin import composite_gauss, constant, polynomial, trigonometric

PI2 = np.pi**2


def laplacian_diag(N):
    k = np.arange(1, N + 1, dtype=float)
    return np.diag(-((k * np.pi) ** 2))


class TestCoefficients:
    def test_constant(self):
        f = constant(2.5)
        assert np.array_equal(f(np.array([0.1, 0.9])), np.array([2.5, 2.5]))

    def test_polynomial(self):
        f = polynomial([1.0, -2.0, 3.0])
        x = np.array([0.0, 0.5])
        assert np.allclose(f(x), 1.0 - 2.0 * x + 3.0 * x * x)

    @pytest.mark.parametrize("degree", range(-1, 8))
    def test_polynomial_is_horner_bitwise(self, degree):
        # the divform1d moments, and so every verdict bit, depend on these bits
        rng = np.random.default_rng(degree + 1)
        coeffs, x = rng.standard_normal(degree + 1), rng.uniform(0.0, 1.0, 1000)
        expected = np.zeros_like(x)
        for c in coeffs[::-1]:
            expected = expected * x + c
        assert np.array_equal(polynomial(coeffs)(x), expected)

    def test_polynomial_of_integers_is_float(self):
        out = polynomial([1, 2])(np.array([0, 1]))
        assert out.dtype == float and out.tolist() == [1.0, 3.0]

    def test_trigonometric(self):
        f = trigonometric(offset=1.0, sin_coeffs=[0.5], cos_coeffs=[0.0, 0.25])
        x = np.array([0.3])
        expected = 1.0 + 0.5 * np.sin(np.pi * x) + 0.25 * np.cos(2 * np.pi * x)
        assert np.allclose(f(x), expected)


class TestCompositeGauss:
    def test_resolves_high_sine_products(self):
        nodes, weights = composite_gauss(16)
        # int_0^1 2 sin(8 pi x)^2 dx = 1
        val = np.sum(weights * 2.0 * np.sin(8 * np.pi * nodes) ** 2)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_weights_sum_to_one(self):
        _, weights = composite_gauss(5)
        assert np.sum(weights) == pytest.approx(1.0, abs=1e-14)


class TestAssembleExample2:
    def test_small_truncation_matrices(self):
        s = assemble_example2(2, [0.3, 0.4])
        assert np.allclose(s.A, np.diag([-PI2, -4 * PI2]))
        assert np.allclose(s.C, np.array([[1.0, 0.0], [0.0, 0.0]]))
        assert np.allclose(s.B[:, 0], [0.3, 0.4])
        # bounded noise goes into the C2 slot
        assert np.array_equal(s.C1, np.zeros((2, 2)))

    def test_projection_action(self):
        s = assemble_example2(4, [1.0, 1.0, 1.0, 1.0])
        e1 = np.eye(4)[0]
        e2 = np.eye(4)[1]
        assert np.array_equal(s.C @ e1, e1)
        assert np.array_equal(s.C @ e2, np.zeros(4))

    def test_third_mode_control_not_controllable(self):
        s = assemble_example2(4, [0.0, 0.0, 1.0, 0.0])
        V = strict_invariant_subspace(s.A, s.C, s.B)
        e1 = np.eye(4)[0]
        assert V.dim >= 1 and V.contains(e1, 1e-9)
        assert verdict(s, [0.0]).verdict == "NotApproxControllable"

    def test_small_dimension_rejected(self):
        with pytest.raises(DomainError):
            assemble_example2(1, [1.0])

    def test_coefficient_length_checked(self):
        with pytest.raises(Exception):
            assemble_example2(4, [1.0, 2.0])


class TestAssembleDivform:
    def test_unit_diffusion_reproduces_laplacian(self):
        spec = HeatSystemSpec(N=8, a_fn=constant(1.0), c_fn=constant(0.0),
                              b_fn=constant(1.0))
        s = assemble_divform_1d(spec)
        assert np.max(np.abs(s.A - laplacian_diag(8))) <= 1e-9
        assert np.max(np.abs(s.C)) == 0.0
        # matches the projection-noise builder's drift
        s2 = assemble_example2(8, np.ones(8))
        assert np.max(np.abs(s.A - s2.A)) <= 1e-9

    def test_constant_c_noise_is_skew(self):
        spec = HeatSystemSpec(N=8, a_fn=constant(1.0), c_fn=constant(0.7),
                              b_fn=constant(1.0))
        s = assemble_divform_1d(spec)
        assert np.max(np.abs(s.C + s.C.T)) <= 1e-9
        # first-order noise sits in the stiff slot
        assert np.array_equal(s.C2, np.zeros((8, 8)))

    def test_nestedness(self):
        a = polynomial([1.0, 0.3])
        c = trigonometric(sin_coeffs=[0.2])
        b = constant(1.0)
        s1 = assemble_divform_1d(HeatSystemSpec(N=6, a_fn=a, c_fn=c, b_fn=b))
        s2 = assemble_divform_1d(HeatSystemSpec(N=12, a_fn=a, c_fn=c, b_fn=b))
        assert np.max(np.abs(s2.A[:6, :6] - s1.A)) <= 1e-9
        assert np.max(np.abs(s2.C[:6, :6] - s1.C)) <= 1e-9
        assert np.max(np.abs(s2.B[:6] - s1.B)) <= 1e-9

    @pytest.mark.skipif(systems._blas_threads() is None,
                        reason="numpy.linalg does not run on OpenBLAS")
    @pytest.mark.parametrize("N", [16, 128])
    def test_same_matrices_under_any_openblas_thread_count(self, N):
        spec = HeatSystemSpec(N, trigonometric(1.0, [0.5]), trigonometric(0.0, [], [0.3]),
                              polynomial([0.0, 1.0, -1.0]))
        get, set_ = systems._blas_threads()
        before, out = get(), {}
        try:
            for threads in (1, 2):
                set_(threads)
                s = assemble_divform_1d(spec)
                out[threads] = [s.A, s.B, s.C1, s.C2]
                assert get() == threads  # left as found
        finally:
            set_(before)
        assert all(np.array_equal(a, b) for a, b in zip(out[1], out[2]))

    @pytest.mark.parametrize("N", [16, 128])
    def test_drift_is_exactly_symmetric(self, N):
        spec = HeatSystemSpec(N, trigonometric(1.0, [0.5]), trigonometric(0.0, [], [0.3]),
                              polynomial([0.0, 1.0, -1.0]))
        s = assemble_divform_1d(spec)
        assert np.array_equal(s.A, s.A.T)

    # (a, c, b) per coefficient kind; the last c returns a bare number, which
    # the assembly broadcasts over the nodes
    KINDS = {
        "constant": (constant(2.0), constant(0.4), constant(1.0)),
        "polynomial": (polynomial([1.0, 0.3, -0.2]), polynomial([0.1, -0.5, 0.7]),
                       polynomial([0.2, 1.0, 0.5, -0.3])),
        "trigonometric": (trigonometric(1.5, [0.3, 0.1], [0.2, -0.1, 0.05]),
                          trigonometric(0.1, [0.2], [0.3, 0.1]),
                          trigonometric(0.0, [1.0, 0.5], [0.3])),
        "bare-number-c": (constant(1.0), lambda x: 0.25, polynomial([0.0, 1.0])),
    }

    @pytest.mark.parametrize("N", [16, 128, 512])
    @pytest.mark.parametrize("kind", list(KINDS))
    def test_matches_sine_table_reference(self, N, kind):
        # the Fourier-moment entries against the direct weak-form products on
        # the same quadrature nodes: they differ by round-off only
        spec = HeatSystemSpec(N, *self.KINDS[kind])
        s = assemble_divform_1d(spec)
        A, B, C = reference_divform(N, spec.a_fn, spec.c_fn, spec.b_fn,
                                    *composite_gauss(spec.quad_order))
        for got, ref in ((s.A, A), (s.B, B), (s.C1, C)):
            assert got.shape == ref.shape
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
        assert np.array_equal(s.A, s.A.T)
        assert not s.C2.any()

    def test_zero_control_shape(self):
        spec = HeatSystemSpec(N=4, a_fn=constant(1.0), c_fn=constant(0.0),
                              b_fn=constant(0.0))
        s = assemble_divform_1d(spec)
        assert np.max(np.abs(s.B)) <= 1e-12
        assert verdict(s, [0.0]).verdict == "NotApproxControllable"

    def test_elliptic_assembly_is_dissipative(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            a = polynomial([1.0 + rng.uniform(0, 1), rng.uniform(-0.5, 0.5)])
            spec = HeatSystemSpec(N=6, a_fn=a, c_fn=constant(0.0), b_fn=constant(1.0))
            s = assemble_divform_1d(spec)
            assert is_dissipative(s.A, 1e-9)

    def test_joint_dissipativity_transfer(self):
        # pointwise a - alpha c^2 >= 0 with alpha > 1/2 transfers to the
        # assembled matrices: lambda = 0 is accepted
        cases = [
            (constant(1.0), constant(1.0), 0.9),
            (polynomial([1.5, 0.2]), trigonometric(sin_coeffs=[0.6]), 0.8),
            (constant(2.0), polynomial([0.5, 0.5]), 1.2),
        ]
        for a, c, alpha in cases:
            ok, _ = check_ellipticity(a, c, alpha, 500)
            assert ok
            spec = HeatSystemSpec(N=6, a_fn=a, c_fn=c, b_fn=constant(1.0))
            s = assemble_divform_1d(spec)
            (pt,) = lambda_set(s, [0.0])
            assert pt.in_set

    def test_non_elliptic_rejected(self):
        spec = HeatSystemSpec(N=4, a_fn=polynomial([0.5, -1.0]),
                              c_fn=constant(0.0), b_fn=constant(1.0))
        with pytest.raises(EllipticityError):
            assemble_divform_1d(spec)

    def test_nan_coefficient_rejected(self):
        def bad(x):
            return np.full_like(x, np.nan)

        spec = HeatSystemSpec(N=4, a_fn=constant(1.0), c_fn=bad, b_fn=constant(1.0))
        with pytest.raises(EvaluationError):
            assemble_divform_1d(spec)

    def test_quad_order_floor(self):
        with pytest.raises(DomainError):
            HeatSystemSpec(N=8, a_fn=constant(1.0), c_fn=constant(0.0),
                           b_fn=constant(1.0), quad_order=4)

    def test_quad_order_zero_is_not_the_default(self):
        coefficients = dict(a_fn=constant(1.0), c_fn=constant(0.0), b_fn=constant(1.0))
        assert HeatSystemSpec(N=12, **coefficients).quad_order == 24
        assert HeatSystemSpec(N=4, **coefficients).quad_order == 16
        with pytest.raises(DomainError, match=r"^quad_order must be >= 2N = 16, got 0$"):
            HeatSystemSpec(N=8, quad_order=0, **coefficients)


class TestCheckEllipticity:
    def test_no_noise(self):
        ok, margin = check_ellipticity(constant(1.0), constant(0.0), 0.6, 100)
        assert ok and margin == pytest.approx(1.0)

    def test_moderate_noise(self):
        ok, margin = check_ellipticity(constant(1.0), constant(1.0), 0.6, 100)
        assert ok and margin == pytest.approx(0.4)

    def test_failing_pair(self):
        ok, margin = check_ellipticity(constant(1.0), constant(2.0), 0.6, 100)
        assert not ok and margin == pytest.approx(-1.4)

    def test_alpha_domain(self):
        with pytest.raises(DomainError):
            check_ellipticity(constant(1.0), constant(0.0), 0.5, 100)

    def test_grid_floor(self):
        with pytest.raises(DomainError):
            check_ellipticity(constant(1.0), constant(0.0), 0.6, 50)


class TestBCoefficientTest:
    def test_all_nonzero_clean(self):
        s = assemble_example2(4, [0.5, 0.5, 0.5, 0.5])
        modes = b_coefficient_test(s)
        assert len(modes) == 4
        assert not any(m.near_zero for m in modes)
        assert [m.mode_index for m in modes] == [1, 2, 3, 4]

    def test_zero_mode_flagged(self):
        s = assemble_example2(4, [1.0, 0.0, 1.0, 1.0])
        modes = b_coefficient_test(s)
        flagged = [m.mode_index for m in modes if m.near_zero]
        assert flagged == [2]

    def test_flagged_implies_not_controllable(self):
        rng = np.random.default_rng(20)
        for _ in range(5):
            b = rng.uniform(0.2, 1.0, size=4)
            b[int(rng.integers(0, 4))] = 0.0
            s = assemble_example2(4, b)
            modes = b_coefficient_test(s)
            assert any(m.near_zero for m in modes)
            assert verdict(s, [0.0]).verdict == "NotApproxControllable"

    def test_requires_symmetric_drift(self):
        from sck import StochasticSystem

        s = StochasticSystem(np.array([[-1.0, 1.0], [0.0, -2.0]]), np.ones((2, 1)))
        with pytest.raises(DomainError):
            b_coefficient_test(s)

    def test_clustered_eigenvalues_share_flag(self):
        from sck import StochasticSystem

        # repeated eigenvalue -1 with control only in part of the eigenspace:
        # the eigenspace projection is nonzero, so no mode is flagged
        A = np.diag([-1.0, -1.0, -3.0])
        B = np.array([[1.0], [0.0], [1.0]])
        modes = b_coefficient_test(StochasticSystem(A, B))
        assert not any(m.near_zero for m in modes)

    @pytest.mark.parametrize("N", [128, 512])
    def test_parity_system_flags_the_even_modes(self, N):
        # a and b are even about x = 1/2: every even sine mode is exactly
        # uncontrolled and every odd one is live, down to |c| ~ 5e-11 at
        # N = 512, where a fixed absolute threshold would flag live modes
        spec = HeatSystemSpec(N, trigonometric(1.0, [0.5]), trigonometric(0.0, [], [0.3]),
                              polynomial([0.0, 1.0, -1.0]))
        modes = b_coefficient_test(assemble_divform_1d(spec))
        assert sum(m.near_zero for m in modes) == N // 2

    def test_variable_diffusion_uses_computed_eigenbasis(self):
        spec = HeatSystemSpec(N=5, a_fn=polynomial([1.0, 0.4]),
                              c_fn=constant(0.0),
                              b_fn=trigonometric(sin_coeffs=[1.0]))
        s = assemble_divform_1d(spec)
        modes = b_coefficient_test(s)
        assert [m.mode_index for m in modes] == [1, 2, 3, 4, 5]
        # control aligned with the lowest sine mode keeps that direction live
        assert not modes[0].near_zero
