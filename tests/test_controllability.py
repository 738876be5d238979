import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from oracles import check_largest_invariant, random_dissipative_system, reference_sweep
from sck import (
    HeatSystemSpec,
    StochasticSystem,
    assemble_divform_1d,
    assemble_example2,
    b_coefficient_test,
    check_condition,
    commuting_case_check,
    kalman_hautus_rank,
    strict_invariant_subspace,
    verdict,
)
from sck import cli, controllability, galerkin, systems
from sck.config import parse_run_config
from sck.exceptions import DimensionError, DomainError
from sck.galerkin import polynomial, trigonometric

PI2 = np.pi**2


def example2_system(b=(1 / np.sqrt(2), 1 / np.sqrt(2), 0.1, 0.1)):
    return assemble_example2(4, np.array(b))


class TestKalmanHautusRank:
    def test_controllable_pair(self):
        A = np.diag([-1.0, -2.0])
        B = np.array([[1.0], [1.0]])
        ok, sigma = kalman_hautus_rank(A, B)
        assert ok and sigma > 1e-3
        # brute-force rank at the eigenvalues agrees
        for s in (-1.0, -2.0):
            M = np.vstack([s * np.eye(2) - A.T, B.T])
            assert np.linalg.matrix_rank(M) == 2

    def test_uncontrollable_pair(self):
        A = np.diag([-1.0, -2.0])
        B = np.array([[1.0], [0.0]])
        ok, sigma = kalman_hautus_rank(A, B)
        assert not ok and sigma <= 1e-12
        M = np.vstack([-2.0 * np.eye(2) - A.T, B.T])
        assert np.linalg.matrix_rank(M) == 1

    def test_identity_control(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((4, 4))
        ok, sigma = kalman_hautus_rank(A, np.eye(4))
        assert ok and sigma >= 1.0 - 1e-12

    def test_extra_samples(self):
        A = np.diag([-1.0, -2.0])
        ok, _ = kalman_hautus_rank(A, np.ones((2, 1)), s_samples=[0.5 + 1j, -3.0])
        assert ok

    @pytest.mark.parametrize("sample", [np.nan, complex(0.0, np.inf)])
    def test_non_finite_sample_rejected(self, sample):
        # a NaN would reach the pencil's SVD, which does not converge
        with pytest.raises(DomainError, match=r"^s_samples contains non-finite"):
            kalman_hautus_rank(np.diag([-1.0, -2.0]), np.ones((2, 1)), s_samples=[-3.0, sample])

    @pytest.mark.parametrize("n", [2, 3])
    def test_chain_of_integrators(self, n):
        # a nilpotent Jordan block: its eigenvector matrix is singular to
        # working precision, or exactly (n = 3)
        A = np.eye(n, k=1)
        ok, sigma = kalman_hautus_rank(A, np.eye(n)[:, [n - 1]])
        assert ok and sigma == pytest.approx(1.0)
        assert not kalman_hautus_rank(A, np.eye(n)[:, [0]])[0]

    def test_close_eigenvalues_far_from_the_norm_are_tested_apart(self):
        # -1 and -1.001 are distinct to round-off even though ||A|| = 1e6;
        # the mode at -1.001 is uncontrolled unless B reaches it
        A = np.diag([-1e6, -1.0, -1.001])
        Q = np.linalg.qr(np.random.default_rng(2).standard_normal((3, 3)))[0]
        for R in (np.eye(3), Q):
            for b, controllable in (((1.0, 1.0, 0.0), False), ((1.0, 1.0, 1.0), True)):
                s = StochasticSystem(R @ A @ R.T, R @ np.array(b)[:, None])
                assert kalman_hautus_rank(s.A, s.B)[0] == controllable
                rep = check_condition(s, [], "N1")
                assert rep.passed == controllable
                if not controllable:
                    assert rep.witness_point.alpha == pytest.approx(-1.001)


class TestCheckCondition:
    def test_example2_n1_clean(self):
        rep = check_condition(example2_system(), [], "N1")
        assert rep.condition == "N1"
        assert rep.passed
        assert rep.min_sigma >= 1e-3
        # one scan point per distinct eigenvalue of the drift
        assert len(rep.points) == 4
        assert all(p.lam == 0.0 for p in rep.points)

    def test_example2_n2_violation_and_witness(self):
        rep = check_condition(example2_system(), [-3 * PI2], "N2")
        violated = [p for p in rep.points if p.violated]
        assert len(violated) == 1
        p = violated[0]
        assert p.alpha == pytest.approx(-4 * PI2, rel=1e-9)
        assert p.sigma_min <= 1e-9
        w = rep.witness
        assert w is not None
        assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)
        expected = np.array([-1.0, 1.0, 0.0, 0.0]) / np.sqrt(2)
        # the angle to the expected direction, from its sine and cosine: arccos
        # of a cosine one ulp below 1 reads 2.1e-8
        assert np.arctan2(np.linalg.norm(w - (w @ expected) * expected), abs(w @ expected)) < 1e-8
        # witness residual bound from the report contract
        M = example2_system().A + (-3 * PI2) * example2_system().C
        resid = np.linalg.norm((M.T - p.alpha * np.eye(4)) @ w)
        resid += np.linalg.norm(example2_system().B.T @ w)
        assert resid <= 10 * 1e-9

    def test_explicit_lambda_outside_the_set_rejected(self):
        # lam = 0 is in the set, lam = 5 is not (margin 4.5): an explicit
        # point at lam = 5 is held to the same test as a listed lam
        s = StochasticSystem([[-1.0, 0.0], [1.0, -1.0]], [[1.0], [0.0]],
                             C1=[[0.0, 0.0], [-0.2, 1.0]])
        with pytest.raises(DomainError, match=r"^lambda=5\.0 is outside the joint-dissipativity set"):
            check_condition(s, [0.0], "N2", explicit_points=[(5.0, 4.0)])
        with pytest.raises(DomainError, match=r"^lambda=5\.0 is outside"):
            check_condition(s, [5.0], "N2")
        assert check_condition(s, [], "N1", explicit_points=[(5.0, 4.0)]).points  # lam ignored

    @staticmethod
    def explicit_system():
        return StochasticSystem([[-1.0, 0.0], [1.0, -1.0]], [[1.0], [0.0]],
                                C1=[[0.0, 0.0], [-0.2, 1.0]])

    def test_non_finite_explicit_alpha_rejected(self):
        # a NaN alpha would reach the pencil's SVD, which does not converge
        for condition, lams in (("N1", []), ("N2", [0.0])):
            with pytest.raises(DomainError, match=r"^explicit_points contains non-finite"):
                check_condition(self.explicit_system(), lams, condition,
                                explicit_points=[(0.0, -1.0), (0.0, np.nan)])

    def test_explicit_points_as_an_array(self):
        points = [(0.0, -1.0), (0.0, -2.0)]
        as_list = check_condition(self.explicit_system(), [0.0], "N2", explicit_points=points)
        as_array = check_condition(self.explicit_system(), [0.0], "N2",
                                   explicit_points=np.array(points))
        assert as_array.points == as_list.points and len(as_list.points) >= 2
        none = check_condition(self.explicit_system(), [], "N1", explicit_points=np.empty((0, 2)))
        assert none.points == check_condition(self.explicit_system(), [], "N1").points

    @pytest.mark.parametrize("points", [[(0.0, -1.0, 2.0)], [(0.0,)], [0.0, -1.0]])
    def test_explicit_points_must_be_pairs(self, points):
        for condition, lams in (("N1", []), ("N2", [0.0])):
            with pytest.raises(DimensionError, match=r"^explicit_points must "):
                check_condition(self.explicit_system(), lams, condition, explicit_points=points)

    def test_non_finite_explicit_lambda_rejected(self):
        # named as what it is, not as an entry of the lambda grid
        with pytest.raises(DomainError, match=r"^explicit_points contains non-finite"):
            check_condition(self.explicit_system(), [0.0], "N2",
                            explicit_points=[(np.nan, -1.0)])

    def test_full_rank_control_never_violates(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((3, 3)) - 3 * np.eye(3)
        C = 0.3 * rng.standard_normal((3, 3))
        s = StochasticSystem(A, np.eye(3), C=C)
        assert check_condition(s, [], "N1").passed
        assert check_condition(s, [0.0, 0.4], "N2").passed

    def test_n2_at_zero_matches_n1(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            A, B, C = random_dissipative_system(rng, 4, c_scale=0.5)
            s = StochasticSystem(A, B, C=C)
            n1 = check_condition(s, [], "N1")
            n2 = check_condition(s, [0.0], "N2")
            assert len(n1.points) == len(n2.points)
            for p1, p2 in zip(n1.points, n2.points):
                assert p1.alpha == pytest.approx(p2.alpha, abs=1e-12)
                assert abs(p1.sigma_min - p2.sigma_min) <= 1e-12

    def test_lambda_outside_joint_set_rejected(self):
        # A + a C1^T C1 is not dissipative: 0 is outside the set
        s = StochasticSystem(-np.eye(2), np.ones((2, 1)), C1=2.0 * np.eye(2))
        with pytest.raises(DomainError):
            check_condition(s, [0.0], "N2")

    def test_explicit_points_recorded(self):
        rep = check_condition(
            example2_system(), [-3 * PI2], "N2",
            explicit_points=[(-3 * PI2, -1.0), (-3 * PI2, -4 * PI2)],
        )
        alphas = [p.alpha for p in rep.points]
        assert any(abs(a + 1.0) < 1e-12 for a in alphas)
        # duplicate of the violated point keeps the report consistent
        assert sum(1 for p in rep.points if p.violated) == 2

    def test_unknown_condition_tag(self):
        with pytest.raises(DomainError):
            check_condition(example2_system(), [], "N3")

    def test_n2_needs_a_lambda(self):
        with pytest.raises(DomainError, match="N2 requires a non-empty lambda list"):
            check_condition(example2_system(), [], "N2")

    def test_margin_above_roundoff_is_resolved(self):
        # sigma = 1e-13 at alpha = -2 sits about 9x above 16 eps * 3, where
        # 3 = ||B||_2 (1 + ||M|| / gap); a round-off rule of 1024 eps flags it
        rep = check_condition(StochasticSystem(np.diag([-1.0, -2.0]), [[1.0], [1e-13]]),
                              [], "N1")
        assert rep.passed
        assert rep.min_sigma == pytest.approx(1e-13, rel=1e-6)

    def test_complex_spectrum_goes_to_complex_points(self):
        A = np.array([[-1.0, 5.0], [-5.0, -1.0]])  # eigenvalues -1 +- 5i
        s = StochasticSystem(A, np.ones((2, 1)))
        rep = check_condition(s, [], "N1")
        assert not rep.points
        assert len(rep.complex_points) == 1
        assert rep.complex_points[0].alpha == pytest.approx(-1.0)
        assert rep.complex_points[0].alpha_im == pytest.approx(5.0)


def parity_system(N):
    """divform1d with a = 1 + 0.5 sin(pi x), c = 0.3 cos(pi x), b = x - x^2.

    The even sine modes span a subspace inside Ker B^T that every
    (A + lam C)^T maps into itself, so each pencil operator has exactly N/2
    uncontrolled eigenvalues, all with eigenvectors on the even modes.
    """
    spec = HeatSystemSpec(N, trigonometric(1.0, [0.5]), trigonometric(0.0, [], [0.3]),
                          polynomial([0.0, 1.0, -1.0]))
    return assemble_divform_1d(spec)


def nudged(s):
    """``s`` with A[0, 1] moved by one ulp: A is no longer exactly symmetric."""
    A = s.A.copy()
    A[0, 1] = np.nextafter(A[0, 1], np.inf)
    return StochasticSystem(A, s.B, C=s.C)


class TestParityScan:
    SIZES = [64, 128, 256]
    LAMBDAS = [-2.0, -1.0, -0.5, 0.5, 1.0, 1.5]

    @pytest.fixture(scope="class")
    def scans(self):
        out = []
        for N in self.SIZES:
            s = parity_system(N)
            out.append((s, check_condition(s, [], "N1"), check_condition(s, self.LAMBDAS, "N2")))
        return out

    def test_each_operator_flags_half_the_modes(self, scans):
        for s, n1, n2 in scans:
            assert len(n1.violations) == s.n // 2
            for lam in self.LAMBDAS:
                assert sum(p.violated for p in n2.points if p.lam == lam) == s.n // 2

    def test_rotated_system_flags_half_the_modes(self):
        # a rotation keeps the exact answer but spreads the round-off of the
        # uncontrolled margins; the threshold must follow each eigenvector's
        # conditioning, not ||B|| alone
        N = 128
        s = parity_system(N)
        Q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((N, N)))
        r = StochasticSystem(Q @ s.A @ Q.T, Q @ s.B, C=Q @ s.C @ Q.T)
        assert len(check_condition(r, [], "N1").violations) == N // 2
        n2 = check_condition(r, self.LAMBDAS, "N2")
        for lam in self.LAMBDAS:
            assert sum(p.violated for p in n2.points if p.lam == lam) == N // 2

    def test_witness_lies_on_even_modes(self, scans):
        for s, n1, n2 in scans:
            for rep in (n1, n2):
                p, w = rep.witness_point, rep.witness
                assert p.violated
                assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)
                # index 0 is sin(pi x): the odd sine modes sit at even indices
                assert np.linalg.norm(w[0::2]) <= 1e-10
                M = s.A + p.lam * s.C
                resid = np.linalg.norm(M.T @ w - p.alpha * w) + np.linalg.norm(s.B.T @ w)
                assert resid <= 10 * 1e-9

    def test_sigma_is_an_eigenvector_margin(self, scans):
        # every parity eigenvalue is simple: its sigma is |B^T w| for the unit
        # eigenvector w of an independent eig, up to that eigenvector's own
        # round-off eps ||M|| / gap; the residual of (alpha, w) is at most
        # n eps ||M||, the bound on the product M^T w itself
        eps = np.finfo(float).eps
        for s, n1, n2 in scans:
            norm_B = np.linalg.norm(s.B, 2)
            for lam in [0.0] + self.LAMBDAS:
                points = [p for p in (n1.points if lam == 0.0 else n2.points) if p.lam == lam]
                assert len(points) == s.n
                M_T = (s.A + lam * s.C).T
                norm_M = np.linalg.norm(M_T, 2)
                ev, V = np.linalg.eig(M_T)
                for p in points:
                    i = np.argmin(np.abs(ev - p.alpha))
                    gap = np.partition(np.abs(ev - ev[i]), 1)[1]
                    w = V[:, i]
                    assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)
                    assert np.linalg.norm(M_T @ w - p.alpha * w) <= s.n * eps * norm_M
                    assert abs(p.sigma_min - np.linalg.norm(s.B.T @ w)) <= (
                        16 * eps * norm_B * (1 + norm_M / gap))


class TestScanCost:
    @pytest.fixture
    def calls(self, monkeypatch):
        """Names of the np.linalg eig, eigh, inv and svd calls, in order."""
        calls = []
        for name in ("eig", "eigh", "inv", "svd"):
            def counting(*args, _f=getattr(np.linalg, name), _name=name, **kwargs):
                calls.append(_name)
                return _f(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        return calls

    def test_svds_only_off_the_simple_spectrum(self, calls):
        # example2's A and A - 3 pi^2 C are diagonal: one eigh each and no
        # inv; pencil SVDs only at the double eigenvalue -4 pi^2 of
        # A - 3 pi^2 C and at the two explicit points
        lam = -3 * PI2
        rep = check_condition(example2_system(), [lam, 0.0], "N2",
                              explicit_points=[(lam, -4 * PI2), (lam, -1.0)])
        assert len(rep.violations) == 2
        assert calls.count("eigh") == 2
        assert "eig" not in calls and "inv" not in calls
        assert calls.count("svd") == 3

    def test_simple_spectrum_takes_one_eigh_and_no_svd(self, calls):
        rep = check_condition(example2_system(), [], "N1")
        assert rep.passed and rep.witness is None
        assert calls == ["eigh"]
        # kalman_hautus_rank: one eigh, and one pencil SVD per sample
        kalman_hautus_rank(np.diag([-1.0, -2.0]), np.ones((2, 1)), s_samples=[0.5j])
        assert calls == ["eigh", "eigh", "svd"]
        b_coefficient_test(example2_system())
        assert calls == ["eigh", "eigh", "svd", "eigh"]

    def test_non_symmetric_operator_takes_one_eig_and_one_inv(self, calls):
        # on the parity system A is symmetric and C is not
        s = parity_system(16)
        check_condition(s, [], "N1")
        assert calls == ["eigh"]
        check_condition(s, [-1.0, 1.0], "N2")
        assert calls == ["eigh"] + ["eig", "inv"] * 2
        kalman_hautus_rank(nudged(s).A, s.B)
        assert calls[5:] == ["eig", "inv"]


class TestSpectralCore:
    """The Hautus scans and ``b-coeffs`` read one eigen-decomposition: ``eigh``
    for an exactly symmetric operator, ``eig`` otherwise."""

    @pytest.mark.parametrize("N", [64, 128])
    def test_both_branches_agree(self, N):
        s = parity_system(N)
        t = nudged(s)
        assert not np.array_equal(t.A, t.A.T)
        exact, off = check_condition(s, [], "N1"), check_condition(t, [], "N1")
        assert [p.violated for p in exact.points] == [p.violated for p in off.points]
        for p, q in zip(exact.points, off.points):
            assert q.alpha == pytest.approx(p.alpha, rel=1e-10)
        assert ([m.near_zero for m in b_coefficient_test(s)]
                == [m.near_zero for m in b_coefficient_test(t)])

    def test_b_coeffs_and_n1_agree_mode_by_mode(self):
        s = parity_system(128)
        modes = b_coefficient_test(s)
        points = check_condition(s, [], "N1").points[::-1]  # descending alpha
        assert len(points) == len(modes) == 128
        for m, p in zip(modes, points):
            assert m.eigenvalue == pytest.approx(p.alpha, rel=1e-12)
            assert m.near_zero == p.violated
        assert sum(m.near_zero for m in modes) == 64

    def test_near_symmetric_drift_reads_its_symmetric_part(self):
        s = parity_system(64)
        G = np.random.default_rng(4).standard_normal((64, 64))
        S = (G - G.T) / np.linalg.norm(G - G.T, 1)
        A = s.A + 1e-15 * np.linalg.norm(s.A, 1) * S
        assert not np.array_equal(A, A.T)
        near = b_coefficient_test(StochasticSystem(A, s.B))
        sym = b_coefficient_test(StochasticSystem(0.5 * (A + A.T), s.B))
        assert [m.near_zero for m in near] == [m.near_zero for m in sym]
        assert sum(m.near_zero for m in near) == 32


class TestJordanBlocks:
    """A Jordan block of A is controllable through its last Jordan vector and
    not through its first, the eigenvector of A.  Rotated, the computed
    eigenvalues split by up to about eps^(1/size), mostly off the real axis,
    with eigenvalue condition numbers of 3e7 to 1e16 (size 2), 4e9 to 4e10
    (size 3) and 6e10 to 4e11 (size 4)."""

    @pytest.mark.parametrize("size, alpha", [(2, -1.0), (3, -2.0), (4, -2.0)])
    def test_flag_follows_the_jordan_vector(self, size, alpha):
        J = alpha * np.eye(size) + np.eye(size, k=1)
        rotations = [np.eye(size)] + [
            np.linalg.qr(np.random.default_rng(seed).standard_normal((size, size)))[0]
            for seed in range(20)
        ]
        for Q in rotations:
            for j, controllable in ((size - 1, True), (0, False)):
                s = StochasticSystem(Q @ J @ Q.T, Q[:, [j]])
                rep = check_condition(s, [], "N1")
                assert rep.passed == controllable
                assert kalman_hautus_rank(s.A, s.B)[0] == controllable
                if not controllable:
                    # the uncontrolled direction is the eigenvector of A^T
                    assert abs(rep.witness @ Q[:, -1]) == pytest.approx(1.0, abs=1e-9)

    def test_block_beside_a_distinct_eigenvalue(self):
        # the block's huge condition number must not pull the simple
        # eigenvalue -3 into its cluster
        A = np.zeros((3, 3))
        A[:2, :2] = -np.eye(2) + np.eye(2, k=1)
        A[2, 2] = -3.0
        for b, controllable in (((0.0, 1.0, 1.0), True), ((0.0, 1.0, 0.0), False),
                                ((1.0, 0.0, 1.0), False)):
            s = StochasticSystem(A, np.array(b)[:, None])
            assert check_condition(s, [], "N1").passed == controllable
            assert kalman_hautus_rank(s.A, s.B)[0] == controllable

    @pytest.mark.parametrize("eta", [1e-4, 1e-8])
    def test_near_defective_pair(self, eta):
        # two distinct eigenvalues -1 and -1 - eta with nearly parallel
        # eigenvectors; at eta = 1e-8 they are within round-off of each
        # other, and the mean of the pair sits eta / 2 from the uncontrolled one
        A = np.array([[-1.0, 1.0], [0.0, -1.0 - eta]])
        for b, controllable in (((1.0, 0.0), False), ((0.0, 1.0), True), ((1.0, 1.0), True)):
            s = StochasticSystem(A, np.array(b)[:, None])
            assert check_condition(s, [], "N1").passed == controllable
            assert kalman_hautus_rank(s.A, s.B)[0] == controllable


@pytest.mark.skipif(systems._blas_threads() is None,
                    reason="numpy.linalg does not run on OpenBLAS")
class TestOneBlasThread:
    @pytest.fixture
    def threads(self):
        """The OpenBLAS thread-count getter, with the pool at 2 threads, so
        that pinning to 1 and restoring are both visible."""
        get, set_ = systems._blas_threads()
        before = get()
        set_(2)
        yield get
        set_(before)

    def record_threads(self, monkeypatch, threads, name, after=False, module=controllability):
        """Wrap ``module.<name>`` to record the thread count when it is
        called, or with ``after`` when it returns."""
        seen = []
        orig = getattr(module, name)

        def recording(*args, **kwargs):
            if not after:
                seen.append(threads())
            out = orig(*args, **kwargs)
            if after:
                seen.append(threads())
            return out

        monkeypatch.setattr(module, name, recording)
        return seen

    def test_scans_run_on_one_thread(self, threads, monkeypatch):
        seen = self.record_threads(monkeypatch, threads, "_spectral_points")
        check_condition(example2_system(), [-3 * PI2], "N2")
        kalman_hautus_rank(np.diag([-1.0, -2.0]), np.ones((2, 1)))
        assert seen and set(seen) == {1}
        assert threads() == 2

    def test_lambda_set_and_b_coeffs_run_on_one_thread(self, threads, monkeypatch):
        # their eigensolvers split work over the pool, and the bits with it
        spectra = self.record_threads(monkeypatch, threads, "_spectrum", module=galerkin)
        margins = self.record_threads(monkeypatch, threads, "eigvalsh", module=np.linalg)
        b_coefficient_test(example2_system())
        systems.lambda_set(example2_system(), [0.0, 1.0])
        assert spectra == [1] and margins == [1, 1]
        assert threads() == 2

    def test_count_restored_after_return(self, threads):
        s = example2_system()
        check_condition(s, [], "N1")
        assert threads() == 2
        strict_invariant_subspace(s.A, s.C, s.B)
        assert threads() == 2
        kalman_hautus_rank(s.A, s.B)
        assert threads() == 2

    def test_nested_call_restores_the_outer_count(self, threads, monkeypatch):
        # verdict runs check_condition and then commuting_case_check: both
        # must still see verdict's single thread after the inner restore
        returned = self.record_threads(monkeypatch, threads, "check_condition", after=True)
        inside = self.record_threads(monkeypatch, threads, "commuting_case_check")
        verdict(example2_system(), [-3 * PI2])
        assert returned == [1, 1] and inside == [1]
        assert threads() == 2

    def test_count_restored_after_raise(self, threads):
        s = StochasticSystem(-np.eye(2), np.ones((2, 1)), C1=2.0 * np.eye(2))
        with pytest.raises(DomainError):
            check_condition(s, [0.0], "N2")
        assert threads() == 2

    def test_no_pool_is_a_no_op(self, threads, monkeypatch):
        monkeypatch.setattr(systems, "_blas_threads", lambda: None)
        seen = self.record_threads(monkeypatch, threads, "_spectral_points")
        check_condition(example2_system(), [], "N1")
        assert seen and set(seen) == {2}
        assert threads() == 2

    def test_parity_scans_bitwise_equal_without_the_helper(self, threads, monkeypatch):
        def scans():
            s = parity_system(64)
            return [check_condition(s, [], "N1"),
                    check_condition(s, TestParityScan.LAMBDAS, "N2")]

        pinned = scans()
        monkeypatch.setattr(systems, "_blas_threads", lambda: None)
        default = scans()
        for a, b in zip(pinned, default):
            assert a.points == b.points
            assert a.complex_points == b.complex_points
            assert a.witness_point == b.witness_point
            assert np.array_equal(a.witness, b.witness)


def parity_report(N, grid) -> str:
    """verdict's rendered payload on ``parity_system(N)``."""
    raw = {"system": {"divform1d": {
        "N": N, "a": {"type": "trigonometric", "offset": 1.0, "sin": [0.5]},
        "c": {"type": "trigonometric", "cos": [0.3]},
        "b": {"type": "polynomial", "coeffs": [0.0, 1.0, -1.0]}}}, "lambda_grid": grid}
    return cli.render_json(cli.run_subcommand("verdict", parse_run_config(raw)))


class TestTwoThreadVerdict:
    """verdict's spectra run on a helper thread beside the subspace sweep and
    the scans' claims; the sweep is short, so the helper's gain is two
    spectra computed at once."""

    GRID = [-1.0, 0.5, 40.0, 1.5]  # 40 is outside the joint-dissipativity set

    @pytest.mark.parametrize("N", [16, 64])
    def test_claim_winner_moves_no_bit(self, N, monkeypatch):
        me, takers = threading.get_ident(), []
        free = parity_report(N, self.GRID)
        real_spectrum, real_offload = controllability._spectrum, controllability._offload

        def spectrum(M_T):
            takers.append(threading.get_ident() == me)
            return real_spectrum(M_T)

        class LateHelper(ThreadPoolExecutor):
            """A helper that sleeps 200 ms before each job: the calling
            thread claims the last spectrum after the sweep and the others."""

            def submit(self, fn, /, *args):
                super().submit(time.sleep, 0.2)
                return super().submit(fn, *args)

        def late_offload(pool, jobs):
            """_offload whose claims first sleep 50 ms."""
            def late(claim):
                def run():
                    time.sleep(0.05)
                    return claim()
                return run
            return [late(c) for c in real_offload(pool, jobs)]

        monkeypatch.setattr(controllability, "_spectrum", spectrum)
        runs = {}
        for helper_first in (False, True):
            takers.clear()
            with monkeypatch.context() as m:
                if helper_first:
                    m.setattr(controllability, "_offload", late_offload)
                else:
                    m.setattr(controllability, "ThreadPoolExecutor", LateHelper)
                runs[helper_first] = parity_report(N, self.GRID), list(takers)
        spectra = 1 + 3  # A^T and the three accepted (A + lam C)^T
        mine, taken = runs[False]
        assert taken == [True] * spectra  # the helper was always late
        helpers, taken = runs[True]
        assert taken == [False] * spectra  # this thread was always late
        assert mine == free and helpers == free

    @pytest.mark.parametrize("failing", ["helper", "caller"])
    def test_failure_on_either_thread_unwinds(self, monkeypatch, failing):
        # the sweep waits until the helper has taken a spectrum, so a failing
        # helper always fails a spectrum that the calling thread then claims
        # and waits for
        boom, me, helper_took = RuntimeError("failed"), threading.get_ident(), threading.Event()
        real_spectrum, real_sweep = controllability._spectrum, controllability.strict_invariant_subspace

        def spectrum(M_T):
            if threading.get_ident() != me:
                helper_took.set()
                if failing == "helper":
                    raise boom
            return real_spectrum(M_T)

        def sweep(A, C, B):
            assert helper_took.wait(10), "the helper never took a spectrum"
            if failing == "caller":
                raise boom
            return real_sweep(A, C, B)

        monkeypatch.setattr(controllability, "_spectrum", spectrum)
        monkeypatch.setattr(controllability, "strict_invariant_subspace", sweep)
        blas = systems._blas_threads()
        before = blas[0]() if blas else None
        if blas:
            blas[1](2)  # so that a pin to 1 left behind shows
        threads = threading.active_count()
        try:
            with pytest.raises(RuntimeError) as raised:
                verdict(parity_system(16), self.GRID)
            assert raised.value is boom
            assert threading.active_count() == threads
            if blas:
                assert blas[0]() == 2
        finally:
            if blas:
                blas[1](before)

    def test_concurrent_verdicts_agree(self):
        serial = parity_report(64, self.GRID)
        pool = systems._blas_threads()
        before = pool[0]() if pool else None
        reports, interval = [None] * 3, sys.getswitchinterval()

        def run(i):
            reports[i] = parity_report(64, self.GRID)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(3)]
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert reports == [serial] * 3
        assert (pool[0]() if pool else None) == before


NAN_2X2 = np.array([[-1.0, 0.0], [0.0, np.nan]])


class TestMatrixEntryPointInputs:
    """kalman_hautus_rank and strict_invariant_subspace check their matrices
    as StochasticSystem does."""

    @pytest.mark.parametrize("A, B, error, message", [
        (np.ones((2, 3)), np.ones((2, 1)), DimensionError, "A must be square"),
        (-np.eye(2), np.ones((3, 1)), DimensionError, "B must have 2 rows"),
        (NAN_2X2, np.ones((2, 1)), DomainError, "A contains non-finite"),
        (-np.eye(2), np.array([[1.0], [np.nan]]), DomainError, "B contains non-finite"),
    ], ids=["non-square-A", "B-rows", "nan-A", "nan-B"])
    def test_both_check_A_and_B(self, A, B, error, message):
        with pytest.raises(error, match=message):
            kalman_hautus_rank(A, B)
        with pytest.raises(error, match=message):
            strict_invariant_subspace(A, np.zeros((2, 2)), B)

    @pytest.mark.parametrize("C, error, message", [
        (np.zeros((2, 3)), DimensionError, "C1 must be square"),
        (np.zeros((3, 3)), DimensionError, "C1 and C2 must be n x n"),
        (NAN_2X2, DomainError, "C1 contains non-finite"),
    ], ids=["non-square-C", "C-size", "nan-C"])
    def test_subspace_checks_C(self, C, error, message):
        with pytest.raises(error, match=message):
            strict_invariant_subspace(-np.eye(2), C, np.ones((2, 1)))


class TestStrictInvariantSubspace:
    def test_zero_control_gives_full_space(self):
        V = strict_invariant_subspace(np.diag([-1.0, -2.0, -3.0]),
                                      np.zeros((3, 3)), np.zeros((3, 1)))
        assert V.dim == 3

    def test_distinct_diagonal_no_invariant(self):
        V = strict_invariant_subspace(np.diag([-1.0, -2.0, -3.0]),
                                      np.zeros((3, 3)), np.ones((3, 1)))
        assert V.dim == 0

    @pytest.mark.parametrize("N", [8, 16])
    def test_parity_system_without_noise_keeps_even_modes(self, N):
        # with C = 0 the N/2 even modes are A^T-invariant inside Ker B^T;
        # the sweep's round-off compounds, and under a 16 eps threshold it
        # strips them already at these sizes
        s = parity_system(N)
        V = strict_invariant_subspace(s.A, np.zeros_like(s.A), s.B)
        assert V.dim == N // 2

    @pytest.mark.parametrize("N", [32, 128])
    def test_parity_system_with_noise(self, N):
        # span{V, C^T V} is the whole space already for V = Ker B^T, so
        # Ker B^T itself is strictly invariant
        s = parity_system(N)
        assert strict_invariant_subspace(s.A, s.C, s.B).dim == N - 1

    @staticmethod
    def assert_sweep_bits(A, C, B):
        """The result is the plain sweep's basis, bit for bit, whether or not
        the one-step exit is taken."""
        V = strict_invariant_subspace(A, C, B).basis
        with systems._one_blas_thread():
            ref = reference_sweep(A, C, B)
        assert V.shape == ref.shape and np.array_equal(V, ref)

    @pytest.mark.parametrize("N", [16, 128])
    def test_exit_keeps_the_sweep_bits_on_the_parity_system(self, N):
        s = parity_system(N)
        self.assert_sweep_bits(s.A, s.C, s.B)

    def test_weak_coupling_keeps_the_sweep_bits(self):
        A = np.array([[-3.0, 0.0, 0.0], [1e-7, -1.0, 0.0], [0.0, 0.0, -2.0]])
        self.assert_sweep_bits(A, np.zeros((3, 3)), np.eye(3)[:, :1])

    @pytest.mark.parametrize("decades", [1, -1])
    def test_planted_coupling_a_decade_from_the_exit(self, decades):
        # m = 2 with Range B = span{e1, e2}: C maps Range B out of itself only
        # through C[2:, :2] = eps G, G with orthonormal columns, so the exit's
        # sigma_min((I - QQ^T) C Q) is eps; plant eps a decade above or below
        # its threshold 2e-9 (1 + ||C||_1 ||C||_inf)
        rng = np.random.default_rng(11)
        n = 6
        A, _, C = random_dissipative_system(rng, n, m=2)
        B = np.eye(n)[:, :2]
        C[2:, :2] = 0.0
        threshold = 2e-9 * (1.0 + np.linalg.norm(C, 1) * np.linalg.norm(C, np.inf))
        C[2:, :2] = 10.0 ** decades * threshold * np.linalg.qr(rng.standard_normal((n - 2, 2)))[0]
        s = np.linalg.svd(C[2:, :2], compute_uv=False).min()
        threshold = 2e-9 * (1.0 + np.linalg.norm(C, 1) * np.linalg.norm(C, np.inf))
        assert s / threshold == pytest.approx(10.0 ** decades, rel=1e-6)
        self.assert_sweep_bits(A, C, B)
        if decades > 0:  # the exit's answer: Ker B^T itself
            assert strict_invariant_subspace(A, C, B).dim == n - 2

    def test_weak_coupling_is_resolved(self):
        # A^T e2 = -e2 + 1e-7 e1 has a part outside Ker B^T = span{e2, e3},
        # so only span{e3} is strictly invariant; a sweep threshold of 1e-7
        # or looser reads the coupling as round-off and keeps e2 as well
        A = np.array([[-3.0, 0.0, 0.0], [1e-7, -1.0, 0.0], [0.0, 0.0, -2.0]])
        V = strict_invariant_subspace(A, np.zeros((3, 3)), np.eye(3)[:, :1])
        assert V.dim == 1
        assert V.contains(np.array([0.0, 0.0, 1.0]), 1e-12)

    def test_example2_contains_known_vector(self):
        s = example2_system()
        V = strict_invariant_subspace(s.A, s.C, s.B)
        assert V.dim >= 1
        w = np.array([-1.0, 1.0, 0.0, 0.0]) / np.sqrt(2)
        assert V.contains(w, 1e-9)

    def test_fixed_point_property(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            A, B, C = random_dissipative_system(rng, n, c_scale=0.8)
            V = strict_invariant_subspace(A, C, B)
            if V.dim == 0:
                continue
            basis = V.basis
            span = np.hstack([basis, C.T @ basis])
            u, sv, _ = np.linalg.svd(span, full_matrices=False)
            Q = u[:, sv > 1e-9 * sv[0]]
            for i in range(V.dim):
                v = basis[:, i]
                img = A.T @ v
                resid = img - Q @ (Q.T @ img)
                assert np.linalg.norm(resid) <= 10 * 1e-9 * max(1.0, np.linalg.norm(img))
                assert np.linalg.norm(B.T @ v) <= 10 * 1e-9 * max(1.0, np.linalg.norm(B, 2))

    def test_oracle_agreement_small_corpus(self):
        rng = np.random.default_rng(77)
        for k in range(8):
            n = int(rng.integers(2, 4))
            A, B, C = random_dissipative_system(rng, n, c_scale=1.0)
            V = strict_invariant_subspace(A, C, B)
            ok, msg = check_largest_invariant(A, C, B, V, rng, n_random=100)
            assert ok, f"corpus item {k}: {msg}"
            self.assert_sweep_bits(A, C, B)  # with or without the one-step exit


class TestCommutingCase:
    def test_identity_control(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((3, 3))
        C = rng.standard_normal((3, 3))
        s = StochasticSystem(A, np.eye(3), C=C)
        assert commuting_case_check(s) is True

    def test_rank_deficient_diagonal(self):
        s = StochasticSystem(np.diag([-1.0, -2.0]), np.diag([1.0, 0.0]),
                             C=np.diag([1.0, 2.0]))
        assert commuting_case_check(s) is False

    def test_non_square_control(self):
        s = StochasticSystem(np.diag([-1.0, -2.0]), np.ones((2, 1)))
        assert commuting_case_check(s) is None

    def test_non_commuting(self):
        A = np.array([[-1.0, 1.0], [0.0, -2.0]])
        B = np.diag([1.0, 2.0])
        s = StochasticSystem(A, B, C=np.zeros((2, 2)))
        assert commuting_case_check(s) is None

    @pytest.mark.parametrize("n", [8, 64])
    def test_polynomial_in_a_commutes_up_to_roundoff(self, n):
        # B = A^2 + I in a random orthogonal eigenbasis: the computed
        # commutator is round-off of the products, on the n ||A|| ||B|| scale
        rng = np.random.default_rng(n)
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        A = Q @ np.diag(-rng.uniform(0.1, 5.0, n)) @ Q.T
        s = StochasticSystem(A, A @ A + np.eye(n), C=np.zeros((n, n)))
        assert commuting_case_check(s) is True

    def test_small_commutator_is_not_roundoff(self):
        # a 1e-10 perturbation that does not commute with A is far above
        # round-off, so the hypotheses fail
        rng = np.random.default_rng(3)
        A = np.diag([-1.0, -2.0, -3.0, -4.0])
        E = rng.standard_normal((4, 4))
        s = StochasticSystem(A, np.eye(4) + 1e-10 * E, C=np.zeros((4, 4)))
        assert commuting_case_check(s) is None


class TestVerdict:
    def test_example2_not_controllable(self):
        v = verdict(example2_system(), [-3 * PI2])
        assert v.verdict == "NotApproxControllable"
        assert v.invariant_subspace_dim >= 1
        assert v.n1_passed
        assert not v.n2_passed
        assert not v.consistency_warning

    def test_simple_controllable_pair(self):
        s = StochasticSystem(np.diag([-1.0, -2.0]), np.array([[1.0], [1.0]]))
        v = verdict(s, [0.0])
        assert v.verdict == "ApproxControllable"
        assert v.invariant_subspace_dim == 0

    def test_identity_control_controllable(self):
        rng = np.random.default_rng(8)
        A = rng.standard_normal((3, 3)) - 3 * np.eye(3)
        C = 0.4 * rng.standard_normal((3, 3))
        v = verdict(StochasticSystem(A, np.eye(3), C=C), [0.0])
        assert v.verdict == "ApproxControllable"
        assert v.commuting_case is True

    def test_controllable_implies_conditions_pass(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            A, B, C = random_dissipative_system(rng, n, c_scale=0.5)
            v = verdict(StochasticSystem(A, B, C=C), [0.0])
            if v.verdict == "ApproxControllable":
                assert v.n1_passed and v.n2_passed

    def test_basis_invariance_under_rotation(self):
        rng = np.random.default_rng(13)
        A, B, C = random_dissipative_system(rng, 4, c_scale=0.6)
        s = StochasticSystem(A, B, C=C)
        Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        s_rot = StochasticSystem(Q @ A @ Q.T, Q @ B, C=Q @ C @ Q.T)
        v1, v2 = verdict(s, [0.0]), verdict(s_rot, [0.0])
        assert v1.verdict == v2.verdict
        assert v1.invariant_subspace_dim == v2.invariant_subspace_dim
        for p1, p2 in zip(v1.n1_report.points, v2.n1_report.points):
            assert abs(p1.sigma_min - p2.sigma_min) <= 1e-8

    def test_vacuous_conditions_yield_consistency_warning(self):
        # rotation-dominated drift: no real negative eigenvalues, so the
        # pencil scans pass vacuously while the subspace is the whole space
        A = np.array([[-1.0, 5.0], [-5.0, -1.0]])
        s = StochasticSystem(A, np.zeros((2, 1)))
        v = verdict(s, [0.0])
        assert v.verdict == "NotApproxControllable"
        assert v.invariant_subspace_dim == 2
        assert v.n1_passed and v.n2_passed
        assert v.consistency_warning
        # the collapse is still visible on the complex branch
        assert any(p.violated for p in v.n1_report.complex_points)

    def test_docstring_quotes_the_rule(self):
        doc = " ".join(controllability.ControllabilityVerdict.__doc__.split())
        for (trivial, passed), (tag, warn) in controllability._VERDICT_RULE.items():
            assert f"({trivial}, {passed}) -> {tag}, warning={warn}" in doc

    def test_control_scaling_keeps_classification(self):
        # B -> b B, and M -> c M as A -> c A, C -> sqrt(c) C at lam ->
        # sqrt(c) lam, which keeps every lam in the joint-dissipativity set
        def flags(s, lams):
            reps = [check_condition(s, [], "N1"), check_condition(s, lams, "N2")]
            return [p.violated for r in reps for p in r.points + r.complex_points]

        rng = np.random.default_rng(14)
        cases = [(StochasticSystem(A, B, C=C), [0.0])
                 for A, B, C in (random_dissipative_system(rng, 3, c_scale=0.5) for _ in range(5))]
        cases += [(example2_system(), [-3 * PI2]), (parity_system(32), [-1.0, 1.5])]
        for s, lams in cases:
            expected = flags(s, lams)
            for b, c in [(100.0, 1.0), (1e-3, 1.0), (1e3, 1.0), (1.0, 1e-3), (1.0, 1e3)]:
                t = StochasticSystem(c * s.A, b * s.B, C=np.sqrt(c) * s.C)
                assert flags(t, [np.sqrt(c) * lam for lam in lams]) == expected
