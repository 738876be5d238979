"""Algebraic controllability and observability tests.

Two families of checks live here.  Hautus-type tests measure the smallest
singular value of the stacked pencil [(A + lam*C)^T - alpha*I; B^T] at
candidate shift values alpha; a rank-deficient pencil certifies an
unobservable direction and hence non-controllability.  The geometric test
computes the largest subspace V of Ker B^T that is strictly invariant,
meaning A^T V is contained in span{V, C^T V}; the system is approximately
controllable (finite-dimensional criterion) exactly when that subspace is
trivial.

The public entry points (``verdict``, ``check_condition``,
``strict_invariant_subspace`` and ``kalman_hautus_rank``) run their many
small SVDs on one OpenBLAS thread: at n = 128 a second thread makes each
about twice as slow.  The pool's previous thread count is restored when the
call returns or raises, so the rest of the process keeps its setting, and
the results are byte-identical to a run on the default pool.  Under a BLAS
that is not OpenBLAS the pool is left alone.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .exceptions import DimensionError, DomainError
from .systems import (
    StochasticSystem,
    SubspaceBasis,
    ToleranceConfig,
    as_matrix,
    lambda_set,
)

__all__ = [
    "HautusPoint",
    "HautusReport",
    "ControllabilityVerdict",
    "kalman_hautus_rank",
    "check_condition",
    "strict_invariant_subspace",
    "commuting_case_check",
    "verdict",
]

CONDITION_TAGS = ("N1", "N2")

APPROX_CONTROLLABLE = "ApproxControllable"
NOT_APPROX_CONTROLLABLE = "NotApproxControllable"


@functools.cache
def _blas_threads():
    """(get, set) of the OpenBLAS thread count behind ``numpy.linalg``, or
    None when numpy links another BLAS.  dlsym on the extension's handle
    also searches the libraries it links."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        return None
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block on one OpenBLAS thread and restore the previous count
    after it, also when it raises; does nothing without OpenBLAS."""
    pool = _blas_threads()
    if pool is None:
        yield
        return
    get, set_ = pool
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


@dataclass(frozen=True)
class HautusPoint:
    lam: float
    alpha: float
    sigma_min: float
    violated: bool
    # populated only on the complex-spectrum branch; such findings sit
    # outside the real-alpha condition and are reported separately
    alpha_im: float = 0.0


@dataclass
class HautusReport:
    """Grid of pencil margins for one condition tag.

    ``points`` holds the real-shift scan (and any explicit user points),
    sorted by (lam, alpha).  ``complex_points`` holds findings at complex
    eigenvalue shifts, flagged apart because the underlying condition
    quantifies over real alpha only.  ``witness`` is a unit vector achieving
    near-zero pencil residual at the most violated point, when one exists.
    """

    condition: str
    points: list[HautusPoint]
    witness: Optional[np.ndarray] = None
    witness_point: Optional[HautusPoint] = None
    complex_points: list[HautusPoint] = field(default_factory=list)

    @property
    def violations(self) -> list[HautusPoint]:
        return [p for p in self.points if p.violated]

    @property
    def passed(self) -> bool:
        return not self.violations

    @property
    def min_sigma(self) -> float:
        return min((p.sigma_min for p in self.points), default=float("inf"))


def _shifted(S0: np.ndarray, alpha: complex) -> np.ndarray:
    """The pencil [M^T - alpha I; B^T], built from S0 = [M^T; B^T]; complex
    when alpha is."""
    S = S0.astype(np.result_type(S0, alpha))
    d = np.arange(S.shape[1])
    S[d, d] -= alpha
    return S


def _sigma_min(S0: np.ndarray, alpha: complex) -> float:
    """Smallest singular value of the pencil at alpha, without singular vectors."""
    return float(np.linalg.svd(_shifted(S0, alpha), compute_uv=False)[-1])


def _witness(S0: np.ndarray, alpha: float) -> np.ndarray:
    """Unit real part of the pencil's smallest right-singular vector at alpha."""
    _, _, vh = np.linalg.svd(_shifted(S0, alpha))
    w = np.real(vh[-1].conj())
    return w / np.linalg.norm(w)


@_one_blas_thread()
def kalman_hautus_rank(
    A,
    B,
    s_samples: Sequence[complex] = (),
    cfg: ToleranceConfig = ToleranceConfig(),
) -> tuple[bool, float]:
    """Deterministic Hautus rank test of the pair (A, B).

    Evaluates the smallest singular value of [s I - A^T; B^T] at every
    supplied sample and at every eigenvalue of A^T (appended automatically;
    the pencil can only lose rank there, so this is exhaustive).  Full rank
    everywhere is the classical controllability condition.

    Returns
    -------
    (full_rank_everywhere, min_sigma)
        ``full_rank_everywhere`` uses the scale-aware threshold
        rank_tol * (1 + ||A||).
    """
    A = as_matrix(A, "A")
    B = as_matrix(B, "B")
    if A.shape[0] != A.shape[1]:
        raise DimensionError("A must be square")
    if B.shape[0] != A.shape[0]:
        raise DimensionError("B must have as many rows as A")
    samples = [complex(s) for s in s_samples]
    samples.extend(np.linalg.eigvals(A.T))
    threshold = cfg.rank_tol * (1.0 + np.linalg.norm(A, 2))
    S0 = np.vstack([A.T, B.T])
    min_sigma = min((_sigma_min(S0, s) for s in samples), default=float("inf"))
    return min_sigma > threshold, min_sigma


def _real_shift_candidates(M_T: np.ndarray, zero_tol: float):
    """Split spectrum of M_T into real negative shifts and complex ones.

    Returns (real_alphas, complex_alphas); eigenvalues with nonnegative real
    part are outside the quantifier range and dropped.  Near-duplicates are
    merged so repeated eigenvalues produce one scan point.
    """
    eigs = np.linalg.eigvals(M_T)
    real, cplx = [], []
    for ev in eigs:
        if ev.real >= 0:
            continue
        if abs(ev.imag) <= zero_tol:
            real.append(ev.real)
        elif ev.imag > 0:  # keep one of each conjugate pair
            cplx.append(ev)
    real.sort()
    merged = []
    for a in real:
        if merged and abs(a - merged[-1]) <= zero_tol * (1.0 + abs(merged[-1])):
            continue
        merged.append(a)
    return merged, sorted(cplx, key=lambda z: (z.real, z.imag))


@_one_blas_thread()
def check_condition(
    sys: StochasticSystem,
    lambdas: Sequence[float],
    condition: str,
    cfg: ToleranceConfig = ToleranceConfig(),
    explicit_points: Optional[Sequence[tuple[float, float]]] = None,
) -> HautusReport:
    """Scan a Hautus-type necessary condition for approximate controllability.

    condition = "N1": the pencil is [A^T - alpha I; B^T]; lambdas is ignored
    (the drift operator alone is tested).  condition = "N2": for each lam in
    ``lambdas`` the pencil is [(A + lam*C)^T - alpha I; B^T]; every lam must
    belong to the joint-dissipativity set, which is verified first.

    The shift alpha ranges over the negative real eigenvalues of the
    transposed operator: the stacked pencil can only lose rank at an
    eigenvalue, so scanning the spectrum is exhaustive.  Complex eigenvalues
    with negative real part are tested on the complex pencil and reported in
    ``complex_points``.  ``explicit_points`` adds user-chosen (lam, alpha)
    evaluations to the report (for N1 the lam entry is ignored).

    Raises
    ------
    DomainError
        For an unknown condition tag, or an N2 lambda outside the accepted
        joint-dissipativity set.
    """
    if condition not in CONDITION_TAGS:
        raise DomainError(f"condition must be one of {CONDITION_TAGS}, got {condition!r}")
    B_T = sys.B.T
    if condition == "N1":
        operators = [(0.0, sys.A)]
    else:
        lams = [float(l) for l in lambdas]
        if not lams:
            raise DomainError("N2 requires a non-empty lambda list")
        C = sys.C
        for pt in lambda_set(sys, lams, cfg):
            if not pt.in_set:
                raise DomainError(
                    f"lambda={pt.lam} is outside the joint-dissipativity set "
                    f"(margin {pt.margin:.3e})"
                )
        operators = [(lam, sys.A + lam * C) for lam in lams]

    points: list[HautusPoint] = []
    complex_points: list[HautusPoint] = []
    best = None  # (sigma, S0, alpha, point) at the most violated real point

    def scan(lam, S0, alpha):
        nonlocal best
        sigma = _sigma_min(S0, alpha)
        violated = sigma <= cfg.rank_tol
        points.append(HautusPoint(lam, alpha, sigma, violated))
        if violated and (best is None or sigma < best[0]):
            best = (sigma, S0, alpha, points[-1])

    for lam, M in operators:
        M_T = M.T
        S0 = np.vstack([M_T, B_T])
        real_alphas, complex_alphas = _real_shift_candidates(M_T, cfg.zero_tol)
        for alpha in real_alphas:
            scan(lam, S0, float(alpha))
        for ev in complex_alphas:
            sigma = _sigma_min(S0, ev)
            complex_points.append(
                HautusPoint(lam, float(ev.real), sigma, sigma <= cfg.rank_tol, float(ev.imag))
            )

    for lam, alpha in explicit_points or ():
        lam, M = (0.0, sys.A) if condition == "N1" else (float(lam), sys.A + float(lam) * sys.C)
        scan(lam, np.vstack([M.T, B_T]), float(alpha))

    points.sort(key=lambda p: (p.lam, p.alpha))
    report = HautusReport(condition=condition, points=points, complex_points=complex_points)
    if best is not None:
        _, S0, alpha, report.witness_point = best
        report.witness = _witness(S0, alpha)
    return report


def _orth_basis(M: np.ndarray, rank_tol: float) -> np.ndarray:
    """Orthonormal basis of the column span, columns ordered by descending
    singular value; threshold is rank_tol times the largest singular value."""
    if M.size == 0:
        return np.zeros((M.shape[0], 0))
    u, svals, _ = np.linalg.svd(M, full_matrices=False)
    if svals.size == 0 or svals[0] == 0.0:
        return np.zeros((M.shape[0], 0))
    rank = int(np.sum(svals > rank_tol * svals[0]))
    return u[:, :rank]


def _null_basis(M: np.ndarray, tol: float, relative: bool = True) -> np.ndarray:
    """Orthonormal basis of the (right) null space.

    With ``relative`` the threshold is tol times the largest singular value
    (scale-free kernels); otherwise tol is an absolute residual bound, which
    is what the invariant-subspace sweep needs on its pre-scaled residuals.
    """
    if M.shape[1] == 0:
        return np.zeros((M.shape[1], 0))
    _, svals, vh = np.linalg.svd(M)
    if svals.size == 0 or svals[0] == 0.0:
        return np.eye(M.shape[1])
    threshold = tol * svals[0] if relative else tol
    n_small = int(np.sum(svals <= threshold)) + max(0, M.shape[1] - len(svals))
    if n_small == 0:
        return np.zeros((M.shape[1], 0))
    return vh[len(vh) - n_small :].T


@_one_blas_thread()
def strict_invariant_subspace(
    A,
    C,
    B,
    cfg: ToleranceConfig = ToleranceConfig(),
) -> SubspaceBasis:
    """Largest subspace V of Ker B^T with A^T V contained in span{V, C^T V}.

    Fixed-point iteration from V0 = Ker B^T: at each sweep, keep the vectors
    of V whose image under A^T projects entirely onto span{V, C^T V}, i.e.
    the null space of (I - P) A^T V where P projects onto that span.  The
    dimension is non-increasing and stabilises in at most n sweeps; the
    trivial subspace (dim 0) is a valid outcome.  Numerical membership uses
    a singular-value threshold of rank_tol times the largest singular value.
    """
    A = as_matrix(A, "A")
    C = as_matrix(C, "C")
    B = as_matrix(B, "B")
    n = A.shape[0]
    if A.shape != (n, n) or C.shape != (n, n) or B.shape[0] != n:
        raise DimensionError("A, C must be n x n and B must have n rows")

    V = _null_basis(B.T, cfg.rank_tol)
    while V.shape[1] > 0:
        span = _orth_basis(np.hstack([V, C.T @ V]), cfg.rank_tol)
        image = A.T @ V
        resid = image - span @ (span.T @ image)
        scale = max(np.linalg.norm(image, 2), 1.0)
        coeff_null = _null_basis(resid / scale, cfg.rank_tol, relative=False)
        if coeff_null.shape[1] == V.shape[1]:
            break
        V = V @ coeff_null
    return SubspaceBasis(V)


def commuting_case_check(
    sys: StochasticSystem,
    cfg: ToleranceConfig = ToleranceConfig(),
) -> Optional[bool]:
    """Controllability shortcut when B commutes with both A and C.

    Hypotheses require a square B (m = n) with B^T A^T = A^T B^T and
    B^T C^T = C^T B^T up to zero_tol times the norm products.  When they
    hold, approximate controllability is equivalent to surjectivity of B,
    so the answer is rank(B) = n.  Returns None when the hypotheses fail.
    """
    if sys.m != sys.n:
        return None
    A, B, C = sys.A, sys.B, sys.C
    nA = np.linalg.norm(A, 2)
    nB = np.linalg.norm(B, 2)
    nC = np.linalg.norm(C, 2)
    if np.linalg.norm(B.T @ A.T - A.T @ B.T, 2) > cfg.zero_tol * nA * nB:
        return None
    if np.linalg.norm(B.T @ C.T - C.T @ B.T, 2) > cfg.zero_tol * nB * nC:
        return None
    svals = np.linalg.svd(B, compute_uv=False)
    rank = int(np.sum(svals > cfg.rank_tol * max(svals[0], 1.0))) if svals.size else 0
    return rank == sys.n


# (subspace trivial, N1 and N2 passed) -> (verdict, consistency_warning)
_VERDICT_RULE = {
    (True, True): (APPROX_CONTROLLABLE, False),
    # a violated necessary condition contradicts the trivial subspace:
    # mathematically impossible, numerically conceivable
    (True, False): (NOT_APPROX_CONTROLLABLE, True),
    (False, True): (NOT_APPROX_CONTROLLABLE, True),
    (False, False): (NOT_APPROX_CONTROLLABLE, False),
}


@dataclass
class ControllabilityVerdict:
    """Combined outcome of the geometric and Hautus-type tests.

    The invariant-subspace criterion is the finite-dimensional ground truth,
    and the necessary conditions N1 and N2 must agree with it.  ``verdict``
    and ``consistency_warning`` come from ``_VERDICT_RULE``, keyed by
    (subspace trivial, N1 and N2 passed); N2 counts as passed when no lambda
    is accepted:

        (True, True)   -> ApproxControllable, warning=False
        (True, False)  -> NotApproxControllable, warning=True
        (False, True)  -> NotApproxControllable, warning=True
        (False, False) -> NotApproxControllable, warning=False

    The warning marks the two mixed cases: a trivial subspace with a
    violated condition (a numerical contradiction), and a nontrivial
    subspace with every condition passing (legitimate, since the conditions
    are one-sided; the warning surfaces the asymmetry).
    """

    invariant_subspace_dim: int
    n1_passed: bool
    n2_passed: bool
    commuting_case: Optional[bool]
    verdict: str
    consistency_warning: bool
    subspace: SubspaceBasis
    n1_report: HautusReport
    n2_report: Optional[HautusReport]
    lambdas_used: list[float]


@_one_blas_thread()
def verdict(
    sys: StochasticSystem,
    lambdas: Sequence[float],
    cfg: ToleranceConfig = ToleranceConfig(),
) -> ControllabilityVerdict:
    """Run every test and assemble a combined verdict.

    The N2 scan runs over the subset of ``lambdas`` accepted by the
    joint-dissipativity test (the condition only quantifies over that set);
    rejected grid values are simply dropped here, while calling
    :func:`check_condition` directly with a rejected value raises.
    """
    lambdas = [float(l) for l in lambdas]
    sub = strict_invariant_subspace(sys.A, sys.C, sys.B, cfg)
    n1 = check_condition(sys, [], "N1", cfg)
    accepted = [p.lam for p in lambda_set(sys, lambdas, cfg) if p.in_set] if lambdas else []
    n2 = check_condition(sys, accepted, "N2", cfg) if accepted else None
    commuting = commuting_case_check(sys, cfg)

    n1_passed = n1.passed
    n2_passed = n2.passed if n2 is not None else True
    tag, warn = _VERDICT_RULE[sub.dim == 0, n1_passed and n2_passed]

    return ControllabilityVerdict(
        invariant_subspace_dim=sub.dim,
        n1_passed=n1_passed,
        n2_passed=n2_passed,
        commuting_case=commuting,
        verdict=tag,
        consistency_warning=warn,
        subspace=sub,
        n1_report=n1,
        n2_report=n2,
        lambdas_used=accepted,
    )
