"""Algebraic controllability and observability tests.

Two families of checks live here.  Hautus-type tests measure how close the
pencil [(A + lam*C)^T - alpha*I; B^T] comes to losing rank at each
eigenvalue alpha of the transposed operator; a rank-deficient pencil
certifies an unobservable direction and hence non-controllability.  The
geometric test computes the largest subspace V of Ker B^T that is strictly
invariant, meaning A^T V is contained in span{V, C^T V}; the system is
approximately controllable (finite-dimensional criterion) exactly when that
subspace is trivial.

The public entry points (``verdict``, ``check_condition``,
``strict_invariant_subspace`` and ``kalman_hautus_rank``) run on one
OpenBLAS thread: at n = 128 a second thread makes an eigen-decomposition or
a small SVD slower, up to several times.  The previous thread count is
restored when the call returns or raises.  Under a BLAS that is not
OpenBLAS the pool is left alone.

``verdict`` instead runs on two Python threads.  Once it has decided the
accepted lambdas, ``systems._offload`` hands the eigen-decompositions of
A^T and of each accepted (A + lam C)^T, last first, to the helper, a
one-worker ``ThreadPoolExecutor``, while the calling thread runs the
subspace sweep; the N1 and N2 scans then run on the calling thread and
claim the decompositions in order through their Futures, running any the
helper has not begun.
Every public function, and so every span a tracer wraps around one, runs
on the calling thread; the helper runs only ``_spectrum``.  Each job runs
whole on one OpenBLAS thread, so the report does not depend on which
thread ran it.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .exceptions import DomainError
from .systems import (
    StochasticSystem,
    SubspaceBasis,
    ToleranceConfig,
    _offload,
    _one_blas_thread,
    as_array,
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


@dataclass(frozen=True)
class HautusPoint:
    lam: float
    alpha: float
    sigma_min: float
    violated: bool
    # nonzero only at a complex eigenvalue; such findings sit outside the
    # real-alpha condition and are reported separately
    alpha_im: float = 0.0


@dataclass
class HautusReport:
    """Grid of pencil margins for one condition tag.

    ``points`` holds the real-shift scan (and any explicit user points),
    sorted by (lam, alpha).  ``complex_points`` holds findings at complex
    eigenvalue shifts, flagged apart because the underlying condition
    quantifies over real alpha only.  ``witness`` is a unit vector in the
    pencil's near-null space at ``witness_point``, the first violated point,
    when one exists: the eigenvector there, or the pencil's singular vector.
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


_ROUNDOFF = 16 * np.finfo(float).eps


def _negligible(margin: float, scale: float) -> bool:
    """The one round-off rule of the one-shot rank decisions: a margin at or
    below 16 eps times its scale is round-off, so the matrix is taken to lose
    rank there.  Each caller states its scale; only the iterated subspace
    sweep judges by ``_SWEEP_TOL`` instead."""
    return bool(margin <= _ROUNDOFF * scale)


def _pencil(M_T: np.ndarray, B_T: np.ndarray, alpha: complex):
    """(sigma_min, its unit right-singular vector, ||S||_2) of the pencil
    S = [M^T - alpha I; B^T]."""
    S = np.vstack([M_T - alpha * np.eye(len(M_T)), B_T])
    _, s, vh = np.linalg.svd(S, full_matrices=False)
    return float(s[-1]), vh[-1].conj(), float(s[0])


def _spectrum(M_T: np.ndarray):
    """(eigenvalues, unit eigenvectors, ||M||, clusters) of M^T from one
    eigen-decomposition: ``eigh`` when M^T is exactly symmetric, so every
    condition number kappa is 1, else ``eig`` with kappa from the inverse
    eigenvector matrix.  ||M|| is sqrt(||M||_1 ||M||_inf), a bound on ||M||_2
    that takes no SVD.  Eigenvalues closer than 32 eps ||M|| kappa, kappa the
    smaller of the pair's, are within round-off of each other.  Chains of
    such pairs form one cluster, a repeated or defective eigenvalue, given as
    (member indices, gap to the rest of the spectrum).
    """
    norm_M = np.sqrt(np.linalg.norm(M_T, 1) * np.linalg.norm(M_T, np.inf))
    if np.array_equal(M_T, M_T.T):
        ev, V = np.linalg.eigh(M_T)
        kappa = np.ones(len(ev))
    else:
        ev, V = np.linalg.eig(M_T)
        try:
            left = np.linalg.inv(V)
        except np.linalg.LinAlgError:  # exactly coincident eigenvectors
            left = np.linalg.pinv(V)
        with np.errstate(over="ignore"):
            kappa = np.linalg.norm(left, axis=1)  # 1 / |y^H v| for the left y
    dist = np.abs(ev[:, None] - ev)
    near = dist <= 2 * _ROUNDOFF * norm_M * np.minimum(kappa[:, None], kappa)
    label = np.arange(len(ev))
    while True:  # each eigenvalue takes the least label of its cluster
        reach = np.where(near, label, len(ev)).min(axis=1)
        if (reach >= label).all():
            break
        label = np.minimum(reach, label)
    outside = np.where(label[:, None] == label, np.inf, dist).min(axis=1)
    clusters = [np.flatnonzero(label == k)  # one least index per cluster
                for k in np.flatnonzero(label == np.arange(len(ev)))]
    return ev, V, norm_M, [(members, outside[members].min()) for members in clusters]


def _spectral_points(M_T: np.ndarray, B_T: np.ndarray, lam: float = 0.0, spectrum=None):
    """(HautusPoint, w) per cluster of ``spectrum``, by default ``_spectrum(M_T)``.

    A simple eigenvalue's sigma is |B^T w| for its unit eigenvector w, on the
    scale ||B||_2 (1 + ||M|| / gap) of w's round-off.  A cluster is tested on
    the pencil at its mean, net of its radius: an uncontrolled member's
    eigenvector leaves sigma at most its distance from the mean.  A point is
    real (alpha_im = 0) when its eigenvalues are their own conjugates.
    """
    ev, V, norm_M, clusters = _spectrum(M_T) if spectrum is None else spectrum
    norm_B = np.linalg.norm(B_T, 2)
    out = []
    for members, gap in clusters:
        if len(members) > 1:
            cluster = ev[members]
            alpha = cluster.mean()
            if cluster.imag.min() <= 0 <= cluster.imag.max():
                alpha = alpha.real
            sigma, w, scale = _pencil(M_T, B_T, alpha)
            flag = _negligible(sigma - np.abs(cluster - alpha).max(), scale)
        else:  # scalars only: numpy reductions cost more than the product here
            alpha, w = ev[members[0]], V[:, members[0]]
            alpha = alpha.real if alpha.imag == 0 else alpha
            sigma = float(np.linalg.norm(B_T @ w))
            flag = _negligible(sigma, norm_B * (1.0 + norm_M / gap))
        out.append((HautusPoint(lam, float(alpha.real), sigma, flag, float(alpha.imag)),
                    w.real))
    return out


@_one_blas_thread()
def kalman_hautus_rank(A, B, s_samples: Sequence[complex] = ()) -> tuple[bool, float]:
    """Deterministic Hautus rank test of the pair (A, B).

    The pencil [s I - A^T; B^T] can lose rank only at an eigenvalue of A^T,
    so one eigen-decomposition covers every s; each supplied sample adds one
    pencil SVD.  Full rank everywhere is the classical controllability
    condition.  Flags follow ``_negligible``.

    Returns
    -------
    (full_rank_everywhere, min_sigma)
    """
    sys = StochasticSystem(A, B)
    A, B = sys.A, sys.B
    found = [(p.sigma_min, p.violated) for p, _ in _spectral_points(A.T, B.T)]
    for s in s_samples:
        sigma, _, scale = _pencil(A.T, B.T, complex(s))
        found.append((sigma, _negligible(sigma, scale)))
    return not any(v for _, v in found), min((s for s, _ in found), default=float("inf"))


@_one_blas_thread()
def check_condition(
    sys: StochasticSystem,
    lambdas: Sequence[float],
    condition: str,
    cfg: ToleranceConfig = ToleranceConfig(),
    explicit_points: Optional[Sequence[tuple[float, float]]] = None,
    *,
    _spectra: Optional[Sequence] = None,
) -> HautusReport:
    """Scan a Hautus-type necessary condition for approximate controllability.

    condition = "N1": the pencil is [A^T - alpha I; B^T]; lambdas is ignored
    (the drift operator alone is tested).  condition = "N2": for each lam in
    ``lambdas`` the pencil is [(A + lam*C)^T - alpha I; B^T]; every lam must
    belong to the joint-dissipativity set, which is verified first.

    The pencil can only lose rank at an eigenvalue of the operator, so one
    eigen-decomposition per operator is exhaustive: each real negative
    eigenvalue is a point, with sigma_min = |B^T v| for its unit eigenvector
    v, or the pencil's sigma_min at a repeated or defective one; complex
    ones go to ``complex_points``.  ``explicit_points`` adds (lam, alpha) pencil
    evaluations (for N1 the lam entry is ignored).  Flags follow
    ``_negligible``; ``cfg`` enters only the lambda test.

    ``_spectra`` is :func:`verdict`'s: one claim (``systems._offload``) per
    operator, in order, returning that operator's ``_spectrum``.  Its lambdas
    are the ones verdict accepted, so the lambda test is not repeated.

    Raises
    ------
    DomainError
        For an unknown condition tag, a non-finite explicit point, or an N2
        lambda, listed or explicit, outside the accepted joint-dissipativity set.
    """
    if condition not in CONDITION_TAGS:
        raise DomainError(f"condition must be one of {CONDITION_TAGS}, got {condition!r}")
    explicit_points = as_array(explicit_points or np.empty((0, 2)), 2, "explicit_points").tolist()
    B_T = sys.B.T
    if condition == "N1":
        operators = [(0.0, sys.A)]
    else:
        lams = [float(l) for l in lambdas]
        if not lams:
            raise DomainError("N2 requires a non-empty lambda list")
        C = sys.C
        if _spectra is None:  # else verdict has accepted every lambda already
            for pt in lambda_set(sys, lams + [lam for lam, _ in explicit_points], cfg):
                if not pt.in_set:
                    raise DomainError(
                        f"lambda={pt.lam} is outside the joint-dissipativity set "
                        f"(margin {pt.margin:.3e})"
                    )
        operators = [(lam, sys.A + lam * C) for lam in lams]

    spectra = ([claim() for claim in _spectra] if _spectra is not None
               else [_spectrum(M.T) for _, M in operators])
    found = [(p, w) for (lam, M), spectrum in zip(operators, spectra)
             for p, w in _spectral_points(M.T, B_T, lam, spectrum)
             if p.alpha < 0 and p.alpha_im >= 0]  # one of each conjugate pair
    for lam, alpha in explicit_points:
        lam, M = (0.0, sys.A) if condition == "N1" else (lam, sys.A + lam * sys.C)
        sigma, w, scale = _pencil(M.T, B_T, alpha)
        found.append((HautusPoint(lam, alpha, sigma, _negligible(sigma, scale)), w))
    found.sort(key=lambda pw: (pw[0].lam, pw[0].alpha, pw[0].alpha_im))

    report = HautusReport(condition=condition,
                          points=[p for p, _ in found if p.alpha_im == 0],
                          complex_points=[p for p, _ in found if p.alpha_im > 0])
    # the first violated real point in (lam, alpha) order: round-off in the
    # flagged sigmas cannot move this choice
    report.witness_point, report.witness = next(
        ((p, w / np.linalg.norm(w)) for p, w in found if p.violated and p.alpha_im == 0),
        (None, None))
    return report


# The subspace sweep's rank threshold, relative to each matrix's scale.  The
# sweep's round-off compounds from sweep to sweep, so the scans' 16 eps rule
# is too tight here: under it the C = 0 parity system loses its N/2
# invariant even modes already at N = 8 and 16.
_SWEEP_TOL = 1e-9


def _split(M: np.ndarray, tol: float, scale: Optional[float] = None):
    """(range basis, null basis, row-space basis) of M from one SVD.

    Singular values at or below tol times ``scale`` (default: the largest one)
    count as zero.  The orthonormal range and row-space bases are the left and
    right singular vectors of the others, the null basis the remaining right.
    """
    u, s, vh = np.linalg.svd(M)
    threshold = tol * (s.max(initial=0.0) if scale is None else scale)
    rank = int(np.sum(s > threshold))
    return u[:, :rank], vh[rank:].T, vh[:rank].T


@_one_blas_thread()
def strict_invariant_subspace(A, C, B) -> SubspaceBasis:
    """Largest subspace V of Ker B^T with A^T V contained in span{V, C^T V}.

    Fixed-point iteration from V0 = Ker B^T: at each sweep, keep the vectors
    of V whose image under A^T projects entirely onto span{V, C^T V}, i.e.
    the null space of (I - P) A^T V where P projects onto that span.  The
    dimension is non-increasing and stabilises in at most n sweeps; the
    trivial subspace (dim 0) is a valid outcome.  Singular values count as
    zero at or below ``_SWEEP_TOL`` times the largest one, and the residual's
    at or below ``_SWEEP_TOL`` times max(||A^T V||_2, 1).

    One-step exit: with Q the basis of Range B from V0's SVD, s = sigma_min of
    (I - QQ^T) C Q and c^2 = ||C||_1 ||C||_inf, so s <= ||C||_2 <= c, a unit
    x = Qa + V0 b has |[V0, C^T V0]^T x|^2 >= |b|^2 + (s|a| - c|b|)_+^2 >=
    s^2 / (1 + s^2 + c^2), and ||[V0, C^T V0]||^2 <= 1 + c^2.  So if s > 2
    ``_SWEEP_TOL`` (1 + c^2), the first sweep's span is R^n, its residual is
    round-off, and it keeps V0: V0 returns at once.  C = 0 (s = 0) never exits.
    """
    sys = StochasticSystem(A, B, C=C)
    A, B, C = sys.A, sys.B, sys.C
    _, V, Q = _split(B.T, _SWEEP_TOL)
    s = np.linalg.svd(C @ Q - Q @ (Q.T @ C @ Q), compute_uv=False).min(initial=np.inf)
    if s > 2 * _SWEEP_TOL * (1.0 + np.linalg.norm(C, 1) * np.linalg.norm(C, np.inf)):
        return SubspaceBasis(V)
    while V.shape[1] > 0:
        span, _, _ = _split(np.hstack([V, C.T @ V]), _SWEEP_TOL)
        image = A.T @ V
        resid = image - span @ (span.T @ image)
        scale = max(np.linalg.norm(image, 2), 1.0)
        _, coeff_null, _ = _split(resid / scale, _SWEEP_TOL, 1.0)  # pre-scaled
        if coeff_null.shape[1] == V.shape[1]:
            break
        V = V @ coeff_null
    return SubspaceBasis(V)


def commuting_case_check(sys: StochasticSystem) -> Optional[bool]:
    """Controllability shortcut when B commutes with both A and C.

    Hypotheses require a square B (m = n) with B^T A^T = A^T B^T and
    B^T C^T = C^T B^T, each commutator taken as zero when it is
    ``_negligible`` on n ||A||_2 ||B||_2 (resp. n ||B||_2 ||C||_2), the
    forward error bound of a matrix product.  When they hold, approximate
    controllability is equivalent to surjectivity of B, so the answer is
    rank(B) = n, counting the singular values that are not ``_negligible``
    on ||B||_2.  Returns None when the hypotheses fail.
    """
    n = sys.n
    if sys.m != n:
        return None
    A, B, C = sys.A, sys.B, sys.C
    svals = np.linalg.svd(B, compute_uv=False)
    nB = svals.max(initial=0.0)
    for M in (A, C):
        if not _negligible(np.linalg.norm(B.T @ M.T - M.T @ B.T, 2),
                           n * np.linalg.norm(M, 2) * nB):
            return None
    return sum(not _negligible(s, nB) for s in svals) == n


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
    :func:`check_condition` directly with a rejected value raises.  The set
    is decided once.  A one-worker ``ThreadPoolExecutor`` computes the
    spectra of A^T and of each accepted (A + lam C)^T beside the subspace
    sweep; the scans then claim them here, as the module docstring says.
    """
    lambdas = [float(l) for l in lambdas]
    accepted = [p.lam for p in lambda_set(sys, lambdas, cfg) if p.in_set] if lambdas else []
    A, C = sys.A, sys.C
    helper = ThreadPoolExecutor(max_workers=1)
    try:
        spectra = _offload(helper, [(_spectrum, M.T)
                                    for M in [A] + [A + lam * C for lam in accepted]])
        sub = strict_invariant_subspace(A, C, sys.B)
        n1 = check_condition(sys, [], "N1", cfg, _spectra=spectra[:1])
        n2 = check_condition(sys, accepted, "N2", cfg, _spectra=spectra[1:]) if accepted else None
    finally:
        helper.shutdown(cancel_futures=True)
    commuting = commuting_case_check(sys)

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
