"""Finite-dimensional stochastic linear systems and basic operator calculus.

The central object is the matrix triple (A, B, C) of the controlled linear
SDE ``dX = (A X + B u) dt + C X dW`` with a one-dimensional Brownian motion.
The noise operator is carried as a split C = C1 + C2 (stiff part / bounded
part); at finite dimension the split is bookkeeping, but it determines which
part enters the joint-dissipativity test.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exceptions import DimensionError, DomainError, NumericsError, SingularResolventError

__all__ = [
    "ToleranceConfig",
    "StochasticSystem",
    "SubspaceBasis",
    "LambdaPoint",
    "is_dissipative",
    "lambda_set",
    "yosida",
    "semigroup_apply",
]


def as_array(x, ndim: int, name: str, square: bool = False) -> np.ndarray:
    """Coerce to a finite float64 array of ``ndim`` dimensions, square if
    asked; always a fresh copy, so callers and callees never alias each
    other's data."""
    x = np.array(x, dtype=float)
    if x.ndim != ndim:
        raise DimensionError(f"{name} must be {ndim}-D, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise DomainError(f"{name} contains non-finite entries")
    if square and x.shape[0] != x.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {x.shape}")
    return x


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


# blocks inside _one_blas_thread, and the count the last one out restores
_pinned = {"blocks": 0, "before": None}
_pin_lock = threading.Lock()


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block on one OpenBLAS thread and restore the previous count
    after it, also when it raises; does nothing without OpenBLAS.

    The count is one setting for the whole process, so nested blocks and
    blocks on other threads (concurrent sweeps) share one pin: the first in
    sets one thread and the last out restores the count it found.
    """
    pool = _blas_threads()
    if pool is None:
        yield
        return
    get, set_ = pool
    with _pin_lock:
        if not _pinned["blocks"]:
            _pinned["before"] = get()
            set_(1)
        _pinned["blocks"] += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pinned["blocks"] -= 1
            if not _pinned["blocks"]:
                set_(_pinned["before"])


def _offload(pool, jobs):
    """Submit each job ``(fn, *args)`` to the one-worker ``pool``, last first,
    and return one claim per job, in order.  A claim runs its job here if
    ``Future.cancel`` succeeds, that is if the helper has not begun it, else
    waits for the helper's run; it returns the result or re-raises.  So the
    helper works from the back while the caller claims from the front, and
    each job runs whole on one thread."""
    def claim(fn, args, future):
        return lambda: fn(*args) if future.cancel() else future.result()

    futures = [pool.submit(*job) for job in reversed(jobs)][::-1]
    return [claim(fn, args, future) for (fn, *args), future in zip(jobs, futures)]


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical thresholds of the dissipativity and ellipticity tests.

    psd_tol   semidefiniteness slack (>= 0)
    eps_a     offset above 1/2 used in the joint-dissipativity test (> 0)

    Rank and nullity decisions take no setting: the Hautus scans,
    b-coeffs and the commuting check judge round-off on a scale worked out
    from their inputs, and the invariant-subspace sweep uses a fixed
    relative threshold of its own.
    """

    psd_tol: float = 1e-10
    eps_a: float = 1e-6

    def __post_init__(self):
        if self.psd_tol < 0:
            raise DomainError("psd_tol must be >= 0")
        if self.eps_a <= 0:
            raise DomainError("eps_a must be > 0")


class StochasticSystem:
    """Matrix data (A, B, C1, C2) of a controlled linear SDE.

    Parameters
    ----------
    A : (n, n) array
        Drift operator.
    B : (n, m) array
        Control operator.
    C1, C2 : (n, n) array, optional
        Split of the noise operator; missing parts default to zero.
    C : (n, n) array, optional
        Shorthand for C1 = C, C2 = 0.  Mutually exclusive with C1/C2.
    gamma : float
        Singularity exponent metadata in [0, 1/2); informational at finite
        dimension.

    The full noise operator is always obtained through the ``C`` property,
    never stored redundantly.
    """

    def __init__(self, A, B, C1=None, C2=None, *, C=None, gamma: float = 0.0):
        A = as_array(A, 2, "A", square=True)
        n = A.shape[0]
        B = as_array(B, 2, "B")
        if B.shape[0] != n:
            raise DimensionError(f"B must have {n} rows, got {B.shape[0]}")
        if C is not None:
            if C1 is not None or C2 is not None:
                raise DomainError("pass either C or the C1/C2 split, not both")
            C1 = C
        C1 = np.zeros((n, n)) if C1 is None else as_array(C1, 2, "C1", square=True)
        C2 = np.zeros((n, n)) if C2 is None else as_array(C2, 2, "C2", square=True)
        if C1.shape[0] != n or C2.shape[0] != n:
            raise DimensionError("C1 and C2 must be n x n")
        if not (0.0 <= gamma < 0.5):
            raise DomainError(f"gamma must lie in [0, 1/2), got {gamma}")
        for M in (A, B, C1, C2):
            M.setflags(write=False)
        self.A = A
        self.B = B
        self.C1 = C1
        self.C2 = C2
        self.gamma = float(gamma)
        self.n = n
        self.m = B.shape[1]

    @property
    def C(self) -> np.ndarray:
        """Full noise operator C1 + C2."""
        return self.C1 + self.C2

    def __repr__(self):
        return f"StochasticSystem(n={self.n}, m={self.m}, gamma={self.gamma})"


class SubspaceBasis:
    """Orthonormal basis of a linear subspace; dim = 0 encodes {0}."""

    #: columns of ``basis`` must be orthonormal within this tolerance
    ORTHO_TOL = 1e-10

    def __init__(self, basis: np.ndarray):
        basis = as_array(basis, 2, "basis")
        dim = basis.shape[1]
        if dim > 0:
            gram = basis.T @ basis
            if np.max(np.abs(gram - np.eye(dim))) > self.ORTHO_TOL:
                raise DomainError("basis columns are not orthonormal")
        basis.setflags(write=False)
        self.basis = basis
        self.dim = dim

    def contains(self, v: np.ndarray, tol: float) -> bool:
        """Whether v lies in the subspace up to relative residual tol."""
        v = as_array(v, 1, "vector")
        nv = np.linalg.norm(v)
        if nv == 0.0:
            return True
        resid = v - self.basis @ (self.basis.T @ v)
        return np.linalg.norm(resid) <= tol * nv

    def __repr__(self):
        return f"SubspaceBasis(dim={self.dim}, n={self.basis.shape[0]})"


def is_dissipative(M, tol: float = 0.0) -> bool:
    """Whether <Mx, x> <= tol |x|^2 for all x.

    Decided through the top eigenvalue of the symmetric part (M + M^T)/2,
    which is exactly equivalent at finite dimension.
    """
    M = as_array(M, 2, "M", square=True)
    if tol < 0:
        raise DomainError("tol must be >= 0")
    sym = 0.5 * (M + M.T)
    return bool(np.linalg.eigvalsh(sym)[-1] <= tol)


@dataclass(frozen=True)
class LambdaPoint:
    """One grid point of the joint-dissipativity set scan.

    ``margin`` is the top eigenvalue of sym(A + lam*C1) + (1/2 + eps_a) C1^T C1;
    membership means margin <= psd_tol.  ``boundary`` flags margins inside
    [-psd_tol, psd_tol], where membership is decided by convention.
    """

    lam: float
    in_set: bool
    margin: float
    boundary: bool


@_one_blas_thread()
def lambda_set(
    sys: StochasticSystem,
    lambda_grid: Sequence[float],
    cfg: ToleranceConfig = ToleranceConfig(),
) -> list[LambdaPoint]:
    """Scan a grid of real lambda for joint dissipativity of (A, C1).

    A value lambda is accepted when A + lambda*C1 + a*C1^T C1 is dissipative
    at a = 1/2 + eps_a.  Testing this single value suffices: the quadratic
    form is monotone in a (C1^T C1 is PSD), so existence of an admissible
    a > 1/2 is equivalent to admissibility at the infimum plus the offset.
    """
    grid = [float(lam) for lam in lambda_grid]
    if not grid:
        raise DomainError("lambda_grid must be non-empty")
    if not all(np.isfinite(grid)):
        raise DomainError("lambda_grid entries must be finite")
    A, C1 = sys.A, sys.C1
    gram = C1.T @ C1
    a = 0.5 + cfg.eps_a
    out = []
    for lam in grid:
        M = A + lam * C1
        sym = 0.5 * (M + M.T) + a * gram
        margin = float(np.linalg.eigvalsh(sym)[-1])
        out.append(
            LambdaPoint(
                lam=lam,
                in_set=margin <= cfg.psd_tol,
                margin=margin,
                boundary=abs(margin) <= cfg.psd_tol,
            )
        )
    return out


def yosida(A, nres: int) -> tuple[np.ndarray, np.ndarray]:
    """Resolvent smoother J = n (nI - A)^{-1} and approximant An = J A.

    For dissipative A the resolvent exists for every nres >= 1, ||J|| <= 1,
    An is again dissipative, and An x -> A x as nres grows.
    """
    A = as_array(A, 2, "A", square=True)
    if nres < 1:
        raise DomainError("nres must be a positive integer")
    n = A.shape[0]
    R = nres * np.eye(n) - A
    try:
        J = np.linalg.solve(R, nres * np.eye(n))
    except np.linalg.LinAlgError as exc:
        raise SingularResolventError(
            f"resolvent ({nres} I - A) is singular; A may not be dissipative "
            f"or nres={nres} is too small"
        ) from exc
    return J, J @ A


def semigroup_apply(A, t: float, x) -> np.ndarray:
    """Evaluate exp(t A) x by scaling-and-squaring matrix exponential."""
    A = as_array(A, 2, "A", square=True)
    x = as_array(x, 1, "x")
    if x.shape[0] != A.shape[0]:
        raise DimensionError("x length must match A")
    if not np.isfinite(t) or t < 0:
        raise DomainError(f"t must be a finite nonnegative real, got {t}")
    return _expm(t * A) @ x


def _expm(M: np.ndarray) -> np.ndarray:
    """exp(M) by scipy's scaling and squaring.  Every matrix exponential of
    the kit goes through here, and scipy is imported on the first one: its
    import costs more than most subcommands, and only ``convergence``,
    :func:`semigroup_apply` and ``BsdeSolution.y_exact`` need it.  A result
    that overflowed raises, so that no gap is read from inf - inf."""
    import scipy.linalg

    E = scipy.linalg.expm(M)
    if not np.all(np.isfinite(E)):
        raise NumericsError("matrix exponential overflowed the double range")
    return E
