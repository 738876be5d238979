"""Spectral Galerkin assembly of 1-D heat-type systems on (0, 1).

Everything is expressed in the orthonormal Dirichlet sine basis
e_k(x) = sqrt(2) sin(k pi x).  Two builders are provided: the
projection-noise model (rank-one noise on the first mode, diagonal
Laplacian drift) and the divergence-form model with variable diffusion
a(x), first-order noise coefficient c(x) and scalar control shape b(x).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .controllability import _negligible, _spectrum
from .exceptions import DimensionError, DomainError, EllipticityError, EvaluationError
from .systems import StochasticSystem, ToleranceConfig, _one_blas_thread, as_array

__all__ = [
    "HeatSystemSpec",
    "constant",
    "polynomial",
    "trigonometric",
    "assemble_example2",
    "assemble_divform_1d",
    "check_ellipticity",
    "b_coefficient_test",
    "ModeCoefficient",
]

# fixed Gauss-Legendre order per panel of the composite quadrature rule
_PANEL_ORDER = 8
_SPLIT = 32  # moments at m = _SPLIT q + r: two short exp tables, not 2N + 1 rows


def constant(value: float) -> Callable[[np.ndarray], np.ndarray]:
    """Constant coefficient x -> value."""
    return polynomial([value])


def polynomial(coeffs: Sequence[float]) -> Callable[[np.ndarray], np.ndarray]:
    """Polynomial coefficient c0 + c1 x + c2 x^2 + ..."""
    coeffs = [float(c) for c in coeffs]

    def f(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for c in reversed(coeffs):
            out = out * x + c
        return out

    return f


def trigonometric(
    offset: float = 0.0,
    sin_coeffs: Sequence[float] = (),
    cos_coeffs: Sequence[float] = (),
) -> Callable[[np.ndarray], np.ndarray]:
    """Trigonometric coefficient offset + sum_j s_j sin(j pi x) + c_j cos(j pi x)."""
    offset = float(offset)
    sin_coeffs = [float(c) for c in sin_coeffs]
    cos_coeffs = [float(c) for c in cos_coeffs]

    def f(x):
        x = np.asarray(x, dtype=float)
        out = np.full_like(x, offset)
        for j, c in enumerate(sin_coeffs, start=1):
            out += c * np.sin(j * np.pi * x)
        for j, c in enumerate(cos_coeffs, start=1):
            out += c * np.cos(j * np.pi * x)
        return out

    return f


@dataclass
class HeatSystemSpec:
    """Inputs of the divergence-form builder.

    N          truncation dimension (>= 2)
    a_fn       diffusion coefficient on (0, 1)
    c_fn       noise drift coefficient on (0, 1)
    b_fn       control shape on (0, 1)
    quad_order panel count of the composite rule of 8-node Gauss panels.
               Must be >= 2N, to resolve moments up to frequency 2N below
               1e-10 for smooth coefficients.  Defaults to max(2N, 16).
    """

    N: int
    a_fn: Callable[[np.ndarray], np.ndarray]
    c_fn: Callable[[np.ndarray], np.ndarray]
    b_fn: Callable[[np.ndarray], np.ndarray]
    quad_order: int = 0

    def __post_init__(self):
        if self.N < 2:
            raise DomainError(f"N must be >= 2, got {self.N}")
        if self.quad_order == 0:
            self.quad_order = max(2 * self.N, 16)
        if self.quad_order < 2 * self.N:
            raise DomainError(
                f"quad_order must be >= 2N = {2 * self.N}, got {self.quad_order}"
            )


def composite_gauss(n_panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite Gauss rule on (0, 1)."""
    if n_panels < 1:
        raise DomainError("n_panels must be positive")
    ref_x, ref_w = leggauss(_PANEL_ORDER)
    edges = np.linspace(0.0, 1.0, n_panels + 1)
    h = np.diff(edges)
    nodes = (edges[:-1, None] + 0.5 * h[:, None] * (ref_x[None, :] + 1.0)).ravel()
    weights = (0.5 * h[:, None] * ref_w[None, :]).ravel()
    return nodes, weights


def _moments(f: np.ndarray, nodes: np.ndarray, M: int) -> np.ndarray:
    """sum_i f[:, i] exp(i m pi x_i) for m = 0..M, shape (len(f), M + 1): cosine
    moments in the real part, sine moments in the imaginary part."""
    outer = np.exp(1j * np.pi * (_SPLIT * np.arange(M // _SPLIT + 1))[:, None] * nodes)
    inner = np.exp(1j * np.pi * np.arange(_SPLIT)[:, None] * nodes)
    return ((f[:, None, :] * outer) @ inner.T).reshape(len(f), -1)[:, :M + 1]


def _eval_coeff(fn, nodes: np.ndarray, name: str) -> np.ndarray:
    vals = np.broadcast_to(np.asarray(fn(nodes), dtype=float), nodes.shape)
    if not np.all(np.isfinite(vals)):
        raise EvaluationError(f"coefficient {name} returned non-finite values")
    return vals


def assemble_example2(N: int, b_coeffs) -> StochasticSystem:
    """Heat system with rank-one projection noise, in the sine eigenbasis.

    Drift is the Dirichlet Laplacian, A = diag(-k^2 pi^2); the noise operator
    maps any state to its first-mode component (C = e1 e1^T, a bounded
    orthogonal projection, carried in the bounded slot C2); B is the single
    control column with sine coefficients ``b_coeffs``.
    """
    if N < 2:
        raise DomainError(f"N must be >= 2, got {N}")
    b = as_array(b_coeffs, 1, "b_coeffs")
    if b.shape[0] != N:
        raise DimensionError(f"b_coeffs must have length {N}, got {b.shape[0]}")
    k = np.arange(1, N + 1, dtype=float)
    A = np.diag(-((k * np.pi) ** 2))
    C = np.zeros((N, N))
    C[0, 0] = 1.0
    return StochasticSystem(A, b.reshape(N, 1), C1=np.zeros((N, N)), C2=C)


@_one_blas_thread()
def assemble_divform_1d(
    spec: HeatSystemSpec,
    cfg: ToleranceConfig = ToleranceConfig(),
) -> StochasticSystem:
    """Galerkin truncation of the divergence-form system on (0, 1).

    Weak-form entries over the sine basis, from the quadrature moments
    alpha_m = int a cos(m pi x) dx and s_m = int c sin(m pi x) dx, m <= 2N:

        A[j, k] = -int a e_j' e_k' = -pi^2 j k (alpha_|j-k| + alpha_(j+k))
        C[j, k] =  int e_j c e_k'  =  pi k (s_(j+k) + sign(j - k) s_|j-k|)
        B[k]    =  int b e_k       =  sqrt(2) int b sin(k pi x) dx   (m = 1)

    A is exactly symmetric; C, first-order and stiff, goes into the C1 slot.
    The diffusion coefficient must pass the pointwise ellipticity floor
    (checked with c = 0 before assembling).  The moments' product runs on one
    OpenBLAS thread, as the algebra does: a pool thread left spinning would
    take the core of ``verdict``'s helper.

    Raises
    ------
    EllipticityError   if a(x) dips below -psd_tol on the check grid.
    EvaluationError    if a coefficient function produces NaN/Inf.
    """
    ok, margin = check_ellipticity(
        spec.a_fn, constant(0.0), alpha=1.0, grid_points=max(100, 4 * spec.quad_order),
        psd_tol=cfg.psd_tol,
    )
    if not ok:
        raise EllipticityError(
            f"diffusion coefficient is not nonnegative on (0,1): min a = {margin:.3e}"
        )
    nodes, weights = composite_gauss(spec.quad_order)
    f = weights * np.stack([_eval_coeff(spec.a_fn, nodes, "a"), _eval_coeff(spec.c_fn, nodes, "c"),
                            _eval_coeff(spec.b_fn, nodes, "b")])
    alpha, s, b = _moments(f, nodes, 2 * spec.N)
    k = np.arange(1, spec.N + 1)
    j, d, t = k[:, None], np.abs(k[:, None] - k), k[:, None] + k
    A = -np.pi ** 2 * (j * k) * (alpha.real[d] + alpha.real[t])
    C = np.pi * k * (s.imag[t] + np.sign(j - k) * s.imag[d])
    B = np.sqrt(2.0) * b.imag[k, None]
    return StochasticSystem(A, B, C1=C, C2=np.zeros((spec.N, spec.N)))


def check_ellipticity(
    a_fn,
    c_fn,
    alpha: float,
    grid_points: int,
    psd_tol: float = 1e-10,
) -> tuple[bool, float]:
    """Pointwise joint ellipticity a(x) - alpha c(x)^2 >= 0 on (0, 1).

    Evaluated on a uniform grid of midpoints; requires alpha > 1/2.
    Returns (ok, min_margin) with ok = (min over the grid >= -psd_tol).
    """
    if not alpha > 0.5:
        raise DomainError(f"alpha must be > 1/2, got {alpha}")
    if grid_points < 100:
        raise DomainError(f"grid_points must be >= 100, got {grid_points}")
    x = (np.arange(grid_points) + 0.5) / grid_points
    a = _eval_coeff(a_fn, x, "a")
    c = _eval_coeff(c_fn, x, "c")
    margin = float(np.min(a - alpha * c * c))
    return margin >= -psd_tol, margin


@dataclass(frozen=True)
class ModeCoefficient:
    """Projection of the control operator onto one drift eigenvector."""

    mode_index: int
    eigenvalue: float
    coefficient: float
    near_zero: bool


def b_coefficient_test(sys: StochasticSystem) -> list[ModeCoefficient]:
    """Project B onto the eigenbasis of a self-adjoint drift operator.

    A mode whose projection is (numerically) zero certifies an uncontrolled
    eigendirection: the necessary spectral condition fails and the system
    cannot be approximately controllable (Hautus 1969; Fattorini 1966).  The
    eigenpairs, clusters and ||A|| are the Hautus scans' (``_spectrum``), on
    the symmetric part of A.  A cluster's own eigenvectors are not well
    defined, so its near-zero flag is decided on the projection of B onto the
    whole cluster, ``_negligible`` on ||B||_2 (1 + ||A|| / gap), the round-off
    of a cluster at distance ``gap`` from the rest of the spectrum.

    ``coefficient`` is the signed projection for a single control column
    (m = 1) and the row norm otherwise.

    Raises
    ------
    DomainError  if ||A - A^T||_1 is not ``_negligible`` on 1 + ||A||: A is
                 not symmetric, and no orthonormal eigenbasis is assumed.
    """
    A, B = sys.A, sys.B
    eigvals, eigvecs, norm_A, clusters = _spectrum(0.5 * (A + A.T))
    if not _negligible(np.linalg.norm(A - A.T, 1), 1.0 + norm_A):
        raise DomainError("b_coefficient_test requires a symmetric drift operator")
    # descending eigenvalue order: mode 1 is the slowest direction, matching
    # the k = 1, 2, ... numbering of the sine eigenbasis
    order = np.argsort(-eigvals, kind="stable")
    proj = eigvecs[:, order].T @ B  # (n, m) rows are per-mode projections
    row_norms = np.empty(len(order))  # indexed like eigvals
    row_norms[order] = np.linalg.norm(proj, axis=1)
    b_norm = np.linalg.norm(B, 2)
    flag = np.empty(len(order), dtype=bool)
    for members, gap in clusters:
        flag[members] = _negligible(np.linalg.norm(row_norms[members]),
                                    b_norm * (1.0 + norm_A / gap))
    return [ModeCoefficient(i + 1, float(eigvals[k]),
                            float(proj[i, 0]) if sys.m == 1 else float(row_norms[k]),
                            bool(flag[k]))
            for i, k in enumerate(order)]
