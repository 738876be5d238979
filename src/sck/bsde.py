"""Dual backward equation solver and the identities built on it.

The backward equation dY = -(A^T Y + C^T Z) dt + Z dW with terminal value xi
is solved exactly for the Euler scheme.  Every terminal the kit accepts is a
polynomial of degree <= 1 in W_T, i.e. a combination of the time-space
Hermite martingales H_0 = 1 and H_1(w, t) = w.  Gaussian increments give

    E[H_j(W_{k+1}) | F_k] = H_j(W_k),   E[dW_k H_j(W_{k+1}) | F_k] = j dt H_{j-1}(W_k),

so the discrete dual Y_k = E[(I + dt A^T + C^T dW_k) Y_{k+1} | F_k] stays
Y_k = sum_j y_j(k) H_j(W_k, t_k), with deterministic coefficients obeying

    y_j(k) = (I + dt A^T) y_j(k+1) + (j+1) dt C^T y_{j+1}(k+1),

and Z_k = E[dW_k Y_{k+1} | F_k] / dt = sum_j j y_j(k+1) H_{j-1}(W_k, t_k).
The solver runs this n-vector recursion backward and evaluates Y and Z on
the paths' Brownian values at a reporting grid; no Monte Carlo estimate is
involved, and a deterministic terminal draws no noise at all.  The a-priori
energies E|Y_k|^2 = |y_0(k)|^2 + t_k |y_1(k)|^2 and E|Z_k|^2 = |y_1(k+1)|^2
are read from the coefficients alone, with no paths.  (Wiener chaos and
Hermite martingales: Nualart, The Malliavin Calculus and Related Topics, ch. 1.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .controllability import _negligible
from .exceptions import DimensionError, DomainError
from .sde import (
    Control,
    FeedbackControl,
    SimConfig,
    _bu_term,
    _check_blowup,
    _draw,
    _forward_sweep,
    _pair,
)
from .systems import StochasticSystem, _expm, as_array, as_int
from .systems import yosida as yosida_pair

__all__ = [
    "DeterministicTerminal",
    "LinearInWTTerminal",
    "BsdeSolution",
    "DualityReport",
    "AprioriSample",
    "AprioriReport",
    "ConvergenceRow",
    "ConvergenceReport",
    "solve_dual_bsde",
    "duality_check",
    "apriori_bound_check",
    "approximation_convergence",
]

_Z_MAX = 4.0  # the duality simulator gate's bound, in standard errors


@dataclass(frozen=True)
class DeterministicTerminal:
    """Terminal value Y_T = xi with a fixed vector xi."""

    xi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "xi", as_array(self.xi, 1, "xi"))


@dataclass(frozen=True)
class LinearInWTTerminal:
    """Terminal value Y_T = xi0 + xi1 * W_T."""

    xi0: np.ndarray
    xi1: np.ndarray

    def __post_init__(self):
        xi0 = as_array(self.xi0, 1, "xi0")
        xi1 = as_array(self.xi1, 1, "xi1")
        if xi0.shape != xi1.shape:
            raise DimensionError("xi0 and xi1 must have the same length")
        object.__setattr__(self, "xi0", xi0)
        object.__setattr__(self, "xi1", xi1)


Terminal = Union[DeterministicTerminal, LinearInWTTerminal]


def _hermite_terminal(terminal: Terminal) -> np.ndarray:
    """Coefficients of Y_T on (H_0, H_1)(W_T, T) = (1, W_T), one row per
    degree: a terminal's fields, in order, are its Hermite rows, so the shape
    is (1, n) for a deterministic terminal and (2, n) for a linear one."""
    if not isinstance(terminal, Terminal):
        raise DomainError(f"unsupported terminal specification: {terminal!r}")
    return np.stack(list(vars(terminal).values()))


@dataclass
class BsdeSolution:
    """Euler-exact solution on the reporting grid.

    Y, Z have shape (n_times, n_paths, n), evaluated from the Hermite
    coefficients on each path's W_t; Z at the last grid time is Z_{K-1}, the
    terminal's W_T coefficient.  A deterministic terminal gives Y the same
    on every path and Z = 0 (both read-only broadcasts), ``w`` None and the
    continuous-time closed form Y_t = exp((T-t) A^T) xi as ``y_exact``.
    Otherwise ``w`` holds the Brownian values W_t per path at the grid
    times, shape (n_paths, n_times), and ``y_exact`` is None.  ``coef``
    holds the Hermite coefficients y_j(k) at every step k = 0..K, shape
    (K + 1, degree + 1, n).
    """

    times: np.ndarray
    Y: np.ndarray
    Z: np.ndarray
    terminal: Terminal
    w: Optional[np.ndarray]
    coef: np.ndarray
    _y_exact: Optional[Callable[[], np.ndarray]] = field(default=None, repr=False,
                                                         compare=False)

    @cached_property
    def y_exact(self) -> Optional[np.ndarray]:
        """The closed form, taken on first read: it costs one matrix
        exponential per grid time, which the solve itself never needs."""
        return None if self._y_exact is None else self._y_exact()


def _regression_steps(cfg: SimConfig, n_times: int) -> np.ndarray:
    n_times = as_int(n_times, "n_regression_times", 2)
    steps = np.round(np.linspace(0, cfg.n_steps, n_times)).astype(int)
    # non-decreasing from 0: keep each step above the one before it
    return steps[np.diff(steps, prepend=-1) > 0]


def _dual_coefficients(sys: StochasticSystem, terminal: Terminal, cfg: SimConfig) -> np.ndarray:
    """Hermite coefficients y_j(k) of the Euler dual at every step k = 0..K,
    shape (K + 1, degree + 1, n), by the backward recursion of the module
    docstring; each step is checked for blow-up, which is reported at its
    backward step K - k."""
    y = _hermite_terminal(terminal)
    if y.shape[1] != sys.n:
        raise DimensionError(f"terminal dimension must equal n={sys.n}")
    K, dt = cfg.n_steps, cfg.dt
    # coefficient vectors are rows, so (I + dt A^T) y is y (I + dt A)
    F, C = _pair(sys.A, sys.C, dt)
    lift = dt * np.arange(1, len(y))[:, None]  # (j + 1) dt for j = 0..degree-1
    out = np.empty((K + 1,) + y.shape)
    out[K] = y
    for k in range(K - 1, -1, -1):
        out[k] = out[k + 1] @ F
        out[k, :-1] += lift * (out[k + 1, 1:] @ C)
        _check_blowup(out[k], K - k, dt, "dual recursion blew up at backward step")
    return out


def _brownian_at(cfg: SimConfig, steps: np.ndarray) -> np.ndarray:
    """W at each of the increasing ``steps`` (the first being 0), shape
    (len(steps), n_paths), in one pass over the noise."""
    w = np.zeros((len(steps), cfg.n_paths))
    cur, dw = np.zeros(cfg.n_paths), np.empty(cfg.n_paths)
    j = 1
    for k in range(steps[-1]):
        _draw(cfg, k, dw)
        cur += dw
        if k + 1 == steps[j]:
            w[j] = cur
            j += 1
    return w


def _semigroup(M: np.ndarray, times: np.ndarray) -> list[np.ndarray]:
    """exp(t M) at each of the times."""
    return [_expm(t * M) for t in times]


def solve_dual_bsde(
    sys: StochasticSystem,
    terminal: Terminal,
    cfg: SimConfig,
    n_regression_times: int = 11,
) -> BsdeSolution:
    """Solution of dY = -(A^T Y + C^T Z) dt + Z dW, Y_T = xi, exact for the
    Euler scheme of the forward equation.

    The Hermite coefficients come from the backward recursion; Y and Z are
    evaluated on the reporting grid of ``n_regression_times`` points.  W is
    drawn in one pass, and only when the terminal depends on W_T, from the
    same counter-based stream as every other simulation with this cfg, so
    forward and backward solutions pair pathwise.
    """
    coef = _dual_coefficients(sys, terminal, cfg)
    steps = _regression_steps(cfg, n_regression_times)
    times = cfg.dt * steps.astype(float)
    shape = (len(steps), cfg.n_paths, sys.n)
    if coef.shape[1] == 1:
        Y = np.broadcast_to(coef[steps, 0][:, None], shape)
        exact = lambda: np.stack([E @ terminal.xi for E in _semigroup(sys.A.T, cfg.T - times)])
        return BsdeSolution(times=times, Y=Y, Z=np.broadcast_to(0.0, shape),
                            terminal=terminal, w=None, coef=coef, _y_exact=exact)
    w = _brownian_at(cfg, steps)
    Y = coef[steps, 0][:, None] + w[:, :, None] * coef[steps, 1][:, None]
    # Z_k = y_1(k + 1); the last grid point carries Z_{K-1} = xi1
    Z = np.broadcast_to(coef[np.minimum(steps + 1, cfg.n_steps), 1][:, None], shape)
    return BsdeSolution(times=times, Y=Y, Z=Z, terminal=terminal, w=w.T, coef=coef)


@dataclass
class DualityReport:
    """Check of E<X_T, Y_T> = <x0, Y_0> + E int <B u_s, Y_s> ds.

    ``lhs`` and ``rhs`` are the two sides, both exact for the Euler scheme.
    ``lhs_mc`` is the path mean of <X_T, Y_T> and ``stderr`` its standard
    error, taken from the samples centred on their first value: exactly 0.0
    when every sample is identical, not the round-off of their mean.
    ``passed`` holds both gates of :func:`duality_check`.
    """

    lhs: float
    rhs: float
    lhs_mc: float
    stderr: float
    dt: float
    passed: bool
    feedback_control: bool = False


def _forward_moments(sys: StochasticSystem, x0: np.ndarray, control: Control,
                     cfg: SimConfig, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Hermite moments M_j(k) = E[H_j(W_k, t_k) X_k] of the Euler states,
    shape (K + 1, degree + 1, n), by the adjoint of the dual's recursion
    M_j(k+1) = (I + dt A) M_j(k) + j dt C M_{j-1}(k) + row_j(k); and the
    control rows row_j(k) = dt B E[H_j(W_k) u_k], shape (K, rows, n): one
    row dt B u_k for an open-loop u, dt B K M_j(k) for each j under a
    feedback u = K X, none for the zero control."""
    F, C = _pair(sys.A, sys.C, cfg.dt)
    lift = cfg.dt * np.arange(1, degree + 1)[:, None]  # j dt for j = 1..degree
    M = np.zeros((cfg.n_steps + 1, degree + 1, sys.n))
    M[0, 0] = x0
    rows = []
    for k in range(cfg.n_steps):
        bu = _bu_term(control, sys.B, k, M[k].T, cfg.dt)
        rows.append(np.zeros((0, sys.n)) if bu is None else bu.T)
        M[k + 1] = M[k] @ F.T
        M[k + 1, 1:] += lift * (M[k, :-1] @ C.T)
        M[k + 1, :len(rows[-1])] += rows[-1]
    return M, np.array(rows)


def duality_check(
    sys: StochasticSystem,
    x0,
    control: Control,
    terminal: Terminal,
    cfg: SimConfig,
) -> DualityReport:
    """Check the duality identity exactly for the Euler scheme, and the
    forward simulator against it.

    With y_j(k) the dual's coefficients and M_j(k), row_j(k) from
    :func:`_forward_moments`, lhs = sum_j <M_j(K), y_j(K)> and
    rhs = <x0, y_0(0)> + sum_{k,j} <row_j(k), y_j(k+1)>.  Both gates are
    ``_negligible`` on K S, with S the sum of |a| |b| over every product
    summed on either side: |lhs - rhs| (the theorem), and |lhs_mc - lhs|
    less _Z_MAX = 4 standard errors (the simulator).  Y_T pairs with the
    sweep's paths, but a ``linear_in_wt`` terminal's W_T is drawn a second
    time, all K steps, by solve_dual_bsde's ``_brownian_at``: the same
    values, drawn twice.  Summing W_T in the sweep would drop that pass
    (ROADMAP item 12, blocked on item 9's ``bsde.solve_dual_bsde`` seam).
    No matrix exponential is taken.
    """
    sweep = _forward_sweep(sys, x0, control, cfg)  # checks inputs before the solve
    sol = solve_dual_bsde(sys, terminal, cfg, 2)
    x0, y = as_array(x0, 1, "x0"), sol.coef
    M, rows = _forward_moments(sys, x0, control, cfg, y.shape[1] - 1)
    lhs_terms = M[-1] * y[-1]
    rhs_terms = np.concatenate([x0 * y[0, 0], np.ravel(rows * y[1:, :rows.shape[1]])])
    lhs, rhs = float(np.sum(lhs_terms)), float(np.sum(rhs_terms))
    scale = cfg.n_steps * float(np.sum(np.abs(lhs_terms)) + np.sum(np.abs(rhs_terms)))
    for _, _, X in sweep:
        pass
    samples = np.einsum("pi,pi->p", X, sol.Y[-1])
    lhs_mc = float(np.mean(samples))
    stderr = float(np.std(samples - samples[0], ddof=1) / np.sqrt(cfg.n_paths))
    passed = (_negligible(abs(lhs - rhs), scale)
              and _negligible(abs(lhs_mc - lhs) - _Z_MAX * stderr, scale))
    return DualityReport(lhs=lhs, rhs=rhs, lhs_mc=lhs_mc, stderr=stderr, dt=cfg.dt, passed=passed,
                         feedback_control=isinstance(control, FeedbackControl))


@dataclass(frozen=True)
class AprioriSample:
    index: int
    xi_mean_square: float
    sup_mean_y_square: float
    int_mean_z_square: float
    ratio: float


@dataclass
class AprioriReport:
    """Euler-exact energy-bound ratios (sup E|Y|^2 + E int |Z|^2) / E|xi|^2.

    ``k_hat`` is the largest ratio.  Samples that are pure
    rescalings of one another are grouped; ``scale_spread`` is the worst
    max/min ratio spread inside a group and must stay close to 1 for a
    linear equation (the bound constant cannot depend on the terminal).
    """

    k_hat: float
    samples: list[AprioriSample]
    scale_spread: float
    scale_ok: bool


def apriori_bound_check(
    sys: StochasticSystem,
    terminal_samples: Sequence[Terminal],
    cfg: SimConfig,
    n_regression_times: int = 11,
) -> AprioriReport:
    """The a-priori energy bound constant over terminal samples, exact for the
    Euler scheme: no noise is drawn, and cfg.n_paths and cfg.seed do not enter."""
    samples = list(terminal_samples)
    if len(samples) < 5:
        raise DomainError("need at least 5 terminal samples")
    steps = _regression_steps(cfg, n_regression_times)
    records, vecs = [], []
    for i, term in enumerate(samples):
        # module docstring energies (Z at t_K is Z_{K-1} = xi1); y_1 = 0 pads a deterministic xi
        coef = _dual_coefficients(sys, term, cfg)
        coef = np.pad(coef, ((0, 0), (0, 2 - coef.shape[1]), (0, 0)))
        y2 = np.sum(coef * coef, axis=2)  # |y_j(k)|^2
        mean_y2 = y2[steps, 0] + cfg.dt * steps * y2[steps, 1]
        mean_z2 = y2[np.minimum(steps + 1, cfg.n_steps), 1]
        xi_ms = float(mean_y2[-1])
        if xi_ms <= 0:
            raise DomainError(f"terminal sample {i} has zero mean square")
        sup_y = float(np.max(mean_y2))
        int_z = float(np.trapezoid(mean_z2, x=cfg.dt * steps))
        records.append(AprioriSample(index=i, xi_mean_square=xi_ms, sup_mean_y_square=sup_y,
                                     int_mean_z_square=int_z, ratio=(sup_y + int_z) / xi_ms))
        vecs.append(coef[-1].ravel())

    norms = sorted(np.sqrt(r.xi_mean_square) for r in records)
    for a, b in zip(norms, norms[1:]):
        if abs(a - b) <= 1e-12 * max(1.0, abs(b)):
            raise DomainError("terminal samples must have distinct norms")

    # group pure rescalings of the same shape (collinear Hermite coefficients)
    spread = 1.0
    for (vi, ri), (vj, rj) in combinations(zip(vecs, [r.ratio for r in records]), 2):
        if abs(float(vi @ vj)) >= (1.0 - 1e-12) * np.linalg.norm(vi) * np.linalg.norm(vj):
            spread = max(spread, max(ri, rj) / min(ri, rj))  # every ratio is >= 1
    return AprioriReport(
        k_hat=float(max(r.ratio for r in records)),
        samples=records,
        scale_spread=float(spread),
        scale_ok=bool(spread <= 1.5),
    )


@dataclass(frozen=True)
class ConvergenceRow:
    nres: int
    delta: float
    err_yosida: float      # resolvent-smoothing error at fixed delta
    err_mollifier: float   # mollified-vs-exact semigroup error (delta only)
    err_total: float       # smoothed+mollified against the exact semigroup
    err_bsde: Optional[float] = None


@dataclass
class ConvergenceReport:
    """Approximation-scheme errors over (nres, delta) pairs.

    The two limits are encoded as monotonicity flags, where "strictly
    decreasing" also accepts a sequence of exact zeros (a gap that is
    already closed):
    ``yosida_decreasing_in_n`` -- at every delta, the smoothing gap is
    strictly decreasing along n_list; ``mollifier_decreasing_in_delta`` --
    the mollifier gap is strictly decreasing along delta_list;
    ``total_decreasing_in_delta_at_max_n`` -- at the largest n, the total
    gap against the exact semigroup is strictly decreasing along delta_list
    (at small n the smoothing floor dominates and the total gap may
    plateau or not decrease, which is expected).  BSDE flags mirror these
    when the experiment includes the backward-solver column; for a
    deterministic terminal Y does not depend on C, so every BSDE gap is 0.0.
    """

    rows: list[ConvergenceRow]
    n_list: list[int]
    delta_list: list[float]
    lam: float
    yosida_decreasing_in_n: bool
    mollifier_decreasing_in_delta: bool
    total_decreasing_in_delta_at_max_n: bool
    bsde_decreasing_in_n: Optional[bool] = None
    bsde_decreasing_in_delta_at_max_n: Optional[bool] = None

    def row(self, nres: int, delta: float) -> ConvergenceRow:
        for r in self.rows:
            if r.nres == nres and r.delta == delta:
                return r
        raise KeyError((nres, delta))


def _sup_gap(E1: list[np.ndarray], E2: list[np.ndarray], probes: np.ndarray) -> float:
    """sup over the times and probes of |(exp(t M1) - exp(t M2)) p|."""
    return max(0.0, *(float(np.max(np.linalg.norm((a - b) @ probes, axis=0)))
                      for a, b in zip(E1, E2)))


def approximation_convergence(
    sys: StochasticSystem,
    terminal: Optional[Terminal],
    cfg: SimConfig,
    n_list: Sequence[int],
    delta_list: Sequence[float],
    lam: float = 1.0,
    n_regression_times: int = 11,
) -> ConvergenceReport:
    """Two-parameter convergence experiment for the approximation scheme.

    Semigroup part: with E_d = exp(delta*A) and (J, An) the resolvent
    smoothing at level n, compares the matrix semigroups generated by

        An + lam * J^T E_d C E_d J     (smoothed + mollified)
        A  + lam * E_d C E_d           (mollified)
        A  + lam * C                   (exact)

    on a probe set over 21 points of [0, T]; the first gap shrinks with n
    at fixed delta, the second with delta.  With A = 0 every operator
    coincides and all gaps vanish identically.

    BSDE part (when ``terminal`` is given): the dual equation with the noise
    operator replaced by its (n, delta)-mollification, against the original,
    as sup_t mean |Y_mod - Y|^2 over the reporting grid.  On every path
    Y_mod - Y = dy_0 + W_t dy_1, and y_1 does not depend on C, so the gap is
    max_k |dy_0(k)|^2 from the coefficient recursions; no noise is drawn.
    """
    n_list = [as_int(v, f"n_list[{i}]", 1) for i, v in enumerate(n_list)]
    delta_list = as_array(delta_list, 1, "delta_list").tolist()
    if not n_list or not delta_list:
        raise DomainError("n_list and delta_list must be non-empty")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise DomainError("n_list must be strictly increasing")
    if any(b >= a for a, b in zip(delta_list, delta_list[1:])):
        raise DomainError("delta_list must be strictly decreasing")
    if any(d <= 0 for d in delta_list):
        raise DomainError("delta_list entries must be positive")
    lam = float(as_array(lam, 0, "lam"))

    A, C = sys.A, sys.C
    times = np.linspace(0.0, cfg.T, 21)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(cfg.seed)))
    extra = rng.standard_normal((sys.n, 2))
    extra /= np.linalg.norm(extra, axis=0)
    probes = np.hstack([np.eye(sys.n), extra])
    exact = _semigroup(A + lam * C, times)

    y0_ref = None
    if terminal is not None:
        steps = _regression_steps(cfg, n_regression_times)
        y0_ref = _dual_coefficients(sys, terminal, cfg)[steps, 0]

    rows = []
    for delta in delta_list:
        E_d = _expm(delta * A)
        C_d = E_d @ C @ E_d
        moll = _semigroup(A + lam * C_d, times)
        err_moll = _sup_gap(moll, exact, probes)
        for nres in n_list:
            J, An = yosida_pair(A, nres)
            C_mod = J.T @ C_d @ J
            full = _semigroup(An + lam * C_mod, times)
            err_yos = _sup_gap(full, moll, probes)
            err_tot = _sup_gap(full, exact, probes)
            err_bsde = None
            if y0_ref is not None:
                sys_mod = StochasticSystem(sys.A, sys.B, C=C_mod, gamma=sys.gamma)
                gap = _dual_coefficients(sys_mod, terminal, cfg)[steps, 0] - y0_ref
                err_bsde = float(np.max(np.sum(gap * gap, axis=1)))
            rows.append(ConvergenceRow(nres, delta, err_yos, err_moll, err_tot, err_bsde))

    def decreasing(seq):
        return all(b < a or a == b == 0.0 for a, b in zip(seq, seq[1:]))

    def flags(column):
        """(decreasing in n at every delta, decreasing in delta at the largest
        n), read from the (delta x n) table of one error column."""
        table = np.reshape([getattr(r, column) for r in rows], (len(delta_list), -1))
        return all(map(decreasing, table)), decreasing(table[:, -1])

    yos_flag, _ = flags("err_yosida")
    _, moll_flag = flags("err_mollifier")
    _, tot_flag = flags("err_total")
    bsde_n, bsde_d = (None, None) if y0_ref is None else flags("err_bsde")
    return ConvergenceReport(
        rows=rows,
        n_list=n_list,
        delta_list=delta_list,
        lam=lam,
        yosida_decreasing_in_n=yos_flag,
        mollifier_decreasing_in_delta=moll_flag,
        total_decreasing_in_delta_at_max_n=tot_flag,
        bsde_decreasing_in_n=bsde_n,
        bsde_decreasing_in_delta_at_max_n=bsde_d,
    )
