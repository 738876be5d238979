"""Seeded Euler-Maruyama engine for the forward SDE and its fundamental flow.

Noise is a single scalar Brownian motion.  Increments come from one Philox
stream per (seed, step_index), with the path index as the offset inside the
step block, so every value is a pure function of (seed, path, step): results
are reproducible, independent of evaluation order, and any sub-block of
steps can be redrawn on demand without materialising the whole array.

One forward sweep steps every ensemble paths-last, as lanes on one noise: a
lane is an (n, n_paths) block stepped by its own pair (F, C) = (I + dt A, C),
and every lane reads the same dW.  States are one lane from x0; a
fundamental flow is n lanes with the same pair, started from the columns of
the identity under the zero control, so its (n, n, n_paths) buffer is stored
as (column, state, path); ``girsanov_check`` runs the original equation and
the shifted one, (I + dt (A + lam C), C + lam I), as two lanes.  The sweep
steps into two buffers used in turn, so an array it hands out is overwritten
two steps later; public results keep paths-first shapes.

The sweep runs each step on two threads under one OpenBLAS thread: the
calling thread, which also runs the consumer of the sweep and every public
function, and a one-worker ``ThreadPoolExecutor`` per sweep, the helper, as
``controllability.verdict`` uses too.  Each piece of work is a job that
``systems._offload`` submits to the helper, a list at a time and last
first; the calling thread claims the jobs in order through their Futures,
running a job itself if the helper has not begun it.  The pieces are the
draw of a step's dW, the products F X_k and C X_k (one pair per lane),
and, on each half of the paths, the update that adds (C X_k) dW_k and each
lane's B u_k dt and checks every lane for blow-up.  A step's draw does not
depend on the state, so it is submitted two steps ahead, into a ring of
three dW buffers; the update jobs are submitted once every product has
been claimed.  A late helper costs parallelism but never a wait for it to
start.  The split into jobs is fixed and each runs single-threaded, so the
bits depend neither on the schedule nor on the host's core count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Iterator, Optional, Sequence, Union

import numpy as np
# numpy loads numpy.random on first use; a module-level import keeps that
# load in start-up instead of the first simulation
from numpy.random import Generator, Philox, SeedSequence

from .exceptions import DimensionError, DomainError, StabilityError
from .systems import StochasticSystem, _offload, _one_blas_thread, as_array

__all__ = [
    "SimConfig",
    "ZeroControl",
    "ConstantControl",
    "PiecewiseConstantControl",
    "FeedbackControl",
    "PathEnsemble",
    "FlowEnsemble",
    "brownian_increments",
    "simulate_forward",
    "simulate_flow",
    "ensemble_moments",
    "girsanov_check",
    "fit_convergence_order",
]

#: any state coordinate beyond this magnitude aborts the run
BLOWUP_LIMIT = 1e12


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo run parameters.

    T                  horizon (> 0)
    dt                 Euler step; T/dt must be an integer >= 1 within 1e-12
    n_paths            ensemble size (>= 2)
    seed               64-bit unsigned seed of the counter-based generator
    regression_degree  parsed and validated in [0, 6] but no longer used: the
                       dual solver is exact for the kit's terminals
    """

    T: float
    dt: float
    n_paths: int
    seed: int
    regression_degree: int = 1

    def __post_init__(self):
        if not (np.isfinite(self.T) and self.T > 0):
            raise DomainError(f"T must be positive, got {self.T}")
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise DomainError(f"dt must be positive, got {self.dt}")
        ratio = self.T / self.dt
        if abs(ratio - round(ratio)) > 1e-12 * max(1.0, ratio):
            raise DomainError(f"T/dt = {ratio!r} is not an integer")
        if round(ratio) < 1:
            raise DomainError(f"T = {self.T!r} is shorter than one step dt = {self.dt!r}")
        for name in ("n_paths", "seed", "regression_degree"):
            if not isinstance(getattr(self, name), (int, np.integer)):
                raise DomainError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.n_paths < 2:
            raise DomainError("n_paths must be >= 2")
        if self.seed < 0 or self.seed > 0xFFFFFFFFFFFFFFFF:
            raise DomainError("seed must fit in an unsigned 64-bit integer")
        if not (0 <= self.regression_degree <= 6):
            raise DomainError("regression_degree must lie in [0, 6]")

    @property
    def n_steps(self) -> int:
        return int(round(self.T / self.dt))

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.n_steps + 1)


def _step_normals(seed: int, step: int, n_paths: int,
                  out: Optional[np.ndarray] = None) -> np.ndarray:
    """Standard normals for one time step, keyed by (seed, step); drawn into
    ``out`` when it is given."""
    ss = SeedSequence(entropy=int(seed), spawn_key=(int(step),))
    return Generator(Philox(ss)).standard_normal(n_paths, out=out)


def _draw(cfg: SimConfig, k: int, out: np.ndarray):
    """dW_k into ``out``, a contiguous buffer of n_paths values."""
    _step_normals(cfg.seed, k, cfg.n_paths, out)
    out *= np.sqrt(cfg.dt)


def brownian_increments(cfg: SimConfig, k0: int = 0, k1: Optional[int] = None) -> np.ndarray:
    """Increment block dW[:, k0:k1] of shape (n_paths, k1 - k0)."""
    if k1 is None:
        k1 = cfg.n_steps
    if not (0 <= k0 <= k1 <= cfg.n_steps):
        raise DomainError(f"invalid step range [{k0}, {k1})")
    # each step's draw fills one contiguous row; the transpose is the block
    out = np.empty((k1 - k0, cfg.n_paths))
    for k in range(k0, k1):
        _draw(cfg, k, out[k - k0])
    return out.T


# ---------------------------------------------------------------------------
# control specifications


@dataclass(frozen=True)
class ZeroControl:
    """u = 0."""


@dataclass(frozen=True)
class ConstantControl:
    """u_t = u for a fixed vector u of length m."""

    u: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "u", as_array(self.u, 1, "u"))


@dataclass(frozen=True)
class PiecewiseConstantControl:
    """Deterministic control, constant on each grid step: values[k] on step k."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", as_array(self.values, 2, "values"))


@dataclass(frozen=True)
class FeedbackControl:
    """Linear state feedback u_t = K X_t with K of shape (m, n)."""

    K: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "K", as_array(self.K, 2, "K"))


Control = Union[ZeroControl, ConstantControl, PiecewiseConstantControl, FeedbackControl]


def _validate_control(control: Control, sys: StochasticSystem, n_steps: int) -> Control:
    if not isinstance(control, (ZeroControl, ConstantControl, PiecewiseConstantControl,
                                FeedbackControl)):
        raise DomainError(f"unsupported control specification: {control!r}")
    if isinstance(control, ConstantControl) and control.u.shape[0] != sys.m:
        raise DimensionError(f"constant control must have length m={sys.m}")
    if isinstance(control, PiecewiseConstantControl) and control.values.shape != (n_steps, sys.m):
        raise DimensionError(f"piecewise control must have shape ({n_steps}, {sys.m}), "
                             f"got {control.values.shape}")
    if isinstance(control, FeedbackControl) and control.K.shape != (sys.m, sys.n):
        raise DimensionError(f"feedback gain must have shape ({sys.m}, {sys.n})")
    return control


def _bu_term(control: Control, B: np.ndarray, k: int, X: np.ndarray,
             scale: float = 1.0) -> Optional[np.ndarray]:
    """scale * B u_k for X of shape (n, p), paths-last states or moment
    columns; None for the zero control, else a new (n, 1) or (n, p) array."""
    if isinstance(control, ZeroControl):
        return None
    if isinstance(control, FeedbackControl):
        return B @ (control.K @ X) * scale
    u = control.u if isinstance(control, ConstantControl) else control.values[k]
    return (B @ u)[:, None] * scale


# ---------------------------------------------------------------------------
# ensembles


@dataclass
class PathEnsemble:
    """State trajectories: times (K+1,), states (n_paths, K+1, n),
    increments (n_paths, K)."""

    times: np.ndarray
    states: np.ndarray
    increments: np.ndarray


@dataclass
class FlowEnsemble:
    """Fundamental-matrix trajectories: flows (n_paths, K+1, n, n), with
    flows[:, 0] = identity."""

    times: np.ndarray
    flows: np.ndarray


def _check_blowup(X: np.ndarray, step: int, dt: float, what: str = "ensemble blew up at step"):
    # written so that NaN fails the comparisons; no temporary array is made
    if not (X.max() <= BLOWUP_LIMIT and X.min() >= -BLOWUP_LIMIT):
        raise StabilityError(f"{what} {step} (dt={dt}); use a smaller time step")


def _product(M: np.ndarray, X: np.ndarray, out: np.ndarray):
    """M X into the buffer ``out``."""
    np.matmul(M, X, out=out)


def _finish(out: np.ndarray, noise: np.ndarray, dw: np.ndarray,
            bu: Optional[list[np.ndarray]], step: int, dt: float):
    """Complete an Euler step of lanes (L, n, p) from F X in ``out`` and C X
    in ``noise``: add (C X) dW and each lane's bu to ``out`` and check it for
    blow-up at ``step``."""
    noise *= dw
    out += noise
    for lane, b in zip(out, bu or ()):
        lane += b
    _check_blowup(out, step, dt)


def _pair(A: np.ndarray, C: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """The Euler step's pair (F, C) = (I + dt A, C): X_{k+1} = F X_k + C X_k dW_k
    plus the control term.  The forward sweep and both dual recursions take it."""
    return np.eye(len(A)) + dt * A, C


def _initial_state(x0, sys: StochasticSystem) -> np.ndarray:
    """x0 as a vector of length n, checked before any simulation."""
    x0 = as_array(x0, 1, "x0")
    if x0.shape[0] != sys.n:
        raise DimensionError(f"x0 must have length n={sys.n}, got {x0.shape[0]}")
    return x0


def _sweep(lanes: list[tuple[np.ndarray, np.ndarray]], x0: np.ndarray, bu,
           cfg: SimConfig) -> Iterator[tuple[int, Optional[np.ndarray], np.ndarray]]:
    """The sweep of the module docstring, with one pair (F, C) per lane.

    x0 is an n-vector, for one lane of states handed out as (n_paths, n), or
    an (L, n) block whose row l starts lane l, handed out as
    (n_paths, n, L).  ``bu(k, X)`` gets what step k starts from, paths-last,
    and returns step k's B u dt (per lane, in a list, for a block), or None;
    it is called on the calling thread once the consumer has taken X_k.
    Steps run on two threads as the module docstring says, each list of
    jobs submitted last first and claimed in order through its Futures;
    however the sweep ends (a blow-up, a failed draw or a consumer closing
    it early), the helper is stopped and joined and the OpenBLAS thread
    count restored before the exception propagates.
    """
    K, one = cfg.n_steps, x0.ndim == 1
    X = np.repeat(np.atleast_2d(x0)[..., None], cfg.n_paths, axis=-1)
    nxt, noise = np.empty_like(X), np.empty_like(X)
    # dW_j lives in row j % 3: step k reads dW_k and hands it to the consumer
    # until step k + 1 starts, and only dW_{k+1} and dW_{k+2} are drawn meanwhile
    dws = np.empty((3, cfg.n_paths))
    halves = (np.s_[..., :cfg.n_paths // 2], np.s_[..., cfg.n_paths // 2:])

    def products(X: np.ndarray, out: np.ndarray) -> list[tuple]:
        """F X into ``out`` and C X into ``noise``, one pair per lane."""
        return [(_product, M, x, o) for (F, C), x, fx, cx in zip(lanes, X, out, noise)
                for M, o in ((F, fx), (C, cx))]

    def finishes(k: int, out: np.ndarray, dw: np.ndarray,
                 bu: Optional[list[np.ndarray]]) -> list[tuple]:
        """The rest of step k on each half of the paths, every lane at once."""
        bu = None if bu is None else [np.broadcast_to(b, out.shape[1:]) for b in bu]
        return [(_finish, out[h], noise[h], dw[h[-1]],
                 None if bu is None else [b[h] for b in bu], k + 1, cfg.dt) for h in halves]

    with _one_blas_thread():
        helper = ThreadPoolExecutor(max_workers=1)
        try:
            draws = dict(enumerate(_offload(helper, [(_draw, cfg, j, dws[j])
                                                     for j in range(min(K, 2))])))
            yield 0, None, (X[0] if one else X).T
            for k in range(K):
                draws.pop(k)()  # dW_k, drawn here if the helper has not begun it
                if k + 2 < K:
                    draws[k + 2] = _offload(helper, [(_draw, cfg, k + 2, dws[(k + 2) % 3])])[0]
                dw = dws[k % 3]
                prods = _offload(helper, products(X, nxt))
                b = bu(k, X[0] if one else X)
                for claim in prods:
                    claim()
                fins = finishes(k, nxt, dw, [b] if one and b is not None else b)
                for claim in _offload(helper, fins):  # every product is done
                    claim()
                X, nxt = nxt, X
                yield k + 1, dw, (X[0] if one else X).T
        finally:
            helper.shutdown(cancel_futures=True)


def _forward_sweep(
    sys: StochasticSystem, x0, control: Control, cfg: SimConfig
) -> Iterator[tuple[int, Optional[np.ndarray], np.ndarray]]:
    """Check x0 and the control, then return the forward sweep.

    The sweep yields (k, dW_{k-1}, X_k) for k = 0..K, with dW None at k = 0
    and X_k an (n_paths, n) view of the sweep's paths-last buffer.  A
    yielded X is valid only until the sweep moves on: copy it to keep it.
    No buffer or thread is made until it is iterated.
    """
    x0 = _initial_state(x0, sys)
    control = _validate_control(control, sys, cfg.n_steps)
    return _sweep([_pair(sys.A, sys.C, cfg.dt)], x0,
                  lambda k, X: _bu_term(control, sys.B, k, X, cfg.dt), cfg)


def simulate_forward(
    sys: StochasticSystem,
    x0,
    control: Control,
    cfg: SimConfig,
    record_steps: Optional[Sequence[int]] = None,
) -> PathEnsemble:
    """Euler-Maruyama paths of dX = (A X + B u) dt + C X dW.

    The update is X <- X + (A X + B u_k) dt + (C X) dW_k with the step noise
    drawn from the counter-based source, so the result is independent of how
    paths would be scheduled.  ``record_steps`` restricts the stored time
    slices (0 and the final step are always included); the returned
    increments cover the full grid either way.

    Raises
    ------
    StabilityError  when any |state| exceeds 1e12.
    """
    sweep = _forward_sweep(sys, x0, control, cfg)
    K = cfg.n_steps
    steps = range(K + 1) if record_steps is None else map(int, record_steps)
    recorded = sorted({0, K}.union(steps))
    if recorded[0] < 0 or recorded[-1] > K:
        raise DomainError("record_steps out of range")
    rec_pos = {k: i for i, k in enumerate(recorded)}

    states = np.empty((cfg.n_paths, len(recorded), sys.n))
    increments = np.empty((K, cfg.n_paths))  # row per step, returned transposed
    for k, dw, X in sweep:
        if k:
            increments[k - 1] = dw
        if k in rec_pos:
            states[:, rec_pos[k]] = X
    return PathEnsemble(times=cfg.dt * np.array(recorded, dtype=float), states=states, increments=increments.T)


def simulate_flow(sys: StochasticSystem, cfg: SimConfig, record: bool = True) -> FlowEnsemble:
    """Euler-Maruyama fundamental matrices of the uncontrolled equation.

    The forward sweep of :func:`simulate_forward` run from the identity with
    the zero control: its (n, n, n_paths) buffer holds the columns of each
    path's flow, so a yielded (n_paths, n, n) view is the flow itself.  It
    consumes the same increments as every simulation from this seed, so
    flows pair with any path ensemble drawn from it.  With ``record=False``
    only the initial and final matrices are kept.
    """
    K = cfg.n_steps
    kept = np.arange(K + 1) if record else np.array([0, K])
    flows = np.empty((cfg.n_paths, len(kept), sys.n, sys.n))
    lanes = [_pair(sys.A, sys.C, cfg.dt)] * sys.n
    for k, _, Phi in _sweep(lanes, np.eye(sys.n), lambda k, X: None, cfg):
        if record or k in (0, K):
            flows[:, min(k, len(kept) - 1)] = Phi
    return FlowEnsemble(times=cfg.dt * kept.astype(float), flows=flows)


# ---------------------------------------------------------------------------
# measure-change consistency experiment


def ensemble_moments(
    sys: StochasticSystem,
    x0,
    control: Control,
    cfg: SimConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-time ensemble mean and second moment of the forward states.

    Streams over the grid without storing trajectories; returns
    (times, mean, second_moment) with the moment arrays shaped (K+1, n).
    """
    mean = np.empty((cfg.n_steps + 1, sys.n))
    second = np.empty((cfg.n_steps + 1, sys.n))
    for k, _, X in _forward_sweep(sys, x0, control, cfg):
        mean[k] = X.mean(axis=0)
        second[k] = np.mean(X * X, axis=0)
    return cfg.times, mean, second


def girsanov_check(
    sys: StochasticSystem,
    lam: float,
    x0,
    control: Control,
    cfg: SimConfig,
    dt_list: Sequence[float],
) -> list[tuple[float, float]]:
    """Compare the exponential-martingale transform with the direct scheme.

    For each dt, simulate X from the original equation and, as a second lane
    of the same sweep on the same increments, X~ from

        dX~ = ((A + lam*C) X~ + B v) dt + (C + lam*I) X~ dW,
        v_t = E_t u_t,   E_t = exp(lam W_t - lam^2 t / 2).

    Pathwise, E_t X_t and X~_t coincide in the continuous limit; the
    reported sup_error is the ensemble mean of max_t |E_t X_t - X~_t| and
    decays with dt at the strong Euler rate.  At lam = 0 both recursions are
    identical and the error is exactly zero.
    """
    lam = float(as_array(lam, 0, "lam"))
    x0 = _initial_state(x0, sys)
    dts = [float(d) for d in dt_list]
    if not dts:
        raise DomainError("dt_list must be non-empty")
    if any(d2 >= d1 for d1, d2 in zip(dts, dts[1:])):
        raise DomainError("dt_list must be strictly decreasing")
    runs = []
    for i, dt in enumerate(dts):  # every grid is checked before any simulation
        try:
            runs.append(replace(cfg, dt=dt))
            _validate_control(control, sys, runs[-1].n_steps)
        except (DomainError, DimensionError) as exc:
            raise type(exc)(f"dt_list[{i}]: {exc}") from exc

    out = []
    for dt, run in zip(dts, runs):
        lanes = [_pair(sys.A, sys.C, dt),
                 _pair(sys.A + lam * sys.C, sys.C + lam * np.eye(sys.n), dt)]
        W, sup_err = np.zeros(run.n_paths), np.zeros(run.n_paths)
        expmart = np.ones(run.n_paths)  # exp(lam W_k - lam^2 t_k / 2), carried over

        def bu(k: int, X: np.ndarray) -> Optional[list[np.ndarray]]:
            # B v = E_k (B u) by linearity; the sweep asks for step k's term
            # only after the loop below has taken X_k and set expmart to E_k
            b = _bu_term(control, sys.B, k, X[0])
            return None if b is None else [b * dt, expmart * b * dt]

        for k, dw, Y in _sweep(lanes, np.stack([x0, x0]), bu, run):
            if k:
                W += dw
                expmart = np.exp(lam * W - 0.5 * lam * lam * (k * dt))
                X, Xt = Y.T
                np.maximum(sup_err, np.linalg.norm(expmart * X - Xt, axis=0), out=sup_err)
        out.append((dt, float(np.mean(sup_err))))
    return out


def fit_convergence_order(points: Sequence[tuple[float, float]]) -> Optional[float]:
    """Least-squares slope of log(error) against log(dt); None if any error
    is zero (nothing to fit) or fewer than two points are given."""
    pts = [(dt, err) for dt, err in points]
    if len(pts) < 2 or any(err <= 0.0 for _, err in pts):
        return None
    logs = np.log([dt for dt, _ in pts]), np.log([err for _, err in pts])
    slope = np.polyfit(logs[0], logs[1], 1)[0]
    return float(slope)
