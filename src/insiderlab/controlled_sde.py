"""Controlled SDE simulation under both representations.

The same discrete process can be generated two ways:

* driving the original Brownian increments with a G-adapted control
  (``simulate_forward``), or
* driving the decomposed increments dBtilde = dB - alpha dt and adding the
  drift correction to the coefficients (``simulate_insider``):

      X_{i+1} = X_i + (b_i + sigma_i alpha_i) dt + sigma_i dBtilde_i .

With dBtilde computed from the same path the two routes agree up to
roundoff, which the tests use as the discrete counterpart of the two state
equations having the same solutions.

Single-path functions take a readable node-by-node policy; Monte Carlo
batches run through ``wealth_paths_chunk``, a vectorized kernel for the
wealth dynamics dX = [r X + (rtilde - r) u] dt + sigma(t) u dB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .enlargement import InfoDriftField, drift_matrix, tail_square_integral
from .paths import BrownianPath, TimeGrid, as_weight

__all__ = [
    "SimulationDiverged",
    "CoefficientSpec",
    "StepInfo",
    "ControlPolicy",
    "ChunkContext",
    "StatePath",
    "Domain",
    "formula_policy",
    "feedback_policy",
    "constant_policy",
    "simulate_forward",
    "simulate_insider",
    "first_exit",
    "wealth_coefficients",
    "wealth_step_closed_form",
    "WealthSetup",
    "make_wealth_setup",
    "wealth_paths_chunk",
]


class SimulationDiverged(RuntimeError):
    """State became non-finite; ``index`` is the first bad node."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


@dataclass(frozen=True)
class CoefficientSpec:
    """Drift b(t, x, u) and diffusion sigma(t, x, u) with a growth envelope.

    ``growth_c`` is the constant of the linear-growth condition
    |b| + |sigma| <= C (1 + |x| + |u|); ``check_growth`` spot-checks it on
    random probes rather than proving it.
    """

    b: Callable[[float, float, float], float]
    sigma: Callable[[float, float, float], float]
    growth_c: float

    def check_growth(
        self,
        rng: np.random.Generator,
        t_range: tuple[float, float] = (0.0, 1.0),
        x_range: tuple[float, float] = (-10.0, 10.0),
        u_range: tuple[float, float] = (-10.0, 10.0),
        n_probes: int = 64,
    ) -> None:
        for _ in range(n_probes):
            t = rng.uniform(*t_range)
            x = rng.uniform(*x_range)
            u = rng.uniform(*u_range)
            lhs = abs(self.b(t, x, u)) + abs(self.sigma(t, x, u))
            if lhs > self.growth_c * (1.0 + abs(x) + abs(u)) + 1e-12:
                raise ValueError(
                    f"growth condition violated at (t={t:.3g}, x={x:.3g}, "
                    f"u={u:.3g}): {lhs:.3g} > C(1+|x|+|u|)"
                )


class StepInfo(NamedTuple):
    """Information available to a policy at one node of one path."""

    t: float
    dt: float
    L: float
    alpha: float
    brownian: float
    history: np.ndarray | None


@dataclass
class ChunkContext:
    """Per-chunk arrays a vectorized policy may read.

    Policies must only use columns up to the node they are evaluated at
    (plus L); that discipline is what G-adaptedness means here, and the
    adaptedness tests enforce it for the shipped policies.
    """

    times: np.ndarray
    dt: float
    i0: int
    i_last: int
    L: np.ndarray
    alpha: np.ndarray
    B: np.ndarray


@dataclass
class ControlPolicy:
    """A control rule in up to three interchangeable forms.

    ``node_rule(i, x, info)`` is the readable single-path form.  When the
    control does not depend on the state, ``matrix_rule(ctx)`` returns the
    whole (rows, nodes) control matrix at once and the batch kernels skip
    the time loop entirely.  ``bulk_rule(ctx, i, x)`` covers vectorized
    state feedback.  ``moment_bound`` records that all polynomial moments
    of the control are expected finite (admissibility metadata).
    """

    name: str
    node_rule: Callable[[int, float, StepInfo], float]
    matrix_rule: Callable[[ChunkContext], np.ndarray] | None = None
    bulk_rule: Callable[[ChunkContext, int, np.ndarray], np.ndarray] | None = None
    moment_bound: bool = True

    @property
    def state_free(self) -> bool:
        return self.matrix_rule is not None


def _formula_node(fn, i: int, x: float, info: StepInfo) -> float:
    return float(fn(info.t, info.alpha, info.L))


def _formula_matrix(fn, ctx: ChunkContext) -> np.ndarray:
    t = ctx.times[ctx.i0 : ctx.i_last + 1][None, :]
    alpha = ctx.alpha[:, ctx.i0 : ctx.i_last + 1]
    out = fn(t, alpha, ctx.L[:, None])
    return np.broadcast_to(out, alpha.shape).astype(float, copy=False)


def formula_policy(
    name: str, fn: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
) -> ControlPolicy:
    """Policy u = fn(t, alpha, L) with no state dependence.

    ``fn`` must broadcast: in the matrix form t is a row of node times,
    alpha a (rows, nodes) block and L a (rows, 1) column.  The policy
    pickles, and so runs in a process pool, whenever ``fn`` does.
    """
    return ControlPolicy(name, partial(_formula_node, fn),
                         matrix_rule=partial(_formula_matrix, fn))


def feedback_policy(
    name: str, fn: Callable[[float, np.ndarray, np.ndarray, np.ndarray], np.ndarray]
) -> ControlPolicy:
    """Policy u = fn(t, x, alpha_i, L) with vectorized state feedback."""

    def node_rule(i: int, x: float, info: StepInfo) -> float:
        return float(fn(info.t, x, info.alpha, info.L))

    def bulk_rule(ctx: ChunkContext, i: int, x: np.ndarray) -> np.ndarray:
        out = fn(ctx.times[i], x, ctx.alpha[:, i], ctx.L)
        return np.broadcast_to(out, x.shape).astype(float, copy=False)

    return ControlPolicy(name, node_rule, bulk_rule=bulk_rule)


def _constant_formula(c: float, t, alpha, L):
    return c + 0.0 * alpha


def constant_policy(c: float, name: str | None = None) -> ControlPolicy:
    c = float(c)
    return formula_policy(name or f"const({c:g})", partial(_constant_formula, c))


@dataclass
class StatePath:
    """Simulated state on [t0, T]; ``control[i]`` is the u used on step i."""

    grid: TimeGrid
    values: np.ndarray
    control: np.ndarray
    exit_index: int | None = None


@dataclass(frozen=True)
class Domain:
    """Open interval O = (lo, hi); infinite ends mean no boundary."""

    lo: float = -math.inf
    hi: float = math.inf

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError(f"need lo < hi, got ({self.lo}, {self.hi})")


def _step_loop(
    coeffs: CoefficientSpec,
    policy: ControlPolicy,
    times: np.ndarray,
    dt: float,
    increments: np.ndarray,
    drift_extra: np.ndarray,
    x0: float,
    info_of: Callable[[int], StepInfo],
) -> tuple[np.ndarray, np.ndarray]:
    n = len(increments)
    values = np.empty(n + 1)
    control = np.empty(n)
    values[0] = x0
    x = x0
    for i in range(n):
        info = info_of(i)
        u = policy.node_rule(i, x, info)
        s = coeffs.sigma(times[i], x, u)
        x = x + (coeffs.b(times[i], x, u) + s * drift_extra[i]) * dt + s * increments[i]
        if not math.isfinite(x):
            raise SimulationDiverged(f"state non-finite at node {i + 1}", index=i + 1)
        control[i] = u
        values[i + 1] = x
    return values, control


def simulate_forward(
    coeffs: CoefficientSpec,
    policy: ControlPolicy,
    B: BrownianPath,
    x0: float,
    t0: float = 0.0,
    drift_field: InfoDriftField | None = None,
) -> StatePath:
    """Euler path of dX = b dt + sigma dB with a G-adapted control.

    The drift field, when given, only feeds alpha to the policy; the
    dynamics are driven by the raw increments of B.
    """
    i0 = B.grid.index_of(t0)
    times = B.grid.times
    dt = B.grid.dt
    n = B.grid.n_steps - i0
    db = np.diff(B.values)[i0:]

    def info_of(i: int) -> StepInfo:
        j = i0 + i
        alpha = float(drift_field.alpha[j]) if drift_field is not None else 0.0
        L = drift_field.L if drift_field is not None else 0.0
        return StepInfo(times[j], dt, L, alpha, B.values[j], B.values[: j + 1])

    values, control = _step_loop(
        coeffs, policy, times[i0:], dt, db, np.zeros(n), x0, info_of
    )
    grid = TimeGrid(float(times[i0]), B.grid.t_end, n)
    return StatePath(grid, values, control)


def simulate_insider(
    coeffs: CoefficientSpec,
    policy: ControlPolicy,
    drift_field: InfoDriftField,
    btilde: BrownianPath,
    x0: float,
    t0: float = 0.0,
) -> StatePath:
    """Euler path of dX = (b + sigma alpha) dt + sigma dBtilde.

    ``btilde`` is the decomposed path on [0, T]; the policy sees the
    original Brownian history through the drift field.
    """
    i0 = btilde.grid.index_of(t0)
    times = btilde.grid.times
    dt = btilde.grid.dt
    n = btilde.grid.n_steps - i0
    db = np.diff(btilde.values)[i0:]
    origin = drift_field.path.values

    def info_of(i: int) -> StepInfo:
        j = i0 + i
        return StepInfo(
            times[j], dt, drift_field.L, float(drift_field.alpha[j]),
            origin[j], origin[: j + 1],
        )

    values, control = _step_loop(
        coeffs, policy, times[i0:], dt, db, drift_field.alpha[i0 : i0 + n], x0, info_of
    )
    grid = TimeGrid(float(times[i0]), btilde.grid.t_end, n)
    return StatePath(grid, values, control)


def first_exit(path: StatePath, domain: Domain) -> float:
    """First node time with the state outside (lo, hi), else the horizon.

    Exit is only detected at grid nodes.  Also records ``exit_index`` on the
    path (None when the state never leaves).
    """
    outside = (path.values <= domain.lo) | (path.values >= domain.hi)
    hits = np.flatnonzero(outside)
    if hits.size == 0:
        path.exit_index = None
        return path.grid.t_end
    path.exit_index = int(hits[0])
    return float(path.grid.times[path.exit_index])


# ---------------------------------------------------------------------------
# Wealth dynamics: coefficients, closed-form kick, and the batch kernel
# ---------------------------------------------------------------------------

def wealth_coefficients(params) -> CoefficientSpec:
    """CoefficientSpec of dX = [r X + (rtilde - r) u] dt + sigma(t) u dB."""
    r = params.r
    excess = params.excess_rate
    sig = params.sigma_fn
    cap = max(abs(r), abs(excess)) + params.sigma_sup
    return CoefficientSpec(
        b=lambda t, x, u: r * x + excess * u,
        sigma=lambda t, x, u: sig(t) * u,
        growth_c=max(cap, 1e-12),
    )


def wealth_step_closed_form(
    params, theta0: float, window: tuple[float, float], B: BrownianPath
) -> float:
    """Terminal wealth from x0 = 0 under the step control theta0 on (t, t+h].

    Exact solution of the linear wealth SDE:

        X_T(theta; 0) = theta0 * sum_{i in window} e^{r (T - t_i)}
                        [ (rtilde - r) dt + sigma(t_i) dB_i ] ,

    with exponential (not Euler) discounting, so it matches the Euler route
    exactly when r = 0 and to O(dt) otherwise.
    """
    lo, hi = window
    grid = B.grid
    ilo, ihi = grid.index_of(lo), grid.index_of(hi)
    iT = grid.index_of(params.T)
    i0 = grid.index_of(params.t0)
    if not (i0 <= ilo < ihi <= iT):
        raise ValueError(
            f"window ({lo}, {hi}] must sit inside [{params.t0}, {params.T}]"
        )
    t = grid.times[ilo:ihi]
    db = np.diff(B.values)[ilo:ihi]
    disc = np.exp(params.r * (params.T - t))
    kick = params.excess_rate * grid.dt + params.sigma_fn.nodes(t) * db
    return float(theta0 * np.sum(disc * kick))


@dataclass(frozen=True, eq=False)
class WealthSetup:
    """Precomputed node data for batch wealth simulation on one grid."""

    grid: TimeGrid
    i0: int
    i_last: int
    m_nodes: np.ndarray
    q_tail: np.ndarray
    sigma_nodes: np.ndarray
    r: float
    excess: float
    a: float
    b_weight: float
    x0: float
    informed: bool


def make_wealth_setup(params, n_steps: int, informed: bool = True) -> WealthSetup:
    """Resolve model parameters on a fresh [0, T1] grid with n_steps steps."""
    grid = TimeGrid(0.0, params.t1, int(n_steps))
    i_last = grid.index_of(params.T)  # also validates node alignment
    i0 = grid.index_of(params.t0)
    m = as_weight(params.m)
    m_nodes = m.nodes(grid.times)
    q = tail_square_integral(m_nodes, grid.dt)
    if np.any(q[: i_last + 1] <= 0.0):
        raise ValueError("weight tail integral vanishes before the horizon")
    sigma_nodes = as_weight(params.sigma_fn).nodes(grid.times)
    return WealthSetup(
        grid=grid,
        i0=i0,
        i_last=i_last,
        m_nodes=m_nodes,
        q_tail=q,
        sigma_nodes=sigma_nodes,
        r=params.r,
        excess=params.excess_rate,
        a=params.a,
        b_weight=params.b,
        x0=params.x0,
        informed=informed,
    )


def wealth_paths_chunk(
    setup: WealthSetup, dB: np.ndarray, policy: ControlPolicy
) -> tuple[ChunkContext, np.ndarray, np.ndarray, np.ndarray]:
    """Simulate one chunk of wealth paths.

    Parameters
    ----------
    dB : (rows, n_steps) increments on the full [0, T1] grid.
    policy : a ControlPolicy with a matrix or bulk rule.

    Returns
    -------
    (ctx, u, X, diverged) where u and X have shape (rows, i_last - i0 + 1),
    X[:, 0] = x0 exactly, and ``diverged`` flags rows that went non-finite
    (their later values are meaningless and the caller must exclude and
    report them).
    """
    grid = setup.grid
    i0, iL = setup.i0, setup.i_last
    rows = dB.shape[0]
    n_nodes = iL - i0 + 1
    dt = grid.dt

    B = np.empty((rows, iL + 1))
    B[:, 0] = 0.0
    np.cumsum(dB[:, :iL], axis=1, out=B[:, 1:])
    if setup.informed:
        alpha, L = drift_matrix(dB, setup.m_nodes, setup.q_tail, iL)
    else:
        alpha = np.zeros((rows, iL + 1))
        L = np.zeros(rows)
    ctx = ChunkContext(grid.times, dt, i0, iL, L, alpha, B)

    sig = setup.sigma_nodes[i0:iL]
    dbw = dB[:, i0:iL]
    X = np.empty((rows, n_nodes))
    X[:, 0] = setup.x0
    if policy.matrix_rule is not None:
        u = policy.matrix_rule(ctx)
        if u.shape != (rows, n_nodes):
            raise ValueError(f"matrix rule returned shape {u.shape}")
        gains = setup.excess * u[:, :-1] * dt + sig * u[:, :-1] * dbw
        if setup.r == 0.0:
            np.cumsum(gains, axis=1, out=X[:, 1:])
            X[:, 1:] += setup.x0
        else:
            growth = 1.0 + setup.r * dt
            x = X[:, 0]
            for k in range(n_nodes - 1):
                x = x * growth + gains[:, k]
                X[:, k + 1] = x
    elif policy.bulk_rule is not None:
        u = np.empty((rows, n_nodes))
        x = X[:, 0].copy()
        for k in range(n_nodes - 1):
            i = i0 + k
            uc = policy.bulk_rule(ctx, i, x)
            u[:, k] = uc
            x = x + (setup.r * x + setup.excess * uc) * dt + sig[k] * uc * dbw[:, k]
            X[:, k + 1] = x
        u[:, -1] = policy.bulk_rule(ctx, iL, x)
    else:
        raise ValueError(f"policy {policy.name!r} has no vectorized rule")

    diverged = ~np.all(np.isfinite(X), axis=1)
    return ctx, u, X, diverged
