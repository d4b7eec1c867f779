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

Policies are vectorised over the rows of a chunk.  The single-path routes
are one-row calls of ``_euler_rows``; ``wealth_paths_chunk``, the batch
kernel for the wealth dynamics dX = [r X + (rtilde - r) u] dt + sigma(t) u dB,
runs feedback policies through the same loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .enlargement import InfoDriftField, drift_matrix, tail_square_integral
from .paths import BrownianPath, TimeGrid, as_weight, running_sum

__all__ = [
    "SimulationDiverged",
    "CoefficientSpec",
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


@dataclass(frozen=True)
class ControlPolicy:
    """A control rule in one of two vectorised forms; exactly one is set.

    ``matrix_rule(ctx)`` returns the whole (rows, nodes) control matrix of a
    chunk at once: the control does not depend on the state, and the wealth
    kernel skips the time loop.  ``bulk_rule(ctx, i, x)`` returns the
    controls at node i for the states x of every row: state feedback.
    """

    name: str
    matrix_rule: Callable[[ChunkContext], np.ndarray] | None = None
    bulk_rule: Callable[[ChunkContext, int, np.ndarray], np.ndarray] | None = None

    def __post_init__(self) -> None:
        if (self.matrix_rule is None) == (self.bulk_rule is None):
            raise ValueError(
                f"policy {self.name!r} needs exactly one of matrix_rule "
                "and bulk_rule"
            )


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
    return ControlPolicy(name, matrix_rule=partial(_formula_matrix, fn))


def _feedback_bulk(fn, ctx: ChunkContext, i: int, x: np.ndarray) -> np.ndarray:
    out = fn(ctx.times[i], x, ctx.alpha[:, i], ctx.L)
    return np.broadcast_to(out, x.shape).astype(float, copy=False)


def feedback_policy(
    name: str, fn: Callable[[float, np.ndarray, np.ndarray, np.ndarray], np.ndarray]
) -> ControlPolicy:
    """Policy u = fn(t, x, alpha_i, L) with vectorized state feedback."""
    return ControlPolicy(name, bulk_rule=partial(_feedback_bulk, fn))


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


def _control_matrix(policy: ControlPolicy, ctx: ChunkContext) -> np.ndarray:
    u = policy.matrix_rule(ctx)
    shape = (len(ctx.L), ctx.i_last - ctx.i0 + 1)
    if u.shape != shape:
        raise ValueError(f"matrix rule returned shape {u.shape}, need {shape}")
    return u


def _euler_rows(
    policy: ControlPolicy,
    ctx: ChunkContext,
    x0: float,
    dW: np.ndarray,
    extra: np.ndarray,
    b: Callable[[int, np.ndarray, np.ndarray], np.ndarray],
    sigma: Callable[[int, np.ndarray, np.ndarray], np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """X_{k+1} = X_k + (b + sigma extra_k) dt + sigma dW_k on nodes i0..i_last.

    b and sigma are called as (i, X_k, u_k) at node i = i0 + k; ``dW`` and
    ``extra`` (which may have one row for all) hold one column per step.
    Returns (u, X), both (rows, i_last - i0 + 1), with the control from the
    matrix rule once or from the bulk rule at every node.
    """
    rows, n = dW.shape
    X = np.empty((rows, n + 1))
    X[:, 0] = x0
    feedback = policy.matrix_rule is None
    u = np.empty((rows, n + 1)) if feedback else _control_matrix(policy, ctx)
    x = X[:, 0]
    for k in range(n):
        i = ctx.i0 + k
        if feedback:
            u[:, k] = policy.bulk_rule(ctx, i, x)
        s = sigma(i, x, u[:, k])
        x = x + (b(i, x, u[:, k]) + s * extra[:, k]) * ctx.dt + s * dW[:, k]
        X[:, k + 1] = x
    if feedback:
        u[:, -1] = policy.bulk_rule(ctx, ctx.i_last, x)
    return u, X


def _simulate_row(
    coeffs: CoefficientSpec, policy: ControlPolicy, ctx: ChunkContext,
    x0: float, dW: np.ndarray, extra: np.ndarray,
) -> StatePath:
    """One-row ``_euler_rows`` with coefficients of time, as a StatePath."""
    t = ctx.times
    with np.errstate(over="ignore", invalid="ignore"):
        u, X = _euler_rows(
            policy, ctx, x0, dW[None, :], extra[None, :],
            lambda i, x, u: coeffs.b(t[i], x, u),
            lambda i, x, u: coeffs.sigma(t[i], x, u),
        )
    bad = np.flatnonzero(~np.isfinite(X[0]))
    if bad.size:
        raise SimulationDiverged(f"state non-finite at node {bad[0]}",
                                 index=int(bad[0]))
    grid = TimeGrid(float(t[ctx.i0]), float(t[ctx.i_last]), len(dW))
    return StatePath(grid, X[0], u[0, :-1])


def simulate_forward(
    coeffs: CoefficientSpec,
    policy: ControlPolicy,
    B: BrownianPath,
    x0: float,
    t0: float = 0.0,
    drift_field: InfoDriftField | None = None,
) -> StatePath:
    """Euler path of dX = b dt + sigma dB with a G-adapted control.

    The drift field, when given, only feeds alpha and L to the policy; the
    dynamics are driven by the raw increments of B.
    """
    grid = B.grid
    i0 = grid.index_of(t0)
    if drift_field is None:
        drift_field = InfoDriftField.zero(B, grid.t_end)
    ctx = ChunkContext(grid.times, grid.dt, i0, grid.n_steps,
                       np.array([drift_field.L]), drift_field.alpha[None, :],
                       B.values[None, :])
    db = np.diff(B.values)[i0:]
    return _simulate_row(coeffs, policy, ctx, x0, db, np.zeros_like(db))


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
    grid = btilde.grid
    i0, n = grid.index_of(t0), grid.n_steps
    alpha = drift_field.alpha
    ctx = ChunkContext(grid.times, grid.dt, i0, n, np.array([drift_field.L]),
                       alpha[None, :], drift_field.path.values[None, : n + 1])
    return _simulate_row(coeffs, policy, ctx, x0, np.diff(btilde.values)[i0:],
                         alpha[i0:n])


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
    policy : a state-free policy runs as a cumulative sum of gains, a
        feedback policy through ``_euler_rows``.

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

    B = running_sum(dB[:, :iL])
    if setup.informed:
        alpha, L = drift_matrix(dB, setup.m_nodes, setup.q_tail, iL)
    else:
        alpha = np.zeros((rows, iL + 1))
        L = np.zeros(rows)
    ctx = ChunkContext(grid.times, dt, i0, iL, L, alpha, B)

    sig = setup.sigma_nodes[i0:iL]
    dbw = dB[:, i0:iL]
    if policy.matrix_rule is not None:
        X = np.empty((rows, n_nodes))
        X[:, 0] = setup.x0
        u = _control_matrix(policy, ctx)
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
    else:
        u, X = _euler_rows(
            policy, ctx, setup.x0, dbw, np.zeros((1, n_nodes - 1)),
            lambda i, x, u: setup.r * x + setup.excess * u,
            lambda i, x, u: sig[i - i0] * u,
        )

    diverged = ~np.all(np.isfinite(X), axis=1)
    return ctx, u, X, diverged
