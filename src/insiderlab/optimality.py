"""Monte Carlo cost evaluation and numerical optimality certificates.

Four instruments, all statistical, all seeded:

* ``cost_mc`` estimates J(u) = E[ int a u^2 ds - b X_T ] by chunked
  simulation of the wealth dynamics.
* ``perturbation_sweep`` maps out F(y) = J(u + y theta) for a step
  perturbation theta = theta0 on a window; at an optimum the argmin sits at
  y = 0.  Each path's discrete cost is exactly c0 + c1 y + c2 y^2: c0 is
  the base policy's cost (``cost_sum``), c1 a node sum of u and dB over the
  window (``sweep_coefficients``).
* ``directional_derivative`` is F'(y) = c1 + 2 y c2, the exact derivative
  of the discrete cost.
* ``martingale_diagnostic`` tests E[phi * (N_u(t+h) - N_u(t))] = 0 for
  four bounded information functions phi.  N_u's increment over a window
  is the perturbation's c1 per unit theta (``sweep_window``), the discrete
  first-order sum sum_k 2 a w_k u_k - W_k (excess dt + sigma_k dB_k) with
  W_k = b (1 + r dt)^(i_last - 1 - k): the discrete -G_x of the condition
  2 a u + G_x (rtilde - r + sigma alpha) = 0, b e^{-r(t - T)} at r = 0.
  Under the discrete optimum the increments have conditional mean zero
  exactly, at every b and r; a policy that ignores valuable information
  fails the correlated cells by a wide margin.

Each estimator runs top-level reducers ``(dB, ctx) -> arrays`` through
``enlargement.map_reducers``, which draws each chunk once for all of them
(``cost_mc_many`` prices several policies on the same paths) and returns
each reducer's per-row arrays joined over the batch in path order, so every
estimate is a deterministic function of (inputs, seed) whether or not a
process ``pool`` is passed.  No reducer forms a control matrix: each prices
its policy with the row contractions of ``controlled_sde.NodeSum``, node
sums over a window of u^2, u, u dB and dB built once per op by
``controlled_sde.node_sum`` (a policy's cost: ``controlled_sde.cost_sum``).
No reducer returns a mask either: a row diverges exactly when a value that
the estimate reads is not finite, and ``collect_samples`` drops and counts
it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .controlled_sde import (
    ChunkContext,
    ControlPolicy,
    NodeSum,
    WealthSetup,
    cost_sum,
    make_wealth_setup,
    node_sum,
)
from .enlargement import map_reducers
from .paths import BrownianPath, TimeGrid, as_weight, running_sum

__all__ = [
    "EstimateWithError",
    "DivergenceError",
    "PerturbationSpec",
    "pooled_se",
    "collect_samples",
    "window_indices",
    "cost_chunk",
    "cost_mc",
    "cost_mc_many",
    "directional_derivative",
    "perturbation_sweep",
    "sweep_coefficients",
    "sweep_window",
    "martingale_diagnostic",
    "default_test_functions",
    "quarter_windows",
    "discounted_diffusion",
    "semimartingale_recovery",
]

# refuse the estimate when more than this fraction of paths diverge
MAX_DIVERGED_FRACTION = 1e-3

CLIP = 10.0  # theta0 and every test function phi are clipped to [-CLIP, CLIP]


class DivergenceError(RuntimeError):
    """Too many paths diverged, or a moment overflowed: no trusted estimate."""

    def __init__(self, n_diverged: int, n_paths: int, reason: str = ""):
        super().__init__(
            reason or f"{n_diverged} of {n_paths} paths diverged "
            f"(> {MAX_DIVERGED_FRACTION:.1%}); estimate refused"
        )
        self.n_diverged = n_diverged
        self.n_paths = n_paths


@dataclass(frozen=True)
class EstimateWithError:
    """Monte Carlo mean and standard error of ``n_samples`` finite samples;
    ``n_diverged`` diverged paths were dropped.  A mean or standard error
    that is not finite raises DivergenceError."""

    mean: float
    std_error: float
    n_samples: int
    n_diverged: int = 0

    def __post_init__(self) -> None:
        if self.n_samples < 2:
            raise ValueError("need at least 2 samples for a standard error")
        if not (math.isfinite(self.mean) and math.isfinite(self.std_error)):
            raise DivergenceError(self.n_diverged, self.n_samples + self.n_diverged, (
                f"a moment of {self.n_samples} finite samples overflowed (mean "
                f"{self.mean:g}, standard error {self.std_error:g}); estimate refused"))
        if not self.std_error >= 0.0:
            raise ValueError("standard error must be nonnegative")

    @classmethod
    def from_samples(cls, samples: np.ndarray,
                     n_diverged: int = 0) -> "EstimateWithError":
        n = len(samples)
        if n < 2:
            raise ValueError("need at least 2 samples")
        with np.errstate(over="ignore", invalid="ignore"):
            mean = float(samples.mean())
            std_error = float(samples.std(ddof=1) / math.sqrt(n))
        return cls(mean, std_error, n, n_diverged)

    @classmethod
    def from_rows(cls, values: np.ndarray) -> "EstimateWithError":
        """The estimate from per-row values, diverged rows dropped and
        counted by ``collect_samples``."""
        return cls.from_samples(*collect_samples(values))


def pooled_se(e1: EstimateWithError, e2: EstimateWithError) -> float:
    return math.hypot(e1.std_error, e2.std_error)


def collect_samples(values: np.ndarray) -> tuple[np.ndarray, int]:
    """``values`` (per-path values on the last axis) without the diverged
    rows, those with a value that is not finite, and their count; more than
    ``MAX_DIVERGED_FRACTION`` of all rows raise DivergenceError."""
    diverged = ~np.isfinite(values).reshape(-1, values.shape[-1]).all(axis=0)
    n_diverged = int(diverged.sum())
    if n_diverged > MAX_DIVERGED_FRACTION * len(diverged):
        raise DivergenceError(n_diverged, len(diverged))
    return values[..., ~diverged], n_diverged


def cost_chunk(cost: NodeSum, dB: np.ndarray,
               ctx: ChunkContext) -> tuple[np.ndarray]:
    """Per-path cost of the policy whose ``cost_sum`` this is, on one block:
    trapezoid quadrature of a u^2 minus b X_T."""
    return (cost.rows(dB, ctx),)


def cost_mc(policy: ControlPolicy, params, n_paths: int, seed: int,
            n_steps: int, pool=None) -> EstimateWithError:
    """Estimate J(t0, x0; u) by simulation: trapezoid quadrature of
    a u_s^2 over [t0, T] minus b X_T.

    No-information limits price ``controlled_sde.uninformed(policy)``, the
    same policy with gain 0.  ``pool`` (an executor) spreads the
    chunks over its workers; the estimate does not change.
    """
    return cost_mc_many([policy], params, n_paths, seed, n_steps, pool)[0]


def cost_mc_many(policies: Sequence[ControlPolicy], params, n_paths: int,
                 seed: int, n_steps: int, pool=None) -> list[EstimateWithError]:
    """The ``cost_mc`` of every policy, all on one draw of the paths, each
    with its own diverged rows dropped and counted."""
    setup = make_wealth_setup(params, n_steps)
    reducers = [partial(cost_chunk, cost_sum(setup, p)) for p in policies]
    return [EstimateWithError.from_rows(vals)
            for (vals,) in map_reducers(setup, reducers, seed, n_paths, pool)]


# ---------------------------------------------------------------------------
# Step perturbations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PerturbationSpec:
    """A step direction theta_s = chi_{(t, t+h]}(s) theta0.

    ``theta0`` is either a constant or a rule of the information at the
    window start, called as theta0(B_t, L) on arrays; values are clipped to
    [-CLIP, CLIP] to enforce boundedness.  ``y_grid`` is the amplitude grid
    of the sweep and must contain 0.
    """

    window: tuple[float, float]
    theta0: float | Callable[[np.ndarray, np.ndarray], np.ndarray] = 1.0
    y_grid: tuple[float, ...] = (
        -0.5, -0.4, -0.3, -0.2, -0.1, 0.0, 0.1, 0.2, 0.3, 0.4, 0.5,
    )

    def __post_init__(self) -> None:
        lo, hi = self.window
        if not lo < hi:
            raise ValueError(f"empty window ({lo}, {hi}]")

    def theta_values(self, ctx: ChunkContext, ilo: int) -> np.ndarray:
        if callable(self.theta0):
            th = np.asarray(self.theta0(ctx.B[:, ilo], ctx.L), dtype=float)
            th = np.broadcast_to(th, ctx.L.shape).copy()
        else:
            th = np.full(ctx.L.shape, float(self.theta0))
        return np.clip(th, -CLIP, CLIP)


def window_indices(grid: TimeGrid, window: Sequence[float], t0: float,
                   T: float) -> tuple[int, int]:
    """Node indices (ilo, ihi) of a window (lo, hi] that sits inside [t0, T]."""
    lo, hi = window
    ilo, ihi = grid.index_of(lo), grid.index_of(hi)
    if not (grid.index_of(t0) <= ilo < ihi <= grid.index_of(T)):
        raise ValueError(f"window ({lo}, {hi}] outside the horizon [{t0}, {T}]")
    return ilo, ihi


def sweep_window(setup: WealthSetup, policy: ControlPolicy,
                 window: tuple[int, int]) -> NodeSum:
    """c1 / theta of ``sweep_coefficients`` as a node sum over the nodes
    k in [ilo, ihi) of ``window``: 2 a sum w_k u_k - b K with
    K = sum (1 + r dt)^(i_last - 1 - k) (excess dt + sigma_k dB_k), and N_u's
    increment over the window (``martingale_diagnostic``)."""
    ilo, ihi = window
    lo, hi = ilo - setup.i0, ihi - setup.i0
    growth, b = setup.growth[lo + 1 : hi + 1], setup.b_weight
    edt = setup.excess * setup.grid.dt
    with np.errstate(over="ignore", invalid="ignore"):
        on_dB = -b * growth * setup.sigma_nodes[ilo:ihi]
        drift = float(np.sum(growth)) * edt if edt else 0.0  # not inf * 0
        return node_sum(setup, policy, ilo, ihi,
                        u=2.0 * setup.a * setup.trapezoid[lo:hi], dB=on_dB,
                        const=-b * drift)


def sweep_coefficients(
    cost: NodeSum,
    spec: PerturbationSpec,
    window: NodeSum,
    curvature: float,
    dB: np.ndarray,
    ctx: ChunkContext,
) -> tuple[np.ndarray]:
    """Per-path coefficients of the discrete cost F(y) = c0 + c1 y + c2 y^2.

    F(y) is the cost of the control u + y theta chi_window, with theta
    frozen at the window-start node: trapezoid quadrature of a u^2 minus
    b X_T.  The policy is state-free, so the Euler recursion of X is
    linear in u: c0 = F(0) is the base policy's ``cost_sum``,
    c1 = theta (2 a sum_win w_k u_k - b K) is theta times the
    ``sweep_window`` sum, and c2 = theta^2 ``curvature``, the curvature
    being a sum_win w_k, with w the trapezoid weights (dt/2 at t0) and
    K = sum_win (1 + r dt)^(i_last - 1 - k) (excess dt + sigma_k dB_k)
    over the window nodes k in [ilo, ihi).  Returns the (3, rows) array of
    (c0, c1, c2); a row with one that is not finite diverges at every y.
    """
    th = spec.theta_values(ctx, window.lo)
    # overflow shows as inf or nan in the coefficients, not as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        c1 = th * window.rows(dB, ctx)
        c2 = curvature * th * th
    return (np.stack([cost.rows(dB, ctx), c1, c2]),)


def _sweep_samples(policy, params, spec, n_paths, seed, n_steps,
                   pool) -> tuple[np.ndarray, int]:
    """(3, paths) array of the finite rows' (c0, c1, c2), and the diverged count."""
    setup = make_wealth_setup(params, n_steps)
    ilo, ihi = window_indices(setup.grid, spec.window, params.t0, params.T)
    curvature = setup.a * setup.trapezoid[ilo - setup.i0 : ihi - setup.i0].sum()
    reduce_chunk = partial(sweep_coefficients, cost_sum(setup, policy), spec,
                           sweep_window(setup, policy, (ilo, ihi)), curvature)
    ((coeffs,),) = map_reducers(setup, [reduce_chunk], seed, n_paths, pool)
    return collect_samples(coeffs)


def directional_derivative(
    policy: ControlPolicy,
    params,
    spec: PerturbationSpec,
    y: float,
    n_paths: int,
    seed: int,
    n_steps: int,
    pool=None,
) -> EstimateWithError:
    """Estimate F'(y) for F(y) = J(u + y theta) at amplitude y.

    Per path this is c1 + 2 y c2 from ``sweep_coefficients``: the exact
    derivative of the discrete cost (trapezoid quadrature, Euler growth
    1 + r dt), read off the base policy's paths, not by differencing two
    cost estimates.
    """
    if not (min(spec.y_grid) <= y <= max(spec.y_grid)):
        raise ValueError(f"amplitude y={y} outside spec.y_grid")
    (_, c1, c2), n_div = _sweep_samples(
        policy, params, spec, n_paths, seed, n_steps, pool,
    )
    return EstimateWithError.from_samples(c1 + 2.0 * y * c2, n_diverged=n_div)


def perturbation_sweep(
    policy: ControlPolicy,
    params,
    spec: PerturbationSpec,
    n_paths: int,
    seed: int,
    n_steps: int,
    pool=None,
) -> dict:
    """F(y) over the amplitude grid with common random numbers.

    Each path's discrete cost is the exact quadratic c0 + c1 y + c2 y^2 of
    ``sweep_coefficients``, so the whole grid comes from the base policy's
    paths, with no pass per y; every y sees the identical increment
    streams, and the comparison across y is variance-reduced.  Returns the rows
    (y, mean, std_error), the argmin (ties resolve toward the smallest |y|)
    and ``derivative_at_zero``, the estimate of F'(0) = c1 from the same
    pass.
    """
    if 0.0 not in spec.y_grid:
        raise ValueError("amplitude grid must contain 0")
    (c0, c1, c2), n_div = _sweep_samples(
        policy, params, spec, n_paths, seed, n_steps, pool,
    )
    rows = []
    with np.errstate(over="ignore", invalid="ignore"):  # from_samples refuses inf
        for y in spec.y_grid:
            est = EstimateWithError.from_samples(c0 + y * (c1 + y * c2))
            rows.append({"y": y, "mean": est.mean, "std_error": est.std_error})
    order = sorted(rows, key=lambda r: (r["mean"], abs(r["y"])))
    return {
        "rows": rows,
        "argmin_y": order[0]["y"],
        "derivative_at_zero": EstimateWithError.from_samples(c1,
                                                             n_diverged=n_div),
    }


# ---------------------------------------------------------------------------
# Martingale diagnostic
# ---------------------------------------------------------------------------

def _phi(name: str, Bt: np.ndarray, L: np.ndarray) -> np.ndarray:
    if name == "one":
        return np.ones_like(L)
    x = {"clip_L": L, "clip_B": Bt, "clip_LB": L * Bt}[name]
    return np.clip(x, -CLIP, CLIP)


def default_test_functions() -> list[tuple[str, Callable]]:
    """phi(B_t, L) at window start: 1, and L, B_t, L B_t clipped to +-CLIP."""
    names = ("one", "clip_L", "clip_B", "clip_LB")
    return [(name, partial(_phi, name)) for name in names]


def quarter_windows(T: float, t0: float = 0.0) -> list[tuple[float, float]]:
    """Four windows tiling [t0, T] from t0 + (T - t0)/8: one eighth, then quarters."""
    s = T - t0
    return [(t0 + s / 8, t0 + s / 4), (t0 + s / 4, t0 + s / 2),
            (t0 + s / 2, t0 + 3 * s / 4), (t0 + 3 * s / 4, T)]


def nu_increments(windows: Sequence[NodeSum], dB: np.ndarray,
                  ctx: ChunkContext) -> np.ndarray:
    """N_u(t_hi) - N_u(t_lo) per window and path, of shape (windows, rows):
    each window's ``sweep_window`` sum, two row contractions, of alpha and
    dB."""
    return np.array([window.rows(dB, ctx) for window in windows])


def _martingale_chunk(windows, test_fns, dB, ctx):
    """The (cells, rows) products phi * (N_u increment), window-major;
    ``windows`` holds the ``sweep_window`` of every window."""
    increments = nu_increments(windows, dB, ctx)
    prods = np.empty((len(windows) * len(test_fns), len(dB)))
    cells = iter(prods)
    with np.errstate(over="ignore", invalid="ignore"):
        for window, dn in zip(windows, increments):
            for _, fn in test_fns:
                np.multiply(fn(ctx.B[:, window.lo], ctx.L), dn,
                            out=next(cells))
    return (prods,)


def martingale_diagnostic(
    policy: ControlPolicy,
    params,
    n_paths: int,
    seed: int,
    n_steps: int,
    windows: Sequence[tuple[float, float]] | None = None,
    threshold: float = 3.0,
    pool=None,
) -> list[dict]:
    """E[phi * (N_u increment)] for every (window, phi) cell, phi from
    ``default_test_functions``.

    A cell passes when |estimate| <= threshold * SE.  A window's increment
    is its ``sweep_window`` sum, the discrete first-order sum with weights
    b (1 + r dt)^(i_last - 1 - k), the discrete -G_x (b e^{-r(t - T)} at
    r = 0).  Under the discrete optimum it is conditionally centered given
    the window-start information, so every phi is uncorrelated with it.
    Rows with a product that is not finite are dropped from every cell and
    counted; too many raise DivergenceError.
    """
    if windows is None:
        windows = quarter_windows(params.T, params.t0)
    test_fns = default_test_functions()
    setup = make_wealth_setup(params, n_steps)
    windows = list(windows)
    bounds = [window_indices(setup.grid, w, params.t0, params.T) for w in windows]
    sums = [sweep_window(setup, policy, bound) for bound in bounds]
    reduce_chunk = partial(_martingale_chunk, sums, test_fns)
    ((prods,),) = map_reducers(setup, [reduce_chunk], seed, n_paths, pool)
    samples, n_div = collect_samples(prods)

    out = []
    cells = ((w, name) for w in windows for name, _ in test_fns)
    for (w, fname), row in zip(cells, samples):
        est = EstimateWithError.from_samples(row, n_diverged=n_div)
        out.append({"window": w, "test_fn": fname, "mean": est.mean,
                    "std_error": est.std_error, "n": est.n_samples,
                    "pass": abs(est.mean) <= threshold * est.std_error})
    return out


# ---------------------------------------------------------------------------
# Semimartingale recovery
# ---------------------------------------------------------------------------

def discounted_diffusion(B: BrownianPath, params) -> BrownianPath:
    """R with dR = e^{-b_s} sigma_s dB, left-point sums on B's grid."""
    t = B.grid.times[:-1]
    w = np.exp(-params.r * t) * as_weight(params.sigma_fn).nodes(t)
    values = running_sum(w * np.diff(B.values))
    return BrownianPath(B.grid, values)


def semimartingale_recovery(R: BrownianPath, params) -> BrownianPath:
    """Reconstruct B from R through  int_0^t e^{b_s} sigma_s^{-1} dR.

    Inverts ``discounted_diffusion`` step by step; on the same grid the
    composition is exact up to floating roundoff (bit-exact whenever the
    node weights are exact reciprocals, e.g. constant sigma in {1, 2} and
    r = 0).  |sigma| must stay above 1e-8 at every node.
    """
    t = R.grid.times[:-1]
    sig = as_weight(params.sigma_fn).nodes(t)
    if np.any(np.abs(sig) <= 1e-8):
        raise ValueError("sigma falls below the invertibility floor")
    w = np.exp(params.r * t) / sig
    values = running_sum(w * np.diff(R.values))
    return BrownianPath(R.grid, values)
