"""Monte Carlo cost evaluation and numerical optimality certificates.

Four instruments, all statistical, all seeded:

* ``cost_mc`` estimates J(u) = E[ int a u^2 ds - b X_T ] by chunked
  simulation of the wealth dynamics.
* ``perturbation_sweep`` maps out F(y) = J(u + y theta) for a step
  perturbation theta = theta0 on a window; at an optimum the argmin sits at
  y = 0.  Each path's discrete cost is exactly c0 + c1 y + c2 y^2, read off
  one kernel pass with the base policy (``sweep_coefficients``).
* ``directional_derivative`` is F'(y) = c1 + 2 y c2, the exact derivative
  of the discrete cost.
* ``martingale_diagnostic`` tests E[phi * (N_u(t+h) - N_u(t))] = 0 for a
  dictionary of bounded information functions phi, where

      N_u(t) = int_0^t [2 a u_s - e^{-b_s}(rtilde - r)] ds
             - int_0^t e^{-b_s} sigma_s dB_s .

  Under the optimal control the increments have conditional mean zero, so
  every cell passes; a policy that ignores valuable information fails the
  correlated cells by a wide margin.

Each estimator runs top-level reducers ``(dB, ctx) -> arrays`` through
``enlargement.map_reducers``, which draws each chunk once for all of them
(``cost_mc_many`` prices several policies on the same paths) and returns
each reducer's per-row arrays joined over the batch in path order, so every
estimate is a deterministic function of (inputs, seed) whether or not a
process ``pool`` is passed.
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
    WealthSetup,
    make_wealth_setup,
    wealth_paths_chunk,
)
from .enlargement import map_reducers
from .paths import BrownianPath, TimeGrid, as_weight, running_sum

__all__ = [
    "EstimateWithError",
    "DivergenceError",
    "PerturbationSpec",
    "NuPath",
    "pooled_se",
    "collect_samples",
    "window_indices",
    "cost_chunk",
    "cost_mc",
    "cost_mc_many",
    "directional_derivative",
    "perturbation_sweep",
    "perturbed_policy",
    "sweep_coefficients",
    "martingale_diagnostic",
    "default_test_functions",
    "quarter_windows",
    "discounted_diffusion",
    "semimartingale_recovery",
]

# refuse the estimate when more than this fraction of paths diverge
MAX_DIVERGED_FRACTION = 1e-3


class DivergenceError(RuntimeError):
    """Too many paths went non-finite for the estimate to be trusted."""

    def __init__(self, n_diverged: int, n_paths: int):
        super().__init__(
            f"{n_diverged} of {n_paths} paths diverged "
            f"(> {MAX_DIVERGED_FRACTION:.1%}); estimate refused"
        )
        self.n_diverged = n_diverged
        self.n_paths = n_paths


@dataclass(frozen=True)
class EstimateWithError:
    """Monte Carlo point estimate with its standard error."""

    mean: float
    std_error: float
    n_samples: int
    seed: int
    n_diverged: int = 0

    def __post_init__(self) -> None:
        if self.n_samples < 2:
            raise ValueError("need at least 2 samples for a standard error")
        if not self.std_error >= 0.0:
            raise ValueError("standard error must be nonnegative")

    @classmethod
    def from_samples(
        cls, samples: np.ndarray, seed: int, n_diverged: int = 0
    ) -> "EstimateWithError":
        n = len(samples)
        if n < 2:
            raise ValueError("need at least 2 samples")
        return cls(
            mean=float(samples.mean()),
            std_error=float(samples.std(ddof=1) / math.sqrt(n)),
            n_samples=n,
            seed=seed,
            n_diverged=n_diverged,
        )

    @classmethod
    def from_rows(cls, values: np.ndarray, diverged: np.ndarray,
                  seed: int) -> "EstimateWithError":
        """The estimate from per-row values, diverged rows dropped and
        counted by ``collect_samples``."""
        samples, n_diverged = collect_samples(values, diverged)
        return cls.from_samples(samples, seed, n_diverged)


def pooled_se(e1: EstimateWithError, e2: EstimateWithError) -> float:
    return math.hypot(e1.std_error, e2.std_error)


def collect_samples(values: np.ndarray,
                    diverged: np.ndarray) -> tuple[np.ndarray, int]:
    """``values`` (per-path values on the last axis) without the rows that
    ``diverged`` masks, and their count; more than
    ``MAX_DIVERGED_FRACTION`` of all rows raise DivergenceError."""
    n_diverged = int(diverged.sum())
    if n_diverged > MAX_DIVERGED_FRACTION * len(diverged):
        raise DivergenceError(n_diverged, len(diverged))
    return values[..., ~diverged], n_diverged


def cost_chunk(setup: WealthSetup, dB: np.ndarray, ctx: ChunkContext,
               policy: ControlPolicy) -> tuple[np.ndarray, np.ndarray]:
    """Per-path cost of ``policy`` on one chunk, trapezoid quadrature of
    a u^2 minus b X_T, and the mask of diverged rows."""
    # overflow is handled by detection below, not by warnings
    with np.errstate(over="ignore", invalid="ignore"):
        _, u, X, diverged = wealth_paths_chunk(setup, dB, ctx, policy)
        run = np.trapezoid(setup.a * u * u, dx=setup.grid.dt, axis=1)
        vals = run - setup.b_weight * X[:, -1]
    # a non-finite sample with finite state is still a numerical blow-up
    return vals, diverged | ~np.isfinite(vals)


def cost_mc(policy: ControlPolicy, params, n_paths: int, seed: int,
            n_steps: int, informed: bool = True,
            pool=None) -> EstimateWithError:
    """Estimate J(t0, x0; u) by simulation: trapezoid quadrature of
    a u_s^2 over [t0, T] minus b X_T.

    ``informed=False`` forces alpha = 0: the agent without the extra
    information, used for no-information limits.  ``pool`` (an executor)
    spreads the chunks over its workers; the estimate does not change.
    """
    return cost_mc_many([policy], params, n_paths, seed, n_steps, informed,
                        pool)[0]


def cost_mc_many(policies: Sequence[ControlPolicy], params, n_paths: int,
                 seed: int, n_steps: int, informed: bool = True,
                 pool=None) -> list[EstimateWithError]:
    """The ``cost_mc`` of every policy, all on one draw of the paths, each
    with its own diverged rows dropped and counted."""
    setup = make_wealth_setup(params, n_steps, informed=informed)
    reducers = [partial(cost_chunk, setup, policy=p) for p in policies]
    return [EstimateWithError.from_rows(vals, bad, seed)
            for vals, bad in map_reducers(setup, reducers, seed, n_paths, pool)]


# ---------------------------------------------------------------------------
# Step perturbations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PerturbationSpec:
    """A step direction theta_s = chi_{(t, t+h]}(s) theta0.

    ``theta0`` is either a constant or a rule of the information at the
    window start, called as theta0(B_t, L) on arrays; values are clipped to
    [-theta_bound, theta_bound] to enforce boundedness.  ``y_grid`` is the
    amplitude grid of the sweep and must contain 0.
    """

    window: tuple[float, float]
    theta0: float | Callable[[np.ndarray, np.ndarray], np.ndarray] = 1.0
    y_grid: tuple[float, ...] = (
        -0.5, -0.4, -0.3, -0.2, -0.1, 0.0, 0.1, 0.2, 0.3, 0.4, 0.5,
    )
    theta_bound: float = 10.0

    def __post_init__(self) -> None:
        lo, hi = self.window
        if not lo < hi:
            raise ValueError(f"empty window ({lo}, {hi}]")
        if not math.isfinite(self.theta_bound) or self.theta_bound <= 0:
            raise ValueError("theta0 must be bounded: theta_bound finite positive")

    def theta_values(self, ctx: ChunkContext, ilo: int) -> np.ndarray:
        if callable(self.theta0):
            th = np.asarray(self.theta0(ctx.B[:, ilo], ctx.L), dtype=float)
            th = np.broadcast_to(th, ctx.L.shape).copy()
        else:
            th = np.full(ctx.L.shape, float(self.theta0))
        return np.clip(th, -self.theta_bound, self.theta_bound)


def window_indices(grid: TimeGrid, window: Sequence[float], t0: float,
                   T: float) -> tuple[int, int]:
    """Node indices (ilo, ihi) of a window (lo, hi] that sits inside [t0, T]."""
    lo, hi = window
    ilo, ihi = grid.index_of(lo), grid.index_of(hi)
    if not (grid.index_of(t0) <= ilo < ihi <= grid.index_of(T)):
        raise ValueError(f"window ({lo}, {hi}] outside the horizon [{t0}, {T}]")
    return ilo, ihi


@dataclass(frozen=True)
class NuPath:
    """Discrete N_u along one path; N(0) = 0 by construction."""

    grid: TimeGrid
    values: np.ndarray


def perturbed_policy(
    base: ControlPolicy, spec: PerturbationSpec, y: float, params
) -> ControlPolicy:
    """u + y * chi_window * theta0 as a new policy.

    theta0 freezes at the window-start node: it is measurable for the
    information available when the perturbation switches on.
    """

    def matrix_rule(ctx: ChunkContext) -> np.ndarray:
        u = base.matrix_rule(ctx)
        ilo, ihi = window_indices(
            TimeGrid(ctx.times[0], ctx.times[-1], len(ctx.times) - 1),
            spec.window, params.t0, params.T,
        )
        out = u.copy()
        th = spec.theta_values(ctx, ilo)
        out[:, ilo - ctx.i0 : ihi - ctx.i0] += y * th[:, None]
        return out

    if base.matrix_rule is None:
        raise ValueError("perturbation requires a state-free base policy")
    return ControlPolicy(f"{base.name}+{y:g}*step", matrix_rule=matrix_rule)


def sweep_coefficients(
    setup: WealthSetup,
    dB: np.ndarray,
    ctx: ChunkContext,
    policy: ControlPolicy,
    spec: PerturbationSpec,
    window: tuple[int, int],
) -> tuple[np.ndarray, np.ndarray]:
    """Per-path coefficients of the discrete cost F(y) = c0 + c1 y + c2 y^2.

    F(y) is the cost of ``perturbed_policy(policy, spec, y)``: trapezoid
    quadrature of a u^2 minus b X_T.  A state-free policy makes the
    Euler recursion of X linear in u, so one kernel pass with the base
    policy gives c0 = F(0), c1 = theta (2 a sum_win w_k u_k - b K)
    and c2 = a theta^2 sum_win w_k, with w the trapezoid weights (dt/2 at
    t0) and K = sum_win (1 + r dt)^(i_last - 1 - k) (excess dt + sigma_k dB_k)
    over the window nodes k in [ilo, ihi).  Returns the (3, rows) array of
    (c0, c1, c2) and the mask of rows that diverge, at every y alike.
    """
    if policy.matrix_rule is None:
        raise ValueError("perturbation requires a state-free base policy")
    ilo, ihi = window
    dt = setup.grid.dt
    w = np.full(ihi - ilo, dt)
    if ilo == setup.i0:
        w[0] = 0.5 * dt
    growth = (1.0 + setup.r * dt) ** (setup.i_last - 1 - np.arange(ilo, ihi))
    # overflow is handled by detection below, not by warnings
    with np.errstate(over="ignore", invalid="ignore"):
        ctx, u, X, diverged = wealth_paths_chunk(setup, dB, ctx, policy)
        c0 = np.trapezoid(setup.a * u * u, dx=dt, axis=1)
        c0 -= setup.b_weight * X[:, -1]
        th = spec.theta_values(ctx, ilo)
        gain = setup.excess * dt + setup.sigma_nodes[ilo:ihi] * dB[:, ilo:ihi]
        kick = gain @ growth
        u_w = u[:, ilo - setup.i0 : ihi - setup.i0]
        c1 = th * (2.0 * setup.a * (u_w @ w) - setup.b_weight * kick)
        c2 = setup.a * w.sum() * th * th
        bad = diverged | ~np.isfinite(c0) | ~np.isfinite(c1)
    return np.stack([c0, c1, c2]), bad


def _sweep_samples(policy, params, spec, n_paths, seed, n_steps, informed,
                   pool) -> tuple[np.ndarray, int]:
    """(3, paths) array of the finite rows' (c0, c1, c2), and the diverged count."""
    setup = make_wealth_setup(params, n_steps, informed=informed)
    window = window_indices(setup.grid, spec.window, params.t0, params.T)
    reduce_chunk = partial(sweep_coefficients, setup, policy=policy, spec=spec,
                           window=window)
    ((coeffs, bad),) = map_reducers(setup, [reduce_chunk], seed, n_paths, pool)
    return collect_samples(coeffs, bad)


def directional_derivative(
    policy: ControlPolicy,
    params,
    spec: PerturbationSpec,
    y: float,
    n_paths: int,
    seed: int,
    n_steps: int,
    informed: bool = True,
    pool=None,
) -> EstimateWithError:
    """Estimate F'(y) for F(y) = J(u + y theta) at amplitude y.

    Per path this is c1 + 2 y c2 from ``sweep_coefficients``: the exact
    derivative of the discrete cost (trapezoid quadrature, Euler growth
    1 + r dt), taken from one kernel pass, not by differencing two cost
    estimates.  The policy must be state-free, which is what the
    laboratory ships.
    """
    if not (min(spec.y_grid) <= y <= max(spec.y_grid)):
        raise ValueError(f"amplitude y={y} outside spec.y_grid")
    (_, c1, c2), n_div = _sweep_samples(
        policy, params, spec, n_paths, seed, n_steps, informed, pool,
    )
    return EstimateWithError.from_samples(c1 + 2.0 * y * c2, seed, n_diverged=n_div)


def perturbation_sweep(
    policy: ControlPolicy,
    params,
    spec: PerturbationSpec,
    n_paths: int,
    seed: int,
    n_steps: int,
    informed: bool = True,
    pool=None,
) -> dict:
    """F(y) over the amplitude grid with common random numbers.

    Each path's discrete cost is the exact quadratic c0 + c1 y + c2 y^2 of
    ``sweep_coefficients``, so the whole grid comes from one kernel pass
    with the base policy; every y sees the identical increment streams,
    and the comparison across y is variance-reduced.  Returns the rows
    (y, mean, std_error), the argmin (ties resolve toward the smallest |y|)
    and ``derivative_at_zero``, the estimate of F'(0) = c1 from the same
    pass.
    """
    if 0.0 not in spec.y_grid:
        raise ValueError("amplitude grid must contain 0")
    (c0, c1, c2), n_div = _sweep_samples(
        policy, params, spec, n_paths, seed, n_steps, informed, pool,
    )
    rows = []
    for y in spec.y_grid:
        est = EstimateWithError.from_samples(c0 + y * (c1 + y * c2), seed)
        rows.append({"y": y, "mean": est.mean, "std_error": est.std_error})
    order = sorted(rows, key=lambda r: (r["mean"], abs(r["y"])))
    return {
        "rows": rows,
        "argmin_y": order[0]["y"],
        "derivative_at_zero": EstimateWithError.from_samples(c1, seed,
                                                             n_diverged=n_div),
    }


# ---------------------------------------------------------------------------
# Martingale diagnostic
# ---------------------------------------------------------------------------

def _phi(name: str, c: float, Bt: np.ndarray, L: np.ndarray) -> np.ndarray:
    if name == "one":
        return np.ones_like(L)
    x = {"clip_L": L, "clip_B": Bt, "clip_LB": L * Bt}[name]
    return np.clip(x, -c, c)


def default_test_functions(bound: float = 10.0) -> list[tuple[str, Callable]]:
    """Bounded information functions of (B_t, L) evaluated at window start."""
    names = ("one", "clip_L", "clip_B", "clip_LB")
    return [(name, partial(_phi, name, float(bound))) for name in names]


def quarter_windows(T: float, t0: float = 0.0) -> list[tuple[float, float]]:
    """Four windows tiling [t0, T] from t0 + (T - t0)/8: one eighth, then quarters."""
    s = T - t0
    return [(t0 + s / 8, t0 + s / 4), (t0 + s / 4, t0 + s / 2),
            (t0 + s / 2, t0 + 3 * s / 4), (t0 + 3 * s / 4, T)]


def nu_increments(
    setup: WealthSetup, ctx: ChunkContext, u: np.ndarray, dB: np.ndarray,
    ilo: int, ihi: int,
) -> np.ndarray:
    """N_u(t_hi) - N_u(t_lo) per path, left-point sums throughout."""
    t = setup.grid.times[ilo:ihi]
    disc = np.exp(-setup.r * t)
    u_w = u[:, ilo - ctx.i0 : ihi - ctx.i0]
    ds_part = (2.0 * setup.a * u_w - disc * setup.excess).sum(axis=1) * setup.grid.dt
    db_part = (disc * setup.sigma_nodes[ilo:ihi] * dB[:, ilo:ihi]).sum(axis=1)
    return ds_part - db_part


def nu_path(setup: WealthSetup, ctx: ChunkContext, u: np.ndarray,
            dB: np.ndarray, row: int = 0) -> NuPath:
    """Full N_u trajectory for one row of a chunk (diagnostics, plots)."""
    i0, iL = ctx.i0, ctx.i_last
    t = setup.grid.times[i0:iL]
    disc = np.exp(-setup.r * t)
    steps = (
        (2.0 * setup.a * u[row, : iL - i0] - disc * setup.excess) * setup.grid.dt
        - disc * setup.sigma_nodes[i0:iL] * dB[row, i0:iL]
    )
    values = running_sum(steps)
    return NuPath(TimeGrid(float(t[0]), setup.grid.times[iL], iL - i0), values)


def _martingale_chunk(setup, policy, bounds, test_fns, dB, ctx):
    """(cells, rows) products phi * (N_u increment), window-major, and the
    mask of rows whose state or any product is non-finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        ctx, u, X, diverged = wealth_paths_chunk(setup, dB, ctx, policy)
        del X  # not needed, and freeing it lowers the peak of the products
        prods = []
        for ilo, ihi in bounds:
            dn = nu_increments(setup, ctx, u, dB, ilo, ihi)
            prods += [fn(ctx.B[:, ilo], ctx.L) * dn for _, fn in test_fns]
        prods = np.stack(prods)
    return prods, diverged | ~np.all(np.isfinite(prods), axis=0)


def martingale_diagnostic(
    policy: ControlPolicy,
    params,
    n_paths: int,
    seed: int,
    n_steps: int,
    windows: Sequence[tuple[float, float]] | None = None,
    test_fns: Sequence[tuple[str, Callable]] | None = None,
    informed: bool = True,
    threshold: float = 3.0,
    pool=None,
) -> list[dict]:
    """E[phi * (N_u increment)] for every (window, phi) cell.

    A cell passes when |estimate| <= threshold * SE.  Under the optimal
    control the increments are conditionally centered given the window-start
    information, so every phi in the dictionary is uncorrelated with them.
    Rows whose state or any product goes non-finite are dropped from every
    cell and counted; too many raise DivergenceError.
    """
    if windows is None:
        windows = quarter_windows(params.T, params.t0)
    if test_fns is None:
        test_fns = default_test_functions()
    test_fns = list(test_fns)
    if not test_fns:
        raise ValueError("need at least one test function")
    setup = make_wealth_setup(params, n_steps, informed=informed)
    windows = list(windows)
    bounds = [window_indices(setup.grid, w, params.t0, params.T) for w in windows]
    reduce_chunk = partial(_martingale_chunk, setup, policy, bounds, test_fns)
    ((prods, bad),) = map_reducers(setup, [reduce_chunk], seed, n_paths, pool)
    samples, n_div = collect_samples(prods, bad)

    out = []
    cells = ((w, name) for w in windows for name, _ in test_fns)
    for (w, fname), row in zip(cells, samples):
        est = EstimateWithError.from_samples(row, seed, n_diverged=n_div)
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
    return BrownianPath(B.grid, values, seed=B.seed)


def semimartingale_recovery(R: BrownianPath, params,
                            sigma_floor: float = 1e-8) -> BrownianPath:
    """Reconstruct B from R through  int_0^t e^{b_s} sigma_s^{-1} dR.

    Inverts ``discounted_diffusion`` step by step; on the same grid the
    composition is exact up to floating roundoff (bit-exact whenever the
    node weights are exact reciprocals, e.g. constant sigma in {1, 2} and
    r = 0).  The diffusion must stay above ``sigma_floor``.
    """
    t = R.grid.times[:-1]
    sig = as_weight(params.sigma_fn).nodes(t)
    if np.any(np.abs(sig) <= sigma_floor):
        raise ValueError("sigma falls below the invertibility floor")
    w = np.exp(params.r * t) / sig
    values = running_sum(w * np.diff(R.values))
    return BrownianPath(R.grid, values, seed=R.seed)
