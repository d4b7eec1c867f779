"""Monte Carlo cost evaluation and numerical optimality certificates.

Four instruments, all statistical, all seeded:

* ``cost_mc`` estimates J(u) = E[ int a u^2 ds - b e^{-int r} X_T ] by
  chunked simulation of the wealth dynamics.
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

All reductions run in fixed chunk order, so every estimate is a
deterministic function of (inputs, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .controlled_sde import (
    ChunkContext,
    ControlPolicy,
    WealthSetup,
    make_wealth_setup,
    wealth_paths_chunk,
)
from .paths import BrownianPath, TimeGrid, as_weight, iter_increment_chunks

__all__ = [
    "EstimateWithError",
    "DivergenceError",
    "PerturbationSpec",
    "NuPath",
    "pooled_se",
    "cost_mc",
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


def pooled_se(e1: EstimateWithError, e2: EstimateWithError) -> float:
    return math.hypot(e1.std_error, e2.std_error)


def _collect_samples(
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    reduce_chunk: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, int]:
    """Map each increment chunk to per-path values (the last axis) and a mask
    of diverged rows; diverged rows are excluded but counted."""
    if n_paths < 2:
        raise ValueError("n_paths must be >= 2")
    out: list[np.ndarray] = []
    n_diverged = 0
    for _, dB in iter_increment_chunks(grid, seed, n_paths):
        vals, bad = reduce_chunk(dB)
        n_diverged += int(bad.sum())
        out.append(vals[..., ~bad])
    if n_diverged > MAX_DIVERGED_FRACTION * n_paths:
        raise DivergenceError(n_diverged, n_paths)
    return np.concatenate(out, axis=-1), n_diverged


def cost_mc(
    policy: ControlPolicy,
    params,
    n_paths: int,
    seed: int,
    n_steps: int,
    informed: bool = True,
    discount_terminal: bool = False,
    running_cost: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray] | None = None,
    terminal_cost: Callable[[np.ndarray], np.ndarray] | None = None,
) -> EstimateWithError:
    """Estimate J(t0, x0; u) by simulation.

    The default cost is the quadratic one: trapezoid quadrature of
    a u_s^2 over [t0, T] minus b (optionally discounted) X_T.  Custom
    ``running_cost(t, X, u)`` (node integrand) and ``terminal_cost(X_T)``
    override the defaults when a different functional is wanted.

    ``informed=False`` forces alpha = 0: the agent without the extra
    information, used for no-information limits.
    """
    setup = make_wealth_setup(params, n_steps, informed=informed)
    dt = setup.grid.dt
    t_nodes = setup.grid.times[setup.i0 : setup.i_last + 1]
    disc = math.exp(-params.r * (params.T - params.t0)) if discount_terminal else 1.0

    def reduce_chunk(dB):
        # overflow is handled by detection below, not by warnings
        with np.errstate(over="ignore", invalid="ignore"):
            ctx, u, X, diverged = wealth_paths_chunk(setup, dB, policy)
            if running_cost is None:
                integrand = setup.a * u * u
            else:
                integrand = running_cost(t_nodes[None, :], X, u)
            run = np.trapezoid(integrand, dx=dt, axis=1)
            if terminal_cost is None:
                term = -setup.b_weight * disc * X[:, -1]
            else:
                term = terminal_cost(X[:, -1])
            vals = run + term
        # a non-finite sample with finite state is still a numerical blow-up
        return vals, diverged | ~np.isfinite(vals)

    samples, n_div = _collect_samples(setup.grid, n_paths, seed, reduce_chunk)
    return EstimateWithError.from_samples(samples, seed, n_diverged=n_div)


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

    def window_indices(self, grid: TimeGrid, t0: float, T: float) -> tuple[int, int]:
        lo, hi = self.window
        ilo, ihi = grid.index_of(lo), grid.index_of(hi)
        if not (grid.index_of(t0) <= ilo < ihi <= grid.index_of(T)):
            raise ValueError(f"window ({lo}, {hi}] outside the horizon [{t0}, {T}]")
        return ilo, ihi

    def theta_values(self, ctx: ChunkContext, ilo: int) -> np.ndarray:
        if callable(self.theta0):
            th = np.asarray(self.theta0(ctx.B[:, ilo], ctx.L), dtype=float)
            th = np.broadcast_to(th, ctx.L.shape).copy()
        else:
            th = np.full(ctx.L.shape, float(self.theta0))
        return np.clip(th, -self.theta_bound, self.theta_bound)


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
        ilo, ihi = spec.window_indices(
            TimeGrid(ctx.times[0], ctx.times[-1], len(ctx.times) - 1),
            params.t0,
            params.T,
        )
        out = u.copy()
        th = spec.theta_values(ctx, ilo)
        out[:, ilo - ctx.i0 : ihi - ctx.i0] += y * th[:, None]
        return out

    def node_rule(i, x, info):
        raise NotImplementedError(
            "perturbed policies run through the batch kernel only"
        )

    if base.matrix_rule is None:
        raise ValueError("perturbation requires a state-free base policy")
    return ControlPolicy(
        f"{base.name}+{y:g}*step", node_rule, matrix_rule=matrix_rule
    )


def sweep_coefficients(
    setup: WealthSetup,
    dB: np.ndarray,
    policy: ControlPolicy,
    spec: PerturbationSpec,
    window: tuple[int, int],
    disc_T: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-path coefficients of the discrete cost F(y) = c0 + c1 y + c2 y^2.

    F(y) is the cost of ``perturbed_policy(policy, spec, y)``: trapezoid
    quadrature of a u^2 minus b disc_T X_T.  A state-free policy makes the
    Euler recursion of X linear in u, so one kernel pass with the base
    policy gives c0 = F(0), c1 = theta (2 a sum_win w_k u_k - b disc_T K)
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
        ctx, u, X, diverged = wealth_paths_chunk(setup, dB, policy)
        c0 = np.trapezoid(setup.a * u * u, dx=dt, axis=1)
        c0 -= setup.b_weight * disc_T * X[:, -1]
        th = spec.theta_values(ctx, ilo)
        gain = setup.excess * dt + setup.sigma_nodes[ilo:ihi] * dB[:, ilo:ihi]
        kick = gain @ growth
        u_w = u[:, ilo - setup.i0 : ihi - setup.i0]
        c1 = th * (2.0 * setup.a * (u_w @ w) - setup.b_weight * disc_T * kick)
        c2 = setup.a * w.sum() * th * th
        bad = diverged | ~np.isfinite(c0) | ~np.isfinite(c1)
    return np.stack([c0, c1, c2]), bad


def _sweep_samples(policy, params, spec, n_paths, seed, n_steps, informed,
                   discount_terminal) -> tuple[np.ndarray, int]:
    """(3, paths) array of the finite rows' (c0, c1, c2), and the diverged count."""
    setup = make_wealth_setup(params, n_steps, informed=informed)
    window = spec.window_indices(setup.grid, params.t0, params.T)
    disc_T = math.exp(-params.r * (params.T - params.t0)) if discount_terminal else 1.0
    return _collect_samples(
        setup.grid, n_paths, seed,
        lambda dB: sweep_coefficients(setup, dB, policy, spec, window, disc_T),
    )


def directional_derivative(
    policy: ControlPolicy,
    params,
    spec: PerturbationSpec,
    y: float,
    n_paths: int,
    seed: int,
    n_steps: int,
    informed: bool = True,
    discount_terminal: bool = False,
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
        policy, params, spec, n_paths, seed, n_steps, informed, discount_terminal
    )
    return EstimateWithError.from_samples(c1 + 2.0 * y * c2, seed, n_diverged=n_div)


def sweep_table(coefs: np.ndarray, y_grid: Sequence[float], seed: int) -> dict:
    """Rows of F(y) = c0 + c1 y + c2 y^2 over the grid, and the argmin.

    Ties in the argmin resolve toward the smallest |y|.
    """
    c0, c1, c2 = coefs
    rows = []
    for y in y_grid:
        est = EstimateWithError.from_samples(c0 + y * (c1 + y * c2), seed)
        rows.append({"y": y, "mean": est.mean, "std_error": est.std_error})
    order = sorted(rows, key=lambda r: (r["mean"], abs(r["y"])))
    return {"rows": rows, "argmin_y": order[0]["y"]}


def perturbation_sweep(
    policy: ControlPolicy,
    params,
    spec: PerturbationSpec,
    n_paths: int,
    seed: int,
    n_steps: int,
    informed: bool = True,
    discount_terminal: bool = False,
) -> dict:
    """F(y) over the amplitude grid with common random numbers.

    Each path's discrete cost is the exact quadratic c0 + c1 y + c2 y^2 of
    ``sweep_coefficients``, so the whole grid comes from one kernel pass
    with the base policy; every y sees the identical increment streams,
    and the comparison across y is variance-reduced.
    """
    if 0.0 not in spec.y_grid:
        raise ValueError("amplitude grid must contain 0")
    coefs, _ = _sweep_samples(
        policy, params, spec, n_paths, seed, n_steps, informed, discount_terminal
    )
    return sweep_table(coefs, spec.y_grid, seed)


# ---------------------------------------------------------------------------
# Martingale diagnostic
# ---------------------------------------------------------------------------

def default_test_functions(bound: float = 10.0) -> list[tuple[str, Callable]]:
    """Bounded information functions of (B_t, L) evaluated at window start."""
    c = float(bound)
    return [
        ("one", lambda Bt, L: np.ones_like(L)),
        ("clip_L", lambda Bt, L: np.clip(L, -c, c)),
        ("clip_B", lambda Bt, L: np.clip(Bt, -c, c)),
        ("clip_LB", lambda Bt, L: np.clip(L * Bt, -c, c)),
    ]


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
    values = np.concatenate([[0.0], np.cumsum(steps)])
    return NuPath(TimeGrid(float(t[0]), setup.grid.times[iL], iL - i0), values)


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
) -> list[dict]:
    """E[phi * (N_u increment)] for every (window, phi) cell.

    A cell passes when |estimate| <= threshold * SE.  Under the optimal
    control the increments are conditionally centered given the window-start
    information, so every phi in the dictionary is uncorrelated with them.
    """
    if windows is None:
        windows = quarter_windows(params.T, params.t0)
    if test_fns is None:
        test_fns = default_test_functions()
    if len(list(test_fns)) == 0:
        raise ValueError("need at least one test function")
    setup = make_wealth_setup(params, n_steps, informed=informed)
    idx = list(windows)
    bounds = [
        PerturbationSpec(w, 1.0).window_indices(setup.grid, params.t0, params.T)
        for w in idx
    ]

    cells: dict[tuple[int, int], list[np.ndarray]] = {
        (wi, fi): [] for wi in range(len(idx)) for fi in range(len(test_fns))
    }
    n_total = 0
    for _, dB in iter_increment_chunks(setup.grid, seed, n_paths):
        ctx, u, X, diverged = wealth_paths_chunk(setup, dB, policy)
        keep = ~diverged
        n_total += int(keep.sum())
        for wi, (ilo, ihi) in enumerate(bounds):
            dn = nu_increments(setup, ctx, u, dB, ilo, ihi)
            for fi, (_, fn) in enumerate(test_fns):
                phi = fn(ctx.B[:, ilo], ctx.L)
                cells[(wi, fi)].append((phi * dn)[keep])

    out = []
    for wi, w in enumerate(idx):
        for fi, (fname, _) in enumerate(test_fns):
            samples = np.concatenate(cells[(wi, fi)])
            est = EstimateWithError.from_samples(samples, seed)
            out.append(
                {
                    "window": w,
                    "test_fn": fname,
                    "mean": est.mean,
                    "std_error": est.std_error,
                    "n": est.n_samples,
                    "pass": abs(est.mean) <= threshold * est.std_error,
                }
            )
    return out


# ---------------------------------------------------------------------------
# Semimartingale recovery
# ---------------------------------------------------------------------------

def discounted_diffusion(B: BrownianPath, params) -> BrownianPath:
    """R with dR = e^{-b_s} sigma_s dB, left-point sums on B's grid."""
    t = B.grid.times[:-1]
    w = np.exp(-params.r * t) * as_weight(params.sigma_fn).nodes(t)
    values = np.concatenate([[0.0], np.cumsum(w * np.diff(B.values))])
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
    values = np.concatenate([[0.0], np.cumsum(w * np.diff(R.values))])
    return BrownianPath(R.grid, values, seed=R.seed)
