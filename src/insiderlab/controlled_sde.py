"""Control policies and the batch wealth kernel.

A policy is vectorised over the rows of a chunk: ``rule(ctx)`` returns the
whole (rows, nodes) control matrix of a block at once, from the node times,
the drift alpha, L and the Brownian history in its ``ChunkContext``.  Every
policy is state-free: the optimal controls of both of the paper's examples
depend on t and alpha only, never on the wealth.  The wealth kernel
``wealth_paths_chunk`` for dX = [r X + (rtilde - r) u] dt + sigma(t) u dB
therefore needs no per-node policy call: at r = 0 it is a cumulative sum of
gains, otherwise a linear recursion over the nodes.  The agent without the
extra information is a policy too: ``uninformed(policy)`` plays ``policy``
with alpha = 0 and L = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

import numpy as np

from .enlargement import ChunkContext, DriftSetup, drift_setup
from .paths import TimeGrid, as_weight

__all__ = [
    "ControlPolicy",
    "ChunkContext",
    "formula_policy",
    "constant_policy",
    "uninformed",
    "WealthSetup",
    "make_wealth_setup",
    "wealth_paths_chunk",
]


@dataclass(frozen=True)
class ControlPolicy:
    """A named control rule: ``rule(ctx)`` returns the (rows, nodes) control
    matrix of a chunk's rows on the nodes i0..i_last."""

    name: str
    rule: Callable[[ChunkContext], np.ndarray]


def _formula_matrix(fn, ctx: ChunkContext) -> np.ndarray:
    t = ctx.times[ctx.i0 : ctx.i_last + 1][None, :]
    alpha = ctx.alpha[:, ctx.i0 : ctx.i_last + 1]
    out = fn(t, alpha, ctx.L[:, None])
    return np.broadcast_to(out, alpha.shape).astype(float, copy=False)


def formula_policy(
    name: str, fn: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
) -> ControlPolicy:
    """Policy u = fn(t, alpha, L).

    ``fn`` must broadcast: t is a row of node times, alpha a (rows, nodes)
    block and L a (rows, 1) column.  The policy pickles, and so runs in a
    process pool, whenever ``fn`` does.
    """
    return ControlPolicy(name, partial(_formula_matrix, fn))


def _constant_formula(c: float, t, alpha, L):
    return c + 0.0 * alpha


def constant_policy(c: float) -> ControlPolicy:
    c = float(c)
    return formula_policy(f"const({c:g})", partial(_constant_formula, c))


def _uninformed_rule(rule, ctx: ChunkContext) -> np.ndarray:
    zero = np.float64(0.0)  # read-only views of one zero: no chunk-sized memory
    blind = replace(ctx, alpha=np.broadcast_to(zero, ctx.alpha.shape),
                    L=np.broadcast_to(zero, ctx.L.shape))
    return rule(blind)


def uninformed(policy: ControlPolicy) -> ControlPolicy:
    """``policy`` played by the agent without the extra information: its
    rule sees every chunk with alpha = 0 and L = 0, and the same B, times
    and increments.  Whatever else reads the chunk (a perturbation
    direction, the martingale test functions) still sees L.  The result
    pickles whenever ``policy`` does."""
    return ControlPolicy(f"uninformed({policy.name})",
                         partial(_uninformed_rule, policy.rule))


def _control_matrix(policy: ControlPolicy, ctx: ChunkContext) -> np.ndarray:
    u = policy.rule(ctx)
    shape = (len(ctx.L), ctx.i_last - ctx.i0 + 1)
    if u.shape != shape:
        raise ValueError(f"policy rule returned shape {u.shape}, need {shape}")
    return u


# ---------------------------------------------------------------------------
# Wealth dynamics: the batch kernel
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class WealthSetup(DriftSetup):
    """The drift's node data plus the wealth coefficients on the same grid."""

    sigma_nodes: np.ndarray
    r: float
    excess: float
    a: float
    b_weight: float
    x0: float


def make_wealth_setup(params, n_steps: int) -> WealthSetup:
    """Resolve model parameters on a fresh [0, T1] grid with n_steps steps."""
    grid = TimeGrid(0.0, params.t1, int(n_steps))
    drift = drift_setup(params.m, grid, params.T, params.t0)
    return WealthSetup(
        **vars(drift),
        sigma_nodes=as_weight(params.sigma_fn).nodes(grid.times),
        r=params.r,
        excess=params.excess_rate,
        a=params.a,
        b_weight=params.b,
        x0=params.x0,
    )


def wealth_paths_chunk(
    setup: WealthSetup, dB: np.ndarray, ctx: ChunkContext, policy: ControlPolicy
) -> tuple[ChunkContext, np.ndarray, np.ndarray, np.ndarray]:
    """Simulate one chunk of wealth paths.

    Parameters
    ----------
    dB : (rows, n_steps) increments on the full [0, T1] grid.
    ctx : the chunk's ``chunk_context``, read and never written.
    policy : its control matrix drives the gains.

    Returns
    -------
    (ctx, u, X, diverged) where u and X have shape (rows, i_last - i0 + 1),
    X[:, 0] = x0 exactly, and ``diverged`` flags rows that went non-finite
    (their later values are meaningless and the caller must exclude and
    report them).
    """
    i0, iL = setup.i0, setup.i_last
    rows = dB.shape[0]
    n_nodes = iL - i0 + 1
    dt = setup.grid.dt

    X = np.empty((rows, n_nodes))
    X[:, 0] = setup.x0
    u = _control_matrix(policy, ctx)
    gains = (setup.excess * u[:, :-1] * dt
             + setup.sigma_nodes[i0:iL] * u[:, :-1] * dB[:, i0:iL])
    if setup.r == 0.0:
        np.cumsum(gains, axis=1, out=X[:, 1:])
        X[:, 1:] += setup.x0
    else:
        growth = 1.0 + setup.r * dt
        x = X[:, 0]
        for k in range(n_nodes - 1):
            x = x * growth + gains[:, k]
            X[:, k + 1] = x

    diverged = ~np.all(np.isfinite(X), axis=1)
    return ctx, u, X, diverged
