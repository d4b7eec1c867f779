"""Control policies and the batch wealth kernel.

A policy is affine in the information drift with deterministic
coefficients: u_i = gain(t_i) alpha_i + offset(t_i) on the nodes
i0..i_last.  The optimal controls of both of the paper's examples have
this form, and so does every policy the lab ships or certifies.  It is
G-adapted by construction, since alpha_i depends on the path up to node i
and on L alone, and it is state-free, so the wealth kernel
``wealth_paths_chunk`` for dX = [r X + (rtilde - r) u] dt + sigma(t) u dB
needs no per-node policy call; it returns X_T, the one node the cost
reads, as one matrix-vector product of the gains with powers of 1 + r dt
at every r.  The agent without the extra information is a policy too:
``uninformed(policy)`` keeps the offset and drops the gain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .enlargement import ChunkContext, DriftSetup, drift_setup
from .paths import TimeGrid, WeightFunction, as_weight

__all__ = [
    "ControlPolicy",
    "ChunkContext",
    "constant_policy",
    "uninformed",
    "WealthSetup",
    "make_wealth_setup",
    "wealth_paths_chunk",
]


@dataclass(frozen=True)
class ControlPolicy:
    """The control u_i = gain(t_i) alpha_i + offset(t_i) on nodes i0..i_last.

    ``gain`` and ``offset`` are coerced with ``paths.as_weight``: a float, a
    callable of t or a WeightFunction.  The policy pickles, and so runs in
    a process pool, whenever both coefficients do.
    """

    name: str
    gain: WeightFunction
    offset: WeightFunction = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "gain", as_weight(self.gain))
        object.__setattr__(self, "offset", as_weight(self.offset))

    def control(self, ctx: ChunkContext) -> np.ndarray:
        """The (rows, i_last - i0 + 1) control matrix of a block."""
        t = ctx.times[ctx.i0 : ctx.i_last + 1]
        u = ctx.alpha[:, ctx.i0 : ctx.i_last + 1] * self.gain.nodes(t)
        u += self.offset.nodes(t)
        return u


def constant_policy(c: float) -> ControlPolicy:
    c = float(c)
    return ControlPolicy(f"const({c:g})", 0.0, c)


def uninformed(policy: ControlPolicy) -> ControlPolicy:
    """``policy`` played by the agent without the extra information: the
    same offset with gain 0, which is the policy at alpha = 0.  Whatever
    else reads the chunk (a perturbation direction, the martingale test
    functions) still sees L."""
    return ControlPolicy(f"uninformed({policy.name})", 0.0, policy.offset)


# ---------------------------------------------------------------------------
# Wealth dynamics: the batch kernel
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class WealthSetup(DriftSetup):
    """The drift's node data plus the wealth coefficients on the nodes
    i0 + j, j = 0..N = i_last - i0: ``growth[j] = (1 + r dt)^(N - j)`` (inf
    beyond the float range), ``endowment`` = x0 growth[0] (0 at x0 = 0) and
    the ``trapezoid`` quadrature weights, dt and dt/2 at both ends."""

    sigma_nodes: np.ndarray
    r: float
    excess: float
    a: float
    b_weight: float
    growth: np.ndarray
    endowment: float
    trapezoid: np.ndarray


def make_wealth_setup(params, n_steps: int) -> WealthSetup:
    """Resolve model parameters on a fresh [0, T1] grid with n_steps steps."""
    grid = TimeGrid(0.0, params.t1, int(n_steps))
    drift = drift_setup(params.m, grid, params.T, params.t0)
    with np.errstate(over="ignore"):  # an array power: inf, not OverflowError
        growth = (1.0 + params.r * grid.dt) ** np.arange(
            drift.i_last - drift.i0, -1, -1)
        endowment = float(params.x0 * growth[0]) if params.x0 else 0.0
    trapezoid = np.full(len(growth), grid.dt)
    trapezoid[[0, -1]] = 0.5 * grid.dt
    return WealthSetup(
        **vars(drift),
        sigma_nodes=as_weight(params.sigma_fn).nodes(grid.times),
        r=params.r,
        excess=params.excess_rate,
        a=params.a,
        b_weight=params.b,
        growth=growth,
        endowment=endowment,
        trapezoid=trapezoid,
    )


def wealth_paths_chunk(
    setup: WealthSetup, dB: np.ndarray, ctx: ChunkContext, policy: ControlPolicy
) -> tuple[ChunkContext, np.ndarray, np.ndarray, np.ndarray]:
    """Simulate one chunk of wealth paths to their terminal wealth.

    Parameters
    ----------
    dB : (rows, i_last + 1) increments on the drift's ``draw_grid``; the
        kernel reads those on [t0, T).
    ctx : the chunk's ``chunk_context``, read and never written.
    policy : ``policy.control(ctx)``, the control matrix, drives the gains.

    Returns
    -------
    (ctx, u, x_T, diverged): u has shape (rows, i_last - i0 + 1); x_T, the
    Euler recursion X_{k+1} = (1 + r dt) X_k + u_k (excess dt + sigma_k dB_k)
    at T, and ``diverged``, the rows whose x_T is not finite (the caller
    must exclude and report them), have shape (rows,).  An ``einsum`` sums
    each row in an order that, unlike a BLAS product's, ignores the others.
    """
    i0, iL = setup.i0, setup.i_last
    u = policy.control(ctx)
    if u.shape != (len(dB), iL - i0 + 1):
        raise ValueError(f"policy control returned shape {u.shape}, "
                         f"need {(len(dB), iL - i0 + 1)}")
    gains = setup.sigma_nodes[i0:iL] * dB[:, i0:iL]
    gains += setup.excess * setup.grid.dt
    gains *= u[:, :-1]
    with np.errstate(over="ignore", invalid="ignore"):  # x_T shows overflow
        if np.isfinite(setup.growth[0]):
            x_T = np.einsum("ij,j->i", gains, setup.growth[1:])
        else:  # the powers overflowed: a zero gain still adds 0, not 0 * inf
            x_T = np.where(gains == 0.0, 0.0, gains * setup.growth[1:]).sum(1)
        x_T += setup.endowment
    return ctx, u, x_T, ~np.isfinite(x_T)
