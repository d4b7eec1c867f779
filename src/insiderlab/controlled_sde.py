"""Control policies, the contraction kernel and the reference wealth kernel.

A policy is affine in the information drift with deterministic
coefficients: u_i = gain(t_i) alpha_i + offset(t_i) on the nodes
i0..i_last.  The optimal controls of both of the paper's examples have
this form, and so does every policy the lab ships or certifies.  It is
G-adapted by construction, since alpha_i depends on the path up to node i
and on L alone, and it is state-free: under the Euler scheme of
dX = [r X + (rtilde - r) u] dt + sigma(t) u dB, X_T is x0 and the gains
grown to T by powers of 1 + r dt.  So every per-path functional that the
estimators read (the cost sum a w u^2 - b X_T, the perturbation's c1, the
martingale's N_u increments) is a ``NodeSum``: a sum over a window of
nodes of alpha^2, alpha, alpha dB and dB with weights fixed per op, which
``node_sum`` builds from weights on u^2, u, u dB and dB.  The block context
is unit-free (``enlargement.ChunkContext``): alpha = (m sqrt(dt) / q) D and
dB = sqrt(dt) Z, so ``node_sum`` folds those scales into the weights once
per op, and a sum reads D and Z as they are.  A block is priced with at
most four row contractions per sum, without ever forming its control
matrix; ``cost_sum`` is a policy's cost as one such sum.

``wealth_paths_chunk`` is the reference: it forms the block's control
matrix u (``ControlPolicy.control``) from the real-unit alpha and
contracts the gains with the growth powers.  The agent without the extra
information is a policy too: ``uninformed(policy)`` keeps the offset and
drops the gain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .enlargement import ChunkContext, DriftSetup, drift_setup, drift_square_mean
from .paths import TimeGrid, WeightFunction, as_weight, row_dot

__all__ = [
    "ControlPolicy",
    "ChunkContext",
    "constant_policy",
    "uninformed",
    "WealthSetup",
    "make_wealth_setup",
    "NodeSum",
    "node_sum",
    "cost_sum",
    "affine_cost_mean",
    "wealth_paths_chunk",
]


@dataclass(frozen=True)
class ControlPolicy:
    """The control u_i = gain(t_i) alpha_i + offset(t_i) on nodes i0..i_last.

    ``gain`` and ``offset`` are coerced with ``paths.as_weight``: a float, a
    callable of t or a WeightFunction.  The policy pickles, and so runs in
    a process pool, whenever both coefficients do.  The estimators read
    only the coefficients (``node_sum``); ``control`` forms the
    control matrix for the reference kernel ``wealth_paths_chunk``.
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
        u = ctx.alpha()
        u *= self.gain.nodes(t)
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
        excess=params.excess_rate,
        a=params.a,
        b_weight=params.b,
        growth=growth,
        endowment=endowment,
        trapezoid=trapezoid,
    )


# ---------------------------------------------------------------------------
# The contraction kernel: a policy priced without its control matrix
# ---------------------------------------------------------------------------

def _product(*factors) -> np.ndarray:
    """The product of node factors, 0 wherever one of them is 0: a zero gain
    or offset adds 0 even where another factor overflowed, not
    0 * inf = nan.  The caller sets ``np.errstate``."""
    zero = reduce(np.logical_or, [np.equal(f, 0.0) for f in factors])
    return np.where(zero, 0.0, reduce(np.multiply, factors))


def _nonzero(weights: np.ndarray) -> np.ndarray | None:
    """``weights``, or None when they are 0 throughout: nothing to contract."""
    return weights if np.any(weights != 0.0) else None


@dataclass(frozen=True, eq=False)
class NodeSum:
    """The per-row sum over the nodes k in [lo, hi)

        const + sum square_k D_k^2 + linear_k D_k
              + cross_k D_k Z_k + noise_k Z_k

    of a block's unit-free context (``ChunkContext.D`` and ``.Z``), its
    weights fixed per op (``node_sum``); a weight that is 0 throughout is
    None, and its contraction is skipped."""

    lo: int
    hi: int
    const: float
    square: np.ndarray | None
    linear: np.ndarray | None
    cross: np.ndarray | None
    noise: np.ndarray | None

    def rows(self, ctx: ChunkContext) -> np.ndarray:
        """The sum for every row of one block: at most four ``row_dot``s,
        so a row's bits do not depend on the block."""
        cols = slice(self.lo - ctx.i0, self.hi - ctx.i0)
        D, Z = ctx.D[:, cols], ctx.Z[:, cols]
        out = np.full(len(ctx.L), self.const)
        with np.errstate(over="ignore", invalid="ignore"):  # out shows overflow
            if self.square is not None:
                out += row_dot(D, D, self.square)
            if self.linear is not None:
                out += row_dot(D, self.linear)
            if self.cross is not None:
                out += row_dot(D, Z, self.cross)
            if self.noise is not None:
                out += row_dot(Z, self.noise)
        return out


def node_sum(setup: WealthSetup, policy: ControlPolicy, lo: int, hi: int, *,
             uu=0.0, u=0.0, u_dB=0.0, dB=0.0, const: float = 0.0) -> NodeSum:
    """const + sum_k uu_k u_k^2 + u_k u_k + u_dB_k u_k dB_k + dB_k dB_k over
    the nodes k in [lo, hi), i0 <= lo, as a NodeSum, u being ``policy``'s
    control.  Each weight is a float or an array over the nodes.

    The one place that expands u = g alpha + o: alpha^2 gets uu g^2, alpha
    2 uu g o + u g, alpha dB u_dB g, dB u_dB o + dB, and the constant
    sum uu o^2 + u o.  The same place folds the units of the context:
    alpha = s D with s = ``drift_scale`` and dB = sqrt(dt) Z, so the weight
    on D^2 is the one on alpha^2 times s^2, on D the one on alpha times s,
    on D Z the one on alpha dB times s sqrt(dt), and on Z the one on dB
    times sqrt(dt).  Each product is 0 where a factor is 0, even if another
    one overflowed.
    """
    t = setup.grid.times[lo:hi]
    s = setup.drift_scale[lo - setup.i0 : hi - setup.i0]
    root = math.sqrt(setup.grid.dt)
    # overflow shows as inf or nan in the weights, and so in the rows
    with np.errstate(over="ignore", invalid="ignore"):
        g, o = policy.gain.nodes(t), policy.offset.nodes(t)
        return NodeSum(
            lo, hi, const + float(np.sum(_product(uu, o, o) + _product(u, o))),
            square=_nonzero(_product(uu, g, g, s, s)),
            linear=_nonzero(_product(_product(2.0 * uu, g, o)
                                     + _product(u, g), s)),
            cross=_nonzero(_product(u_dB, g, s) * root),
            noise=_nonzero((_product(u_dB, o) + dB) * root),
        )


def cost_sum(setup: WealthSetup, policy: ControlPolicy) -> NodeSum:
    """The discrete cost of ``policy`` on ``setup`` as one NodeSum, built
    once per op: on the nodes i0 + j, j = 0..N, the trapezoid running cost
    sum_j a w_j u_j^2 minus b times the Euler terminal wealth
    endowment + sum_{j<N} G_{j+1} u_j (excess dt + sigma_j dB_j), with w, G
    and the endowment from ``WealthSetup``.  X_T is affine in u, so the
    cost is a single node sum over [i0, i_last], G being 0 at i_last."""
    i0, iL, b = setup.i0, setup.i_last, setup.b_weight
    G = np.append(setup.growth[1:], 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        return node_sum(setup, policy, i0, iL + 1,
                        uu=setup.a * setup.trapezoid,
                        u=_product(-b, G, setup.excess * setup.grid.dt),
                        u_dB=_product(-b, G, setup.sigma_nodes[i0 : iL + 1]),
                        const=-b * setup.endowment)


def affine_cost_mean(setup: WealthSetup, policy: ControlPolicy) -> float:
    """The exact mean of the discrete cost that ``cost_sum`` prices, for an
    affine policy with coefficients g, o on the nodes i0 + j, j = 0..N:

        a sum_j w_j (g_j^2 E[alpha_j^2] + o_j^2)
        - b (endowment + sum_{j<N} G_{j+1} (o_j excess dt
                                            + sigma_j g_j m_j^2 dt / q_j)),

    from E[alpha_j] = 0, E[alpha_j^2] of ``drift_square_mean`` and
    E[alpha_j dB_j] = m_j^2 dt / q_j.  It differs from the grid value by
    O(dt): the running cost is a trapezoid sum, alpha divides by the
    trapezoid tail and the gains grow by (1 + r dt)^(N-1-j)."""
    i0, iL, dt = setup.i0, setup.i_last, setup.grid.dt
    t = setup.grid.times[i0 : iL + 1]
    g, o = policy.gain.nodes(t), policy.offset.nodes(t)
    m, q = setup.m_nodes[i0:iL], setup.q_tail[i0:iL]
    with np.errstate(over="ignore", invalid="ignore"):
        square = g * g * drift_square_mean(setup)[i0:] + o * o
        gains = (o[:-1] * setup.excess * dt
                 + setup.sigma_nodes[i0:iL] * g[:-1] * m * m * dt / q)
        x_T = setup.endowment + np.sum(setup.growth[1:] * gains)
        return float(setup.a * np.sum(setup.trapezoid * square)
                     - setup.b_weight * x_T)


def wealth_paths_chunk(
    setup: WealthSetup, ctx: ChunkContext, policy: ControlPolicy
) -> tuple[ChunkContext, np.ndarray, np.ndarray, np.ndarray]:
    """Simulate one block of wealth paths to their terminal wealth: the
    reference that forms the control matrix, which ``cost_sum`` skips.

    Parameters
    ----------
    ctx : the block's ``chunk_context``, read and never written; the kernel
        reads the increments sqrt(dt) Z on [t0, T).
    policy : ``policy.control(ctx)``, the control matrix, drives the gains.

    Returns
    -------
    (ctx, u, x_T, diverged): u has shape (rows, i_last - i0 + 1); x_T, the
    Euler recursion X_{k+1} = (1 + r dt) X_k + u_k (excess dt + sigma_k dB_k)
    at T, and ``diverged``, the rows whose x_T is not finite (the caller
    must exclude and report them), have shape (rows,).  ``paths.row_dot``
    sums each row in an order that, unlike a BLAS product's, ignores the
    others.
    """
    i0, iL, dt = setup.i0, setup.i_last, setup.grid.dt
    u = policy.control(ctx)
    if u.shape != (len(ctx.L), iL - i0 + 1):
        raise ValueError(f"policy control returned shape {u.shape}, "
                         f"need {(len(ctx.L), iL - i0 + 1)}")
    gains = setup.sigma_nodes[i0:iL] * math.sqrt(dt) * ctx.Z[:, :-1]
    gains += setup.excess * dt
    gains *= u[:, :-1]
    with np.errstate(over="ignore", invalid="ignore"):  # x_T shows overflow
        if np.isfinite(setup.growth[0]):
            x_T = row_dot(gains, setup.growth[1:])
        else:  # the powers overflowed: a zero gain still adds 0, not 0 * inf
            x_T = np.where(gains == 0.0, 0.0, gains * setup.growth[1:]).sum(1)
        x_T += setup.endowment
    return ctx, u, x_T, ~np.isfinite(x_T)
