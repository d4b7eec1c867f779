"""Control policies, the contraction kernel and the reference wealth kernel.

A policy is affine in the information drift with deterministic
coefficients: u_i = gain(t_i) alpha_i + offset(t_i) on the nodes
i0..i_last.  The optimal controls of both of the paper's examples have
this form, and so does every policy the lab ships or certifies.  It is
G-adapted by construction, since alpha_i depends on the path up to node i
and on L alone, and it is state-free: under the Euler scheme of
dX = [r X + (rtilde - r) u] dt + sigma(t) u dB, X_T is x0 and the gains
grown to T by powers of 1 + r dt.  So each path's running cost sum a w u^2
and its X_T are sums over the nodes of alpha^2, alpha, alpha dB and dB with
weights fixed per op (``policy_weights``), and the estimators price a block
with at most four row contractions (``price_chunk``) without ever forming
its control matrix.  ``WindowSum`` is the same idea for the linear
functionals of a window that the perturbation and martingale checks read.

``wealth_paths_chunk`` is the reference: it forms the block's control
matrix u (``ControlPolicy.control``) and contracts the gains with the
growth powers.  The agent without the extra information is a policy too:
``uninformed(policy)`` keeps the offset and drops the gain.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .enlargement import ChunkContext, DriftSetup, drift_setup
from .paths import TimeGrid, WeightFunction, as_weight, row_dot

__all__ = [
    "ControlPolicy",
    "ChunkContext",
    "constant_policy",
    "uninformed",
    "WealthSetup",
    "make_wealth_setup",
    "PolicyWeights",
    "policy_weights",
    "price_chunk",
    "WindowSum",
    "window_sum",
    "wealth_paths_chunk",
]


@dataclass(frozen=True)
class ControlPolicy:
    """The control u_i = gain(t_i) alpha_i + offset(t_i) on nodes i0..i_last.

    ``gain`` and ``offset`` are coerced with ``paths.as_weight``: a float, a
    callable of t or a WeightFunction.  The policy pickles, and so runs in
    a process pool, whenever both coefficients do.  The estimators read
    only the coefficients (``policy_weights``); ``control`` forms the
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
class PolicyWeights:
    """An affine policy's running cost and X_T as node weights.

    With u_j = g_j alpha_j + o_j on the nodes i0 + j, j = 0..N, the
    trapezoid running cost sum_j a w_j u_j^2 and the Euler terminal wealth
    X_T = endowment + sum_{j<N} G_{j+1} u_j (sigma_j dB_j + excess dt)
    (w, G and the endowment from ``WealthSetup``) are, per row,

        run = sum a w g^2 alpha^2 + sum 2 a w g o alpha + sum a w o^2
        X_T = sum G g sigma alpha dB + sum G g excess dt alpha
              + sum G o sigma dB + endowment + sum G o excess dt.

    ``square`` holds a w g^2, ``drift`` the two rows 2 a w g o and
    G g excess dt (0 at node N), ``cross`` G g sigma and ``noise``
    G o sigma; each is None when it is 0 throughout, and its contraction
    is skipped.  ``run_const`` and ``x_const`` are the two constant sums.
    Every product is 0 where a factor is 0, even if another one overflowed.
    """

    setup: WealthSetup
    square: np.ndarray | None
    drift: np.ndarray | None
    cross: np.ndarray | None
    noise: np.ndarray | None
    run_const: float
    x_const: float


def policy_weights(setup: WealthSetup, policy: ControlPolicy) -> PolicyWeights:
    """The node weights of ``policy`` on ``setup``, computed once per op."""
    i0, iL = setup.i0, setup.i_last
    t = setup.grid.times[i0 : iL + 1]
    G, sigma = setup.growth[1:], setup.sigma_nodes[i0:iL]
    edt = setup.excess * setup.grid.dt
    # overflow shows as inf or nan in the weights, and so in the rows
    with np.errstate(over="ignore", invalid="ignore"):
        g, o = policy.gain.nodes(t), policy.offset.nodes(t)
        aw = setup.a * setup.trapezoid
        drift = np.zeros((2, len(t)))
        drift[0] = _product(2.0 * aw, g, o)
        drift[1, :-1] = _product(G, g[:-1], edt)
        return PolicyWeights(
            setup,
            square=_nonzero(_product(aw, g, g)),
            drift=_nonzero(drift),
            cross=_nonzero(_product(G, g[:-1], sigma)),
            noise=_nonzero(_product(G, o[:-1], sigma)),
            run_const=float(np.sum(_product(aw, o, o))),
            x_const=setup.endowment + float(np.sum(_product(G, o[:-1], edt))),
        )


def price_chunk(weights: PolicyWeights, dB: np.ndarray, ctx: ChunkContext
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The running cost and X_T of every row of one block, and ``diverged``.

    At most four row contractions, of alpha^2, alpha (one pass for both
    of its weight rows), alpha dB and dB over the nodes i0..i_last, each
    through ``paths.row_dot``, so a row's bits do not depend on the block:
    two for example 1's optimum (rtilde = r), one for an uninformed
    policy.  Returns (run, x_T, diverged), all of shape (rows,);
    ``diverged`` marks the rows whose x_T is not finite, which the caller
    must exclude and report.
    """
    s = weights.setup
    alpha = ctx.alpha[:, s.i0 : s.i_last + 1]
    noise = dB[:, s.i0 : s.i_last]
    run = np.full(len(dB), weights.run_const)
    x_T = np.full(len(dB), weights.x_const)
    with np.errstate(over="ignore", invalid="ignore"):  # x_T shows overflow
        if weights.square is not None:
            run += row_dot(alpha, alpha, weights.square)
        if weights.drift is not None:
            linear = row_dot(alpha[:, None], weights.drift)
            run += linear[:, 0]
            x_T += linear[:, 1]
        if weights.cross is not None:
            x_T += row_dot(alpha[:, :-1], noise, weights.cross)
        if weights.noise is not None:
            x_T += row_dot(noise, weights.noise)
    return run, x_T, ~np.isfinite(x_T)


@dataclass(frozen=True, eq=False)
class WindowSum:
    """The per-row sum  const + sum_k on_alpha_k alpha_k + on_dB_k dB_k
    over the nodes k in [lo, hi), weights fixed per op; a weight array
    that is 0 throughout is None, and its contraction is skipped."""

    lo: int
    hi: int
    on_alpha: np.ndarray | None
    on_dB: np.ndarray | None
    const: float

    def rows(self, dB: np.ndarray, ctx: ChunkContext) -> np.ndarray:
        """The sum for every row of one block: at most two ``row_dot``s."""
        out = np.full(len(dB), self.const)
        with np.errstate(over="ignore", invalid="ignore"):
            if self.on_alpha is not None:
                out += row_dot(ctx.alpha[:, self.lo : self.hi], self.on_alpha)
            if self.on_dB is not None:
                out += row_dot(dB[:, self.lo : self.hi], self.on_dB)
        return out


def window_sum(setup: WealthSetup, policy: ControlPolicy, lo: int, hi: int,
               on_u, on_dB, const: float = 0.0) -> WindowSum:
    """const + sum_{k in [lo, hi)} on_u_k u_k + on_dB_k dB_k as a WindowSum,
    u being ``policy``'s control: u = g alpha + o puts on_u g on alpha and
    adds sum on_u o to the constant.  ``on_u`` is a float or an array over
    the window's nodes, ``on_dB`` an array over them."""
    t = setup.grid.times[lo:hi]
    with np.errstate(over="ignore", invalid="ignore"):
        g, o = policy.gain.nodes(t), policy.offset.nodes(t)
        return WindowSum(lo, hi, _nonzero(_product(on_u, g)), _nonzero(on_dB),
                         const + float(np.sum(_product(on_u, o))))


def wealth_paths_chunk(
    setup: WealthSetup, dB: np.ndarray, ctx: ChunkContext, policy: ControlPolicy
) -> tuple[ChunkContext, np.ndarray, np.ndarray, np.ndarray]:
    """Simulate one chunk of wealth paths to their terminal wealth: the
    reference that forms the control matrix, which ``price_chunk`` skips.

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
    must exclude and report them), have shape (rows,).  ``paths.row_dot``
    sums each row in an order that, unlike a BLAS product's, ignores the
    others.
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
            x_T = row_dot(gains, setup.growth[1:])
        else:  # the powers overflowed: a zero gain still adds 0, not 0 * inf
            x_T = np.where(gains == 0.0, 0.0, gains * setup.growth[1:]).sum(1)
        x_T += setup.endowment
    return ctx, u, x_T, ~np.isfinite(x_T)
