"""Information drift and the semimartingale decomposition of B.

An agent who knows L = int_0^{T1} m dB from time 0 sees the driving Brownian
motion with a drift.  For Gaussian L the drift has the classical closed form

    alpha_t  =  m(t) * (L - int_0^t m dB) / int_t^{T1} m^2 ds ,

and  Btilde_t = B_t - int_0^t alpha_s ds  is again a Brownian motion in the
enlarged filtration.  This module evaluates alpha along sampled paths,
performs the discrete decomposition, and exposes the analytic second moment
E[alpha_s^2] = m(s)^2 / int_s^{T1} m^2 du used as a test oracle.

The drift is only ever evaluated up to a decision horizon T strictly before
T1; at T1 the conditioning denominator vanishes.

Batch estimators see the drift through ``chunk_context``: ``map_reducers``
draws each chunk of increments once, cuts it into row blocks of at most
``paths.BLOCK`` rows, builds each block's B, alpha and L once and applies
every reducer of an op to that one context.  Every reducer is row-wise and
returns arrays whose last axis is the block's rows, so ``map_reducers``
joins them into whole-batch arrays in path order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Sequence

import numpy as np
from scipy import integrate

from .paths import (
    BLOCK,
    BrownianPath,
    TimeGrid,
    WeightFunction,
    as_weight,
    map_chunks,
    running_sum,
)

__all__ = [
    "ChunkContext",
    "DriftSetup",
    "drift_setup",
    "chunk_context",
    "without_drift",
    "map_reducers",
    "InfoDriftField",
    "information_drift",
    "decompose",
    "drift_second_moment",
    "expected_squared_drift_integral",
    "tail_square_integral",
    "drift_matrix",
    "decomposition_stats",
]


def tail_square_integral(m_nodes: np.ndarray, dt: float) -> np.ndarray:
    """Trapezoid values of int_{t_i}^{T1} m(s)^2 ds for every node i."""
    w = m_nodes * m_nodes
    cum = running_sum(0.5 * (w[:-1] + w[1:]) * dt)
    return cum[-1] - cum


def drift_matrix(
    dB: np.ndarray,
    m_nodes: np.ndarray,
    q_tail: np.ndarray,
    i_last: int,
    L: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized drift for a batch of paths.

    Parameters
    ----------
    dB : (rows, n_steps) Brownian increments on the full [0, T1] grid.
    m_nodes, q_tail : weight values and tail integrals at the grid nodes.
    i_last : last node index at which the drift is evaluated (time T).
    L : optional precomputed functional values, one per row.

    Returns
    -------
    (alpha, L) with alpha of shape (rows, i_last + 1); column i holds
    m(t_i) * (L - int_0^{t_i} m dB) / q_tail[i].
    """
    weighted = m_nodes[:-1] * dB
    if L is None:
        L = weighted.sum(axis=1)
    run = running_sum(weighted[:, :i_last])
    del weighted  # full width: freed before the result is allocated
    return m_nodes[: i_last + 1] * (L[:, None] - run) / q_tail[: i_last + 1], L


@dataclass(frozen=True)
class ChunkContext:
    """Per-chunk arrays a vectorized policy or a reducer may read.

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


@dataclass(frozen=True, eq=False)
class DriftSetup:
    """Node data of the drift on one [0, T1] grid: t0 is node ``i0``, the
    decision horizon T node ``i_last``; ``informed=False`` gives every chunk
    the zero drift of an agent without L."""

    grid: TimeGrid
    i0: int
    i_last: int
    m_nodes: np.ndarray
    q_tail: np.ndarray
    informed: bool


def drift_setup(m: WeightFunction | Callable[[float], float] | float,
                grid: TimeGrid, horizon: float, t0: float = 0.0,
                informed: bool = True) -> DriftSetup:
    """Validate the weight on ``grid`` and resolve the drift's node data."""
    i_last = grid.index_of(horizon)
    if i_last >= grid.n_steps:
        raise ValueError(
            f"decision horizon T={horizon} must lie strictly before "
            f"T1={grid.t_end}"
        )
    m_nodes = as_weight(m).nodes(grid.times)
    with np.errstate(over="ignore", invalid="ignore"):
        q = tail_square_integral(m_nodes, grid.dt)
    if not np.isfinite(q[0]):
        raise ValueError("int_0^T1 m^2 ds is not finite: the weight overflows")
    if not q[i_last] > 0.0:
        raise ValueError("int_t^T1 m^2 ds must stay positive for t <= T")
    return DriftSetup(grid, grid.index_of(t0), i_last, m_nodes, q, informed)


def chunk_context(setup: DriftSetup, dB: np.ndarray) -> ChunkContext:
    """B and alpha on nodes 0..i_last, and L, of one (rows, n_steps) block
    of increments: the block's one ``drift_matrix`` call.  Every reducer of
    the block reads these arrays, so they are made read-only."""
    i_last = setup.i_last
    B = running_sum(dB[:, :i_last])
    if setup.informed:
        alpha, L = drift_matrix(dB, setup.m_nodes, setup.q_tail, i_last)
    else:
        alpha, L = _no_information(len(dB), i_last)
    for a in (B, alpha, L):
        a.flags.writeable = False
    return ChunkContext(setup.grid.times, setup.grid.dt, setup.i0, i_last,
                        L, alpha, B)


def _no_information(rows: int, i_last: int) -> tuple[np.ndarray, np.ndarray]:
    """alpha = 0 and L = 0 as read-only views of one zero, which take no
    chunk-sized memory."""
    zero = np.float64(0.0)
    return np.broadcast_to(zero, (rows, i_last + 1)), np.broadcast_to(zero, rows)


def without_drift(reduce, dB: np.ndarray, ctx: ChunkContext):
    """``reduce(dB, ctx)`` as the agent without information sees the chunk:
    the same B, with alpha = 0 and L = 0."""
    alpha, L = _no_information(len(ctx.L), ctx.i_last)
    return reduce(dB, replace(ctx, alpha=alpha, L=L))


def _reduce_chunk(setup, reducers, dB):
    outputs = []
    for start in range(0, len(dB), BLOCK):
        block = dB[start : start + BLOCK]
        ctx = chunk_context(setup, block)
        # each reducer's block-sized arrays die with its frame, before the next
        outputs.append([reduce(block, ctx) for reduce in reducers])
        del ctx  # freed before the next block's context is built
        for out in outputs[-1]:
            if not isinstance(out, tuple) or any(
                    np.shape(a)[-1:] != (len(block),) for a in out):
                raise ValueError(f"a reducer must return a tuple of arrays "
                                 f"with the block's {len(block)} rows last")
    return outputs


def map_reducers(setup: DriftSetup, reducers: Sequence[Callable], seed: int,
                 n_paths: int, pool=None) -> list[tuple[np.ndarray, ...]]:
    """Apply every reducer ``(dB, ctx) -> arrays`` to each block of one draw.

    ``map_chunks`` draws each chunk once; each row block of at most
    ``BLOCK`` rows of it gets one ``chunk_context``, and every reducer sees
    the block and that context.  A reducer returns a tuple of arrays whose
    last axis is the block's rows, and must be row-wise (row k depends on
    row k of the block alone), so the block size changes no result.
    Returns, per reducer, its arrays joined over all ``n_paths`` rows in
    path order, with or without a process ``pool`` (the reducers must then
    pickle); an output of the wrong shape raises ``ValueError``.
    """
    chunks = map_chunks(partial(_reduce_chunk, setup, tuple(reducers)),
                        setup.grid, seed, n_paths, pool)
    blocks = [block for chunk in chunks for block in chunk]
    return [tuple(np.concatenate(a, axis=-1) for a in zip(*block_outputs))
            for block_outputs in zip(*blocks)]


class InfoDriftField:
    """The drift alpha_i cached along one path, for nodes t_i <= T.

    Built from a path on the full grid [0, T1].  ``alpha[i]`` depends on the
    path only through values up to node i plus the scalar L, which is the
    discrete counterpart of alpha being adapted to the enlarged filtration.

    ``InfoDriftField.zero`` gives the no-information limit (alpha == 0,
    L = 0), used to model the honest agent.
    """

    def __init__(
        self,
        m: WeightFunction | Callable[[float], float] | float,
        path: BrownianPath,
        horizon: float,
        L: float | None = None,
    ):
        m = as_weight(m)
        setup = drift_setup(m, path.grid, horizon)
        db = np.diff(path.values)
        if L is None:
            L = float(np.sum(setup.m_nodes[:-1] * db))
        alpha, _ = drift_matrix(db[None, :], setup.m_nodes, setup.q_tail,
                                setup.i_last, np.array([L]))
        self.m = m
        self.path = path
        self.horizon = float(horizon)
        self.t1 = path.grid.t_end
        self.L = L
        self.i_last = setup.i_last
        self.alpha = alpha[0]

    @classmethod
    def zero(cls, path: BrownianPath, horizon: float) -> "InfoDriftField":
        """Drift identically zero: the agent holds no extra information."""
        obj = cls.__new__(cls)
        grid = path.grid
        obj.m = as_weight(1.0)  # placeholder, never evaluated
        obj.path = path
        obj.horizon = float(horizon)
        obj.t1 = grid.t_end
        obj.L = 0.0
        obj.i_last = grid.index_of(horizon)
        obj.alpha = np.zeros(obj.i_last + 1)
        return obj


def information_drift(field: InfoDriftField, i: int) -> float:
    """alpha at node i; defined only for t_i <= T < T1."""
    if not 0 <= i <= field.i_last:
        raise ValueError(
            f"node {i} past the decision horizon (last drift node "
            f"{field.i_last}, T1 excluded because the denominator vanishes)"
        )
    return float(field.alpha[i])


def decompose(path: BrownianPath, field: InfoDriftField) -> BrownianPath:
    """Btilde_i = B_i - sum_{j<i} alpha_j dt on the grid restricted to [0, T].

    The returned path is the G-Brownian part of the decomposition
    B = Btilde + int alpha ds; adding the drift integral back reconstructs B
    to machine precision.
    """
    if field.path is not path and not (
        path.grid == field.path.grid and np.array_equal(path.values, field.path.values)
    ):
        raise ValueError("field was built from a different path")
    i_last = field.i_last
    dt = path.grid.dt
    drift_cum = running_sum(field.alpha[:i_last] * dt)
    values = path.values[: i_last + 1] - drift_cum
    return BrownianPath(path.grid.prefix(i_last), values, seed=path.seed)


def drift_second_moment(
    m: WeightFunction | Callable[[float], float] | float, s: float, t1: float
) -> float:
    """E[alpha_s^2] = m(s)^2 / int_s^{T1} m^2 du, by quadrature."""
    if s >= t1:
        raise ValueError(f"need s < T1, got s={s}, T1={t1}")
    m = as_weight(m)
    denom, _ = integrate.quad(lambda u: m(u) ** 2, s, t1)
    if denom <= 0.0:
        raise ValueError("int_s^{T1} m^2 du must be positive")
    return m(s) ** 2 / denom


def expected_squared_drift_integral(
    m: WeightFunction | Callable[[float], float] | float, T: float, t1: float
) -> float:
    """int_0^T E[alpha_s^2] ds; equals log 2 on the m == 1, T=1, T1=2 benchmark."""
    return integrate.quad(lambda s: drift_second_moment(m, s, t1), 0.0, T)[0]


def _decomposition_chunk(dB, ctx):
    """Btilde_T, L and the worst reconstruction error, per row."""
    B = ctx.B
    # int alpha ds, then the reconstruction error, in one buffer of this
    # reducer's own: the context is shared, and every further chunk-sized
    # temporary here raises the peak RSS
    buf = np.empty_like(B)
    buf[:, 0] = 0.0
    np.multiply(ctx.alpha[:, : ctx.i_last], ctx.dt, out=buf[:, 1:])
    np.cumsum(buf[:, 1:], axis=1, out=buf[:, 1:])
    btilde = B - buf
    np.add(btilde, buf, out=buf)
    np.subtract(buf, B, out=buf)
    recon = np.abs(buf, out=buf).max(axis=1)
    # a copy, so the chunk matrices are freed before the batch is joined
    return btilde[:, -1].copy(), ctx.L, recon


def decomposition_stats(
    m: WeightFunction | Callable[[float], float] | float,
    horizon: float,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    pool=None,
) -> dict:
    """Batch decomposition diagnostics over ``n_paths`` chunked paths.

    Returns terminal-value statistics of Btilde at T, its correlation with
    L, and the worst per-path reconstruction error of B = Btilde + int alpha.
    Chunks are reduced in fixed order, so the result is a pure function of
    the arguments, with or without a process ``pool``.
    """
    setup = drift_setup(m, grid, horizon)
    ((terminals, Ls, recon),) = map_reducers(setup, [_decomposition_chunk],
                                             seed, n_paths, pool)
    corr = float(np.corrcoef(terminals, Ls)[0, 1])
    return {
        "n_paths": n_paths,
        "var_terminal": float(terminals.var(ddof=1)),
        "mean_terminal": float(terminals.mean()),
        "corr_with_L": corr,
        "corr_se": 1.0 / math.sqrt(n_paths),
        "max_reconstruction_error": float(recon.max()),
        "var_L": float(Ls.var(ddof=1)),
    }
