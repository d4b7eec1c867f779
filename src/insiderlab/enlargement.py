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
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable

import numpy as np
from scipy import integrate

from .paths import (
    BrownianPath,
    TimeGrid,
    WeightFunction,
    as_weight,
    map_chunks,
    running_sum,
)

__all__ = [
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
    return m_nodes[: i_last + 1] * (L[:, None] - run) / q_tail[: i_last + 1], L


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
        grid = path.grid
        i_last = grid.index_of(horizon)
        if i_last >= grid.n_steps:
            raise ValueError(
                f"decision horizon T={horizon} must lie strictly before "
                f"T1={grid.t_end}"
            )
        m_nodes = m.nodes(grid.times)
        q = tail_square_integral(m_nodes, grid.dt)
        if np.any(q[: i_last + 1] <= 0.0):
            raise ValueError("int_t^{T1} m^2 ds must stay positive for t <= T")
        db = np.diff(path.values)
        if L is None:
            L = float(np.sum(m_nodes[:-1] * db))
        alpha, _ = drift_matrix(db[None, :], m_nodes, q, i_last,
                                np.array([L]))
        self.m = m
        self.path = path
        self.horizon = float(horizon)
        self.t1 = grid.t_end
        self.L = L
        self.i_last = i_last
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


def _decomposition_chunk(m_nodes, q, i_last, dt, dB):
    """Btilde_T and L per row, and the chunk's worst reconstruction error."""
    B = running_sum(dB[:, :i_last])
    alpha, L = drift_matrix(dB, m_nodes, q, i_last)
    alpha *= dt  # in place: a chunk-sized temporary here raised the peak RSS
    drift_cum = running_sum(alpha[:, :i_last])
    btilde = B - drift_cum
    max_recon = float(np.max(np.abs(btilde + drift_cum - B)))
    # a copy, so the chunk matrices are freed before the batch is combined
    return btilde[:, -1].copy(), L, max_recon


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
    m = as_weight(m)
    i_last = grid.index_of(horizon)
    if i_last >= grid.n_steps:
        raise ValueError("horizon must lie strictly inside the grid")
    m_nodes = m.nodes(grid.times)
    q = tail_square_integral(m_nodes, grid.dt)
    if not q[i_last] > 0.0:
        raise ValueError("int_t^{T1} m^2 ds must stay positive for t <= T")
    parts = map_chunks(partial(_decomposition_chunk, m_nodes, q, i_last, grid.dt),
                       grid, seed, n_paths, pool)
    terminals = np.concatenate([p[0] for p in parts])
    Ls = np.concatenate([p[1] for p in parts])
    max_recon = max(p[2] for p in parts)

    corr = float(np.corrcoef(terminals, Ls)[0, 1])
    return {
        "n_paths": n_paths,
        "var_terminal": float(terminals.var(ddof=1)),
        "mean_terminal": float(terminals.mean()),
        "corr_with_L": corr,
        "corr_se": 1.0 / math.sqrt(n_paths),
        "max_reconstruction_error": max_recon,
        "var_L": float(Ls.var(ddof=1)),
    }
