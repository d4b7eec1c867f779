"""Discrete Russo-Vallois forward integral and Ito comparison.

The forward integral of v against B is the limit in probability of

    (1/eps) * int_0^T v_s (B_{(s+eps) and T} - B_s) ds      as eps -> 0.

Here eps is restricted to whole multiples of the grid step and the time
integral is a left-point Riemann sum, which makes the eps = dt estimate
coincide term for term with the Ito left sum.  Agreement for adapted
integrands is then an exact identity on the grid, and convergence as eps
shrinks is certified statistically through an eps ladder.

The estimators take one path or a batch: node values of shape
``(n_nodes,)`` give a float, and ``(rows, n_nodes)`` values (integrand,
path or both, broadcast against each other) give one sum per row, each
equal bit for bit to the one-path call on that row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .paths import BrownianPath, TimeGrid

__all__ = ["Integrand", "forward_estimate", "ito_left_sum"]


@dataclass(frozen=True, eq=False)
class Integrand:
    """Node values of v on a grid, ``(n_nodes,)`` or ``(rows, n_nodes)``;
    the estimators treat adapted and anticipating v alike."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        shape = self.values.shape
        if len(shape) not in (1, 2) or shape[-1] != self.grid.n_nodes:
            raise ValueError(
                f"integrand values of shape {shape} do not fit a grid with "
                f"{self.grid.n_nodes} nodes: need (n_nodes,) or (rows, n_nodes)"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("integrand values must be finite")


def _check_same_grid(v: Integrand, path: BrownianPath) -> None:
    if v.grid != path.grid:
        raise ValueError("integrand and path live on different grids")


def _eps_multiple(grid: TimeGrid, eps: float) -> int:
    k = int(round(eps / grid.dt))
    if k < 1 or abs(k * grid.dt - eps) > 1e-9 * max(eps, grid.dt):
        raise ValueError(f"eps={eps} is not a whole multiple of dt={grid.dt}")
    if not eps < grid.t_end - grid.t_start:
        raise ValueError(f"eps={eps} must be smaller than the horizon")
    return k


def _row_sums(terms: np.ndarray) -> float | np.ndarray:
    """Sum over nodes: a float for one path, one value per row for a batch."""
    total = np.sum(terms, axis=-1)
    return float(total) if total.ndim == 0 else total


def forward_estimate(
    v: Integrand, B: BrownianPath, eps: float
) -> float | np.ndarray:
    """(1/eps) sum_i v_i (B_{min(i+k, n)} - B_i) dt  with  eps = k dt.

    At k = 1 the scale factor dt/eps is exactly one and the sum is the Ito
    left sum, unchanged bit for bit.
    """
    _check_same_grid(v, B)
    k = _eps_multiple(B.grid, eps)
    n = B.grid.n_steps
    b = B.values
    # B_{i+k} - B_i while i + k <= n, then B_n - B_i for the last k - 1 nodes,
    # multiplied by v_i in place (a fresh product array doubles the time)
    rows = np.broadcast_shapes(v.values.shape, b.shape)[:-1]
    terms = np.empty(rows + (n,))
    np.subtract(b[..., k:], b[..., : n + 1 - k], out=terms[..., : n + 1 - k])
    np.subtract(b[..., n:], b[..., n + 1 - k : n], out=terms[..., n + 1 - k :])
    terms *= v.values[..., :-1]
    return _row_sums(terms) * (B.grid.dt / eps)


def ito_left_sum(v: Integrand, B: BrownianPath) -> float | np.ndarray:
    """sum_i v_i (B_{i+1} - B_i), the adapted benchmark."""
    _check_same_grid(v, B)
    return _row_sums(v.values[..., :-1] * np.diff(B.values, axis=-1))
