"""Discrete Russo-Vallois forward integral and Ito comparison.

The forward integral of v against B is the limit in probability of

    (1/eps) * int_0^T v_s (B_{(s+eps) and T} - B_s) ds      as eps -> 0.

Here eps is restricted to whole multiples of the grid step and the time
integral is a left-point Riemann sum, which makes the eps = dt estimate
coincide term for term with the Ito left sum.  Agreement for adapted
integrands is then an exact identity on the grid, and convergence as eps
shrinks is certified statistically through an eps ladder.

Each estimator is two parts: the increments of B it weighs the integrand
by, B_{min(i+k, n)} - B_i for ``forward_estimate`` and ``np.diff(B)`` for
``ito_left_sum``, and one row contraction ``sum_i v_i increments_i`` that
reads both operands once and allocates only its result.  So the eps = dt
equality that ``left_sum_bit_exact`` checks certifies the two ways of
forming the increments, the slices at k = 1 against ``np.diff``, through
the same contraction.

The estimators take one path or a batch: node values of shape
``(n_nodes,)`` give a float, and ``(rows, n_nodes)`` values (integrand,
path or both, broadcast against each other) give one sum per row, each
equal bit for bit to the one-path call on that row.  A tuple of
integrands gives a tuple of such results, one per integrand, from a
single increment matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .paths import BrownianPath, TimeGrid, row_dot

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

    @classmethod
    def _of_finite(cls, grid: TimeGrid, values: np.ndarray) -> "Integrand":
        """An integrand of values that fit ``grid`` and are finite by
        construction, such as a block's B and alpha from ``chunk_context``,
        built without the checks, which would read every value again."""
        v = object.__new__(cls)
        object.__setattr__(v, "grid", grid)
        object.__setattr__(v, "values", values)
        return v


def _integrands(
    v: Integrand | tuple[Integrand, ...], path: BrownianPath
) -> tuple[Integrand, ...]:
    vs = v if isinstance(v, tuple) else (v,)
    if any(w.grid != path.grid for w in vs):
        raise ValueError("integrand and path live on different grids")
    return vs


def _eps_multiple(grid: TimeGrid, eps: float) -> int:
    k = int(round(eps / grid.dt))
    if k < 1 or abs(k * grid.dt - eps) > 1e-9 * max(eps, grid.dt):
        raise ValueError(f"eps={eps} is not a whole multiple of dt={grid.dt}")
    if not eps < grid.t_end - grid.t_start:
        raise ValueError(f"eps={eps} must be smaller than the horizon")
    return k


def _contract(
    v: Integrand | tuple[Integrand, ...],
    vs: tuple[Integrand, ...],
    increments: np.ndarray,
    scale: float = 1.0,
) -> float | np.ndarray | tuple:
    """sum_i v_i increments_i per integrand, times ``scale``: a float for
    one path, one value per row for a batch; a tuple when ``v`` is one."""
    sums = []
    for w in vs:
        total = row_dot(w.values[..., :-1], increments)
        sums.append((float(total) if total.ndim == 0 else total) * scale)
    return tuple(sums) if isinstance(v, tuple) else sums[0]


def forward_estimate(
    v: Integrand | tuple[Integrand, ...], B: BrownianPath, eps: float
) -> float | np.ndarray | tuple:
    """(1/eps) sum_i v_i (B_{min(i+k, n)} - B_i) dt  with  eps = k dt.

    At k = 1 the scale factor dt/eps is exactly one and the sum is the Ito
    left sum, unchanged bit for bit.
    """
    vs = _integrands(v, B)
    k = _eps_multiple(B.grid, eps)
    n = B.grid.n_steps
    b = B.values
    # B_{i+k} - B_i while i + k <= n, then B_n - B_i for the last k - 1 nodes
    increments = np.empty(b.shape[:-1] + (n,))
    np.subtract(b[..., k:], b[..., : n + 1 - k],
                out=increments[..., : n + 1 - k])
    np.subtract(b[..., n:], b[..., n + 1 - k : n],
                out=increments[..., n + 1 - k :])
    return _contract(v, vs, increments, B.grid.dt / eps)


def ito_left_sum(
    v: Integrand | tuple[Integrand, ...], B: BrownianPath
) -> float | np.ndarray | tuple:
    """sum_i v_i (B_{i+1} - B_i), the adapted benchmark."""
    return _contract(v, _integrands(v, B), np.diff(B.values, axis=-1))
