"""Time grids, seeded Brownian paths, and the Gaussian functional L.

Everything downstream (drift fields, SDE schemes, Monte Carlo batches) runs on
one uniform grid over the extended horizon ``[0, T1]``.  Monte Carlo batches
draw only the part of it that an op reads: the steps on [t0, T), one normal
more, whose value carries the rest of L, and, when t0 > 0, one or two
normals that carry the path before t0 (``enlargement.DriftSetup.draw_width``).
Paths are pure functions of ``(grid, seed)``: the same inputs always
reproduce the same trajectory bit for bit, which is what makes
common-random-number comparisons and byte-identical experiment reruns
possible.  A batch is cut into chunks of ``CHUNK`` paths, each with its own
SFC64 stream ``chunk_rng(seed, c)``; the chunk engine
``enlargement.map_reducers`` fills its row blocks from that stream in
order, unscaled.  ``increment_chunk`` is the one-call draw of a chunk's
increments on a grid in real units.  Every per-path sum over the nodes goes
through ``row_dot``, whose result for a row does not depend on the other
rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

__all__ = [
    "CHUNK",
    "TimeGrid",
    "BrownianPath",
    "WeightFunction",
    "Constant",
    "Affine",
    "Sin",
    "make_grid",
    "sample_brownian",
    "constant_weight",
    "as_weight",
    "chunk_rng",
    "increment_chunk",
    "n_chunks",
    "row_dot",
    "running_sum",
]

# Fixed Monte Carlo chunk width.  Chunk c of a batch always covers path
# indices [c*CHUNK, (c+1)*CHUNK) and draws from its own RNG stream, so the
# noise seen by path i depends only on (seed, i), never on batch size or on
# how many workers processed the batch.
CHUNK = 1024

# Relative slack when matching a time to a grid node.
_NODE_RTOL = 1e-9


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid ``t_i = t_start + i*dt`` with ``dt = span/n_steps``."""

    t_start: float
    t_end: float
    n_steps: int

    def __post_init__(self) -> None:
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if not self.t_end > self.t_start:
            raise ValueError(
                f"need t_end > t_start, got [{self.t_start}, {self.t_end}]"
            )

    @property
    def dt(self) -> float:
        return (self.t_end - self.t_start) / self.n_steps

    @cached_property
    def times(self) -> np.ndarray:
        """Node times, endpoints exact."""
        return np.linspace(self.t_start, self.t_end, self.n_steps + 1)

    @property
    def n_nodes(self) -> int:
        return self.n_steps + 1

    def index_of(self, t: float) -> int:
        """Index of the node at time ``t``.

        Raises ValueError when ``t`` does not sit on a node (within a small
        relative slack); every horizon used by the lab must be node-aligned.
        """
        x = (t - self.t_start) / self.dt
        i = int(round(x)) if math.isfinite(x) else -1  # inf is outside too
        if i < 0 or i > self.n_steps:
            raise ValueError(f"time {t} outside grid [{self.t_start}, {self.t_end}]")
        tol = _NODE_RTOL * max(1.0, abs(t))
        if abs(self.times[i] - t) > tol:
            raise ValueError(f"time {t} is not a grid node (nearest {self.times[i]})")
        return i

    def prefix(self, i_end: int) -> "TimeGrid":
        """Subgrid over the first ``i_end`` steps (same origin, same dt)."""
        if not 1 <= i_end <= self.n_steps:
            raise ValueError(f"prefix index {i_end} outside 1..{self.n_steps}")
        return TimeGrid(self.t_start, float(self.times[i_end]), i_end)


@dataclass(frozen=True, eq=False)
class BrownianPath:
    """A sampled trajectory on a grid; ``values[..., i]`` is B at node i.

    ``values`` has shape ``(n_nodes,)`` for one path or ``(rows, n_nodes)``
    for a batch of paths on the same grid, one path per row.
    """

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        shape = self.values.shape
        if len(shape) not in (1, 2) or shape[-1] != self.grid.n_nodes:
            raise ValueError(
                f"values shape {shape} does not match grid with "
                f"{self.grid.n_nodes} nodes: need (n_nodes,) or (rows, n_nodes)"
            )

    def restrict(self, t_end: float) -> "BrownianPath":
        """The same trajectory truncated at node time ``t_end``."""
        i = self.grid.index_of(t_end)
        if i == self.grid.n_steps:
            return self
        return BrownianPath(self.grid.prefix(i), self.values[..., : i + 1])


@dataclass(frozen=True)
class WeightFunction:
    """Deterministic weight m(s) defining L = int_0^{T1} m dB.

    The integrand must stay away from zero somewhere on every tail [t, T1]
    (t <= T < T1), so the conditioning denominators int_t^{T1} m^2 ds never
    vanish where the drift is evaluated.  ``nodes`` evaluates m on an array of
    times, tolerating plain scalar callables.
    """

    fn: Callable[[float], float]

    def __call__(self, t: float) -> float:
        return float(self.fn(t))

    def nodes(self, times: np.ndarray) -> np.ndarray:
        arr = np.asarray(times, dtype=float)
        try:
            out = self.fn(arr)
        except (TypeError, ValueError):
            out = None
        if out is not None and np.shape(out) == arr.shape:
            return np.asarray(out, dtype=float)
        # scalar-only callable: evaluate pointwise
        flat = np.array([float(self.fn(t)) for t in arr.ravel()], dtype=float)
        return flat.reshape(arr.shape)


@dataclass(frozen=True)
class Constant:
    """s -> value, vectorised; picklable, unlike a lambda."""

    value: float

    def __call__(self, s):
        return self.value + 0.0 * np.asarray(s)


@dataclass(frozen=True)
class Affine:
    """s -> intercept + slope * s."""

    intercept: float
    slope: float

    def __call__(self, s):
        return self.intercept + self.slope * s


@dataclass(frozen=True)
class Sin:
    """s -> base + amplitude * sin(frequency * s)."""

    base: float
    amplitude: float
    frequency: float = 1.0

    def __call__(self, s):
        return self.base + self.amplitude * np.sin(self.frequency * s)


def constant_weight(c: float) -> WeightFunction:
    return WeightFunction(Constant(c))


def as_weight(m: WeightFunction | Callable[[float], float] | float) -> WeightFunction:
    """Coerce a callable or constant to a WeightFunction."""
    if isinstance(m, WeightFunction):
        return m
    if callable(m):
        return WeightFunction(m)
    return constant_weight(float(m))


def make_grid(t_start: float, t_end: float, n_steps: int) -> TimeGrid:
    """Uniform grid on [t_start, t_end] with n_steps steps.

    Examples
    --------
    >>> make_grid(0.0, 1.0, 4).times
    array([0.  , 0.25, 0.5 , 0.75, 1.  ])
    """
    return TimeGrid(float(t_start), float(t_end), int(n_steps))


def running_sum(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Node values of paths with increments ``x`` (last axis), started at 0:
    ``out[..., i] = x[..., 0] + ... + x[..., i-1]``, summed by ``np.cumsum``
    into ``out`` (a new array by default), which is returned."""
    if out is None:
        out = np.empty(x.shape[:-1] + (x.shape[-1] + 1,))
    out[..., 0] = 0.0
    np.cumsum(x, axis=-1, out=out[..., 1:])
    return out


# einsum's iterator cuts a row longer than its buffer at places that depend
# on the row count, so a batch of such rows is contracted row by row
_EINSUM_BUFFER = 8192


def row_dot(*operands: np.ndarray) -> np.ndarray:
    """sum_i of the product of ``operands`` over their last axis, which
    broadcast against each other, in one pass that allocates only the
    result.  Each row is summed in an order that depends on that row alone,
    so a row gives the same bits in a batch of any size."""
    shape = np.broadcast_shapes(*(np.shape(op) for op in operands))
    spec = ",".join(["...i"] * len(operands)) + "->..."
    if shape[-1] <= _EINSUM_BUFFER or len(shape) == 1:
        return np.einsum(spec, *operands)
    return np.array([np.einsum(spec, *row)
                     for row in zip(*np.broadcast_arrays(*operands))])


def sample_brownian(grid: TimeGrid, seed: int | np.random.SeedSequence) -> BrownianPath:
    """Draw one Brownian trajectory on ``grid``, started at 0.

    Increments are iid Normal(0, dt) from ``numpy``'s PCG64 stream keyed by
    ``seed`` (an int or a SeedSequence) alone: reproducible, order-independent.
    """
    rng = np.random.default_rng(seed)
    db = rng.standard_normal(grid.n_steps) * math.sqrt(grid.dt)
    return BrownianPath(grid, running_sum(db))


# ---------------------------------------------------------------------------
# Chunked batch sampling
# ---------------------------------------------------------------------------

def n_chunks(n_paths: int) -> int:
    return (n_paths + CHUNK - 1) // CHUNK


def chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    """Independent SFC64 stream for one chunk of a batch.

    Streams are derived from (seed, chunk_index) through SeedSequence spawn
    keys, so any subset of chunks can be generated in any order, on any
    worker, and still reproduce the same numbers.
    """
    return np.random.Generator(np.random.SFC64(
        np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,))))


def increment_chunk(grid: TimeGrid, seed: int, chunk_index: int,
                    rows: int) -> np.ndarray:
    """The (rows, n_steps) increments of one chunk, Normal(0, dt) iid, in
    one call: sqrt(dt) times ``chunk_rng(seed, chunk_index)``'s normals,
    row by row.  At t0 = 0 the row blocks of ``enlargement.map_reducers``
    join to the same normals, unscaled, on the grid's first i_last + 1
    steps."""
    out = np.empty((rows, grid.n_steps))
    chunk_rng(seed, chunk_index).standard_normal(out=out)
    out *= math.sqrt(grid.dt)
    return out
