"""Information drift and the semimartingale decomposition of B.

An agent who knows L = int_0^{T1} m dB from time 0 sees the driving Brownian
motion with a drift.  For Gaussian L the drift has the classical closed form

    alpha_t  =  m(t) * (L - int_0^t m dB) / int_t^{T1} m^2 ds ,

and  Btilde_t = B_t - int_0^t alpha_s ds  is again a Brownian motion in the
enlarged filtration.  This module evaluates alpha along sampled paths,
performs the discrete decomposition, and gives the analytic second moment
E[alpha_s^2] = m(s)^2 / int_s^{T1} m^2 du and its exact value on the grid,
``drift_square_mean``.  The agent without the extra information is not a
drift field but a policy, ``controlled_sde.uninformed``.

The drift is only ever evaluated up to a decision horizon T strictly before
T1; at T1 the conditioning denominator vanishes.

Batch estimators see the drift through ``chunk_context``: ``map_reducers``
is the one chunk engine of the library and the CLI.  Its task opens a
chunk's stream once and draws the chunk in row blocks of about
``BLOCK_BYTES`` bytes into one workspace, builds each block's B, alpha and
L once, B and alpha in that same workspace, and applies every reducer of an
op to that one context before the next block is drawn, so no array of a
whole chunk is made.  In process two threads each run the task of one
chunk, so the reducers run off the calling thread, two at a time; the draw
and most of numpy's array work release the interpreter lock, so the two
overlap.  Every reducer is row-wise and returns fresh arrays whose last
axis is the block's rows, so ``map_reducers`` joins them into whole-batch
arrays in path order.

Every control, wealth path and check lives on [0, T], so the path after T
enters only through the scalar int_T^{T1} m dB.  Given the path on [0, T]
its grid sum sum_{j>=i_T} m_j dB_j is exactly Normal(0, S) with
S = sum_{j>=i_T} m_j^2 dt, the left-point tail that ``drift_square_mean``
assumes.  The batch engine therefore draws each path on
``DriftSetup.draw_grid``: the i_T increments on [0, T) and one Normal(0, dt)
increment more, the carrier, which ``tail`` = sqrt(S / dt) turns into that
sum.  The single-path ``InfoDriftField`` still takes a path on all of
[0, T1].
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .paths import (
    CHUNK,
    BrownianPath,
    TimeGrid,
    WeightFunction,
    as_weight,
    chunk_rng,
    n_chunks,
    running_sum,
)

__all__ = [
    "BLOCK_BYTES",
    "ChunkContext",
    "DriftSetup",
    "drift_setup",
    "chunk_context",
    "map_reducers",
    "InfoDriftField",
    "decompose",
    "drift_second_moment",
    "tail_square_integral",
    "drift_square_mean",
    "drift_matrix",
    "decomposition_stats",
]


def tail_square_integral(m_nodes: np.ndarray, dt: float) -> np.ndarray:
    """Trapezoid values of int_{t_i}^{T1} m(s)^2 ds for every node i."""
    w = m_nodes * m_nodes
    cum = running_sum(0.5 * (w[:-1] + w[1:]) * dt)
    return cum[-1] - cum


def drift_square_mean(setup: DriftSetup) -> np.ndarray:
    """E[alpha_i^2] on nodes 0..i_last, exact for the sums of ``drift_matrix``.

    alpha_i = m_i (L - sum_{j<i} m_j dB_j) / q_i, and the numerator is
    sum_{j>=i} m_j dB_j, so E[alpha_i^2] = m_i^2 S_i / q_i^2 with
    S_i = sum_{j>=i} m_j^2 dt.
    """
    m = setup.m_nodes
    cum = running_sum(m[:-1] * m[:-1] * setup.grid.dt)
    i = setup.i_last + 1
    return (m[:i] / setup.q_tail[:i]) ** 2 * (cum[-1] - cum[:i])


def drift_matrix(
    dB: np.ndarray,
    setup: DriftSetup,
    L: np.ndarray | float | None = None,
    run: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | float]:
    """Vectorized drift for one path (1-D ``dB``) or a batch (rows last-but-one).

    Parameters
    ----------
    dB : (..., n) increments with n > i_last; only the i_last increments on
        [0, T) are read, and, when ``L`` is not given, the carrier column
        i_last of a block drawn on ``setup.draw_grid``.
    setup : the drift's node data.
    L : the functional, per row; by default
        sum_{j<i_last} m_j dB_j + tail * dB_{i_last}.
    run : the running sums of m dB on nodes 0..i_last, if the caller holds
        them already (B itself when m is 1 on [0, T)).
    out : a float64 array of alpha's shape that receives alpha; by default
        a new one.  It may be ``run`` itself.

    Returns
    -------
    (alpha, L) with alpha of shape (..., i_last + 1); column i holds
    m(t_i) * (L - int_0^{t_i} m dB) / q_tail[i].
    """
    i_last = setup.i_last
    if run is None:
        run = running_sum(setup.m_nodes[:i_last] * dB[..., :i_last], out)
    if L is None:
        L = run[..., -1] + setup.tail * dB[..., i_last]
    alpha = np.subtract(np.asarray(L)[..., None], run, out=out)
    m = setup.m_nodes[: i_last + 1]
    if not np.all(m == 1.0):  # x * 1.0 is x: skipped, the bits are the same
        alpha *= m
    alpha /= setup.q_tail[: i_last + 1]
    return alpha, L


@dataclass(frozen=True)
class ChunkContext:
    """Per-block arrays a policy or a reducer may read.

    G-adaptedness means that a value at node i uses only the columns up to
    i and L.  A ``controlled_sde.ControlPolicy`` reads alpha at its own node
    and nothing else, so every policy is G-adapted by construction.
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
    decision horizon T node ``i_last``, and ``tail`` is
    sqrt(sum_{j>=i_last} m_j^2), the factor of the carrier increment in L.
    An agent without L is a policy, ``controlled_sde.uninformed``, not a
    property of the grid."""

    grid: TimeGrid
    i0: int
    i_last: int
    m_nodes: np.ndarray
    q_tail: np.ndarray
    tail: float

    @property
    def draw_grid(self) -> TimeGrid:
        """The grid a chunk is drawn on: [0, T) plus the carrier step."""
        return self.grid.prefix(self.i_last + 1)

    @property
    def unit_weight(self) -> bool:
        """m is exactly 1 on [0, T): the running sum of m dB is B itself."""
        return bool(np.all(self.m_nodes[: self.i_last] == 1.0))


def drift_setup(m: WeightFunction | Callable[[float], float] | float,
                grid: TimeGrid, horizon: float, t0: float = 0.0) -> DriftSetup:
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
    # a scaled sum: finite whenever q is, where a plain sum of m^2 may not be
    tail = math.hypot(*m_nodes[i_last:-1])
    return DriftSetup(grid, grid.index_of(t0), i_last, m_nodes, q, tail)


def chunk_context(setup: DriftSetup, dB: np.ndarray,
                  out: np.ndarray | None = None) -> ChunkContext:
    """B and alpha on nodes 0..i_last, and L, of one (rows, i_last + 1)
    block of increments drawn on ``setup.draw_grid``: the block's one
    ``drift_matrix`` call.  B and alpha are written into ``out``, two arrays
    of the block's shape, or into new arrays by default.  Every reducer of
    the block reads these arrays, so they are made read-only.  A block of
    any other width raises ValueError: its column i_last would be read as
    the carrier."""
    i_last = setup.i_last
    if dB.shape[-1] != i_last + 1:
        raise ValueError(f"a block of {dB.shape[-1]} increments per row; the "
                         f"draw grid has i_last + 1 = {i_last + 1}")
    B_out, alpha_out = (None, None) if out is None else out
    B = running_sum(dB[:, :i_last], B_out)
    alpha, L = drift_matrix(dB, setup, run=B if setup.unit_weight else None,
                            out=alpha_out)
    for a in (B, alpha, L):
        a.flags.writeable = False
    return ChunkContext(setup.grid.times, setup.grid.dt, setup.i0, i_last,
                        L, alpha, B)


# Bytes of one float64 row block of a chunk, the unit that ``map_reducers``
# draws and its reducers see at a time: 63 rows at 4096 steps, 127 at 2048.
# A block's arrays then fit in a 2 MiB L2 cache, and they stay the same size
# at every n_steps.  Streams stay per CHUNK: the blocks of a chunk are
# successive fills of its one generator.  Block-sized temporaries reuse heap
# pages only because each chunk's workspace (three blocks, allocated once)
# is larger than they are: freeing a buffer that glibc's malloc had
# mapped raises its mmap threshold to that size and its heap trim threshold
# to twice that.  With only block-sized buffers the trim threshold stays
# near two blocks, and the heap is trimmed and faulted in again after every
# block (a fresh workspace per block: about 10,700 minor faults per op of
# perfbench's ``value`` cycle, against 7 for one per chunk).
BLOCK_BYTES = 1 << 20


def _block_rows(n_steps: int) -> int:
    """Rows of one row block of a chunk with ``n_steps`` columns: as many as
    fit in ``BLOCK_BYTES``, at least one."""
    return max(1, BLOCK_BYTES // (8 * n_steps))


def _reduce_chunk(setup, reducers, seed, chunk_index, rows):
    """The task of one chunk: its stream is opened once, and each row block
    is drawn into one workspace, gets its context there and goes through
    every reducer before the next block is drawn.  Returns every reducer's
    outputs, block by block."""
    grid = setup.draw_grid
    rng = chunk_rng(seed, chunk_index)
    step = min(_block_rows(grid.n_steps), rows)
    work = np.empty((3, step, grid.n_steps))
    scale = math.sqrt(grid.dt)
    blocks = []
    for start in range(0, rows, step):
        dB, B, alpha = work[:, : min(step, rows - start)]
        rng.standard_normal(out=dB)
        dB *= scale
        ctx = chunk_context(setup, dB, (B, alpha))
        # each reducer's block-sized arrays die with its frame, before the next
        outputs = [reduce(dB, ctx) for reduce in reducers]
        for out in outputs:
            if not isinstance(out, tuple) or any(
                    np.shape(a)[-1:] != (len(dB),) for a in out):
                raise ValueError(f"a reducer must return a tuple of arrays "
                                 f"with the block's {len(dB)} rows last")
            if any(np.may_share_memory(a, work) for a in out):
                raise ValueError("a reducer must return fresh arrays, not "
                                 "views of the block or its context: the "
                                 "next block overwrites them")
        blocks.append(outputs)
    return blocks


def map_reducers(setup: DriftSetup, reducers: Sequence[Callable], seed: int,
                 n_paths: int, pool=None) -> list[tuple[np.ndarray, ...]]:
    """Apply every reducer ``(dB, ctx) -> arrays`` to each block of one draw.

    Chunk c covers paths ``c*CHUNK`` to ``(c+1)*CHUNK``.  Its task draws it
    once, on ``setup.draw_grid``, in row blocks of
    ``max(1, BLOCK_BYTES // (8 * (i_last + 1)))`` rows, the last one ragged,
    into one workspace of three blocks: dB, then B and alpha.  The rows of
    dB, joined over a chunk's blocks, are
    ``paths.increment_chunk(setup.draw_grid, seed, c, rows)`` bit for bit.
    Each block gets one ``chunk_context`` in that workspace, and every
    reducer sees the block and that context before the next block is drawn.
    A reducer returns a tuple of fresh arrays, never views of the
    workspace, whose last axis is the block's rows, and must be row-wise
    (row k depends on row k of the block alone), so the block size changes
    no result.  An output of the wrong shape, or one that shares memory
    with the workspace, raises ``ValueError``.  A reducer returns no mask:
    a value that is not finite marks its row as diverged, and the
    estimators' ``optimality.collect_samples`` drops and counts it.

    With a ``pool`` and more than one chunk, the chunks are drawn and
    reduced in its workers, so the reducers must pickle.  Otherwise two
    threads each run one chunk's task, and chunk c + 2 is started only once
    the result of chunk c is in, so at most two chunks are in flight.  A
    failing reducer raises here; no chunk after the one in flight beside it
    is started, and both threads have stopped when this returns or raises.
    The reducers then run off the calling thread, two at a time: each must
    be thread-safe and set its own ``np.errstate``, as the shipped ones do,
    because the caller's does not reach them.

    Returns, per reducer, its arrays joined over all ``n_paths`` rows in
    path order; neither the pool nor the threads change a value.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    plan = [(c, min(CHUNK, n_paths - c * CHUNK)) for c in range(n_chunks(n_paths))]
    task = partial(_reduce_chunk, setup, tuple(reducers), seed)
    if pool is not None and len(plan) > 1:
        chunks = list(pool.map(task, *zip(*plan)))
    else:
        with ThreadPoolExecutor(2) as threads:
            chunks, in_flight = [], deque()
            for c, rows in plan:
                if len(in_flight) == 2:
                    chunks.append(in_flight.popleft().result())
                in_flight.append(threads.submit(task, c, rows))
            chunks += [future.result() for future in in_flight]
    blocks = [outputs for chunk in chunks for outputs in chunk]
    return [tuple(np.concatenate(a, axis=-1) for a in zip(*block_outputs))
            for block_outputs in zip(*blocks)]


class InfoDriftField:
    """The drift alpha_i cached along one path, for nodes t_i <= T.

    Built from a path on the full grid [0, T1].  ``alpha[i]`` depends on the
    path only through values up to node i plus the scalar L, which is the
    discrete counterpart of alpha being adapted to the enlarged filtration.
    """

    def __init__(
        self,
        m: WeightFunction | Callable[[float], float] | float,
        path: BrownianPath,
        horizon: float,
        L: float | None = None,
    ):
        setup = drift_setup(m, path.grid, horizon)
        db = np.diff(path.values)
        if L is None:
            L = float(np.sum(setup.m_nodes[:-1] * db))
        self.alpha, _ = drift_matrix(db, setup, L)
        self.path = path
        self.L = L
        self.i_last = setup.i_last


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
    return BrownianPath(path.grid.prefix(i_last), values)


# drift_second_moment's composite Gauss-Legendre rule: the panel count, and
# the 16 reference nodes and weights on [-1, 1]
_PANELS = 64
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def drift_second_moment(
    m: WeightFunction | Callable[[float], float] | float, s: float, t1: float
) -> float:
    """E[alpha_s^2] = m(s)^2 / int_s^{T1} m^2 du.

    The integral is a composite Gauss-Legendre rule: 64 equal panels over
    [s, T1], 16 nodes each, all evaluated in one ``nodes`` call.  It is exact
    whenever m^2 is a polynomial of degree <= 31 on each panel.
    """
    if s >= t1:
        raise ValueError(f"need s < T1, got s={s}, T1={t1}")
    m = as_weight(m)
    half = 0.5 * (t1 - s) / _PANELS
    mids = s + half * (2.0 * np.arange(_PANELS) + 1.0)
    values = m.nodes(mids[:, None] + half * _GL_NODES)
    denom = half * float(np.sum(values * values @ _GL_WEIGHTS))
    if denom <= 0.0:
        raise ValueError("int_s^{T1} m^2 du must be positive")
    return m(s) ** 2 / denom


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
