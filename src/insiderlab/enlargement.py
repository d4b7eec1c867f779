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
``BLOCK_BYTES`` bytes into one workspace, builds each block's context once
in that same workspace, and applies every reducer of an op to that one
context before the next block is drawn, so no array of a whole chunk is
made.  The context is unit-free: it holds the block's raw normals Z, their
running sum R = (B - B_{t0}) / sqrt(dt) and D = (L - int_0^t m dB) / sqrt(dt)
on the nodes i0..i_last, so alpha = (m sqrt(dt) / q) D, and each op folds
sqrt(dt), m and 1/q into its node weights once (``controlled_sde.node_sum``)
instead of scaling every block.  In process two threads each run the task
of one chunk, so the reducers run off the calling thread, two at a time;
the draw and most of numpy's array work release the interpreter lock, so
the two overlap.  Every reducer is row-wise and returns fresh arrays whose
last axis is the block's rows, so ``map_reducers`` joins them into
whole-batch arrays in path order.

Every control, wealth path and check lives on [t0, T], and sees the path
outside it only through two carriers.  After T it enters only through the
scalar int_T^{T1} m dB: given the path on [0, T] its grid sum
sum_{j>=i_T} m_j dB_j is exactly Normal(0, S) with S = sum_{j>=i_T} m_j^2 dt,
the left-point tail that ``drift_square_mean`` assumes, so one normal more,
the tail carrier, which ``tail`` = sqrt(S / dt) turns into that sum, stands
for it.  Before t0 it enters only through B_{t0} (the theta0 rules and the
test functions at window starts) and int_0^{t0} m dB (in L), whose grid
sums are jointly Normal with covariance
[[S_B, S_m], [S_m, S_mm]] = dt [[i0, sum m_j], [sum m_j, sum m_j^2]] over
j < i0: the head carrier, one normal when m is 1 on [0, t0) (the two sums
are then one) and two with the Cholesky factor ``DriftSetup.head``
otherwise.  So a row of a block is ``DriftSetup.draw_width`` normals: the
head's, the N = i_last - i0 increments on [t0, T) and the tail carrier; at
t0 = 0 there is no head, and a row is the i_last + 1 normals that scale to
the increments on [0, T) and the carrier.  The single-path
``InfoDriftField`` still takes a path on all of [0, T1], in real units.
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
    row_dot,
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
    """The drift's numerator D = L - int_0^t m dB on the nodes i0..i_last,
    for one path (1-D ``dB``) or a batch (rows last-but-one), in the units
    of ``dB``: alpha = m D / q_tail.

    Parameters
    ----------
    dB : (..., n) a row as ``map_reducers`` draws it, ``setup.heads`` head
        normals, the N = i_last - i0 increments on [t0, T) and the tail
        carrier, all in units of sqrt(dt); or, when i0 = 0 (no head),
        increments in any units with n > i_last.  The carrier is read only
        when ``L`` is not given.
    setup : the drift's node data.
    L : the functional per row, in dB's units; by default the head's
        int_0^{t0} m dB plus sum_{i0<=j<i_last} m_j dB_j + tail * carrier.
    run : the running sums of m dB on nodes i0..i_last from 0 at i0, if the
        caller holds them already (R itself when m is 1 on [t0, T)).
    out : a float64 array of D's shape that receives D; by default a new
        one.  It may be ``run`` itself.

    Returns
    -------
    (D, L) with D of shape (..., N + 1); column j holds the future sum
    L - int_0^{t_{i0+j}} m dB, which does not read the head.
    """
    h, i0, i_last = setup.heads, setup.i0, setup.i_last
    n = i_last - i0
    if run is None:
        run = running_sum(setup.m_nodes[i0:i_last] * dB[..., h : h + n], out)
    if L is None:
        future = run[..., -1] + setup.tail * dB[..., h + n]
        L = setup.head_sums(dB)[1] + future
    else:
        future = L - setup.head_sums(dB)[1]
    return np.subtract(np.asarray(future)[..., None], run, out=out), L


@dataclass(frozen=True)
class ChunkContext:
    """Per-block arrays a policy or a reducer may read, in the units of the
    draw.  Column j of every (rows, N + 1) array is node i0 + j, with
    N = i_last - i0:

    * ``Z``: the raw normals, column j < N the increment
      (B_{t_{i0+j+1}} - B_{t_{i0+j}}) / sqrt(dt), column N the tail carrier;
    * ``R``: their running sum, (B_{t_{i0+j}} - B_{t0}) / sqrt(dt);
    * ``D``: (L - int_0^{t_{i0+j}} m dB) / sqrt(dt), so alpha at node i0 + j
      is ``drift_scale[j] * D[:, j]``, with ``drift_scale`` = m sqrt(dt) / q
      on the nodes i0..i_last.

    ``B0`` = B_{t0} and ``L`` are per row, in real units.  ``alpha()`` and
    ``B_at(k)`` form alpha and B in real units for the readers that need
    them.  G-adaptedness means that a value at node i uses only the columns
    up to i and L.  A ``controlled_sde.ControlPolicy`` reads alpha at its
    own node and nothing else, so every policy is G-adapted by
    construction.
    """

    times: np.ndarray
    dt: float
    i0: int
    i_last: int
    drift_scale: np.ndarray
    Z: np.ndarray
    R: np.ndarray
    D: np.ndarray
    B0: np.ndarray
    L: np.ndarray

    def alpha(self) -> np.ndarray:
        """The (rows, N + 1) drift on the nodes i0..i_last, a new array."""
        return self.D * self.drift_scale

    def B_at(self, k: int) -> np.ndarray:
        """B at node ``k`` in [i0, i_last] per row, in real units: a new
        array."""
        return self.B0 + math.sqrt(self.dt) * self.R[:, k - self.i0]


@dataclass(frozen=True, eq=False)
class DriftSetup:
    """Node data of the drift on one [0, T1] grid: t0 is node ``i0``, the
    decision horizon T node ``i_last``, and ``tail`` is
    sqrt(sum_{j>=i_last} m_j^2), the factor of the tail carrier in L.
    ``head`` is the (2, heads) factor of the head carrier in units of
    sqrt(dt): B_{t0} = head[0] . h and int_0^{t0} m dB = head[1] . h for the
    head normals h, so head head^T = [[i0, sum m_j], [sum m_j, sum m_j^2]]
    over j < i0.  ``drift_scale`` is m sqrt(dt) / q_tail on the nodes
    i0..i_last, alpha per unit of ``ChunkContext.D``.  An agent without L
    is a policy, ``controlled_sde.uninformed``, not a property of the
    grid."""

    grid: TimeGrid
    i0: int
    i_last: int
    m_nodes: np.ndarray
    q_tail: np.ndarray
    tail: float
    head: np.ndarray
    drift_scale: np.ndarray

    @property
    def heads(self) -> int:
        """Head normals per row: 0 at t0 = 0, 1 when m is 1 on [0, t0),
        else 2."""
        return self.head.shape[1]

    @property
    def draw_width(self) -> int:
        """Normals per row of a block: the head's, the N = i_last - i0
        increments on [t0, T) and the tail carrier."""
        return self.heads + self.i_last - self.i0 + 1

    @property
    def unit_weight(self) -> bool:
        """m is exactly 1 on [t0, T): the running sum of m dB is R itself."""
        return bool(np.all(self.m_nodes[self.i0 : self.i_last] == 1.0))

    def head_sums(self, draw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """B_{t0} and int_0^{t0} m dB per row of ``draw``, in units of
        sqrt(dt), from its first ``heads`` normals; 0 without a head."""
        if not self.heads:
            zero = np.zeros(draw.shape[:-1])
            return zero, zero
        h = draw[..., : self.heads]
        return row_dot(h, self.head[0]), row_dot(h, self.head[1])


def _head_factor(m_head: np.ndarray) -> np.ndarray:
    """The (2, heads) factor of (B_{t0}, int_0^{t0} m dB) / sqrt(dt) for the
    node weights ``m_head`` on [0, t0): none at t0 = 0, one normal when m is
    1 there, else the 2 x 2 Cholesky factor.  Its second pivot is the sum
    of squares of m about its mean, >= 0 and exactly 0 for a constant m."""
    i0 = len(m_head)
    if i0 == 0:
        return np.empty((2, 0))
    root = math.sqrt(i0)
    if np.all(m_head == 1.0):
        return np.full((2, 1), root)
    mean = float(m_head.mean())
    pivot = math.sqrt(float(np.sum((m_head - mean) ** 2)))
    return np.array([[root, 0.0], [mean * root, pivot]])


def drift_setup(m: WeightFunction | Callable[[float], float] | float,
                grid: TimeGrid, horizon: float, t0: float = 0.0) -> DriftSetup:
    """Validate the weight on ``grid`` and resolve the drift's node data."""
    i_last = grid.index_of(horizon)
    if i_last >= grid.n_steps:
        raise ValueError(
            f"decision horizon T={horizon} must lie strictly before "
            f"T1={grid.t_end}"
        )
    i0 = grid.index_of(t0)
    m_nodes = as_weight(m).nodes(grid.times)
    with np.errstate(over="ignore", invalid="ignore"):
        q = tail_square_integral(m_nodes, grid.dt)
    if not np.isfinite(q[0]):
        raise ValueError("int_0^T1 m^2 ds is not finite: the weight overflows")
    if not q[i_last] > 0.0:
        raise ValueError("int_t^T1 m^2 ds must stay positive for t <= T")
    # a scaled sum: finite whenever q is, where a plain sum of m^2 may not be
    tail = math.hypot(*m_nodes[i_last:-1])
    nodes = slice(i0, i_last + 1)
    scale = m_nodes[nodes] * math.sqrt(grid.dt) / q[nodes]
    return DriftSetup(grid, i0, i_last, m_nodes, q, tail,
                      _head_factor(m_nodes[:i0]), scale)


def chunk_context(setup: DriftSetup, draw: np.ndarray,
                  out: np.ndarray | None = None) -> ChunkContext:
    """The context of one (rows, ``setup.draw_width``) block of standard
    normals laid out as ``map_reducers`` draws them: R and D on the nodes
    i0..i_last, Z a view of the block, and B_{t0} and L per row, from the
    block's one ``drift_matrix`` call.  R and D are written into ``out``,
    two arrays of shape (rows, N + 1), or into new arrays by default.
    Every reducer of the block reads these arrays, so they are made
    read-only.  A block of any other width raises ValueError: its columns
    would be read as the wrong nodes."""
    if draw.shape[-1] != setup.draw_width:
        raise ValueError(f"a block of {draw.shape[-1]} normals per row; the "
                         f"draw has {setup.draw_width}: {setup.heads} head, "
                         f"{setup.i_last - setup.i0} increments, 1 carrier")
    R_out, D_out = (None, None) if out is None else out
    Z = draw[:, setup.heads :]
    R = running_sum(Z[:, :-1], R_out)
    D, L = drift_matrix(draw, setup, run=R if setup.unit_weight else None,
                        out=D_out)
    scale = math.sqrt(setup.grid.dt)
    B0, L = setup.head_sums(draw)[0] * scale, L * scale
    for a in (Z, R, D, B0, L):
        a.flags.writeable = False
    return ChunkContext(setup.grid.times, setup.grid.dt, setup.i0,
                        setup.i_last, setup.drift_scale, Z, R, D, B0, L)


# Bytes of one float64 row block of a chunk, the unit that ``map_reducers``
# draws and its reducers see at a time: 63 rows at 4096 steps, 127 at 2048
# (at t0 = 0; a head carrier shortens the rows, so a block has more).  A
# block's arrays then fit in a 2 MiB L2 cache, and they stay the same size
# at every n_steps.  Streams stay per CHUNK: the blocks of a chunk are
# successive fills of its one generator.  Block-sized temporaries reuse heap
# pages only because each chunk's workspace (three blocks, allocated once)
# is larger than they are: freeing a buffer that glibc's malloc had
# mapped raises its mmap threshold to that size and its heap trim threshold
# to twice that.  With only block-sized buffers the trim threshold stays
# near two blocks, and the heap is trimmed and faulted in again after every
# block (a fresh workspace per block: about 10,700 minor faults per op of
# perfbench's ``value`` cycle, against 7 for one per chunk).  The workspace
# is 3 * BLOCK_BYTES whatever the row width, so that ops of different
# widths (a head carrier, another n_steps) free and reuse one size of heap
# chunk: with a size per width, the second ``value`` cycle grew a thread's
# heap by about 3 MB.
BLOCK_BYTES = 1 << 20


def _block_rows(width: int) -> int:
    """Rows of one row block of a chunk with ``width`` columns: as many as
    fit in ``BLOCK_BYTES``, at least one."""
    return max(1, BLOCK_BYTES // (8 * width))


def _reduce_chunk(setup, reducers, seed, chunk_index, rows):
    """The task of one chunk: its stream is opened once, and each row block
    is drawn into one workspace, gets its context there and goes through
    every reducer before the next block is drawn.  Returns every reducer's
    outputs, block by block."""
    width, nodes = setup.draw_width, setup.i_last - setup.i0 + 1
    rng = chunk_rng(seed, chunk_index)
    step = min(_block_rows(width), rows)
    size = 3 * step * width  # more than 3 * BLOCK_BYTES only when step is 1
    work = np.empty(max(size, 3 * BLOCK_BYTES // 8))[:size].reshape(
        3, step, width)
    blocks = []
    for start in range(0, rows, step):
        draw, R, D = work[:, : min(step, rows - start)]
        rng.standard_normal(out=draw)
        ctx = chunk_context(setup, draw, (R[:, :nodes], D[:, :nodes]))
        # each reducer's block-sized arrays die with its frame, before the next
        outputs = [reduce(ctx) for reduce in reducers]
        for out in outputs:
            if not isinstance(out, tuple) or any(
                    np.shape(a)[-1:] != (len(draw),) for a in out):
                raise ValueError(f"a reducer must return a tuple of arrays "
                                 f"with the block's {len(draw)} rows last")
            if any(np.may_share_memory(a, work) for a in out):
                raise ValueError("a reducer must return fresh arrays, not "
                                 "views of the block or its context: the "
                                 "next block overwrites them")
        blocks.append(outputs)
    return blocks


def map_reducers(setup: DriftSetup, reducers: Sequence[Callable], seed: int,
                 n_paths: int, pool=None) -> list[tuple[np.ndarray, ...]]:
    """Apply every reducer ``ctx -> arrays`` to each block of one draw.

    Chunk c covers paths ``c*CHUNK`` to ``(c+1)*CHUNK``.  Its task draws it
    once, ``setup.draw_width`` standard normals per row (the head carrier's,
    the increments on [t0, T) and the tail carrier), in row blocks of
    ``max(1, BLOCK_BYTES // (8 * setup.draw_width))`` rows, the last one
    ragged, into one workspace of three blocks (``3 * BLOCK_BYTES``, or
    three rows when one row is larger): the draw, then R and D.
    The rows of the draw, joined over a chunk's blocks, are
    ``paths.chunk_rng(seed, c).standard_normal((rows, setup.draw_width))``
    bit for bit.  Each block gets one ``chunk_context`` in that workspace,
    and every reducer sees that context before the next block is drawn.  A reducer returns a tuple of fresh arrays, never views of the
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

    Built from a path on the full grid [0, T1], in real units.  ``alpha[i]``
    depends on the path only through values up to node i plus the scalar L,
    which is the discrete counterpart of alpha being adapted to the enlarged
    filtration.
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
        alpha, _ = drift_matrix(db, setup, L)
        m_nodes = setup.m_nodes[: setup.i_last + 1]
        if not np.all(m_nodes == 1.0):  # x * 1.0 is x: skipped, same bits
            alpha *= m_nodes
        alpha /= setup.q_tail[: setup.i_last + 1]
        self.alpha = alpha
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


def _decomposition_chunk(ctx):
    """Btilde_T, L and the worst reconstruction error, per row, of a
    context from t0 = 0 (``decomposition_stats`` sets none), in units of
    sqrt(dt) until the last step."""
    R = ctx.R
    # int alpha ds / sqrt(dt) = sum (m / q) dt D, then the reconstruction
    # error, in one buffer of this reducer's own: the context is shared, and
    # every further chunk-sized temporary here raises the peak RSS
    buf = np.empty_like(R)
    buf[:, 0] = 0.0
    np.multiply(ctx.D[:, :-1], ctx.drift_scale[:-1] * math.sqrt(ctx.dt),
                out=buf[:, 1:])
    np.cumsum(buf[:, 1:], axis=1, out=buf[:, 1:])
    btilde = R - buf
    np.add(btilde, buf, out=buf)
    np.subtract(buf, R, out=buf)
    recon = np.abs(buf, out=buf).max(axis=1)
    scale = math.sqrt(ctx.dt)
    return scale * btilde[:, -1], ctx.L, scale * recon


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
