"""The chunk engine ``enlargement.map_reducers``, shared by the library and
the CLI.

It is the only place chunks are drawn and mapped; the CLI runners call the
library estimators, so at the same seed they return the same numbers bit
for bit, and a process pool changes no value.
"""

import ast
import math
import pickle
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from insiderlab import enlargement, experiments
from insiderlab.controlled_sde import (
    ControlPolicy,
    constant_policy,
    cost_sum,
    make_wealth_setup,
    uninformed,
    wealth_paths_chunk,
)
from insiderlab.enlargement import (
    _decomposition_chunk,
    chunk_context,
    decomposition_stats,
    map_reducers,
)
from insiderlab.hjb import (
    ModelParams,
    example1_policy,
    example1_value,
    example2_params,
    example2_policy,
    example2_value,
)
from insiderlab.optimality import (
    PerturbationSpec,
    _martingale_chunk,
    collect_samples,
    cost_chunk,
    cost_mc,
    cost_mc_many,
    default_test_functions,
    martingale_diagnostic,
    perturbation_sweep,
    quarter_windows,
    sweep_coefficients,
    sweep_window,
    window_indices,
)
from insiderlab.paths import (
    CHUNK,
    Affine,
    Constant,
    Sin,
    chunk_rng,
    increment_chunk,
    make_grid,
    n_chunks,
)
from oracles import RARE_OVERFLOW, RARE_PARAMS, reference_cost

SMALL = {"n_paths": 2100, "n_steps": 128, "seed": 3}


class CountingPool:
    """An in-process stand-in for an executor that records its map calls."""

    def __init__(self):
        self.calls = 0

    def map(self, fn, *iterables):
        self.calls += 1
        return map(fn, *iterables)


def _draw_setup(width):
    """A drift setup whose draw grid is [0, 1] in ``width`` steps."""
    return enlargement.drift_setup(1.0, make_grid(0, 2, 2 * width),
                                   1 - 1 / width)


def _block_lengths(dB, ctx):
    """Each row's block length, and the rows of the block on the last axis."""
    return np.full(len(dB), len(dB)), dB.T.copy()


def test_map_reducers_returns_chunks_in_order():
    setup = _draw_setup(8)
    ((rows, dB),) = map_reducers(setup, [_block_lengths], 5, 2500)
    sizes = [1024, 1024, 452]
    assert np.array_equal(rows, np.repeat(sizes, sizes))
    for c in range(3):
        assert np.array_equal(dB[:, c * CHUNK],
                              increment_chunk(setup.draw_grid, 5, c, 1)[0])


def _row_sums(dB, ctx):
    return (dB.sum(axis=1),)


def test_map_reducers_uses_the_pool_only_for_several_chunks():
    setup = _draw_setup(8)
    pool = CountingPool()
    ((one,),) = map_reducers(setup, [_row_sums], 5, 1024, pool)
    assert pool.calls == 0
    ((many,),) = map_reducers(setup, [_row_sums], 5, 2049, pool)
    assert pool.calls == 1
    assert _same_bits(many, map_reducers(setup, [_row_sums], 5, 2049)[0][0])
    assert _same_bits(one, many[:CHUNK])


def test_map_reducers_rejects_an_empty_batch():
    with pytest.raises(ValueError):
        map_reducers(_draw_setup(8), [_row_sums], 5, 0)


def _same_bits(a, b) -> bool:
    """Equal structure, shapes, dtypes and bytes (NaNs included)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_bits(a[k], b[k]) for k in a)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(_same_bits, a, b))
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _chunk_rows(n_paths):
    return [min(CHUNK, n_paths - c * CHUNK) for c in range(n_chunks(n_paths))]


def test_increment_chunk_is_one_scaled_fill_of_the_chunk_stream():
    g = make_grid(0, 2, 96)
    assert _same_bits(increment_chunk(g, 5, 3, 7),
                      chunk_rng(5, 3).standard_normal((7, 96))
                      * math.sqrt(g.dt))


def _joined(outputs):
    """Per-block reducer outputs joined as ``map_reducers`` returns them."""
    return [tuple(np.concatenate(a, axis=-1) for a in zip(*block_outputs))
            for block_outputs in zip(*outputs)]


@pytest.mark.parametrize("n_paths", [1, 1024, 2049, 2500])
def test_drawing_ahead_equals_drawing_in_turn_bit_for_bit(n_paths):
    setup = _draw_setup(64)

    def reduce(dB, ctx):
        return dB.T.copy(), dB.sum(axis=1)

    ahead = map_reducers(setup, [reduce], 5, n_paths)
    in_turn = [[reduce(increment_chunk(setup.draw_grid, 5, c, rows), None)]
               for c, rows in enumerate(_chunk_rows(n_paths))]
    assert _same_bits(ahead, _joined(in_turn))


def _chunk_index(g, seed, n):
    """Which of the first ``n`` chunks a drawn chunk is, by its first value."""
    firsts = {increment_chunk(g, seed, c, 1)[0, 0]: c for c in range(n)}
    return lambda dB: firsts[dB[0, 0]]


def test_results_come_back_in_chunk_order_when_chunk_0_finishes_last():
    setup = _draw_setup(64)
    which = _chunk_index(setup.draw_grid, 5, 3)
    chunk_1_done = threading.Event()
    finished = []

    def reduce(dB, ctx):
        c = which(dB)
        if c == 0:
            assert chunk_1_done.wait(timeout=10)
        finished.append(c)
        if c == 1:
            chunk_1_done.set()
        return (np.full(len(dB), c),)

    ((chunks,),) = map_reducers(setup, [reduce], 5, 2 * CHUNK + 5)
    assert np.array_equal(chunks, np.repeat([0, 1, 2], [CHUNK, CHUNK, 5]))
    assert finished == [1, 0, 2]


def test_two_reducers_run_at_once_and_never_more():
    lock, both = threading.Lock(), threading.Event()
    running, peak = [0], [0]

    def reduce(dB, ctx):
        with lock:
            running[0] += 1
            peak[0] = max(peak[0], running[0])
            if running[0] == 2:
                both.set()
        both.wait(timeout=10)
        time.sleep(0.005)  # a third reducer would overlap these two
        with lock:
            running[0] -= 1
        return (np.full(len(dB), len(dB)),)

    ((rows,),) = map_reducers(_draw_setup(8), [reduce], 5, 6 * CHUNK)
    assert np.array_equal(rows, np.full(6 * CHUNK, CHUNK))
    assert peak == [2]


def test_the_threads_change_no_value_under_a_short_switch_interval():
    # both threads reduce with the shipped reducers while the interpreter
    # switches between them as often as it can
    params = ModelParams.benchmark(r=0.2, sigma_fn=Affine(1.0, 0.5))
    setup = make_wealth_setup(params, 16)
    cost = cost_sum(setup, example1_policy(params))
    reducers = [partial(cost_chunk, cost), _decomposition_chunk]
    n_paths, seed = 16 * CHUNK + 3, 9
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = map_reducers(setup, reducers, seed, n_paths)
    finally:
        sys.setswitchinterval(interval)
    serial = []
    for c, rows in enumerate(_chunk_rows(n_paths)):
        dB = increment_chunk(setup.draw_grid, seed, c, rows)
        ctx = chunk_context(setup, dB)
        serial.append([reduce(dB, ctx) for reduce in reducers])
    assert _same_bits(threaded, _joined(serial))


def test_a_failing_reducer_raises_and_stops_the_drawing_thread():
    # chunk 1 fails once chunk 2 has started beside it; chunk 3 must never
    # start, though a thread is free for it once chunk 2 is done
    setup = _draw_setup(64)
    which = _chunk_index(setup.draw_grid, 5, 4)
    lock, chunk_2_started = threading.Lock(), threading.Event()
    seen = []

    def reduce(dB, ctx):
        c = which(dB)
        with lock:
            seen.append(c)
        if c == 2:
            chunk_2_started.set()
        if c == 1:
            chunk_2_started.wait(timeout=10)
            raise RuntimeError("reducer failed on chunk 1")
        return (np.zeros(len(dB)),)

    threads = set(threading.enumerate())
    with pytest.raises(RuntimeError, match="chunk 1"):
        map_reducers(setup, [reduce], 5, 4 * CHUNK)
    assert sorted(seen) == [0, 1, 2]
    assert set(threading.enumerate()) == threads


# ---------------------------------------------------------------------------
# Reducers see row blocks: the engine joins their rows into the whole batch
# ---------------------------------------------------------------------------

def _terminal_wealth(setup, policy, dB, ctx):
    *_, x_T, diverged = wealth_paths_chunk(setup, dB, ctx, policy)
    assert x_T.shape == (len(dB),)
    return x_T, diverged


def _row_block_cases(setup, params):
    policy = example1_policy(params)
    cost = cost_sum(setup, policy)
    # an offset too: all four contractions of the cost kernel
    tilted = cost_sum(setup, ControlPolicy("tilted", 0.25, Affine(0.3, 0.2)))
    lo, hi = window_indices(setup.grid, (0.5, 0.75), params.t0, params.T)
    curvature = setup.a * setup.trapezoid[lo - setup.i0 : hi - setup.i0].sum()
    bounds = [window_indices(setup.grid, w, params.t0, params.T)
              for w in quarter_windows(params.T, params.t0)]
    sums = [sweep_window(setup, policy, bound) for bound in bounds]
    return {
        "wealth_paths_chunk": partial(_terminal_wealth, setup, policy),
        "cost_chunk": partial(cost_chunk, cost),
        "cost_chunk_with_offset": partial(cost_chunk, tilted),
        "sweep_coefficients": partial(
            sweep_coefficients, cost, PerturbationSpec((0.5, 0.75)),
            sweep_window(setup, policy, (lo, hi)), curvature),
        "martingale_chunk": partial(_martingale_chunk, sums,
                                    default_test_functions()),
        "decomposition_chunk": _decomposition_chunk,
        "forward_chunk": partial(experiments._forward_chunk, setup.grid,
                                 params.T, [8, 4, 2, 1]),
    }


@pytest.mark.parametrize("n_paths", [1500, 1025],
                         ids=["476-row chunk", "1-row chunk"])
@pytest.mark.parametrize("name", ["wealth_paths_chunk", "cost_chunk",
                                  "cost_chunk_with_offset",
                                  "sweep_coefficients", "martingale_chunk",
                                  "decomposition_chunk", "forward_chunk"])
def test_block_parts_join_to_the_whole_chunk_bit_for_bit(name, n_paths,
                                                        monkeypatch):
    # at 64 steps a whole chunk fits the byte budget: shrink it to 300 rows
    # of the 33-column draw grid, so each chunk is cut into several blocks
    monkeypatch.setattr(enlargement, "BLOCK_BYTES", 300 * 8 * 33 + 7)
    # r = 0 too: the wealth kernel's product takes the same path at every r
    for r in (0.0, 0.2):
        params = ModelParams.benchmark(r=r, t0=0.25, sigma_fn=Affine(1.0, 0.5),
                                       m=Sin(1.0, 0.5, 2.0))
        setup = make_wealth_setup(params, 64)
        assert setup.draw_grid.n_steps == 33
        reduce = _row_block_cases(setup, params)[name]
        seed = 17
        block_rows = []  # list.append is atomic: two chunks reduce at once

        def counting(dB, ctx):
            block_rows.append(len(dB))
            return reduce(dB, ctx)

        (joined,) = map_reducers(setup, [counting], seed, n_paths)
        rows = _chunk_rows(n_paths)
        assert sorted(block_rows) == sorted(
            [min(300, n - start) for n in rows for start in range(0, n, 300)])
        whole = []
        for c, n in enumerate(rows):
            dB = increment_chunk(setup.draw_grid, seed, c, n)
            whole.append(reduce(dB, chunk_context(setup, dB)))
        assert _same_bits(joined,
                          tuple(np.concatenate(a, axis=-1) for a in zip(*whole)))


def test_a_row_longer_than_einsums_buffer_ignores_its_block():
    # 10001 columns, past einsum's 8192-element buffer: path 1024 is the
    # one row of chunk 1 at 1025 paths and the first of six at 1030, and its
    # cost is the same bits either way, on the kernel (with all four of its
    # contractions for the tilted policy) and on the reference
    params = ModelParams.benchmark(r=0.2)
    setup = make_wealth_setup(params, 20_000)
    assert setup.draw_grid.n_steps == 10_001
    policy = example1_policy(params)
    excess = make_wealth_setup(replace(params, rtilde=0.7), 20_000)
    tilted = ControlPolicy("tilted", 0.25, 0.3)
    reducers = [partial(cost_chunk, cost_sum(setup, policy)),
                partial(cost_chunk, cost_sum(excess, tilted)),
                partial(reference_cost, setup, policy)]
    one, six = (map_reducers(setup, reducers, 5, n) for n in (1025, 1030))
    for (alone,), (among,) in zip(one, six):
        assert alone[1024] == among[1024]
        assert _same_bits(alone, among[:1025])


def _refuse(self, ctx):
    raise AssertionError("an estimator formed a control matrix")


def test_no_estimator_forms_a_control_matrix(monkeypatch):
    # ControlPolicy.control is the reference kernel's alone: the estimators
    # price every policy from its node weights
    monkeypatch.setattr(ControlPolicy, "control", _refuse)
    params = ModelParams.benchmark(r=0.2, rtilde=0.5, x0=1.0)
    policies = [example1_policy(params), example2_policy(params),
                uninformed(example2_policy(params))]
    n, seed, steps = 1100, 3, 32
    assert len(cost_mc_many(policies, params, n, seed, steps)) == 3
    spec = PerturbationSpec((0.25, 0.5), y_grid=(-0.5, 0.0, 0.5))
    for policy in policies:
        perturbation_sweep(policy, params, spec, n, seed, steps)
        martingale_diagnostic(policy, params, n, seed, steps)
    setup = make_wealth_setup(params, steps)
    dB = increment_chunk(setup.draw_grid, seed, 0, 4)
    with pytest.raises(AssertionError, match="control matrix"):
        wealth_paths_chunk(setup, dB, chunk_context(setup, dB), policies[0])


@pytest.mark.parametrize("n_paths", [1500, 1025, 2048],
                         ids=["476-row chunk", "1-row chunk", "whole chunks"])
def test_block_draws_join_to_increment_chunk_bit_for_bit(n_paths,
                                                         monkeypatch):
    # 100-row blocks of 40 columns: a chunk of 1024 rows is 11 blocks, the
    # last one ragged
    monkeypatch.setattr(enlargement, "BLOCK_BYTES", 100 * 8 * 40 + 5)
    setup = _draw_setup(40)
    assert enlargement._block_rows(40) == 100
    seed = 23
    workspaces = []  # list.append is atomic: two chunks reduce at once

    def reduce(dB, ctx):
        # B and alpha share the block's workspace of three blocks
        assert ctx.B.base is dB.base and ctx.alpha.base is dB.base
        workspaces.append((dB.shape, ctx.B.shape, ctx.alpha.shape,
                           dB.base.shape))
        return _block_lengths(dB, ctx)

    ((lengths, dB),) = map_reducers(setup, [reduce], seed, n_paths)
    rows = _chunk_rows(n_paths)
    blocks = [(n, min(100, n - start)) for n in rows
              for start in range(0, n, 100)]
    sizes = [b for _, b in blocks]
    assert np.array_equal(lengths, np.repeat(sizes, sizes))
    whole = [increment_chunk(setup.draw_grid, seed, c, n)
             for c, n in enumerate(rows)]
    assert _same_bits(dB.T, np.concatenate(whole))
    assert sorted(workspaces) == sorted(
        ((b, 40), (b, 40), (b, 40), (3, min(100, n), 40)) for n, b in blocks)


def _aliasing(kind, dB, ctx):
    return {"block": (dB[:, 0],),
            "context": (ctx.B[:, -1],),
            "drift": (ctx.alpha[:, 0],)}[kind]


@pytest.mark.parametrize("kind", ["block", "context", "drift"])
def test_a_reducer_output_that_shares_the_workspace_raises(kind):
    # the next block is drawn into the same workspace: a view would change
    setup = make_wealth_setup(ModelParams.benchmark(), 32)
    reducers = [partial(cost_chunk, cost_sum(setup, constant_policy(0.5))),
                partial(_aliasing, kind)]
    with pytest.raises(ValueError, match="fresh arrays"):
        map_reducers(setup, reducers, 3, 2100)
    with ProcessPoolExecutor(2) as pool:
        with pytest.raises(ValueError, match="fresh arrays"):
            map_reducers(setup, reducers, 3, 2100, pool)


def _misshapen(kind, dB, ctx):
    return {"scalar": (float(dB.sum()),),
            "short": (ctx.L[:-1],),
            "untupled": ctx.L.copy()}[kind]


@pytest.mark.parametrize("kind", ["scalar", "short", "untupled"])
def test_a_reducer_output_without_the_block_rows_last_raises(kind):
    setup = make_wealth_setup(ModelParams.benchmark(), 32)
    reducers = [partial(cost_chunk, cost_sum(setup, constant_policy(0.5))),
                partial(_misshapen, kind)]
    with pytest.raises(ValueError, match="rows last"):
        map_reducers(setup, reducers, 3, 2100)
    with ProcessPoolExecutor(2) as pool:
        with pytest.raises(ValueError, match="rows last"):
            map_reducers(setup, reducers, 3, 2100, pool)


@pytest.mark.parametrize("estimate", ["cost_mc", "martingale_diagnostic",
                                      "decomposition_stats", "forward"])
def test_peak_memory_stays_within_three_chunks(estimate):
    # two chunks in flight, each drawn block by block into one 3-block
    # workspace, beside at most 4 blocks of its reducers' temporaries: a
    # bound in blocks, whatever n_steps is.  Each draw grid column count
    # gives a ragged last block; 2049 columns is 63-row blocks.
    params = ModelParams.benchmark()
    n, seed = 2048, 1
    for steps in (1024, 4096):
        grid = params.grid(steps)
        run = {
            "cost_mc": lambda: cost_mc(example1_policy(params), params, n,
                                       seed, steps),
            "martingale_diagnostic": lambda: martingale_diagnostic(
                example1_policy(params), params, n, seed, steps),
            "decomposition_stats": lambda: decomposition_stats(
                params.m, params.T, grid, n, seed),
            "forward": lambda: map_reducers(
                enlargement.drift_setup(params.m, grid, params.T),
                [partial(experiments._forward_chunk, grid, params.T,
                         [8, 4, 2, 1])], seed, n),
        }[estimate]
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * (3 + 4) * enlargement.BLOCK_BYTES, (steps, peak)


def test_weights_policies_and_test_functions_pickle():
    params = ModelParams.benchmark(
        r=0.2, sigma_fn=Affine(1.0, 0.5), m=Sin(1.0, 0.5, 2.0)
    )
    back = pickle.loads(pickle.dumps(params))
    t = np.linspace(0.0, 2.0, 9)
    assert np.array_equal(back.m.nodes(t), params.m.nodes(t))
    assert np.array_equal(back.sigma_fn.nodes(t), params.sigma_fn.nodes(t))
    assert np.array_equal(Constant(2.0)(t), np.full(9, 2.0))
    for policy in (example1_policy(params), example2_policy(params),
                   ControlPolicy("half-optimal", 0.25)):
        pickle.dumps(policy)
    pickle.dumps(default_test_functions())


def test_a_process_pool_changes_no_library_value():
    params = ModelParams.benchmark(r=0.2, sigma_fn=Affine(1.0, 0.5))
    policy = example1_policy(params)
    rival = ControlPolicy("half-optimal", 0.25)
    spec = PerturbationSpec((0.25, 0.5), y_grid=(-0.5, 0.0, 0.5))
    n, seed, steps = 2100, 7, 64
    serial = (
        cost_mc(policy, params, n, seed, steps),
        cost_mc(uninformed(policy), params, n, seed, steps),
        cost_mc(rival, params, n, seed, steps),
        perturbation_sweep(policy, params, spec, n, seed, steps),
        martingale_diagnostic(policy, params, n, seed, steps),
        decomposition_stats(params.m, params.T, params.grid(steps), n, seed),
    )
    with ProcessPoolExecutor(2) as pool:
        pooled = (
            cost_mc(policy, params, n, seed, steps, pool=pool),
            cost_mc(uninformed(policy), params, n, seed, steps, pool=pool),
            cost_mc(rival, params, n, seed, steps, pool=pool),
            perturbation_sweep(policy, params, spec, n, seed, steps, pool=pool),
            martingale_diagnostic(policy, params, n, seed, steps, pool=pool),
            decomposition_stats(params.m, params.T, params.grid(steps), n, seed,
                                pool=pool),
        )
    assert pooled == serial


@pytest.mark.parametrize("kind", experiments.KINDS)
def test_every_kind_draws_each_chunk_once(tmp_path, monkeypatch, kind):
    # example2 takes its cost and its no-information cost from one draw: 10
    # increment chunks at 10 000 paths, not 20
    calls = []

    def counting(*args):
        calls.append(args[1])
        return chunk_rng(*args)

    monkeypatch.setattr(enlargement, "chunk_rng", counting)
    raw = {"experiment": kind, "n_paths": 10_000, "n_steps": 32}
    if kind == "hjb-residual":
        raw["n_probes"] = 10  # it samples its few fields whole, unchunked
    experiments.run_experiment(experiments.resolve_config(raw), tmp_path)
    want = [] if kind == "hjb-residual" else list(range(n_chunks(10_000)))
    assert sorted(calls) == want  # two threads draw, in either order


def _uses(name):
    """(module, top-level definition) of every reference to ``name`` in the
    package's code, a call or otherwise; imports are not references."""
    src = Path(__file__).resolve().parents[1] / "src" / "insiderlab"
    found = set()
    for path in sorted(src.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Name) and node.id == name) or (
                        isinstance(node, ast.Attribute) and node.attr == name):
                    found.add((path.stem, getattr(top, "name", None)))
    return found


def test_only_the_engine_task_draws_and_only_the_engine_runs_threads():
    # increment_chunk is the one-call reference draw; every estimator draws
    # through map_reducers' task
    assert _uses("chunk_rng") == {("paths", "increment_chunk"),
                                  ("enlargement", "_reduce_chunk")}
    # run_experiment opens the process pool of an op; the engine alone
    # runs threads
    for executor in ("ThreadPoolExecutor", "ProcessPoolExecutor"):
        assert {(module, owner) for module, owner in _uses(executor)
                if module != "enlargement"} <= {("experiments",
                                                 "run_experiment")}


def test_multi_policy_cost_equals_separate_calls_bit_for_bit():
    params = example2_params()
    policies = [example2_policy(params), constant_policy(0.5)]
    n, seed, steps = 20_000, 11, 64
    many = cost_mc_many(policies, params, n, seed, steps)
    assert many == [cost_mc(p, params, n, seed, steps) for p in policies]
    assert [e.n_diverged for e in many] == [0, 0]
    blind = [uninformed(p) for p in policies]
    assert cost_mc_many(blind, params, n, seed, steps) == [
        cost_mc(p, params, n, seed, steps) for p in blind]
    # on one draw each policy keeps its own diverged rows: RARE_OVERFLOW's
    # cost overflows on a few of them (and its other rows' moments overflow,
    # so its rows are compared, not its estimate)
    setup = make_wealth_setup(RARE_PARAMS, steps)
    reducers = [partial(cost_chunk, cost_sum(setup, p))
                for p in (example2_policy(RARE_PARAMS), constant_policy(0.5),
                          RARE_OVERFLOW)]
    together = map_reducers(setup, reducers, seed, n)
    assert _same_bits(together, [map_reducers(setup, [reduce], seed, n)[0]
                                 for reduce in reducers])
    assert [collect_samples(vals)[1] for (vals,) in together[:2]] == [0, 0]
    samples, n_diverged = collect_samples(*together[2])
    assert 0 < n_diverged <= 20
    assert len(samples) == n - n_diverged


# ---------------------------------------------------------------------------
# The CLI returns the library's numbers
# ---------------------------------------------------------------------------

def _run(tmp_path, raw, workers=1):
    cfg = experiments.resolve_config({**SMALL, **raw})
    summary = experiments.run_experiment(cfg, tmp_path / f"w{workers}",
                                         workers=workers)
    return cfg, experiments.params_from_config(cfg), summary["results"]


def _pair(est):
    return {"mean": est.mean, "std_error": est.std_error}


def test_decomposition_parity(tmp_path):
    cfg, params, results = _run(tmp_path, {"experiment": "decomposition"})
    lib = decomposition_stats(params.m, params.T, params.grid(cfg["n_steps"]),
                              cfg["n_paths"], cfg["seed"])
    assert results == lib


@pytest.mark.parametrize("example", [1, 2])
def test_example_parity(tmp_path, example):
    raw = {"experiment": f"example{example}", "params": {"t0": 0.25}}
    if example == 1:
        raw["params"]["sigma"] = {"type": "affine", "intercept": 1.0, "slope": 0.5}
    cfg, params, results = _run(tmp_path, raw)
    n, seed, steps = cfg["n_paths"], cfg["seed"], cfg["n_steps"]
    policy, value = ((example1_policy, example1_value) if example == 1
                     else (example2_policy, example2_value))
    cost = cost_mc(policy(params), params, n, seed, steps)
    closed = value(params, params.t0, params.x0, steps)
    assert results["value_mc"] == _pair(cost)
    assert results["value_closed_form"] == {"mean": closed, "std_error": 0.0}
    assert results["diff"] == cost.mean - closed
    assert results["pooled_se"] == cost.std_error
    if example == 2:
        no_info = cost_mc(uninformed(policy(params)), params, n, seed, steps)
        assert results["no_info_cost"] == _pair(no_info)


def test_perturbation_parity(tmp_path):
    cfg, params, results = _run(tmp_path, {
        "experiment": "perturbation", "params": {"r": 0.2},
        "y_grid": [-0.2, 0.0, 0.2],
    })
    spec = PerturbationSpec(tuple(cfg["window"]), theta0=1.0,
                            y_grid=(-0.2, 0.0, 0.2))
    lib = perturbation_sweep(example1_policy(params), params, spec,
                             cfg["n_paths"], cfg["seed"], cfg["n_steps"])
    assert results["rows"] == lib["rows"]
    assert results["argmin_y"] == lib["argmin_y"]
    assert results["derivative_at_zero"] == _pair(lib["derivative_at_zero"])


def test_martingale_parity(tmp_path):
    cfg, params, _ = _run(tmp_path, {"experiment": "martingale",
                                     "params": {"t0": 0.5}})
    lib = martingale_diagnostic(example1_policy(params), params, cfg["n_paths"],
                                cfg["seed"], cfg["n_steps"])
    csv = (tmp_path / "w1" / "martingale.csv").read_text().splitlines()[1:]
    assert len(csv) == len(lib) == 16
    for line, cell in zip(csv, lib):
        lo, hi, name, mean, se, n, _, passed = line.split(",")
        assert (float(lo), float(hi)) == cell["window"]
        assert name == cell["test_fn"]
        assert (float(mean), float(se), int(n)) == (
            cell["mean"], cell["std_error"], cell["n"])
        assert passed == str(cell["pass"]).lower()


# decomposition has its own worker test in test_cli
@pytest.mark.parametrize("raw", [
    {"experiment": "forward-convergence", "n_paths": 1100},
    {"experiment": "hjb-residual", "n_probes": 50, "n_fields": 2},
    {"experiment": "example1", "params": {"t0": 0.5}},
    {"experiment": "example2"},
    {"experiment": "perturbation", "params": {"r": 0.2}},
    {"experiment": "martingale", "params": {"r": 0.2}},
], ids=lambda raw: raw["experiment"])
def test_worker_count_does_not_change_bytes_of_any_kind(tmp_path, raw):
    csv = []
    for workers in (1, 2):
        cfg, _, _ = _run(tmp_path, raw, workers)
        csv.append((tmp_path / f"w{workers}" / f"{cfg['experiment']}.csv")
                   .read_bytes())
    assert csv[0] == csv[1]
    assert csv[0].decode().split("\n")[0] == _listed_columns(raw["experiment"])


def _listed_columns(kind):
    """The CSV columns that ``insider-lab list`` prints for ``kind``."""
    lines = experiments.list_experiments().splitlines()
    rest = lines[lines.index(f"  {kind}") + 1:]
    return next(line.split("CSV: ")[1] for line in rest if "CSV: " in line)
