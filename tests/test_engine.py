"""The chunk engine shared by the library and the CLI.

``paths.map_chunks`` is the only place chunks are drawn and mapped; the CLI
runners call the library estimators, so at the same seed they return the
same numbers bit for bit, and a process pool changes no value.
"""

import math
import pickle
import threading
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import numpy as np
import pytest

from insiderlab import experiments, paths
from insiderlab.controlled_sde import (
    constant_policy,
    formula_policy,
    make_wealth_setup,
)
from insiderlab.enlargement import (
    _decomposition_chunk,
    chunk_context,
    decomposition_stats,
    map_reducers,
)
from insiderlab.hjb import (
    ModelParams,
    _example1_integrand,
    _integral_chunk,
    example1_policy,
    example1_value,
    example2_params,
    example2_policy,
    example2_value,
)
from insiderlab.optimality import (
    PerturbationSpec,
    _martingale_chunk,
    cost_chunk,
    cost_mc,
    cost_mc_many,
    default_test_functions,
    martingale_diagnostic,
    perturbation_sweep,
    quarter_windows,
    sweep_coefficients,
    window_indices,
)
from insiderlab.paths import (
    BLOCK,
    CHUNK,
    Affine,
    Constant,
    Sin,
    chunk_rng,
    increment_chunk,
    make_grid,
    map_chunks,
    n_chunks,
)

SMALL = {"n_paths": 2100, "n_steps": 128, "seed": 3}


class CountingPool:
    """An in-process stand-in for an executor that records its map calls."""

    def __init__(self):
        self.calls = 0

    def map(self, fn, *iterables):
        self.calls += 1
        return map(fn, *iterables)


def test_map_chunks_returns_chunks_in_order():
    g = make_grid(0, 1, 8)
    rows = map_chunks(lambda dB: dB.shape[0], g, 5, 2500)
    assert rows == [1024, 1024, 452]
    firsts = map_chunks(lambda dB: dB[0].copy(), g, 5, 2500)
    for c, first in enumerate(firsts):
        assert np.array_equal(first, increment_chunk(g, 5, c, 1)[0])


def test_map_chunks_uses_the_pool_only_for_several_chunks():
    g = make_grid(0, 1, 8)
    pool = CountingPool()
    one = map_chunks(np.sum, g, 5, 1024, pool)
    assert pool.calls == 0
    many = map_chunks(np.sum, g, 5, 2049, pool)
    assert pool.calls == 1
    assert many == map_chunks(np.sum, g, 5, 2049)
    assert one == many[:1]


def test_map_chunks_rejects_an_empty_batch():
    with pytest.raises(ValueError):
        map_chunks(np.sum, make_grid(0, 1, 8), 5, 0)


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


def test_increment_chunk_fills_a_given_buffer():
    g = make_grid(0, 2, 96)
    buf = np.empty((7, 96))
    assert increment_chunk(g, 5, 3, 7, out=buf) is buf
    assert _same_bits(buf, increment_chunk(g, 5, 3, 7))
    # the draw before ``out`` existed, kept as the reference
    assert _same_bits(buf, chunk_rng(5, 3).standard_normal((7, 96))
                      * math.sqrt(g.dt))


@pytest.mark.parametrize("n_paths", [1, 1024, 2049, 2500])
def test_drawing_ahead_equals_drawing_in_turn_bit_for_bit(n_paths):
    g = make_grid(0, 1, 64)

    def reduce(dB):
        return dB.copy(), dB.sum(axis=1)

    ahead = map_chunks(reduce, g, 5, n_paths)
    in_turn = [reduce(increment_chunk(g, 5, c, rows))
               for c, rows in enumerate(_chunk_rows(n_paths))]
    assert _same_bits(ahead, in_turn)


def test_a_failing_reducer_raises_and_stops_the_drawing_thread():
    seen = []

    def reduce(dB):
        seen.append(len(seen))
        if len(seen) == 2:
            raise RuntimeError("reducer failed on chunk 1")
        return len(dB)

    threads = set(threading.enumerate())
    with pytest.raises(RuntimeError, match="chunk 1"):
        map_chunks(reduce, make_grid(0, 1, 64), 5, 4000)
    assert seen == [0, 1]
    assert set(threading.enumerate()) == threads


# ---------------------------------------------------------------------------
# Reducers see row blocks: the engine joins their rows into the whole batch
# ---------------------------------------------------------------------------

def _row_block_cases(setup, params):
    policy = example1_policy(params)
    window = (0.5, 0.75)
    bounds = [window_indices(setup.grid, w, params.t0, params.T)
              for w in quarter_windows(params.T, params.t0)]
    return {
        "cost_chunk": partial(cost_chunk, setup, policy=policy),
        "integral_chunk": partial(_integral_chunk, setup.i0,
                                  partial(_example1_integrand, params)),
        "sweep_coefficients": partial(
            sweep_coefficients, setup, policy=policy,
            spec=PerturbationSpec(window),
            window=window_indices(setup.grid, window, params.t0, params.T)),
        "martingale_chunk": partial(_martingale_chunk, setup, policy, bounds,
                                    default_test_functions()),
        "decomposition_chunk": _decomposition_chunk,
        "forward_chunk": partial(experiments._forward_chunk, setup.grid,
                                 params.T, [8, 4, 2, 1]),
    }


@pytest.mark.parametrize("n_paths", [1500, 1025],
                         ids=["476-row chunk", "1-row chunk"])
@pytest.mark.parametrize("name", ["cost_chunk", "integral_chunk",
                                  "sweep_coefficients", "martingale_chunk",
                                  "decomposition_chunk", "forward_chunk"])
def test_block_parts_join_to_the_whole_chunk_bit_for_bit(name, n_paths):
    params = ModelParams.benchmark(r=0.2, t0=0.25, sigma_fn=Affine(1.0, 0.5),
                                   m=Sin(1.0, 0.5, 2.0))
    setup = make_wealth_setup(params, 64)
    reduce = _row_block_cases(setup, params)[name]
    seed = 17
    block_rows = []

    def counting(dB, ctx):
        block_rows.append(len(dB))
        return reduce(dB, ctx)

    (joined,) = map_reducers(setup, [counting], seed, n_paths)
    rows = _chunk_rows(n_paths)
    assert block_rows == [min(BLOCK, r - start) for r in rows
                          for start in range(0, r, BLOCK)]
    whole = []
    for c, r in enumerate(rows):
        dB = increment_chunk(setup.grid, seed, c, r)
        whole.append(reduce(dB, chunk_context(setup, dB)))
    assert _same_bits(joined,
                      tuple(np.concatenate(a, axis=-1) for a in zip(*whole)))


def _misshapen(kind, dB, ctx):
    return {"scalar": (float(dB.sum()),),
            "short": (ctx.L[:-1],),
            "untupled": ctx.L.copy()}[kind]


@pytest.mark.parametrize("kind", ["scalar", "short", "untupled"])
def test_a_reducer_output_without_the_block_rows_last_raises(kind):
    setup = make_wealth_setup(ModelParams.benchmark(), 32)
    reducers = [partial(cost_chunk, setup, policy=constant_policy(0.5)),
                partial(_misshapen, kind)]
    with pytest.raises(ValueError, match="rows last"):
        map_reducers(setup, reducers, 3, 2100)
    with ProcessPoolExecutor(2) as pool:
        with pytest.raises(ValueError, match="rows last"):
            map_reducers(setup, reducers, 3, 2100, pool)


@pytest.mark.parametrize("estimate", ["cost_mc", "martingale_diagnostic",
                                      "decomposition_stats"])
def test_peak_memory_stays_within_three_chunks(estimate):
    # the chunk being reduced, the one drawn ahead and one block's working set
    params = ModelParams.benchmark()
    n, seed, steps = 2048, 1, 1024
    run = {
        "cost_mc": lambda: cost_mc(example1_policy(params), params, n, seed,
                                   steps),
        "martingale_diagnostic": lambda: martingale_diagnostic(
            example1_policy(params), params, n, seed, steps),
        "decomposition_stats": lambda: decomposition_stats(
            params.m, params.T, params.grid(steps), n, seed),
    }[estimate]
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.0 * CHUNK * steps * 8


def test_weights_policies_and_test_functions_pickle():
    params = ModelParams.benchmark(
        r=0.2, sigma_fn=Affine(1.0, 0.5), m=Sin(1.0, 0.5, 2.0)
    )
    back = pickle.loads(pickle.dumps(params))
    t = np.linspace(0.0, 2.0, 9)
    assert np.array_equal(back.m.nodes(t), params.m.nodes(t))
    assert np.array_equal(back.sigma_fn.nodes(t), params.sigma_fn.nodes(t))
    assert np.array_equal(Constant(2.0)(t), np.full(9, 2.0))
    for policy in (example1_policy(params), example2_policy(params)):
        pickle.dumps(policy)
    pickle.dumps(default_test_functions())


def test_a_process_pool_changes_no_library_value():
    params = ModelParams.benchmark(r=0.2, sigma_fn=Affine(1.0, 0.5))
    policy = example1_policy(params)
    spec = PerturbationSpec((0.25, 0.5), y_grid=(-0.5, 0.0, 0.5))
    n, seed, steps = 2100, 7, 64
    serial = (
        cost_mc(policy, params, n, seed, steps),
        example1_value(params, 0.0, 0.0, n, seed, steps),
        perturbation_sweep(policy, params, spec, n, seed, steps),
        martingale_diagnostic(policy, params, n, seed, steps),
        decomposition_stats(params.m, params.T, params.grid(steps), n, seed),
    )
    with ProcessPoolExecutor(2) as pool:
        pooled = (
            cost_mc(policy, params, n, seed, steps, pool=pool),
            example1_value(params, 0.0, 0.0, n, seed, steps, pool=pool),
            perturbation_sweep(policy, params, spec, n, seed, steps, pool=pool),
            martingale_diagnostic(policy, params, n, seed, steps, pool=pool),
            decomposition_stats(params.m, params.T, params.grid(steps), n, seed,
                                pool=pool),
        )
    assert pooled == serial


@pytest.mark.parametrize("kind", experiments.KINDS)
def test_every_kind_draws_each_chunk_once(tmp_path, monkeypatch, kind):
    # example2 takes its cost, its value and its no-information cost from one
    # draw: 10 increment chunks at 10 000 paths, not 30
    calls = []

    def counting(*args):
        calls.append(args[2])
        return increment_chunk(*args)

    monkeypatch.setattr(paths, "increment_chunk", counting)
    raw = {"experiment": kind, "n_paths": 10_000, "n_steps": 32}
    if kind == "hjb-residual":
        raw["n_probes"] = 10  # it samples its few fields whole, unchunked
    experiments.run_experiment(experiments.resolve_config(raw), tmp_path)
    want = [] if kind == "hjb-residual" else list(range(n_chunks(10_000)))
    assert calls == want


def test_multi_policy_cost_equals_separate_calls_bit_for_bit():
    params = example2_params()
    policies = [
        example2_policy(params),
        constant_policy(0.5),
        # infinite control on the rows with a large L: they diverge
        formula_policy("mostly-flat",
                       lambda t, alpha, L: np.where(L > 4.8, np.inf, 0.5)),
    ]
    n, seed, steps = 20_000, 11, 64
    many = cost_mc_many(policies, params, n, seed, steps)
    assert many == [cost_mc(p, params, n, seed, steps) for p in policies]
    assert [e.n_diverged for e in many[:2]] == [0, 0]
    assert 0 < many[2].n_diverged <= 20
    assert many[2].n_samples == n - many[2].n_diverged
    uninformed = cost_mc_many(policies[:2], params, n, seed, steps,
                              informed=False)
    assert uninformed == [cost_mc(p, params, n, seed, steps, informed=False)
                          for p in policies[:2]]


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
    closed = value(params, params.t0, params.x0, n, seed, steps)
    assert results["value_mc"] == _pair(cost)
    assert results["value_closed_form"] == _pair(closed)
    if example == 2:
        no_info = cost_mc(policy(params), params, n, seed, steps, informed=False)
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
