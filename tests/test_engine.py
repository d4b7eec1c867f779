"""The chunk engine shared by the library and the CLI.

``paths.map_chunks`` is the only place chunks are drawn and mapped; the CLI
runners call the library estimators, so at the same seed they return the
same numbers bit for bit, and a process pool changes no value.
"""

import pickle
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from insiderlab import experiments
from insiderlab.enlargement import decomposition_stats
from insiderlab.hjb import (
    ModelParams,
    example1_policy,
    example1_value,
    example2_policy,
    example2_value,
)
from insiderlab.optimality import (
    PerturbationSpec,
    cost_mc,
    default_test_functions,
    martingale_diagnostic,
    perturbation_sweep,
)
from insiderlab.paths import (
    Affine,
    Constant,
    Sin,
    increment_chunk,
    make_grid,
    map_chunks,
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
