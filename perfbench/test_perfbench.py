"""Tests of the benchmark itself: python -m pytest perfbench -q

They run tiny configs of the same kinds as the workloads, so they take
seconds, and they check the properties the benchmark's numbers rely on.
"""

import json

import numpy as np
import pytest

import run
from tracer import PER_LAYER, Tracer
from workloads import WORKLOADS, Workload, op_config, op_seed

EXPERIMENTS = run.import_program()

# One small op per kind, so that every traced layer sees calls; two chunks
# each, so that workers=2 starts a pool.
SMALL = Workload("small", 1, (
    {"experiment": "perturbation", "n_paths": 1030, "n_steps": 32,
     "params": {"r": 0.2}, "y_grid": [-0.5, 0.0, 0.5]},
    {"experiment": "decomposition", "n_paths": 1030, "n_steps": 32},
    {"experiment": "example2", "n_paths": 1030, "n_steps": 32},
    {"experiment": "martingale", "n_paths": 1030, "n_steps": 32},
    {"experiment": "hjb-residual", "n_steps": 32, "n_probes": 20,
     "n_fields": 2},
    {"experiment": "forward-convergence", "n_paths": 1030, "n_steps": 64},
))


def test_benchmark_json_names_what_the_code_runs():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


def test_op_seeds_are_spawned_children_of_the_workload_seed():
    children = np.random.SeedSequence(7).spawn(3)
    assert [op_seed(7, i) for i in range(3)] == [
        int(c.generate_state(1)[0]) for c in children
    ]
    seeds = {op_seed(s, i) for s in range(20) for i in range(50)}
    assert len(seeds) == 1000


def test_value_and_value_parallel_share_their_op_list():
    value, parallel = WORKLOADS["value"], WORKLOADS["value-parallel"]
    assert (value.workers, parallel.workers) == (1, 2)
    assert [op_config(value, 3, i) for i in range(40)] == [
        op_config(parallel, 3, i) for i in range(40)
    ]


def test_tail_has_ten_ops_beyond_it_or_is_the_median():
    assert run.tail([1.0, 2.0, 3.0]) == (50.0, 2.0)
    times = [float(i) for i in range(1, 41)]
    pct, value = run.tail(times)
    assert pct == 75.0
    assert sum(t > value for t in times) == 10


def _cycle(tmp_path, workers, tracer=None):
    return [run.run_op(EXPERIMENTS, SMALL, 5, i, workers, tmp_path, tracer)
            for i in range(len(SMALL.cycle))]


def _traced(tmp_path):
    with Tracer() as tracer:
        ops = _cycle(tmp_path, 1, tracer)
    return ops, tracer.metrics(1, 0.0, 1.0)


def test_traced_counts_repeat_and_tracing_keeps_the_bytes(tmp_path):
    plain = _cycle(tmp_path, 1)
    ops_a, a = _traced(tmp_path)
    ops_b, b = _traced(tmp_path)
    assert all(op.ok for op in plain + ops_a + ops_b)
    assert [op.digest for op in ops_a] == [op.digest for op in plain]
    calls = [k for k in PER_LAYER if k.endswith(".calls")]
    assert {k: a[k] for k in calls} == {k: b[k] for k in calls}
    assert all(a[k] > 0 for k in calls)
    assert a["enlargement.recompute_ratio"] > 1.0
    assert a["paths.tail_frac"] == 0.5
    assert sum(a[f"{layer}.self_frac"] for layer in
               ("paths", "enlargement", "controlled_sde", "forward_integral",
                "experiments")) <= 1.0


def test_counts_are_per_cycle_over_several_traced_cycles(tmp_path):
    tracer = Tracer()
    for first in (0, len(SMALL.cycle)):
        with tracer:
            for i in range(len(SMALL.cycle)):
                run.run_op(EXPERIMENTS, SMALL, 5, first + i, 1, tmp_path,
                           tracer)
    two = tracer.metrics(2, 0.0, 1.0)
    one = _traced(tmp_path)[1]
    for key in PER_LAYER:
        if key.endswith(".calls") or key in ("controlled_sde.bytes_computed",
                                             "paths.redraw_ratio",
                                             "paths.tail_frac"):
            assert two[key] == one[key], key


def test_setup_goes_on_past_a_config_that_resolve_config_rejects():
    rejected = Workload("rejected", 1, (
        {"experiment": "no-such-kind"},
        {"experiment": "example1", "n_paths": 0},
        {"experiment": "example1"},
    ))
    with pytest.raises(EXPERIMENTS.InvalidConfigError):
        EXPERIMENTS.resolve_config(op_config(rejected, 0, 0))
    times = run.measure_setup(rejected)
    assert len(times) == run.SETUP_REPEATS
    assert all(t > 0 for t in times)


def test_csv_bytes_equal_across_worker_counts(tmp_path):
    serial = _cycle(tmp_path, 1)
    pooled = _cycle(tmp_path, 2)
    assert all(op.ok for op in serial + pooled)
    assert [op.digest for op in serial] == [op.digest for op in pooled]


def test_tracing_pool_starts_only_with_workers(tmp_path):
    with Tracer() as tracer:
        run.run_op(EXPERIMENTS, SMALL, 5, 1, 2, tmp_path, tracer)
        run.run_op(EXPERIMENTS, SMALL, 5, 1, 1, tmp_path, tracer)
    assert tracer.pool_starts == 1  # decomposition maps one pool


def test_a_removed_name_is_unmeasured_not_fatal(tmp_path, monkeypatch):
    import insiderlab.optimality as optimality

    monkeypatch.delattr(optimality, "nu_increments")
    with Tracer() as tracer:
        pass
    metrics = tracer.metrics(1, 0.0, 1.0)
    assert metrics["optimality.nu_increments.calls"] is None
    assert metrics["optimality.nu_increments.ms_per_call"] is None
    assert metrics["paths.increment_chunk.calls"] == 0


def test_wrappers_are_removed_after_tracing():
    import insiderlab.experiments as experiments
    import insiderlab.paths as paths

    before = (experiments.increment_chunk, paths.increment_chunk)
    with Tracer():
        assert experiments.increment_chunk is not before[0]
        assert experiments.increment_chunk is paths.increment_chunk
    assert (experiments.increment_chunk, paths.increment_chunk) == before


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_configs_resolve(name):
    workload = WORKLOADS[name]
    for i in range(len(workload.cycle)):
        EXPERIMENTS.resolve_config(op_config(workload, 11, i))
