"""Benchmark workloads: the op cycles and the per-op seeds.

A workload is a closed loop with one client.  It repeats a fixed cycle of
raw experiment configs; the next config is resolved and run only after the
previous one has written its CSV/JSON and returned its summary.  Every op
gets its own seed, spawned from ``SeedSequence(workload_seed)`` by op index,
so two workloads that share a cycle (``value`` and ``value-parallel``) run
exactly the same configs for the same workload seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Checks whose outcome does not depend on sampling noise.  An op that fails
# one of these counts as a failed op; every other failed check is a 3-SE (or
# 5 %) statistical check, counted separately.
DETERMINISTIC_CHECKS = frozenset({
    "left_sum_bit_exact",
    "reconstruction_machine_precision",
    "residual_below_1e-10",
    "minimizer_below_1e-12_rel",
    "no_info_control_exact",
})


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int
    cycle: tuple[dict, ...]


def _sweep_cycle() -> tuple[dict, ...]:
    # r != 0 sends the kernel through its per-node Euler loop, about 1.25
    # times as slow per path; n_paths makes both ops take about as long, so
    # the median of the op times lies inside one cluster.
    return tuple(
        {"experiment": "perturbation", "n_paths": n_paths, "n_steps": 2048,
         "params": {"r": r}}
        for r, n_paths in ((0.0, 2560), (0.2, 2048))
    )


def _value_cycle() -> tuple[dict, ...]:
    # Two rounds: n_steps alternates 2048/4096 (at 4096 the per-chunk
    # matrices outgrow a 105 MiB L3), and the 2048 round, half of all rounds,
    # starts at t0 = 0.5, which shortens the kernel window.  That round holds
    # configs known to raise (martingale) or to fail their statistical
    # checks; they stay in so that those failures show.
    kinds = ("decomposition", "example1", "example2", "martingale",
             "hjb-residual")
    ops = []
    for n_steps, t0 in ((2048, 0.5), (4096, 0.0)):
        for kind in kinds:
            params = {"t0": t0} if t0 else {}
            ops.append({"experiment": kind, "n_steps": n_steps,
                        "params": params})
    return tuple(ops)


def _forward_cycle() -> tuple[dict, ...]:
    # n_steps alternates 2048/4096, with n_paths chosen so that both ops take
    # about as long (the per-path loop costs about twice as much at 4096
    # steps, plus a fixed share per path).  With one cluster of op times the
    # median does not sit in the gap between two clusters, and a 15 s run
    # holds about sixteen ops.
    return tuple(
        {"experiment": "forward-convergence", "n_paths": n_paths,
         "n_steps": n_steps}
        for n_steps, n_paths in ((2048, 3072), (4096, 2048))
    )


# Why each workload exists, and the layer it targets, is recorded in
# BENCHMARK.json and perfbench/README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep", 1, _sweep_cycle()),
        Workload("value", 1, _value_cycle()),
        Workload("forward", 1, _forward_cycle()),
        # The only workload that goes through the process pool.
        Workload("value-parallel", 2, _value_cycle()),
    )
}


def op_seed(workload_seed: int, index: int) -> int:
    """Seed of op ``index``: the index-th child of SeedSequence(workload_seed)."""
    child = np.random.SeedSequence(workload_seed, spawn_key=(index,))
    return int(child.generate_state(1)[0])


def op_config(workload: Workload, workload_seed: int, index: int) -> dict:
    """Raw config of op ``index``: the cycle entry plus its spawned seed."""
    raw = dict(workload.cycle[index % len(workload.cycle)])
    raw["params"] = dict(raw.get("params", {}))
    raw["seed"] = op_seed(workload_seed, index)
    return raw
