"""Time the chunk engine's layers per 1024-path chunk on a pool thread.

    python3 tools/chunk_layers.py [--reps 15] [--steps 2048 4096]
        [--t0 0 0.5] [--out FILE]

Imports ``insiderlab`` from this checkout's ``src/`` and runs the engine's
own chunk task, ``enlargement._reduce_chunk``, on chunk 0 of seed 0 of the
benchmark params (m = 1, T = 1, T1 = 2, r = 0) on a
``ThreadPoolExecutor(1)`` thread.  The task's stream, its ``chunk_context``
and each reducer are wrapped in ``time.perf_counter`` timers (the wrappers
replace the names that the task looks up in ``enlargement``), so the loop
that is timed is the one ``map_reducers`` runs.  Each layer is summed over
the chunk's blocks, and the minimum over ``--reps`` repetitions is reported
in ms:

* ``chunk``: the whole task without reducers, so the draw, the context
  and what the loop does besides them;
* ``draw``: ``standard_normal`` into the block;
* ``context``: ``chunk_context``;
* one entry per kind, the reducers of its op on every block: ``example1``
  and ``example2`` price their optimum (example 2 also its uninformed
  policy), ``perturbation`` the default sweep over the second quarter of
  [t0, T], ``martingale`` the 16 cells of the quarter windows, and, at
  t0 = 0 only (their setups take none), ``decomposition`` and ``forward``
  (eps ladder 8, 4, 2, 1).

The last line of output is the JSON of every (n_steps, t0) case.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _layers(n_steps: int, t0: float, reps: int) -> dict:
    from insiderlab import enlargement, experiments
    from insiderlab.controlled_sde import (cost_sum, make_wealth_setup,
                                           uninformed)
    from insiderlab.hjb import (ModelParams, example1_policy, example2_params,
                                example2_policy)
    from insiderlab.optimality import (PerturbationSpec, _martingale_chunk,
                                       cost_chunk, default_test_functions,
                                       quarter_windows, sweep_coefficients,
                                       sweep_window, window_indices)
    from insiderlab.paths import CHUNK

    params = ModelParams.benchmark(t0=t0)
    setup = make_wealth_setup(params, n_steps)
    p2 = replace(example2_params(), t0=t0)
    setup2 = make_wealth_setup(p2, n_steps)
    ex1, ex2 = example1_policy(params), example2_policy(p2)
    window = quarter_windows(params.T, t0)[1]
    bounds = window_indices(setup.grid, window, t0, params.T)
    lo, hi = bounds[0] - setup.i0, bounds[1] - setup.i0
    kinds = {
        "example1": (setup, [partial(cost_chunk, cost_sum(setup, ex1))]),
        "example2": (setup2, [partial(cost_chunk, cost_sum(setup2, ex2)),
                              partial(cost_chunk,
                                      cost_sum(setup2, uninformed(ex2)))]),
        "perturbation": (setup, [partial(
            sweep_coefficients, cost_sum(setup, ex1),
            PerturbationSpec(window), sweep_window(setup, ex1, bounds),
            setup.a * setup.trapezoid[lo:hi].sum())]),
        "martingale": (setup, [partial(
            _martingale_chunk,
            [sweep_window(setup, ex1, window_indices(setup.grid, w, t0,
                                                     params.T))
             for w in quarter_windows(params.T, t0)],
            default_test_functions())]),
    }
    if t0 == 0.0:
        drift = enlargement.drift_setup(params.m, setup.grid, params.T)
        kinds["decomposition"] = (drift, [enlargement._decomposition_chunk])
        kinds["forward"] = (drift, [partial(experiments._forward_chunk,
                                            setup.grid, params.T,
                                            [8, 4, 2, 1])])

    def chunk(s, reducers):
        clock = dict.fromkeys(("chunk", "draw", "context", "reducers"), 0.0)

        def timed(layer, fn):
            def call(*args, **kwargs):
                t = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    clock[layer] += time.perf_counter() - t
            return call

        class Stream:
            def __init__(self, rng):
                self.standard_normal = timed("draw", rng.standard_normal)

        saved = enlargement.chunk_rng, enlargement.chunk_context
        enlargement.chunk_rng = lambda seed, c: Stream(saved[0](seed, c))
        enlargement.chunk_context = timed("context", saved[1])
        try:
            timed("chunk", enlargement._reduce_chunk)(
                s, [timed("reducers", r) for r in reducers], 0, 0, CHUNK)
        finally:
            enlargement.chunk_rng, enlargement.chunk_context = saved
        return clock

    def best(s, reducers, layer):
        with ThreadPoolExecutor(1) as thread:
            return 1e3 * min(thread.submit(chunk, s, reducers).result()[layer]
                             for _ in range(reps))

    out = {"draw_width": setup.draw_width,
           "block_rows": enlargement._block_rows(setup.draw_width),
           "chunk": round(best(setup, [], "chunk"), 2),
           "draw": round(best(setup, [], "draw"), 2),
           "context": round(best(setup, [], "context"), 2)}
    for name, (s, reducers) in kinds.items():
        out[name] = round(best(s, reducers, "reducers"), 2)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=15)
    parser.add_argument("--steps", type=int, nargs="+", default=[2048, 4096])
    parser.add_argument("--t0", type=float, nargs="+", default=[0.0, 0.5])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    report = {}
    for n_steps in args.steps:
        for t0 in args.t0:
            key = f"n_steps_{n_steps}_t0_{t0:g}"
            report[key] = _layers(n_steps, t0, args.reps)
            print(key, report[key], flush=True)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
