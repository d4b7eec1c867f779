"""The program shapes that the benchmark's span tracer binds.

``perfbench/tracer.py`` wraps public names of the package and reads the
arguments and results of three of them.  When a refactor removes a traced
name, reshapes an observed call, or turns ``experiments.ProcessPoolExecutor``
into something other than a class, a traced run still exits 0 but reports
the affected per-layer metrics as null.  This test runs every experiment
kind under the tracer and fails on any such metric.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

# the tracer finds the layers it wraps in sys.modules
import insiderlab.controlled_sde  # noqa: F401
import insiderlab.enlargement  # noqa: F401
import insiderlab.forward_integral  # noqa: F401
import insiderlab.hjb  # noqa: F401
import insiderlab.optimality  # noqa: F401
import insiderlab.paths  # noqa: F401
from insiderlab import experiments

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


_FIELDS = {"hjb-residual": {"n_fields": 2, "n_probes": 16}}


@pytest.mark.parametrize("kind", sorted(experiments._KINDS))
def test_every_kind_runs_measured_under_the_tracer(tmp_path, tracer_module,
                                                   kind):
    # one kind goes through run_experiment's process pool branch
    workers = 2 if kind == "example1" else 1
    raw = {"experiment": kind, "n_paths": 64, "n_steps": 64, "seed": 3,
           **_FIELDS.get(kind, {})}
    tracer = tracer_module.Tracer()
    with tracer:
        cfg = experiments.resolve_config(raw)
        tracer.begin_op(0, experiments.params_from_config(cfg).T)
        summary = experiments.run_experiment(cfg, tmp_path, workers=workers)
    assert "verdict" in summary
    assert tracer.unmeasured == set()
    metrics = tracer.metrics(1, 0.0, 1.0)
    assert [name for name, value in metrics.items() if value is None] == []
