"""Span tracer that gives the per-layer metrics of a traced run.

The tracer wraps public names of the package from outside it.  Each wrapper
is installed in every module namespace of the package that bound the
original function, so a call keeps being traced when a refactor moves it
from one module to another.  A name that no longer exists is reported as
unmeasured instead of failing the run.

Spans are aggregated as they close (calls, total time and self time per
name, where self time is the span minus its child spans), so a forward
workload with hundreds of thousands of calls keeps its memory flat.  Spans
opened in pool worker processes are not collected.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass

# (layer, public name) of every traced function; the layer is the module
# that defines the name.  The two experiments names are the root spans.
TRACED = (
    ("experiments", "resolve_config"),
    ("experiments", "run_experiment"),
    ("paths", "increment_chunk"),
    ("enlargement", "drift_matrix"),
    ("controlled_sde", "wealth_paths_chunk"),
    ("optimality", "nu_increments"),
    ("forward_integral", "forward_estimate"),
    ("forward_integral", "ito_left_sum"),
    ("hjb", "hjb_pointwise_infimum"),
)
ROOTS = ("experiments.resolve_config", "experiments.run_experiment")
PACKAGE = "insiderlab"
LAYERS = ("paths", "enlargement", "controlled_sde", "optimality",
          "forward_integral", "hjb", "experiments")

# Every per-layer metric with its unit, in report order.  Counts are per
# cycle of the workload's op list; a per-call time is 0 when the workload
# made no such call.
PER_LAYER = {
    "paths.increment_chunk.calls": "count",
    "paths.increment_chunk.ms_per_call": "ms",
    "paths.self_frac": "ratio",
    "paths.redraw_ratio": "ratio",
    "paths.tail_frac": "ratio",
    "enlargement.drift_matrix.calls": "count",
    "enlargement.drift_matrix.ms_per_call": "ms",
    "enlargement.self_frac": "ratio",
    "enlargement.recompute_ratio": "ratio",
    "controlled_sde.wealth_paths_chunk.calls": "count",
    "controlled_sde.wealth_paths_chunk.self_ms_per_call": "ms",
    "controlled_sde.self_frac": "ratio",
    "controlled_sde.bytes_computed": "bytes",
    "controlled_sde.diverged_frac": "ratio",
    "optimality.nu_increments.calls": "count",
    "optimality.nu_increments.ms_per_call": "ms",
    "forward_integral.forward_estimate.calls": "count",
    "forward_integral.forward_estimate.us_per_call": "us",
    "forward_integral.ito_left_sum.calls": "count",
    "forward_integral.ito_left_sum.us_per_call": "us",
    "forward_integral.self_frac": "ratio",
    "hjb.hjb_pointwise_infimum.calls": "count",
    "hjb.hjb_pointwise_infimum.us_per_call": "us",
    "experiments.self_frac": "ratio",
    "experiments.resolve_config.ms_per_call": "ms",
    "experiments.pool_starts": "count",
    "experiments.parallel_efficiency": "ratio",
    "trace.overhead_frac": "ratio",
}


@dataclass
class SpanStats:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Context manager that installs the wrappers and collects their spans.

    It may be entered once per traced cycle; the spans add up.  ``begin_op``
    names the op (the request identifier) that the following
    spans belong to; chunk keys are scoped to it.
    """

    def __init__(self):
        self.stats = {f"{layer}.{name}": SpanStats() for layer, name in TRACED}
        self.unmeasured: set[str] = set()
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []
        self._op = None
        self._horizon = None
        # Counters that the observers fill.
        self.draw_keys: set = set()
        self.drawn_steps = 0
        self.tail_steps = 0
        self.drift_keys: set = set()
        self.kernel_rows = 0
        self.diverged_rows = 0
        self.kernel_bytes = 0
        self.pool_starts = 0

    # -- installation -----------------------------------------------------

    def _modules(self):
        return [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]

    def _replace(self, original, replacement) -> None:
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._patches.append((module, attr, original))

    def __enter__(self) -> "Tracer":
        observers = {
            "paths.increment_chunk": self._observe_draw,
            "enlargement.drift_matrix": self._observe_drift,
            "controlled_sde.wealth_paths_chunk": self._observe_kernel,
        }
        for layer, name in TRACED:
            key = f"{layer}.{name}"
            module = sys.modules.get(f"{PACKAGE}.{layer}")
            original = getattr(module, name, None)
            if not callable(original):
                self.unmeasured.add(key)
                continue
            self._replace(
                original, self._wrap(key, original, observers.get(key))
            )
        experiments = sys.modules.get(f"{PACKAGE}.experiments")
        pool = getattr(experiments, "ProcessPoolExecutor", None)
        if isinstance(pool, type):
            tracer = self

            class CountingPool(pool):
                def __init__(self, *args, **kwargs):
                    tracer.pool_starts += 1
                    super().__init__(*args, **kwargs)

            self._replace(pool, CountingPool)
        else:
            self.unmeasured.add("experiments.pool_starts")
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, key, fn, observe):
        stat = self.stats[key]
        stack = self._stack
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += duration
                stat.calls += 1
                stat.total += duration
                stat.self_time += duration - children
            if observe is not None:
                try:
                    observe(signature.bind(*args, **kwargs).arguments, result)
                except (AttributeError, TypeError, ValueError, KeyError,
                        IndexError):
                    # The name survived a refactor but its arguments or
                    # result changed shape: its derived counters are gone.
                    self.unmeasured.add(key + ".observer")
            return result

        return traced

    # -- observers ----------------------------------------------------------

    def begin_op(self, op_id: int, horizon: float | None) -> None:
        self._op = op_id
        self._horizon = horizon

    def _observe_draw(self, args, dB) -> None:
        grid = args["grid"]
        rows, n_steps = dB.shape
        self.draw_keys.add((self._op, args["seed"], args["chunk_index"]))
        self.drawn_steps += rows * n_steps
        if self._horizon is not None:
            past = grid.n_steps - grid.index_of(self._horizon)
            self.tail_steps += rows * past

    def _observe_drift(self, args, result) -> None:
        dB = args["dB"]
        # Distinct chunks are told apart by their contents; two different
        # draws never share their shape and both corner values.
        self.drift_keys.add(
            (self._op, dB.shape, float(dB.flat[0]), float(dB.flat[-1]))
        )

    def _observe_kernel(self, args, result) -> None:
        ctx, u, X, diverged = result
        self.kernel_rows += len(diverged)
        self.diverged_rows += int(diverged.sum())
        self.kernel_bytes += sum(
            a.nbytes for a in (ctx.B, ctx.alpha, ctx.L, u, X, diverged)
        )

    # -- metrics --------------------------------------------------------------

    def metrics(self, cycles: int, overhead: float, efficiency: float) -> dict:
        """Per-layer metrics of ``cycles`` traced cycles; None: unmeasured.

        Counts are divided by ``cycles``, so they are per cycle.
        """
        s = self.stats
        total = sum(s[k].total for k in ROOTS)
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for key, stat in s.items():
            layer_self[key.split(".")[0]] += stat.self_time

        def per_call(key, scale, attr="total"):
            return _ratio(getattr(s[key], attr) * scale, s[key].calls)

        def per_cycle(count):
            return count / cycles

        draws = s["paths.increment_chunk"].calls
        drifts = s["enlargement.drift_matrix"].calls
        out = {
            "paths.increment_chunk.calls": per_cycle(draws),
            "paths.increment_chunk.ms_per_call":
                per_call("paths.increment_chunk", 1e3),
            "paths.self_frac": _ratio(layer_self["paths"], total),
            "paths.redraw_ratio": _ratio(draws, len(self.draw_keys)),
            "paths.tail_frac": _ratio(self.tail_steps, self.drawn_steps),
            "enlargement.drift_matrix.calls": per_cycle(drifts),
            "enlargement.drift_matrix.ms_per_call":
                per_call("enlargement.drift_matrix", 1e3),
            "enlargement.self_frac": _ratio(layer_self["enlargement"], total),
            "enlargement.recompute_ratio": _ratio(drifts, len(self.drift_keys)),
            "controlled_sde.wealth_paths_chunk.calls":
                per_cycle(s["controlled_sde.wealth_paths_chunk"].calls),
            "controlled_sde.wealth_paths_chunk.self_ms_per_call":
                per_call("controlled_sde.wealth_paths_chunk", 1e3, "self_time"),
            "controlled_sde.self_frac":
                _ratio(layer_self["controlled_sde"], total),
            "controlled_sde.bytes_computed": per_cycle(self.kernel_bytes),
            "controlled_sde.diverged_frac":
                _ratio(self.diverged_rows, self.kernel_rows),
            "optimality.nu_increments.calls":
                per_cycle(s["optimality.nu_increments"].calls),
            "optimality.nu_increments.ms_per_call":
                per_call("optimality.nu_increments", 1e3),
            "forward_integral.forward_estimate.calls":
                per_cycle(s["forward_integral.forward_estimate"].calls),
            "forward_integral.forward_estimate.us_per_call":
                per_call("forward_integral.forward_estimate", 1e6),
            "forward_integral.ito_left_sum.calls":
                per_cycle(s["forward_integral.ito_left_sum"].calls),
            "forward_integral.ito_left_sum.us_per_call":
                per_call("forward_integral.ito_left_sum", 1e6),
            "forward_integral.self_frac":
                _ratio(layer_self["forward_integral"], total),
            "hjb.hjb_pointwise_infimum.calls":
                per_cycle(s["hjb.hjb_pointwise_infimum"].calls),
            "hjb.hjb_pointwise_infimum.us_per_call":
                per_call("hjb.hjb_pointwise_infimum", 1e6),
            "experiments.self_frac": _ratio(layer_self["experiments"], total),
            "experiments.resolve_config.ms_per_call":
                per_call("experiments.resolve_config", 1e3),
            "experiments.pool_starts": per_cycle(self.pool_starts),
            "experiments.parallel_efficiency": efficiency,
            "trace.overhead_frac": overhead,
        }
        observed = {
            "paths.increment_chunk": ("paths.redraw_ratio", "paths.tail_frac"),
            "enlargement.drift_matrix": ("enlargement.recompute_ratio",),
            "controlled_sde.wealth_paths_chunk": (
                "controlled_sde.bytes_computed", "controlled_sde.diverged_frac",
            ),
        }
        for key in self.unmeasured:
            if key.endswith(".observer"):
                gone = observed[key[: -len(".observer")]]
            else:
                gone = [m for m in out
                        if m == key or m.startswith(key + ".")
                        or m in observed.get(key, ())]
            for metric in gone:
                out[metric] = None
        return out
