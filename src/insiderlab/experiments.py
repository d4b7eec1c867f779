"""Configured experiment runs: the bridge between JSON configs and the library.

Each experiment kind maps a resolved config to one CSV table (plot-ready,
fixed columns, floats at 17 significant digits) and one JSON summary that
embeds the resolved config, a git-style build id, every estimate with its
standard error, and named pass/fail checks.

The runners only handle configs, checks and emission: every estimate comes
from the library function that the config names, and the library runs its
chunks through one engine, ``enlargement.map_reducers``, which draws each
chunk of an op once, in row blocks of about 1 MiB, and applies all of the
op's reducers to each block before it draws the next.  ``run_experiment``
opens one process pool per op when ``workers > 1`` and hands it to every
estimate of that op; with ``workers == 1`` the op runs in process, on the
engine's two threads.  Chunk streams are keyed by (seed, chunk index)
alone and chunk results come back in chunk order, so the emitted bytes do
not depend on the worker count, and the CLI returns the library's numbers
bit for bit.
"""

from __future__ import annotations

import difflib
import json
import math
import os
import subprocess
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from functools import cache, partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .controlled_sde import (ControlPolicy, affine_cost_mean, constant_policy,
                            make_wealth_setup, uninformed)
from .enlargement import (
    InfoDriftField,
    decomposition_stats,
    drift_setup,
    map_reducers,
)
from .forward_integral import Integrand, forward_estimate, ito_left_sum
from .hjb import (
    Example1ValueField,
    ModelParams,
    example1_control,
    example1_policy,
    example1_value,
    example2_control,
    example2_policy,
    example2_value,
    hjb_pointwise_infimum,
)
from .optimality import (
    DivergenceError,
    PerturbationSpec,
    cost_mc_many,
    default_test_functions,
    martingale_diagnostic,
    perturbation_sweep,
    quarter_windows,
    window_indices,
)
from .paths import (
    Affine,
    BrownianPath,
    Constant,
    Sin,
    sample_brownian,
)
# read by perfbench's test_wrappers_are_removed_after_tracing
from .paths import increment_chunk  # noqa: F401

__all__ = [
    "CAPS",
    "check_cap",
    "KINDS",
    "InvalidConfigError",
    "list_experiments",
    "load_config",
    "resolve_config",
    "run_experiment",
]


class InvalidConfigError(ValueError):
    """A config that cannot be run; the message names the offending field."""


# ---------------------------------------------------------------------------
# Config loading and resolution
# ---------------------------------------------------------------------------

# every model parameter a config may set, with its default
_PARAM_DEFAULTS = {
    "r": 0.0, "sigma": 1.0, "a": 1.0, "b": 1.0, "T": 1.0, "t1": 2.0,
    "m": 1.0, "x0": 0.0, "t0": 0.0, "rtilde": None,
}
_DEFAULTS = {"n_paths": 10_000, "n_steps": 2048, "seed": 0, "out": "results"}

# The most work one config may ask for, checked before anything is
# allocated.  The Monte Carlo kinds draw in row blocks of at most 1 MiB
# at any n_steps up to its cap (2 rows or more there), so n_steps bounds
# their time per path, not their memory; hjb-residual holds n_fields whole
# paths and drifts.  ``--n-paths`` is held to the n_paths cap too.  The
# workers cap bounds ``run_experiment``'s process pool, which forks all of
# its workers at its first task.
CAPS = {"n_steps": 65_536, "n_paths": 10_000_000, "n_fields": 1_024,
        "n_probes": 1_000_000, "workers": 64}


def load_config(path: str | Path) -> dict:
    """Parse and resolve a JSON config file."""
    try:
        text = Path(path).read_bytes()  # bytes that do not decode: parse error
    except OSError as e:
        raise InvalidConfigError(f"cannot read config: {e}") from e
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise InvalidConfigError(
            f"config is not valid JSON (line {e.lineno}, column {e.colno}): "
            f"{e.msg}"
        ) from e
    except ValueError as e:  # e.g. an integer past Python's digit limit
        raise InvalidConfigError(f"config cannot be parsed: {e}") from e
    return resolve_config(raw)


def resolve_config(raw: dict) -> dict:
    """Validate a raw config dict and expand every default.

    The returned dict is the one embedded in JSON summaries: fully explicit,
    so a result file documents its own run.
    """
    if not isinstance(raw, dict):
        raise InvalidConfigError("config must be a JSON object")
    kind = raw.get("experiment")
    if kind is None:
        raise InvalidConfigError("missing required field 'experiment'")
    if kind not in KINDS:
        near = difflib.get_close_matches(str(kind), KINDS, n=1)
        hint = f"; nearest valid kind: {near[0]}" if near else ""
        raise InvalidConfigError(f"unknown experiment {kind!r}{hint}")

    defaults = _KINDS[kind].defaults
    allowed = {"experiment", "params", *_DEFAULTS, *defaults}
    for key in raw:
        if key not in allowed:
            raise InvalidConfigError(
                f"unknown field {key!r} for experiment '{kind}'"
            )

    cfg = dict(_DEFAULTS)
    cfg.update(defaults)
    cfg["experiment"] = kind
    if not isinstance(raw.get("params", {}), dict):
        raise InvalidConfigError("'params' must be a JSON object")
    cfg["params"] = dict(raw.get("params", {}))
    for key in raw:
        if key not in ("experiment", "params"):
            cfg[key] = raw[key]

    for key in ("n_paths", "n_steps", "seed"):
        v = cfg[key]
        if not _is_int(v):
            raise InvalidConfigError(f"'{key}' must be an integer, got {v!r}")
    if cfg["seed"] < 0:
        raise InvalidConfigError("'seed' must be >= 0")
    if cfg["n_paths"] < 2:
        raise InvalidConfigError("'n_paths' must be >= 2")
    if cfg["n_steps"] < 1:
        raise InvalidConfigError("'n_steps' must be >= 1")
    if not isinstance(cfg["out"], str):
        raise InvalidConfigError(f"'out' must be a path string, "
                                 f"got {cfg['out']!r}")
    for key in CAPS:  # before anything is built from the config
        if _is_int(cfg.get(key)):
            check_cap(key, cfg[key])

    for key in cfg["params"]:
        if key not in _PARAM_DEFAULTS:
            raise InvalidConfigError(f"unknown field 'params.{key}'")
    if kind == "example2":
        for key in ("r", "rtilde", "sigma"):
            if key in cfg["params"]:
                raise InvalidConfigError(
                    f"'params.{key}' is fixed by the example2 dynamics "
                    "(r=0, rtilde=1, sigma=1) and cannot be set"
                )

    # building the model objects is the real validation
    params = params_from_config(cfg)
    try:
        grid = params.grid(cfg["n_steps"])
    except ValueError as e:
        raise InvalidConfigError(f"'n_steps': {e}") from e
    try:
        drift_setup(params.m, grid, params.T, params.t0)
    except ValueError as e:
        raise InvalidConfigError(f"'params.m': {e}") from e
    if kind in ("example1", "hjb-residual") and params.excess_rate != 0.0:
        raise InvalidConfigError(
            f"'params.rtilde' must equal 'params.r' for {kind}: its closed "
            "form has no excess return"
        )

    _validate_kind_fields(cfg, params, grid)
    return cfg


def _is_number(v) -> bool:
    """A number other than a boolean, NaN or an int beyond the float range."""
    try:
        return not (isinstance(v, bool) or math.isnan(v))
    except (TypeError, OverflowError):  # not a number, or too large an int
        return False


def _number(spec: dict, key: str, field: str) -> float:
    if not _is_number(spec[key]):
        raise InvalidConfigError(f"'{field}.{key}' must be a number")
    return float(spec[key])


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def check_cap(key: str, value: int, field: str | None = None) -> None:
    """Reject ``value`` above ``CAPS[key]``, naming ``field`` (default key)."""
    if value > CAPS[key]:
        raise InvalidConfigError(f"'{field or key}' must be at most "
                                 f"{CAPS[key]}")


def _validate_kind_fields(cfg: dict, params: ModelParams, grid) -> None:
    kind = cfg["experiment"]
    if kind == "forward-convergence":
        if params.t0 != 0.0:
            raise InvalidConfigError(
                "'params.t0' must be 0 for forward-convergence: its "
                "integrals run on [0, T]"
            )
        ladder = cfg["eps_ladder"]
        if (
            not isinstance(ladder, list)
            or not ladder
            or any(not _is_int(k) or k < 1 for k in ladder)
        ):
            raise InvalidConfigError(
                "'eps_ladder' must be a non-empty list of positive integer "
                "multiples of dt"
            )
        # median_deviation_decreasing reads the medians in ladder order
        if any(a <= b for a, b in zip(ladder, ladder[1:])):
            raise InvalidConfigError(
                f"'eps_ladder' must be strictly decreasing, got {ladder}"
            )
        # the estimates run on the path restricted to [0, T]; the grid
        # starts at 0, so T's node index is that path's step count
        steps_to_T = grid.index_of(params.T)
        if max(ladder) >= steps_to_T:
            raise InvalidConfigError(
                f"'eps_ladder': every multiple must be below the {steps_to_T} "
                f"steps up to T, got {max(ladder)}"
            )
    elif kind == "hjb-residual":
        for key in ("n_probes", "n_fields"):
            if not _is_int(cfg[key]) or cfg[key] < 1:
                raise InvalidConfigError(f"'{key}' must be a positive integer")
    elif kind == "perturbation":
        window = cfg["window"]
        if not (isinstance(window, list) and len(window) == 2
                and all(map(_is_number, window))):
            raise InvalidConfigError("'window' must be [lo, hi]")
        try:
            window_indices(grid, window, params.t0, params.T)
        except ValueError as e:
            raise InvalidConfigError(f"'window': {e}") from e
        _theta0_from_config(cfg["theta0"])
        y_grid = cfg["y_grid"]
        if not (isinstance(y_grid, list) and all(map(_is_number, y_grid))):
            raise InvalidConfigError("'y_grid' must be a list of numbers")
        if 0.0 not in y_grid:
            raise InvalidConfigError("'y_grid' must contain 0")
        if not _is_number(cfg["expected_argmin"]) or cfg["expected_argmin"] not in y_grid:
            raise InvalidConfigError("'expected_argmin' must be a number on 'y_grid'")
        _policy_from_config(cfg["policy"], params)
    elif kind == "martingale":
        if cfg["windows"] is None:
            cfg["windows"] = [list(w) for w in quarter_windows(params.T, params.t0)]
        if not (isinstance(cfg["windows"], list) and cfg["windows"]):
            raise InvalidConfigError("'windows' must be a non-empty list of "
                                     "[lo, hi] windows")
        for w in cfg["windows"]:
            if not (isinstance(w, list) and len(w) == 2 and all(map(_is_number, w))):
                raise InvalidConfigError("'windows' entries must be [lo, hi]")
            try:
                window_indices(grid, w, params.t0, params.T)
            except ValueError as e:
                raise InvalidConfigError(f"'windows': {e}") from e
        if not (_is_number(cfg["threshold"]) and 0 < cfg["threshold"] < math.inf):
            raise InvalidConfigError("'threshold' must be a finite positive number")
        if not isinstance(cfg["expect_pass"], bool):
            raise InvalidConfigError("'expect_pass' must be true or false")
        _policy_from_config(cfg["policy"], params)


def _weight_from_config(spec, field: str):
    if _is_number(spec):
        return Constant(float(spec))
    if isinstance(spec, dict):
        kind = spec.get("type")
        try:
            if kind == "constant":
                return Constant(_number(spec, "value", field))
            if kind == "affine":
                return Affine(*(_number(spec, k, field) for k in ("intercept", "slope")))
            if kind == "sin":
                spec = {"frequency": 1.0, **spec}
                return Sin(*(_number(spec, k, field)
                             for k in ("base", "amplitude", "frequency")))
        except KeyError as e:
            raise InvalidConfigError(f"'{field}': missing key {e}") from e
    raise InvalidConfigError(
        f"'{field}' must be a number or {{type: constant|affine|sin, ...}}"
    )


def params_from_config(cfg: dict) -> ModelParams:
    merged = {**_PARAM_DEFAULTS, **cfg["params"]}
    if cfg["experiment"] == "example2":
        merged.update(r=0.0, sigma=1.0, rtilde=1.0)
    try:
        return ModelParams(
            r=_number(merged, "r", "params"),
            sigma_fn=_weight_from_config(merged["sigma"], "params.sigma"),
            a=_number(merged, "a", "params"),
            b=_number(merged, "b", "params"),
            T=_number(merged, "T", "params"),
            t1=_number(merged, "t1", "params"),
            m=_weight_from_config(merged["m"], "params.m"),
            x0=_number(merged, "x0", "params"),
            t0=_number(merged, "t0", "params"),
            rtilde=(None if merged["rtilde"] is None
                    else _number(merged, "rtilde", "params")),
        )
    except InvalidConfigError:
        raise
    except (TypeError, ValueError) as e:
        raise InvalidConfigError(f"params: {e}") from e


def _theta0_from_config(spec):
    """A constant direction, or the name of a clipped martingale test
    function phi(B_t, L), read at the window start."""
    if _is_number(spec):
        return float(spec)
    rules = {name: fn for name, fn in default_test_functions() if name != "one"}
    if isinstance(spec, str) and spec in rules:
        return rules[spec]
    raise InvalidConfigError(
        f"'theta0' must be a number or one of {', '.join(rules)}")


def _policy_from_config(spec, params: ModelParams) -> ControlPolicy:
    if isinstance(spec, str):
        spec = {"kind": spec}
    if not isinstance(spec, dict) or "kind" not in spec:
        raise InvalidConfigError(
            "'policy' must be a kind name or {kind: ..., ...}"
        )
    kind = spec["kind"]
    if kind == "example1":
        return example1_policy(params)
    if kind == "example2":
        return example2_policy(params)
    if kind == "zero":
        return constant_policy(0.0)
    if kind == "constant":
        if not _is_number(spec.get("value")):
            raise InvalidConfigError("'policy': constant needs a numeric 'value'")
        return constant_policy(float(spec["value"]))
    raise InvalidConfigError(
        f"'policy': unknown kind {kind!r} "
        "(expected example1, example2, zero, or constant)"
    )


# ---------------------------------------------------------------------------
# Per-kind runners: config handling, checks and emission
# ---------------------------------------------------------------------------

def _check(name: str, passed: bool, detail: str) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def _run_decomposition(cfg, pool):
    params = params_from_config(cfg)
    results = decomposition_stats(
        params.m, params.T, params.grid(cfg["n_steps"]), cfg["n_paths"],
        cfg["seed"], pool=pool,
    )
    var_bt, corr = results["var_terminal"], results["corr_with_L"]
    corr_se = results["corr_se"]
    max_err = results["max_reconstruction_error"]
    # Btilde is a Brownian motion on [0, T], whatever t0 is
    target = params.T
    checks = [
        _check(
            "variance_within_5pct",
            abs(var_bt - target) <= 0.05 * target,
            f"Var = {var_bt:.6g}, target {target:g}",
        ),
        _check(
            "correlation_within_3se",
            abs(corr) <= 3 * corr_se,
            f"corr = {corr:.3e}, 3 SE = {3 * corr_se:.3e}",
        ),
        _check(
            "reconstruction_machine_precision",
            max_err <= 1e-12,
            f"max node error = {max_err:.3e}",
        ),
    ]
    rows = [[k, v] for k, v in results.items()]
    return rows, results, checks


_FORWARD_INTEGRANDS = ("one", "brownian", "drift")


def _forward_chunk(grid, T, ladder, ctx):
    """Per row: |forward estimate - Ito target| along the ladder, shape
    (len(ladder), rows), and whether eps = dt reproduces the left-point sum
    bit for bit, shape (3, rows), one row per ``_FORWARD_INTEGRANDS``.

    It reads a context from t0 = 0 (the forward setup sets none) in the
    context's units and forms no block of its own: both estimates are
    bilinear in v and B, so v = B = R = B / sqrt(dt) gives the real-unit
    estimate over dt, and the drift integrand is D, alpha up to its node
    factor m sqrt(dt) / q, since the eps = dt equality holds whatever an
    integrand's node scale."""
    dt = grid.dt
    i_last = ctx.i_last
    path = BrownianPath(grid.prefix(i_last), ctx.R)
    target = 0.5 * (dt * ctx.R[:, -1] ** 2 - T)
    # R and D are finite by construction: R sums a normal draw, and D
    # subtracts its running sums
    vR = Integrand._of_finite(path.grid, ctx.R)
    integrands = (Integrand(path.grid, np.ones(i_last + 1)), vR,
                  Integrand._of_finite(path.grid, ctx.D))
    # one increment matrix alive at a time: the one at k = 1 serves every
    # integrand of the exact check and v = B on the ladder
    at_dt = forward_estimate(integrands, path, eps=dt)
    devs = np.array([
        np.abs(dt * (at_dt[1] if k == 1
                     else forward_estimate(vR, path, eps=k * dt)) - target)
        for k in ladder
    ])
    exact = np.array(at_dt) == np.array(ito_left_sum(integrands, path))
    return devs, exact


def _run_forward(cfg, pool):
    params = params_from_config(cfg)
    grid = params.grid(cfg["n_steps"])
    ladder = list(cfg["eps_ladder"])
    setup = drift_setup(params.m, grid, params.T)
    ((devs, flags),) = map_reducers(
        setup, [partial(_forward_chunk, grid, params.T, ladder)],
        cfg["seed"], cfg["n_paths"], pool)
    exact = {k: bool(f.all()) for k, f in zip(_FORWARD_INTEGRANDS, flags)}
    medians = np.median(devs, axis=1)
    rows = [[k, k * grid.dt, float(m)] for k, m in zip(ladder, medians)]
    results = {
        "medians": {str(k): float(m) for k, m in zip(ladder, medians)},
        "bit_exact": exact,
    }
    decreasing = bool(np.all(np.diff(medians) < 0)) if len(medians) > 1 else True
    checks = [
        _check(
            "left_sum_bit_exact",
            all(exact.values()),
            f"eps = dt equality per integrand: {exact}",
        ),
        _check(
            "median_deviation_decreasing",
            decreasing,
            "medians along the ladder: "
            + ", ".join(f"{m:.3e}" for m in medians),
        ),
    ]
    return rows, results, checks


def _run_hjb_residual(cfg, pool):
    params = params_from_config(cfg)
    grid = params.grid(cfg["n_steps"])
    rng = np.random.default_rng(cfg["seed"])
    fields, rows = [], []
    max_resid = max_gap = 0.0
    # overflow is caught by the finite check below, not by warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for ss in np.random.SeedSequence(cfg["seed"]).spawn(cfg["n_fields"]):
            f = InfoDriftField(params.m, sample_brownian(grid, ss), horizon=params.T)
            fields.append((f, Example1ValueField(params, f)))
        for p in range(cfg["n_probes"]):
            w = int(rng.integers(0, len(fields)))
            field, vf = fields[w]
            i = int(rng.integers(0, field.i_last + 1))
            x = float(rng.normal(scale=2.0))
            t = float(grid.times[i])
            sig = float(params.sigma_fn(t))
            alpha = float(field.alpha[i])
            u_min, resid = hjb_pointwise_infimum(
                vf.Gt(i, x), vf.Gx(i), vf.Gxx(i), alpha, sig, params, x
            )
            u_star = float(example1_control(alpha, sig, t, params))
            gap = abs(u_min - u_star) / max(1.0, abs(u_star))
            if not (math.isfinite(resid) and math.isfinite(gap)):
                raise DivergenceError(1, p + 1, f"probe {p}: residual {resid:g}, "
                                      f"minimizer gap {gap:g}; not finite")
            max_resid, max_gap = max(max_resid, abs(resid)), max(max_gap, gap)
            rows.append([p, w, i, t, x, alpha, u_min, u_star, resid])
    results = {"max_abs_residual": max_resid, "max_rel_minimizer_gap": max_gap}
    checks = [
        _check("residual_below_1e-10", max_resid <= 1e-10,
               f"max |residual| = {max_resid:.3e}"),
        _check("minimizer_below_1e-12_rel", max_gap <= 1e-12,
               f"max relative gap = {max_gap:.3e}"),
    ]
    return rows, results, checks


def _discrete_mean_and_target(params, value, policy, n_steps):
    """The exact mean of ``policy``'s discrete cost on ``n_steps`` steps,
    ``affine_cost_mean``, and the paper's value on the same grid with x0
    grown as the kernel grows it, (1 + r dt)^N, not e^{r(T - t0)}."""
    setup = make_wealth_setup(params, n_steps)
    return (affine_cost_mean(setup, policy),
            value(params, params.t0, 0.0, n_steps)
            - params.b * setup.endowment)


def _run_example(cfg, pool, example: int):
    params = params_from_config(cfg)
    value, policy = ((example1_value, example1_policy) if example == 1
                     else (example2_value, example2_policy))
    n_steps = cfg["n_steps"]
    closed = value(params, params.t0, params.x0, n_steps)
    policies = [policy(params)]
    if example == 2:
        policies.append(uninformed(policies[0]))
    discrete, check_target = _discrete_mean_and_target(params, value,
                                                       policies[0], n_steps)
    fine = _discrete_mean_and_target(params, value, policies[0], 2 * n_steps)
    if not all(map(math.isfinite, (discrete, check_target, *fine))):
        raise DivergenceError(1, 1, f"the discrete mean of the cost is "
                              f"{discrete:g} against the grid value "
                              f"{check_target:g}; refused")
    cost, *no_info = cost_mc_many(policies, params, cfg["n_paths"],
                                  cfg["seed"], n_steps, pool)
    diff = cost.mean - check_target
    gap = cost.mean - discrete
    pooled = cost.std_error
    # the discrete mean against the paper's value: their gap is the O(dt)
    # bias of the trapezoid running cost, the trapezoid tail in alpha and
    # the Euler growth, so it halves with dt (falls by 3/4 at second
    # order); a wrong policy or value leaves a gap that stays as dt -> 0
    bias, bias_fine = discrete - check_target, fine[0] - fine[1]
    converges = (abs(bias_fine)
                 <= 0.75 * abs(bias) + 1e-12 * (1.0 + abs(check_target)))
    results = {
        "value_mc": {"mean": cost.mean, "std_error": cost.std_error},
        "value_closed_form": {"mean": closed, "std_error": 0.0},
        "value_discrete_mean": discrete,
        "diff": diff,
        "discrete_diff": gap,
        "discrete_bias": bias,
        "discrete_bias_half_dt": bias_fine,
        "pooled_se": pooled,
    }
    checks = [
        # the cost against its exact discrete mean, so no O(dt) bias enters
        # the 3-SE test, and that mean against the grid value, so the
        # closed form is still what the check verifies
        _check(
            "value_mc_matches_closed_form",
            abs(gap) <= 3 * pooled and converges,
            f"cost - discrete mean = {gap:.3e}, 3 pooled SE = {3 * pooled:.3e};"
            f" discrete mean - grid value = {bias:.3e}, {bias_fine:.3e} at"
            f" half the dt, at most 0.75 of it for a bias that vanishes with"
            f" dt (cost - grid value = {diff:.3e})",
        ),
    ]
    rows = [
        ["value_mc", cost.mean, cost.std_error, cost.n_samples],
        ["value_closed_form", closed, 0.0, cost.n_samples],
    ]
    if example == 2:
        (no_info,) = no_info
        # u = h = b/2a throughout: E[cost] = a H h^2 - b (x0 + h H excess)
        half = params.b / (2.0 * params.a)
        horizon = params.T - params.t0
        target = (
            params.a * horizon * half * half
            - params.b * (params.x0 + half * horizon * params.excess_rate)
        )
        results["no_info_cost"] = {
            "mean": no_info.mean, "std_error": no_info.std_error,
        }
        results["no_info_target"] = target
        results["no_info_control"] = half
        checks.append(
            _check(
                "no_info_control_exact",
                float(example2_control(0.0, params)) == half,
                f"u*(alpha=0) = {half:.17g}",
            )
        )
        checks.append(
            _check(
                "no_info_cost_matches_analytic",
                abs(no_info.mean - target) <= 3 * no_info.std_error,
                f"cost = {no_info.mean:.6g}, target {target:.6g}",
            )
        )
        rows.append(
            ["no_info_cost", no_info.mean, no_info.std_error,
             no_info.n_samples]
        )
        rows.append(["no_info_target", target, 0.0, no_info.n_samples])
    return rows, results, checks


def _run_perturbation(cfg, pool):
    params = params_from_config(cfg)
    y_grid = [float(y) for y in cfg["y_grid"]]
    spec = PerturbationSpec(tuple(cfg["window"]),
                            theta0=_theta0_from_config(cfg["theta0"]),
                            y_grid=tuple(y_grid))
    sweep = perturbation_sweep(
        _policy_from_config(cfg["policy"], params), params, spec,
        cfg["n_paths"], cfg["seed"], cfg["n_steps"], pool=pool,
    )
    table, argmin = sweep["rows"], sweep["argmin_y"]
    deriv = sweep["derivative_at_zero"]
    by_y = {r["y"]: r for r in table}
    results = {
        "rows": table,
        "argmin_y": argmin,
        "derivative_at_zero": {"mean": deriv.mean,
                               "std_error": deriv.std_error},
    }
    expected = float(cfg["expected_argmin"])
    checks = [
        _check("argmin_at_expected", argmin == expected,
               f"argmin = {argmin:g}, expected {expected:g}"),
    ]
    if expected == 0.0:
        lo, hi = min(y_grid), max(y_grid)
        edge_ok = True
        details = []
        for edge in (lo, hi):
            if edge == 0.0:
                continue
            gap = by_y[edge]["mean"] - by_y[0.0]["mean"]
            pooled = math.hypot(by_y[edge]["std_error"],
                                by_y[0.0]["std_error"])
            details.append(f"F({edge:g})-F(0) = {gap:.3e} vs {3 * pooled:.3e}")
            edge_ok = edge_ok and gap > 3 * pooled
        checks.append(_check("edges_above_3se", edge_ok, "; ".join(details)))
        checks.append(
            _check(
                "derivative_flat_at_zero",
                abs(deriv.mean) <= 3 * deriv.std_error,
                f"F'(0) = {deriv.mean:.3e}, 3 SE = {3 * deriv.std_error:.3e}",
            )
        )
    rows = [[r["y"], r["mean"], r["std_error"]] for r in table]
    return rows, results, checks


def _run_martingale(cfg, pool):
    params = params_from_config(cfg)
    threshold = float(cfg["threshold"])
    cells = martingale_diagnostic(
        _policy_from_config(cfg["policy"], params), params, cfg["n_paths"],
        cfg["seed"], cfg["n_steps"], windows=[tuple(w) for w in cfg["windows"]],
        threshold=threshold, pool=pool,
    )
    rows = []
    for c in cells:
        z = abs(c["mean"]) / c["std_error"] if c["std_error"] > 0 else 0.0
        rows.append([*c["window"], c["test_fn"], c["mean"], c["std_error"],
                     c["n"], z, c["pass"]])
    n_cells, n_passing = len(cells), sum(c["pass"] for c in cells)
    worst = max(r[6] for r in rows)
    results = {"n_cells": n_cells, "n_passing": n_passing, "worst_zscore": worst}
    if cfg["expect_pass"]:
        checks = [_check("all_cells_pass", n_passing == n_cells,
                         f"{n_passing}/{n_cells} cells within {threshold:g} SE")]
    else:
        checks = [_check("some_cell_fails", n_passing < n_cells,
                         f"worst |z| = {worst:.2f}")]
    return rows, results, checks


class _Kind(NamedTuple):
    """One experiment kind: its runner, its CSV header line, its own fields
    with their defaults, and what ``list`` says beyond them."""

    run: Callable
    header: str
    defaults: dict
    note: str = ""


_KINDS = {
    "decomposition": _Kind(
        _run_decomposition, "quantity,value", {},
        note="uses params.m, params.T, params.t1",
    ),
    "forward-convergence": _Kind(
        _run_forward, "k,eps,median_abs_dev",
        {"eps_ladder": [8, 4, 2, 1]},
        note="eps_ladder: strictly decreasing int multiples of dt, each "
        "below the steps up to T; params.t0 must be 0",
    ),
    "hjb-residual": _Kind(
        _run_hjb_residual, "probe,path,node,t,x,alpha,u_min,u_star,residual",
        {"n_probes": 1000, "n_fields": 8},
        note="params.rtilde must equal params.r",
    ),
    "example1": _Kind(
        partial(_run_example, example=1), "quantity,mean,std_error,n_samples", {},
        note="params (full); params.rtilde must equal params.r",
    ),
    "example2": _Kind(
        partial(_run_example, example=2), "quantity,mean,std_error,n_samples", {},
        note="params a, b, T, t1, m, x0 only; the dynamics fix r=0, "
        "rtilde=1, sigma=1",
    ),
    "perturbation": _Kind(
        _run_perturbation, "y,cost,cost_se",
        {
            "window": [0.25, 0.5],
            "y_grid": [-0.5, -0.4, -0.3, -0.2, -0.1, 0.0, 0.1, 0.2, 0.3, 0.4,
                       0.5],
            "theta0": 1.0,
            "policy": "example1",
            "expected_argmin": 0.0,
        },
        note="theta0: a number, or clip_L, clip_B or clip_LB of (B_t, L) at "
        "the window start; of these only clip_L tells u* from u = 0",
    ),
    "martingale": _Kind(
        _run_martingale,
        "window_lo,window_hi,test_fn,mean,std_error,n,zscore,passed",
        {"windows": None, "policy": "example1", "threshold": 3.0,
         "expect_pass": True},
    ),
}
KINDS = tuple(_KINDS)


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    return str(v)


@cache  # one git call per process, not one per op
def _build_id() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def run_experiment(cfg: dict, out_dir: str | Path | None = None,
                   workers: int = 1) -> dict:
    """Execute one resolved config; write CSV + JSON; return the summary.

    With ``workers > 1`` one process pool serves every estimate of the op;
    more than ``CAPS["workers"]`` raise InvalidConfigError.  An output
    directory under a path that is not a directory raises it too, before
    the op runs and with nothing created.
    """
    check_cap("workers", workers)
    kind = cfg["experiment"]
    out = Path(out_dir if out_dir is not None else cfg["out"])
    # the nearest ancestor that exists (os.path.exists, unlike Path.exists,
    # never raises); permissions and races are left to the writes below
    existing = next(p for p in (out, *out.parents) if os.path.exists(p))
    if not existing.is_dir():
        raise InvalidConfigError(f"'out': cannot write results to {out}: "
                                 f"{existing} is not a directory")
    with ProcessPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        rows, results, checks = _KINDS[kind].run(cfg, pool)
    csv_path = out / f"{kind}.csv"
    lines = [_KINDS[kind].header]
    lines += [",".join(_fmt(v) for v in row) for row in rows]

    all_pass = all(c["passed"] for c in checks)
    summary = {
        "experiment": kind,
        "build_id": _build_id(),
        "config": cfg,
        "results": results,
        "checks": checks,
        "all_pass": all_pass,
        "verdict": "pass" if all_pass else "fail",
        "csv": csv_path.name,
    }
    try:
        out.mkdir(parents=True, exist_ok=True)
        csv_path.write_text("\n".join(lines) + "\n")
        (out / f"{kind}.json").write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n"
        )
    except OSError as e:
        raise InvalidConfigError(f"'out': cannot write results to {out}: "
                                 f"{e.strerror or e}") from e
    return summary


def list_experiments() -> str:
    """Stable text listing of kinds, shared fields, and per-kind schema."""
    lines = [
        "experiment kinds (shared fields: params, n_paths, n_steps, seed, out):",
        "",
    ]
    for name, kind in _KINDS.items():
        lines.append(f"  {name}")
        lines.append(f"      fields: {', '.join(kind.defaults) or 'none'}")
        if kind.note:
            lines.append(f"      {kind.note}")
        lines.append(f"      CSV: {kind.header}")
    lines.append("")
    lines.append(f"params fields: {', '.join(_PARAM_DEFAULTS)}; sigma and m")
    lines.append("take a number or {type: constant|affine|sin, ...}.")
    lines.append("caps: " + ", ".join(f"{k} <= {v}" for k, v in CAPS.items())
                 + " (--n-paths is held to n_paths; workers bounds --workers)")
    return "\n".join(lines)
