"""Configured experiment runs: the bridge between JSON configs and the library.

Each experiment kind maps a resolved config to one CSV table (plot-ready,
fixed columns, floats at 17 significant digits) and one JSON summary that
embeds the resolved config, a git-style build id, every estimate with its
standard error, and named pass/fail checks.

Heavy Monte Carlo work is split at chunk granularity across a process pool;
chunk streams are keyed by (seed, chunk index) alone, so the emitted bytes do
not depend on the worker count.
"""

from __future__ import annotations

import difflib
import json
import math
import subprocess
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .controlled_sde import ControlPolicy, constant_policy, wealth_paths_chunk
from .controlled_sde import make_wealth_setup
from .enlargement import drift_matrix, tail_square_integral
from .forward_integral import Integrand, forward_estimate, ito_left_sum
from .hjb import (
    Example1ValueField,
    ModelParams,
    example1_control,
    example1_policy,
    example2_control,
    example2_policy,
    hjb_pointwise_infimum,
)
from .enlargement import InfoDriftField
from .optimality import (
    MAX_DIVERGED_FRACTION,
    DivergenceError,
    EstimateWithError,
    PerturbationSpec,
    default_test_functions,
    nu_increments,
    quarter_windows,
    sweep_coefficients,
    sweep_table,
)
from .paths import (
    CHUNK,
    BrownianPath,
    increment_chunk,
    n_chunks,
    sample_brownian,
)

__all__ = [
    "KINDS",
    "InvalidConfigError",
    "list_experiments",
    "load_config",
    "resolve_config",
    "run_experiment",
]

KINDS = (
    "decomposition",
    "forward-convergence",
    "hjb-residual",
    "example1",
    "example2",
    "perturbation",
    "martingale",
)


class InvalidConfigError(ValueError):
    """A config that cannot be run; the message names the offending field."""


# ---------------------------------------------------------------------------
# Config loading and resolution
# ---------------------------------------------------------------------------

_PARAM_KEYS = {"r", "sigma", "a", "b", "T", "t1", "m", "x0", "t0", "rtilde"}
_COMMON_KEYS = {"experiment", "params", "n_paths", "n_steps", "seed", "out"}
_KIND_KEYS = {
    "decomposition": set(),
    "forward-convergence": {"eps_ladder"},
    "hjb-residual": {"n_probes", "n_fields"},
    "example1": set(),
    "example2": set(),
    "perturbation": {"window", "y_grid", "theta0", "policy", "expected_argmin"},
    "martingale": {"windows", "policy", "threshold", "expect_pass"},
}

_DEFAULTS = {"n_paths": 10_000, "n_steps": 2048, "seed": 0, "out": "results"}
_KIND_DEFAULTS = {
    "decomposition": {},
    "forward-convergence": {"eps_ladder": [8, 4, 2, 1]},
    "hjb-residual": {"n_probes": 1000, "n_fields": 8},
    "example1": {},
    "example2": {},
    "perturbation": {
        "window": [0.25, 0.5],
        "y_grid": [-0.5, -0.4, -0.3, -0.2, -0.1, 0.0, 0.1, 0.2, 0.3, 0.4, 0.5],
        "theta0": 1.0,
        "policy": "example1",
        "expected_argmin": 0.0,
    },
    "martingale": {
        "windows": None,
        "policy": "example1",
        "threshold": 3.0,
        "expect_pass": True,
    },
}


def load_config(path: str | Path) -> dict:
    """Parse and resolve a JSON config file."""
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise InvalidConfigError(f"cannot read config: {e}") from e
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise InvalidConfigError(
            f"config is not valid JSON (line {e.lineno}, column {e.colno}): "
            f"{e.msg}"
        ) from e
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

    allowed = _COMMON_KEYS | _KIND_KEYS[kind]
    for key in raw:
        if key not in allowed:
            raise InvalidConfigError(
                f"unknown field {key!r} for experiment '{kind}'"
            )

    cfg = dict(_DEFAULTS)
    cfg.update(_KIND_DEFAULTS[kind])
    cfg["experiment"] = kind
    cfg["params"] = dict(raw.get("params", {}))
    for key in raw:
        if key not in ("experiment", "params"):
            cfg[key] = raw[key]

    for key in ("n_paths", "n_steps", "seed"):
        v = cfg[key]
        if not isinstance(v, int) or isinstance(v, bool):
            raise InvalidConfigError(f"'{key}' must be an integer, got {v!r}")
    if cfg["n_paths"] < 2:
        raise InvalidConfigError("'n_paths' must be >= 2")
    if cfg["n_steps"] < 1:
        raise InvalidConfigError("'n_steps' must be >= 1")

    for key in cfg["params"]:
        if key not in _PARAM_KEYS:
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
        params.grid(cfg["n_steps"])
    except ValueError as e:
        raise InvalidConfigError(f"'n_steps': {e}") from e

    _validate_kind_fields(cfg, params)
    return cfg


def _validate_kind_fields(cfg: dict, params: ModelParams) -> None:
    kind = cfg["experiment"]
    if kind == "forward-convergence":
        ladder = cfg["eps_ladder"]
        if (
            not isinstance(ladder, list)
            or not ladder
            or any(not isinstance(k, int) or k < 1 for k in ladder)
        ):
            raise InvalidConfigError(
                "'eps_ladder' must be a non-empty list of positive integer "
                "multiples of dt"
            )
    elif kind == "hjb-residual":
        for key in ("n_probes", "n_fields"):
            if not isinstance(cfg[key], int) or cfg[key] < 1:
                raise InvalidConfigError(f"'{key}' must be a positive integer")
    elif kind == "perturbation":
        window = cfg["window"]
        if not (isinstance(window, list) and len(window) == 2):
            raise InvalidConfigError("'window' must be [lo, hi]")
        grid = params.grid(cfg["n_steps"])
        try:
            spec = PerturbationSpec(
                tuple(window), theta0=float(cfg["theta0"]),
                y_grid=tuple(cfg["y_grid"]),
            )
            spec.window_indices(grid, params.t0, params.T)
        except ValueError as e:
            raise InvalidConfigError(f"'window': {e}") from e
        if 0.0 not in spec.y_grid:
            raise InvalidConfigError("'y_grid' must contain 0")
        if cfg["expected_argmin"] not in spec.y_grid:
            raise InvalidConfigError("'expected_argmin' must be on 'y_grid'")
        _policy_from_config(cfg["policy"], params)
    elif kind == "martingale":
        if cfg["windows"] is None:
            cfg["windows"] = [list(w) for w in quarter_windows(params.T, params.t0)]
        grid = params.grid(cfg["n_steps"])
        for w in cfg["windows"]:
            if not (isinstance(w, list) and len(w) == 2):
                raise InvalidConfigError("'windows' entries must be [lo, hi]")
            try:
                PerturbationSpec(tuple(w)).window_indices(grid, params.t0, params.T)
            except ValueError as e:
                raise InvalidConfigError(f"'windows': {e}") from e
        if not (isinstance(cfg["threshold"], (int, float)) and cfg["threshold"] > 0):
            raise InvalidConfigError("'threshold' must be positive")
        _policy_from_config(cfg["policy"], params)


def _weight_from_config(spec, field: str):
    if isinstance(spec, (int, float)) and not isinstance(spec, bool):
        return float(spec)
    if isinstance(spec, dict):
        kind = spec.get("type")
        try:
            if kind == "constant":
                return float(spec["value"])
            if kind == "affine":
                c0, c1 = float(spec["intercept"]), float(spec["slope"])
                return lambda s: c0 + c1 * s
            if kind == "sin":
                base = float(spec["base"])
                amp = float(spec["amplitude"])
                freq = float(spec.get("frequency", 1.0))
                return lambda s: base + amp * np.sin(freq * s)
        except KeyError as e:
            raise InvalidConfigError(f"'{field}': missing key {e}") from e
    raise InvalidConfigError(
        f"'{field}' must be a number or {{type: constant|affine|sin, ...}}"
    )


def params_from_config(cfg: dict) -> ModelParams:
    p = cfg["params"]
    if cfg["experiment"] == "example2":
        fixed = {"r": 0.0, "sigma": 1.0, "rtilde": 1.0}
    else:
        fixed = {}
    merged = {
        "r": 0.0, "sigma": 1.0, "a": 1.0, "b": 1.0, "T": 1.0, "t1": 2.0,
        "m": 1.0, "x0": 0.0, "t0": 0.0, "rtilde": None,
    }
    merged.update(p)
    merged.update(fixed)
    try:
        return ModelParams(
            r=float(merged["r"]),
            sigma_fn=_weight_from_config(merged["sigma"], "params.sigma"),
            a=float(merged["a"]),
            b=float(merged["b"]),
            T=float(merged["T"]),
            t1=float(merged["t1"]),
            m=_weight_from_config(merged["m"], "params.m"),
            x0=float(merged["x0"]),
            t0=float(merged["t0"]),
            rtilde=None if merged["rtilde"] is None else float(merged["rtilde"]),
        )
    except InvalidConfigError:
        raise
    except (TypeError, ValueError) as e:
        raise InvalidConfigError(f"params: {e}") from e


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
        try:
            return constant_policy(float(spec["value"]))
        except KeyError as e:
            raise InvalidConfigError("'policy': constant needs 'value'") from e
    raise InvalidConfigError(
        f"'policy': unknown kind {kind!r} "
        "(expected example1, example2, zero, or constant)"
    )


# ---------------------------------------------------------------------------
# Chunk workers (top-level: they must cross process boundaries)
# ---------------------------------------------------------------------------

def _chunk_plan(n_paths: int) -> list[tuple[int, int]]:
    return [
        (c, min(CHUNK, n_paths - c * CHUNK)) for c in range(n_chunks(n_paths))
    ]


def _chunk_call(task):
    name, blob, c, rows = task
    return _WORKERS[name](blob, c, rows)


def _run_chunks(name: str, blob: dict, n_paths: int, workers: int) -> list:
    """Map a chunk worker over the batch, preserving chunk order.

    Results are reassembled in chunk order regardless of which process
    produced them, so worker count never changes a single output byte.
    """
    tasks = [(name, blob, c, rows) for c, rows in _chunk_plan(n_paths)]
    if workers <= 1 or len(tasks) == 1:
        return [_chunk_call(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_chunk_call, tasks))


def _w_decomposition(blob, c, rows):
    cfg = blob["cfg"]
    params = params_from_config(cfg)
    grid = params.grid(cfg["n_steps"])
    m_nodes = params.m.nodes(grid.times)
    q = tail_square_integral(m_nodes, grid.dt)
    i_last = grid.index_of(params.T)
    dB = increment_chunk(grid, cfg["seed"], c, rows)
    alpha, L = drift_matrix(dB, m_nodes, q, i_last)
    B = np.cumsum(dB[:, : i_last + 1], axis=1)
    B[:, 1:] = B[:, :-1]
    B[:, 0] = 0.0
    drift_int = np.cumsum(alpha * grid.dt, axis=1)
    drift_int[:, 1:] = drift_int[:, :-1]
    drift_int[:, 0] = 0.0
    bt = B - drift_int
    max_err = float(np.max(np.abs(bt + drift_int - B))) if rows else 0.0
    return bt[:, -1].copy(), L.copy(), max_err


def _w_cost(blob, c, rows):
    cfg = blob["cfg"]
    params = params_from_config(cfg)
    setup = make_wealth_setup(params, cfg["n_steps"], informed=blob["informed"])
    policy = _policy_from_config(blob["policy"], params)
    dB = increment_chunk(setup.grid, cfg["seed"], c, rows)
    with np.errstate(over="ignore", invalid="ignore"):
        ctx, u, X, diverged = wealth_paths_chunk(setup, dB, policy)
        run = np.trapezoid(setup.a * u * u, dx=setup.grid.dt, axis=1)
        vals = run - setup.b_weight * X[:, -1]
        bad = diverged | ~np.isfinite(vals)
    return vals[~bad], int(bad.sum())


def _w_value_integral(blob, c, rows):
    cfg = blob["cfg"]
    params = params_from_config(cfg)
    grid = params.grid(cfg["n_steps"])
    m_nodes = params.m.nodes(grid.times)
    q = tail_square_integral(m_nodes, grid.dt)
    i_last = grid.index_of(params.T)
    dB = increment_chunk(grid, cfg["seed"], c, rows)
    alpha, _ = drift_matrix(dB, m_nodes, q, i_last)
    times = grid.times[: i_last + 1]
    if blob["example"] == 1:
        sig = params.sigma_fn.nodes(times)
        w = np.exp(-2.0 * params.r * (times - params.T)) * sig * sig
        block = (params.b**2 / (4.0 * params.a)) * w * alpha * alpha
    else:
        block = (params.b**2 / (4.0 * params.a)) * (alpha + 1.0) ** 2
    return np.trapezoid(block, dx=grid.dt, axis=1)


def _w_forward(blob, c, rows):
    cfg = blob["cfg"]
    params = params_from_config(cfg)
    grid = params.grid(cfg["n_steps"])
    dt = grid.dt
    i_last = grid.index_of(params.T)
    m_nodes = params.m.nodes(grid.times)
    q = tail_square_integral(m_nodes, grid.dt)
    dB = increment_chunk(grid, cfg["seed"], c, rows)
    alpha, _ = drift_matrix(dB, m_nodes, q, i_last)
    ladder = blob["ladder"]
    devs = np.empty((rows, len(ladder)))
    exact = {"one": True, "brownian": True, "drift": True}
    for i in range(rows):
        values = np.concatenate([[0.0], np.cumsum(dB[i])])
        B = BrownianPath(grid, values, seed=cfg["seed"]).restrict(params.T)
        target = 0.5 * (B.values[-1] ** 2 - params.T)
        vB = Integrand(B.grid, B.values)
        for j, k in enumerate(ladder):
            devs[i, j] = abs(forward_estimate(vB, B, eps=k * dt) - target)
        for label, vals in (
            ("one", np.ones(i_last + 1)),
            ("brownian", B.values),
            ("drift", alpha[i]),
        ):
            v = Integrand(B.grid, vals, adapted=(label != "drift"))
            if forward_estimate(v, B, eps=dt) != ito_left_sum(v, B):
                exact[label] = False
    return devs, exact


def _w_martingale(blob, c, rows):
    cfg = blob["cfg"]
    params = params_from_config(cfg)
    setup = make_wealth_setup(params, cfg["n_steps"])
    policy = _policy_from_config(blob["policy"], params)
    dB = increment_chunk(setup.grid, cfg["seed"], c, rows)
    ctx, u, X, diverged = wealth_paths_chunk(setup, dB, policy)
    keep = ~diverged
    fns = default_test_functions()
    out = []
    for ilo, ihi in blob["bounds"]:
        dn = nu_increments(setup, ctx, u, dB, ilo, ihi)
        for _, fn in fns:
            phi = fn(ctx.B[:, ilo], ctx.L)
            out.append((phi * dn)[keep])
    return out, int(diverged.sum())


def _w_perturb(blob, c, rows):
    cfg = blob["cfg"]
    params = params_from_config(cfg)
    setup = make_wealth_setup(params, cfg["n_steps"])
    base = _policy_from_config(blob["policy"], params)
    spec = PerturbationSpec(tuple(cfg["window"]), theta0=float(cfg["theta0"]))
    window = spec.window_indices(setup.grid, params.t0, params.T)
    dB = increment_chunk(setup.grid, cfg["seed"], c, rows)
    coefs, bad = sweep_coefficients(setup, dB, base, spec, window)
    return coefs[:, ~bad], int(bad.sum())


_WORKERS = {
    "decomposition": _w_decomposition,
    "cost": _w_cost,
    "value-integral": _w_value_integral,
    "forward": _w_forward,
    "martingale": _w_martingale,
    "perturb": _w_perturb,
}


# ---------------------------------------------------------------------------
# Per-kind runners
# ---------------------------------------------------------------------------

def _estimate(parts: list[np.ndarray], seed: int, n_paths: int,
              n_div: int) -> EstimateWithError:
    samples = np.concatenate(parts)
    if n_div > MAX_DIVERGED_FRACTION * n_paths:
        raise DivergenceError(n_div, n_paths)
    return EstimateWithError.from_samples(samples, seed, n_diverged=n_div)


def _cost_estimate(cfg, policy_spec, workers, informed=True) -> EstimateWithError:
    blob = {"cfg": cfg, "policy": policy_spec, "informed": informed}
    parts = _run_chunks("cost", blob, cfg["n_paths"], workers)
    vals = [p[0] for p in parts]
    n_div = sum(p[1] for p in parts)
    return _estimate(vals, cfg["seed"], cfg["n_paths"], n_div)


def _check(name: str, passed: bool, detail: str) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def _run_decomposition(cfg, workers):
    params = params_from_config(cfg)
    parts = _run_chunks("decomposition", {"cfg": cfg}, cfg["n_paths"], workers)
    bt = np.concatenate([p[0] for p in parts])
    L = np.concatenate([p[1] for p in parts])
    max_err = max(p[2] for p in parts)
    n = len(bt)
    var_bt = float(bt.var(ddof=1))
    corr = float(np.corrcoef(bt, L)[0, 1])
    corr_se = 1.0 / math.sqrt(n)
    target = params.T - params.t0
    results = {
        "n_paths": n,
        "var_terminal": var_bt,
        "mean_terminal": float(bt.mean()),
        "corr_with_L": corr,
        "corr_se": corr_se,
        "max_reconstruction_error": max_err,
        "var_L": float(L.var(ddof=1)),
    }
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
    header = ["quantity", "value"]
    rows = [[k, v] for k, v in results.items()]
    return header, rows, results, checks


def _run_forward(cfg, workers):
    ladder = list(cfg["eps_ladder"])
    blob = {"cfg": cfg, "ladder": ladder}
    parts = _run_chunks("forward", blob, cfg["n_paths"], workers)
    devs = np.vstack([p[0] for p in parts])
    exact = {k: all(p[1][k] for p in parts) for k in ("one", "brownian", "drift")}
    params = params_from_config(cfg)
    dt = params.grid(cfg["n_steps"]).dt
    medians = np.median(devs, axis=0)
    header = ["k", "eps", "median_abs_dev"]
    rows = [[k, k * dt, float(m)] for k, m in zip(ladder, medians)]
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
    return header, rows, results, checks


def _run_hjb_residual(cfg, workers):
    params = params_from_config(cfg)
    grid = params.grid(cfg["n_steps"])
    rng = np.random.default_rng(cfg["seed"])
    fields = []
    for ss in np.random.SeedSequence(cfg["seed"]).spawn(cfg["n_fields"]):
        f = InfoDriftField(params.m, sample_brownian(grid, ss), horizon=params.T)
        fields.append((f, Example1ValueField(params, f)))
    header = ["probe", "path", "node", "t", "x", "alpha", "u_min", "u_star",
              "residual"]
    rows = []
    max_resid = 0.0
    max_gap = 0.0
    for p in range(cfg["n_probes"]):
        w = int(rng.integers(0, len(fields)))
        field, vf = fields[w]
        i = int(rng.integers(0, field.i_last + 1))
        x = float(rng.normal(scale=2.0))
        t = float(grid.times[i])
        sig = float(params.sigma_fn(t))
        alpha = float(field.alpha[i])
        u_min, resid = hjb_pointwise_infimum(
            vf.Gt(i, x), vf.Gx(i), vf.Gxx(i), alpha, sig, params, x, t
        )
        u_star = float(example1_control(alpha, sig, t, params))
        max_resid = max(max_resid, abs(resid))
        max_gap = max(max_gap, abs(u_min - u_star) / max(1.0, abs(u_star)))
        rows.append([p, w, i, t, x, alpha, u_min, u_star, resid])
    results = {"max_abs_residual": max_resid, "max_rel_minimizer_gap": max_gap}
    checks = [
        _check("residual_below_1e-10", max_resid <= 1e-10,
               f"max |residual| = {max_resid:.3e}"),
        _check("minimizer_below_1e-12_rel", max_gap <= 1e-12,
               f"max relative gap = {max_gap:.3e}"),
    ]
    return header, rows, results, checks


def _run_example(cfg, workers, example: int):
    policy_spec = "example1" if example == 1 else "example2"
    cost = _cost_estimate(cfg, policy_spec, workers)
    parts = _run_chunks(
        "value-integral", {"cfg": cfg, "example": example}, cfg["n_paths"],
        workers,
    )
    integral = _estimate(parts, cfg["seed"], cfg["n_paths"], 0)
    params = params_from_config(cfg)
    if example == 1:
        det = params.x0 * params.b * math.exp(-params.r * (params.t0 - params.T))
    else:
        det = params.b * params.x0
    closed = EstimateWithError(
        mean=-(det + integral.mean),
        std_error=integral.std_error,
        n_samples=integral.n_samples,
        seed=cfg["seed"],
    )
    diff = cost.mean - closed.mean
    pooled = math.hypot(cost.std_error, closed.std_error)
    results = {
        "value_mc": {"mean": cost.mean, "std_error": cost.std_error},
        "value_closed_form": {"mean": closed.mean,
                              "std_error": closed.std_error},
        "diff": diff,
        "pooled_se": pooled,
    }
    checks = [
        _check(
            "value_mc_matches_closed_form",
            abs(diff) <= 3 * pooled,
            f"diff = {diff:.3e}, 3 pooled SE = {3 * pooled:.3e}",
        ),
    ]
    header = ["quantity", "mean", "std_error", "n_samples"]
    rows = [
        ["value_mc", cost.mean, cost.std_error, cost.n_samples],
        ["value_closed_form", closed.mean, closed.std_error,
         closed.n_samples],
    ]
    if example == 2:
        no_info = _cost_estimate(cfg, policy_spec, workers, informed=False)
        half = params.b / (2.0 * params.a)
        horizon = params.T - params.t0
        target = (
            params.a * horizon * half * half
            - half * horizon * params.excess_rate
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
    return header, rows, results, checks


def _run_perturbation(cfg, workers):
    blob = {"cfg": cfg, "policy": cfg["policy"]}
    parts = _run_chunks("perturb", blob, cfg["n_paths"], workers)
    y_grid = [float(y) for y in cfg["y_grid"]]
    n_div = sum(p[1] for p in parts)
    if n_div > MAX_DIVERGED_FRACTION * cfg["n_paths"]:
        raise DivergenceError(n_div, cfg["n_paths"])
    coefs = np.concatenate([p[0] for p in parts], axis=1)
    sweep = sweep_table(coefs, y_grid, cfg["seed"])
    table, argmin = sweep["rows"], sweep["argmin_y"]
    deriv = EstimateWithError.from_samples(coefs[1], cfg["seed"])
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
    header = ["y", "cost", "cost_se"]
    rows = [[r["y"], r["mean"], r["std_error"]] for r in table]
    return header, rows, results, checks


def _run_martingale(cfg, workers):
    params = params_from_config(cfg)
    setup_grid = params.grid(cfg["n_steps"])
    bounds = [
        PerturbationSpec(tuple(w)).window_indices(setup_grid, params.t0, params.T)
        for w in cfg["windows"]
    ]
    blob = {"cfg": cfg, "policy": cfg["policy"], "bounds": bounds}
    parts = _run_chunks("martingale", blob, cfg["n_paths"], workers)
    n_div = sum(p[1] for p in parts)
    if n_div > MAX_DIVERGED_FRACTION * cfg["n_paths"]:
        raise DivergenceError(n_div, cfg["n_paths"])
    fn_names = [name for name, _ in default_test_functions()]
    threshold = float(cfg["threshold"])
    header = ["window_lo", "window_hi", "test_fn", "mean", "std_error", "n",
              "zscore", "passed"]
    rows = []
    cells = []
    k = 0
    for w in cfg["windows"]:
        for fname in fn_names:
            samples = np.concatenate([p[0][k] for p in parts])
            est = EstimateWithError.from_samples(samples, cfg["seed"])
            z = abs(est.mean) / est.std_error if est.std_error > 0 else 0.0
            ok = abs(est.mean) <= threshold * est.std_error
            rows.append([w[0], w[1], fname, est.mean, est.std_error,
                         est.n_samples, z, ok])
            cells.append(ok)
            k += 1
    results = {
        "n_cells": len(cells),
        "n_passing": int(sum(cells)),
        "worst_zscore": max(r[6] for r in rows),
    }
    if cfg["expect_pass"]:
        checks = [
            _check(
                "all_cells_pass",
                all(cells),
                f"{sum(cells)}/{len(cells)} cells within "
                f"{threshold:g} SE",
            )
        ]
    else:
        checks = [
            _check(
                "some_cell_fails",
                not all(cells),
                f"worst |z| = {results['worst_zscore']:.2f}",
            )
        ]
    return header, rows, results, checks


_RUNNERS = {
    "decomposition": _run_decomposition,
    "forward-convergence": _run_forward,
    "hjb-residual": _run_hjb_residual,
    "example1": lambda cfg, workers: _run_example(cfg, workers, 1),
    "example2": lambda cfg, workers: _run_example(cfg, workers, 2),
    "perturbation": _run_perturbation,
    "martingale": _run_martingale,
}


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
    """Execute one resolved config; write CSV + JSON; return the summary."""
    kind = cfg["experiment"]
    header, rows, results, checks = _RUNNERS[kind](cfg, workers)
    out = Path(out_dir if out_dir is not None else cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{kind}.csv"
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    csv_path.write_text("\n".join(lines) + "\n")

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
    (out / f"{kind}.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )
    return summary


_SCHEMA_NOTES = {
    "decomposition": "params.m, params.T, params.t1; CSV: quantity,value",
    "forward-convergence": "eps_ladder (int multiples of dt); "
    "CSV: k,eps,median_abs_dev",
    "hjb-residual": "n_probes, n_fields; "
    "CSV: probe,path,node,t,x,alpha,u_min,u_star,residual",
    "example1": "params (full); CSV: quantity,mean,std_error,n_samples",
    "example2": "params (a,b,T,t1,m,x0 only; dynamics fix the rest); "
    "CSV: quantity,mean,std_error,n_samples",
    "perturbation": "window, y_grid, theta0, policy, expected_argmin; "
    "CSV: y,cost,cost_se",
    "martingale": "windows, policy, threshold, expect_pass; "
    "CSV: window_lo,window_hi,test_fn,mean,std_error,n,zscore,passed",
}


def list_experiments() -> str:
    """Stable text listing of kinds, shared fields, and per-kind schema."""
    lines = [
        "experiment kinds (shared fields: params, n_paths, n_steps, seed, out):",
        "",
    ]
    for kind in KINDS:
        lines.append(f"  {kind}")
        lines.append(f"      {_SCHEMA_NOTES[kind]}")
    lines.append("")
    lines.append(
        "params fields: r, sigma, a, b, T, t1, m, x0, t0, rtilde; sigma and m"
    )
    lines.append(
        "take a number or {type: constant|affine|sin, ...}."
    )
    return "\n".join(lines)
