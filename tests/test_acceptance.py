"""Acceptance suite: one test per shipping criterion.

Run with ``pytest -v`` to get one pass/fail line per criterion; each test
also prints its measured numbers so failures carry the evidence.  Scales are
the contractual ones (n_paths up to 1e5, n_steps up to 2^14); the whole
module stays within desk-scale runtime.
"""

import json
import math

import numpy as np
import pytest

from insiderlab.controlled_sde import (
    ControlPolicy,
    constant_policy,
    make_wealth_setup,
    uninformed,
    wealth_paths_chunk,
)
from insiderlab.enlargement import (
    InfoDriftField,
    chunk_context,
    decomposition_stats,
)
from insiderlab.experiments import load_config, resolve_config, run_experiment
from insiderlab.forward_integral import Integrand, forward_estimate, ito_left_sum
from insiderlab.hjb import (
    Example1ValueField,
    ModelParams,
    example1_control,
    example1_policy,
    example2_control,
    example2_params,
    example2_policy,
    hjb_pointwise_infimum,
)
from insiderlab.optimality import (
    PerturbationSpec,
    cost_mc,
    cost_mc_many,
    default_test_functions,
    directional_derivative,
    discounted_diffusion,
    martingale_diagnostic,
    perturbation_sweep,
    pooled_se,
    semimartingale_recovery,
)
from insiderlab.paths import (
    constant_weight,
    increment_chunk,
    make_grid,
    sample_brownian,
)

ONE = constant_weight(1.0)
EX1_TARGET = -math.log(2.0) / 4.0
EX2_TARGET = -(math.log(2.0) + 1.0) / 4.0


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_decomposition():
    stats = decomposition_stats(
        ONE, horizon=1.0, grid=make_grid(0.0, 2.0, 1024), n_paths=100_000,
        seed=1001,
    )
    var_ok = abs(stats["var_terminal"] - 1.0) <= 0.05
    corr_ok = abs(stats["corr_with_L"]) <= 3 * stats["corr_se"]
    recon_ok = stats["max_reconstruction_error"] <= 1e-12
    report(
        "01 decomposition",
        var_ok and corr_ok and recon_ok,
        f"Var(Bt_T)={stats['var_terminal']:.4f} (|.-1|<=0.05), "
        f"corr={stats['corr_with_L']:.2e} vs 3SE={3 * stats['corr_se']:.2e}, "
        f"recon={stats['max_reconstruction_error']:.2e} (<=1e-12)",
    )


def test_criterion_02_forward_integral():
    grid = make_grid(0.0, 2.0, 2**14)
    dt = grid.dt
    ladder = (8, 4, 2, 1)
    n_paths = 1000
    devs = np.empty((n_paths, len(ladder)))
    exact = True
    for i in range(n_paths):
        B2 = sample_brownian(grid, 5000 + i)
        field = InfoDriftField(ONE, B2, horizon=1.0)
        B = B2.restrict(1.0)
        n = B.grid.n_steps
        target = 0.5 * (B.values[-1] ** 2 - 1.0)
        vB = Integrand(B.grid, B.values)
        for j, k in enumerate(ladder):
            devs[i, j] = abs(forward_estimate(vB, B, eps=k * dt) - target)
        for vals in (np.ones(n + 1), B.values, field.alpha):
            v = Integrand(B.grid, vals)
            exact = exact and (
                forward_estimate(v, B, eps=dt) == ito_left_sum(v, B)
            )
    medians = np.median(devs, axis=0)
    decreasing = bool(np.all(np.diff(medians) < 0))
    report(
        "02 forward-integral",
        exact and decreasing,
        f"bit-exact at eps=dt for v in {{1,B,alpha}}: {exact}; "
        "ladder medians "
        + " > ".join(f"{m:.2e}" for m in medians)
        + f" decreasing: {decreasing}",
    )


def test_criterion_03_hjb_residual():
    params = ModelParams.benchmark()
    grid = make_grid(0.0, 2.0, 512)
    rng = np.random.default_rng(1003)
    fields = []
    for j in range(8):
        B = sample_brownian(grid, 3000 + j)
        f = InfoDriftField(ONE, B, horizon=1.0)
        fields.append((f, Example1ValueField(params, f)))
    max_resid = 0.0
    max_gap = 0.0
    for _ in range(1000):
        field, vf = fields[int(rng.integers(0, 8))]
        i = int(rng.integers(0, field.i_last + 1))
        x = float(rng.normal(scale=2.0))
        t = float(grid.times[i])
        alpha = float(field.alpha[i])
        u_min, resid = hjb_pointwise_infimum(
            vf.Gt(i, x), vf.Gx(i), vf.Gxx(i), alpha, 1.0, params, x
        )
        u_star = example1_control(alpha, 1.0, t, params)
        max_resid = max(max_resid, abs(resid))
        max_gap = max(max_gap, abs(u_min - u_star) / max(1.0, abs(u_star)))
    report(
        "03 hjb-residual",
        max_resid <= 1e-10 and max_gap <= 1e-12,
        f"max |residual|={max_resid:.2e} (<=1e-10), "
        f"max rel minimizer gap={max_gap:.2e} (<=1e-12) over 1000 probes",
    )


def test_criterion_04_example1_value():
    params = ModelParams.benchmark()
    est = cost_mc(example1_policy(params), params, 100_000, seed=1004,
                  n_steps=4096)
    # the target is analytic, so the pooled SE is the estimate's own
    ok = abs(est.mean - EX1_TARGET) <= 3 * est.std_error
    report(
        "04 example1-value",
        ok,
        f"cost={est.mean:.6f} vs -ln2/4={EX1_TARGET:.6f}, "
        f"|diff|={abs(est.mean - EX1_TARGET):.2e} <= 3SE={3 * est.std_error:.2e}",
    )


def test_criterion_05_example2_value():
    params = example2_params()
    est = cost_mc(example2_policy(params), params, 100_000, seed=1005,
                  n_steps=4096)
    ok = abs(est.mean - EX2_TARGET) <= 3 * est.std_error
    report(
        "05 example2-value",
        ok,
        f"cost={est.mean:.6f} vs -(ln2+1)/4={EX2_TARGET:.6f}, "
        f"|diff|={abs(est.mean - EX2_TARGET):.2e} <= 3SE={3 * est.std_error:.2e}",
    )


def test_criterion_06_no_information_limit():
    params = example2_params()
    half = params.b / (2.0 * params.a)
    control_exact = example2_control(0.0, params) == half
    blind = uninformed(example2_policy(params))
    setup = make_wealth_setup(params, 512)
    dB = increment_chunk(setup.draw_grid, 1006, 0, 64)
    _, u, _, _ = wealth_paths_chunk(setup, dB, chunk_context(setup, dB), blind)
    u_const = bool(np.all(u == half))
    est = cost_mc(blind, params, 100_000, seed=1006, n_steps=2048)
    target = params.a * 1.0 * half * half - half * 1.0 * params.excess_rate
    cost_ok = abs(est.mean - target) <= 3 * est.std_error
    report(
        "06 no-information",
        control_exact and u_const and cost_ok,
        f"u*(alpha=0)={half:g} exact: {control_exact and u_const}; "
        f"cost={est.mean:.6f} vs {target:.2f}, 3SE={3 * est.std_error:.2e}",
    )


def test_criterion_07_optimality_sweep():
    params = ModelParams.benchmark()
    spec = PerturbationSpec((0.25, 0.5))
    sweep = perturbation_sweep(
        example1_policy(params), params, spec, 20_000, seed=1007,
        n_steps=2048,
    )
    by_y = {r["y"]: r for r in sweep["rows"]}
    gaps = []
    edges_ok = True
    for edge in (-0.5, 0.5):
        gap = by_y[edge]["mean"] - by_y[0.0]["mean"]
        pooled = math.hypot(by_y[edge]["std_error"], by_y[0.0]["std_error"])
        gaps.append(f"F({edge:g})-F(0)={gap:.4f} vs 3SE={3 * pooled:.4f}")
        edges_ok = edges_ok and gap > 3 * pooled
    deriv = directional_derivative(
        example1_policy(params), params, spec, 0.0, 20_000, seed=1017,
        n_steps=2048,
    )
    deriv_ok = abs(deriv.mean) <= 3 * deriv.std_error
    report(
        "07 optimality-sweep",
        sweep["argmin_y"] == 0.0 and edges_ok and deriv_ok,
        f"argmin={sweep['argmin_y']:g}; " + "; ".join(gaps)
        + f"; F'(0)={deriv.mean:.2e} <= 3SE={3 * deriv.std_error:.2e}",
    )


def test_criterion_07_informed_direction():
    # theta0 = 1 above is F-measurable: its dB term has mean zero, so u = 0
    # is flat in that direction too.  theta0 = clip(L) uses the
    # information: u* stays flat, and u = 0, which ignores L, must fail
    params = ModelParams.benchmark()
    spec = PerturbationSpec((0.25, 0.5),
                            theta0=dict(default_test_functions())["clip_L"])
    sweeps = {
        name: perturbation_sweep(policy, params, spec, 10_000, seed=1027,
                                 n_steps=2048)
        for name, policy in (("u*", example1_policy(params)),
                             ("u=0", constant_policy(0.0)))
    }
    z = {name: s["derivative_at_zero"].mean / s["derivative_at_zero"].std_error
         for name, s in sweeps.items()}
    optimal_ok = sweeps["u*"]["argmin_y"] == 0.0 and abs(z["u*"]) <= 3
    control_ok = sweeps["u=0"]["argmin_y"] != 0.0 and abs(z["u=0"]) > 3
    report(
        "07 informed direction",
        optimal_ok and control_ok,
        "theta0 = clip_L: " + "; ".join(
            f"{name} argmin={sweeps[name]['argmin_y']:g}, F'(0) z={z[name]:.1f}"
            for name in sweeps) + " (u=0 needs |z| > 3 and argmin != 0)",
    )


def test_criterion_08_martingale_diagnostic():
    params = ModelParams.benchmark()
    cells = martingale_diagnostic(
        example1_policy(params), params, 40_000, seed=1008, n_steps=2048
    )
    positive_ok = len(cells) == 16 and all(c["pass"] for c in cells)

    short = ModelParams.benchmark(t1=1.05)
    bad_cells = martingale_diagnostic(
        constant_policy(0.0), short, 10_000, seed=1018, n_steps=1680
    )
    worst = max(abs(c["mean"]) / c["std_error"] for c in bad_cells)
    negative_ok = any(not c["pass"] for c in bad_cells)
    report(
        "08 martingale",
        positive_ok and negative_ok,
        f"optimal policy: {sum(c['pass'] for c in cells)}/16 cells pass; "
        f"u=0 with T1=1.05T: worst |z|={worst:.1f} (needs a failing cell)",
    )


def test_criterion_09_semimartingale_recovery():
    # exactness branch: constant sigma, r = 0
    params0 = ModelParams.benchmark()
    B0 = sample_brownian(make_grid(0.0, 1.0, 1024), 1009)
    exact = np.array_equal(
        semimartingale_recovery(discounted_diffusion(B0, params0), params0).values,
        B0.values,
    )
    # coarse-observation branch with a derived constant
    params = ModelParams.benchmark(
        r=0.05, sigma_fn=lambda s: 1.0 + 0.5 * np.sin(s)
    )
    fine = make_grid(0.0, 1.0, 4096)
    B = sample_brownian(fine, 1019)
    R = discounted_diffusion(B, params)
    coarse = make_grid(0.0, 1.0, 1024)
    Rc = type(R)(coarse, R.values[::4])
    got = semimartingale_recovery(Rc, params)
    err = float(np.max(np.abs(got.values - B.values[::4])))
    lam = params.r + 0.5 / 1.0  # sup |d/ds log(e^{-rs} sigma_s)| bound
    tv = float(np.sum(np.abs(np.diff(B.values))))
    C = lam * math.exp(lam * coarse.dt) * tv
    bound_ok = err <= C * coarse.dt
    report(
        "09 recovery",
        exact and bound_ok,
        f"constant-sigma exact: {exact}; coarse error={err:.2e} <= "
        f"C*dt={C * coarse.dt:.2e} with C={C:.2f} from coefficient bounds",
    )


def test_criterion_10_dominance():
    params1 = ModelParams.benchmark()
    params2 = example2_params()
    rivals1 = [
        constant_policy(0.0),
        constant_policy(0.3),
        ControlPolicy("half-optimal", 0.25),
        ControlPolicy("double-optimal", 1.0),
        ControlPolicy("late-start", lambda t: np.where(t > 0.5, 0.5, 0.0)),
    ]
    rivals2 = [
        constant_policy(0.0),
        constant_policy(0.5),
        ControlPolicy("half-optimal", 0.25, 0.25),
        ControlPolicy("double-optimal", 1.0, 1.0),
        ControlPolicy("drift-blind", 0.5),
    ]
    lines = []
    ok = True
    for tag, params, star_pol, rivals in (
        ("ex1", params1, example1_policy(params1), rivals1),
        ("ex2", params2, example2_policy(params2), rivals2),
    ):
        # one draw for all six policies; each estimate equals its cost_mc
        star, *ests = cost_mc_many([star_pol, *rivals], params, 20_000,
                                   seed=1010, n_steps=2048)
        worst_margin = math.inf
        for est in ests:
            margin = est.mean - (star.mean - 3 * pooled_se(est, star))
            worst_margin = min(worst_margin, margin)
            ok = ok and margin >= 0
        lines.append(f"{tag}: 5 rivals, worst margin {worst_margin:+.4f}")
    report("10 dominance", ok, "; ".join(lines))


def test_criterion_11_reproducibility(tmp_path):
    configs = [
        {"experiment": "decomposition", "n_paths": 2048, "n_steps": 256},
        {"experiment": "forward-convergence", "n_paths": 256,
         "n_steps": 2048},
        {"experiment": "hjb-residual", "n_paths": 2, "n_probes": 200,
         "n_fields": 4, "n_steps": 512},
        {"experiment": "example1", "n_paths": 2048, "n_steps": 512},
        {"experiment": "example2", "n_paths": 2048, "n_steps": 512},
        {"experiment": "perturbation", "n_paths": 2048, "n_steps": 256},
        {"experiment": "martingale", "n_paths": 2048, "n_steps": 512},
    ]
    identical = []
    for raw in configs:
        kind = raw["experiment"]
        blobs = []
        for run in ("a", "b"):
            cfg = resolve_config(dict(raw, seed=1011, out=str(tmp_path / run)))
            run_experiment(cfg, workers=1)
            blobs.append((tmp_path / run / f"{kind}.csv").read_bytes())
        identical.append(blobs[0] == blobs[1])
    report(
        "11 reproducibility",
        all(identical),
        "byte-identical CSV rerun for all 7 kinds: "
        + ", ".join(
            f"{c['experiment']}={'yes' if ok else 'NO'}"
            for c, ok in zip(configs, identical)
        ),
    )
