"""Cost estimation, perturbation calculus, martingale cells, and recovery."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from insiderlab.controlled_sde import (
    constant_policy,
    feedback_policy,
    formula_policy,
    make_wealth_setup,
    wealth_paths_chunk,
)
from insiderlab.enlargement import InfoDriftField, chunk_context, decompose
from insiderlab.hjb import (
    ModelParams,
    example1_policy,
    example2_params,
    example2_policy,
)
from insiderlab.optimality import (
    DivergenceError,
    EstimateWithError,
    PerturbationSpec,
    cost_mc,
    default_test_functions,
    directional_derivative,
    discounted_diffusion,
    martingale_diagnostic,
    nu_increments,
    nu_path,
    perturbation_sweep,
    perturbed_policy,
    pooled_se,
    quarter_windows,
    semimartingale_recovery,
    sweep_coefficients,
    window_indices,
)
from insiderlab.paths import (
    constant_weight,
    increment_chunk,
    make_grid,
    map_chunks,
    sample_brownian,
)

EX1_TARGET = -math.log(2.0) / 4.0
ONE = constant_weight(1.0)
WINDOW = (0.25, 0.5)


class TestEstimateWithError:
    def test_from_samples(self):
        est = EstimateWithError.from_samples(np.array([0.0, 2.0]), seed=1)
        assert est.mean == 1.0
        assert est.std_error == pytest.approx(1.0, rel=1e-15)
        assert est.n_samples == 2 and est.n_diverged == 0

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            EstimateWithError.from_samples(np.array([1.0]), seed=1)

    def test_rejects_negative_se(self):
        with pytest.raises(ValueError):
            EstimateWithError(mean=0.0, std_error=-1.0, n_samples=10, seed=1)

    def test_pooled_se_is_hypot(self):
        a = EstimateWithError(0.0, 3.0, 10, 1)
        b = EstimateWithError(0.0, 4.0, 10, 1)
        assert pooled_se(a, b) == 5.0


class TestCostMc:
    def test_null_policy_returns_endowment(self):
        params = ModelParams.benchmark(x0=2.0)
        est = cost_mc(constant_policy(0.0), params, 64, seed=3, n_steps=256)
        assert est.mean == -2.0
        assert est.std_error == 0.0

    def test_constant_policy_drifted_analytic(self):
        # dX = u dt + u dB, u == c: J = a c^2 T - b c T
        params = example2_params()
        c = 0.7
        est = cost_mc(constant_policy(c), params, 20_000, seed=5, n_steps=1024)
        target = 1.0 * c * c * 1.0 - 1.0 * c * 1.0
        assert abs(est.mean - target) <= 3 * est.std_error

    def test_optimal_cost_hits_target(self):
        params = ModelParams.benchmark()
        est = cost_mc(example1_policy(params), params, 20_000, seed=1,
                      n_steps=2048)
        assert abs(est.mean - EX1_TARGET) <= 3 * est.std_error

    def test_uninformed_flag_kills_alpha(self):
        # with alpha forced to 0 the optimal rule trades nothing
        params = ModelParams.benchmark(x0=1.0)
        est = cost_mc(example1_policy(params), params, 64, seed=7,
                      n_steps=256, informed=False)
        assert est.mean == -1.0
        assert est.std_error == 0.0

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_total_divergence_raises(self):
        params = example2_params(x0=5.0)
        explode = feedback_policy("explode", lambda t, x, a, L: np.exp(x))
        with pytest.raises(DivergenceError):
            cost_mc(explode, params, 512, seed=9, n_steps=512)

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_rare_divergence_excluded_but_counted(self):
        # a few paths (P ~ 3e-4) get an infinite control and are dropped
        params = example2_params()
        pol = formula_policy(
            "mostly-flat", lambda t, alpha, L: np.where(L > 4.8, np.inf, 0.5)
        )
        est = cost_mc(pol, params, 20_000, seed=11, n_steps=512)
        assert 0 < est.n_diverged <= 20
        assert math.isfinite(est.mean)

    def test_too_few_paths(self):
        with pytest.raises(ValueError):
            cost_mc(constant_policy(0.0), ModelParams.benchmark(), 1, 13, 64)


class TestDirectionalDerivative:
    def test_zero_direction_is_exactly_zero(self):
        params = ModelParams.benchmark()
        spec = PerturbationSpec(WINDOW, theta0=0.0)
        est = directional_derivative(
            example1_policy(params), params, spec, 0.0, 256, seed=15,
            n_steps=512,
        )
        assert est.mean == 0.0 and est.std_error == 0.0

    def test_flat_at_the_optimum(self):
        params = ModelParams.benchmark()
        spec = PerturbationSpec(WINDOW)
        est = directional_derivative(
            example1_policy(params), params, spec, 0.0, 20_000, seed=17,
            n_steps=2048,
        )
        assert abs(est.mean) <= 3 * est.std_error

    def test_slope_away_from_optimum(self):
        # F(y) = F(0) + a y^2 h on the benchmark: F'(0.5) = 2 a (0.5) h = 0.25
        params = ModelParams.benchmark()
        spec = PerturbationSpec(WINDOW)
        est = directional_derivative(
            example1_policy(params), params, spec, 0.5, 20_000, seed=19,
            n_steps=2048,
        )
        assert est.mean > 3 * est.std_error
        assert abs(est.mean - 0.25) <= 3 * est.std_error

    def test_adapted_direction_still_flat(self):
        params = ModelParams.benchmark()
        spec = PerturbationSpec(WINDOW, theta0=lambda Bt, L: np.clip(Bt, -1, 1))
        est = directional_derivative(
            example1_policy(params), params, spec, 0.0, 10_000, seed=21,
            n_steps=1024,
        )
        assert abs(est.mean) <= 3 * est.std_error

    def test_amplitude_outside_grid(self):
        params = ModelParams.benchmark()
        spec = PerturbationSpec(WINDOW)
        with pytest.raises(ValueError):
            directional_derivative(
                example1_policy(params), params, spec, 2.0, 64, 23, 256
            )

    def test_unbounded_direction_rejected(self):
        with pytest.raises(ValueError):
            PerturbationSpec(WINDOW, theta_bound=math.inf)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            PerturbationSpec((0.5, 0.5))


def direct_costs(setup, dB, policy, spec, y, params):
    """Oracle: per-path cost of the perturbed policy from its own kernel pass."""
    pert = perturbed_policy(policy, spec, y, params)
    with np.errstate(over="ignore", invalid="ignore"):
        ctx, u, X, diverged = wealth_paths_chunk(setup, dB,
                                                 chunk_context(setup, dB), pert)
        run = np.trapezoid(setup.a * u * u, dx=setup.grid.dt, axis=1)
        vals = run - setup.b_weight * X[:, -1]
    return vals, diverged | ~np.isfinite(vals)


def clipped_theta(Bt, L):
    return 20.0 * L  # clipped to theta_bound = 10 on most rows


class TestSweepCoefficients:
    """The exact quadratic c0 + c1 y + c2 y^2 against the direct per-y kernel.

    Tolerance, fixed: per path, |closed form - oracle| <= 1e-12 times the
    chunk's largest |oracle cost| at that y (the cost's own scale; costs near
    zero carry the cancellation error of that scale).
    """

    RTOL = 1e-12

    @pytest.mark.parametrize(
        "r, t0, window, theta0, informed",
        [
            (0.0, 0.0, WINDOW, 1.0, True),
            (0.2, 0.0, WINDOW, 1.0, True),
            (0.2, 0.5, (0.5, 0.75), 1.0, True),
            (0.2, 0.0, WINDOW, clipped_theta, True),
            (0.2, 0.0, WINDOW, -0.7, False),
            (0.2, 0.25, (0.25, 1.0), 1.0, True),
        ],
        ids=["r0", "r0.2", "window-at-t0", "callable-theta", "uninformed",
             "window-to-T"],
    )
    def test_matches_direct_kernel(self, r, t0, window, theta0, informed):
        params = ModelParams.benchmark(r=r, t0=t0)
        setup = make_wealth_setup(params, 512, informed=informed)
        spec = PerturbationSpec(window, theta0=theta0)
        ilo_ihi = window_indices(setup.grid, window, params.t0, params.T)
        dB = increment_chunk(setup.grid, 61, 0, 256)
        pol = example1_policy(params)
        (c0, c1, c2), bad = sweep_coefficients(setup, dB, chunk_context(setup, dB),
                                               pol, spec, ilo_ihi)
        assert not bad.any()
        for y in spec.y_grid:
            want, want_bad = direct_costs(setup, dB, pol, spec, y, params)
            assert not want_bad.any()
            got = c0 + y * (c1 + y * c2)
            if y == 0.0:
                assert np.array_equal(got, want)
            scale = np.max(np.abs(want))
            assert np.max(np.abs(got - want)) <= self.RTOL * scale

    def test_derivative_is_central_difference_of_discrete_cost(self):
        # F is quadratic per path, so (F(h) - F(-h)) / 2h is F'(0) exactly
        params = ModelParams.benchmark(r=0.2)
        spec = PerturbationSpec(WINDOW)
        pol = example1_policy(params)
        h = 0.1
        plus = cost_mc(perturbed_policy(pol, spec, h, params), params, 512,
                       seed=63, n_steps=512)
        minus = cost_mc(perturbed_policy(pol, spec, -h, params), params, 512,
                        seed=63, n_steps=512)
        deriv = directional_derivative(pol, params, spec, 0.0, 512, seed=63,
                                       n_steps=512)
        fd = (plus.mean - minus.mean) / (2 * h)
        assert abs(deriv.mean - fd) <= 1e-12

    def test_divergent_rows_match_at_every_y(self):
        params = example2_params()
        pol = formula_policy(
            "mostly-flat", lambda t, alpha, L: np.where(L > 4.8, np.inf, 0.5)
        )
        spec = PerturbationSpec(WINDOW)
        setup = make_wealth_setup(params, 512)
        ilo_ihi = window_indices(setup.grid, WINDOW, params.t0, params.T)

        def bad_rows(dB):
            _, bad = sweep_coefficients(setup, dB, chunk_context(setup, dB), pol,
                                        spec, ilo_ihi)
            for y in spec.y_grid:
                _, want_bad = direct_costs(setup, dB, pol, spec, y, params)
                assert np.array_equal(bad, want_bad)
            return int(bad.sum())

        n_bad = sum(map_chunks(bad_rows, setup.grid, 11, 20_000))
        assert 0 < n_bad <= 20
        est = directional_derivative(pol, params, spec, 0.0, 20_000, seed=11,
                                     n_steps=512)
        assert est.n_diverged == n_bad

    def test_feedback_base_rejected(self):
        params = ModelParams.benchmark()
        setup = make_wealth_setup(params, 256)
        spec = PerturbationSpec(WINDOW)
        fb = feedback_policy("prop", lambda t, x, a, L: 0.1 * x)
        dB = increment_chunk(setup.grid, 65, 0, 8)
        with pytest.raises(ValueError):
            sweep_coefficients(setup, dB, chunk_context(setup, dB), fb, spec,
                               (64, 128))
        with pytest.raises(ValueError):
            perturbation_sweep(fb, params, spec, 64, 65, 256)


class TestPerturbationSweep:
    def test_optimum_sits_at_zero(self):
        params = ModelParams.benchmark()
        spec = PerturbationSpec(WINDOW)
        sweep = perturbation_sweep(
            example1_policy(params), params, spec, 10_000, seed=25,
            n_steps=1024,
        )
        assert sweep["argmin_y"] == 0.0
        by_y = {r["y"]: r for r in sweep["rows"]}
        for edge in (-0.5, 0.5):
            gap = by_y[edge]["mean"] - by_y[0.0]["mean"]
            pooled = math.hypot(by_y[edge]["std_error"], by_y[0.0]["std_error"])
            assert gap > 3 * pooled

    def test_suboptimal_base_moves_argmin(self):
        # u == 0 under drifted dynamics: F(y) = h y^2 - h y, minimized at 0.5
        params = example2_params()
        spec = PerturbationSpec(WINDOW)
        sweep = perturbation_sweep(
            constant_policy(0.0), params, spec, 10_000, seed=27, n_steps=1024
        )
        assert sweep["argmin_y"] == 0.5
        by_y = {r["y"]: r for r in sweep["rows"]}
        gap = by_y[0.0]["mean"] - by_y[0.5]["mean"]
        pooled = math.hypot(by_y[0.0]["std_error"], by_y[0.5]["std_error"])
        assert gap > 3 * pooled

    def test_symmetric_problem_gives_symmetric_F(self):
        # no excess return, no information: F is even in y
        params = ModelParams.benchmark()
        spec = PerturbationSpec(WINDOW)
        sweep = perturbation_sweep(
            constant_policy(0.0), params, spec, 4_000, seed=29, n_steps=512,
            informed=False,
        )
        by_y = {r["y"]: r for r in sweep["rows"]}
        for y in (0.1, 0.3, 0.5):
            diff = by_y[y]["mean"] - by_y[-y]["mean"]
            pooled = math.hypot(by_y[y]["std_error"], by_y[-y]["std_error"])
            assert abs(diff) <= 3 * pooled

    def test_common_random_numbers_make_it_deterministic(self):
        params = ModelParams.benchmark()
        spec = PerturbationSpec(WINDOW, y_grid=(-0.5, 0.0, 0.5))
        a = perturbation_sweep(example1_policy(params), params, spec, 2_000,
                               seed=31, n_steps=256)
        b = perturbation_sweep(example1_policy(params), params, spec, 2_000,
                               seed=31, n_steps=256)
        assert a == b

    def test_grid_must_contain_zero(self):
        params = ModelParams.benchmark()
        spec = PerturbationSpec(WINDOW, y_grid=(-0.5, 0.5))
        with pytest.raises(ValueError):
            perturbation_sweep(example1_policy(params), params, spec, 64, 33,
                               256)

    def test_perturbation_needs_state_free_base(self):
        fb = feedback_policy("prop", lambda t, x, a, L: 0.1 * x)
        with pytest.raises(ValueError):
            perturbed_policy(fb, PerturbationSpec(WINDOW), 0.1,
                             ModelParams.benchmark())


class TestMartingaleDiagnostic:
    def test_optimal_policy_passes_all_cells(self):
        params = ModelParams.benchmark()
        cells = martingale_diagnostic(
            example1_policy(params), params, 20_000, seed=35, n_steps=1024
        )
        assert len(cells) == 16
        assert all(c["pass"] for c in cells)

    def test_short_horizon_uninformed_fails(self):
        # T1 barely past T makes the drift huge; ignoring it is visible
        params = ModelParams.benchmark(t1=1.05)
        cells = martingale_diagnostic(
            constant_policy(0.0), params, 4_000, seed=37, n_steps=1680
        )
        ratios = [abs(c["mean"]) / c["std_error"] for c in cells]
        assert not all(c["pass"] for c in cells)
        assert max(ratios) > 10.0

    def test_custom_cells(self):
        params = ModelParams.benchmark()
        cells = martingale_diagnostic(
            example1_policy(params), params, 2_000, seed=39, n_steps=256,
            windows=[(0.5, 0.75)],
            test_fns=[("one", lambda Bt, L: np.ones_like(L))],
        )
        assert len(cells) == 1
        assert cells[0]["window"] == (0.5, 0.75)
        assert cells[0]["n"] == 2_000

    def test_empty_dictionary_rejected(self):
        params = ModelParams.benchmark()
        with pytest.raises(ValueError):
            martingale_diagnostic(
                example1_policy(params), params, 64, 41, 256, test_fns=[]
            )

    def test_quarter_windows_tile_the_tail(self):
        ws = quarter_windows(2.0)
        assert ws[0] == (0.25, 0.5) and ws[-1] == (1.5, 2.0)
        assert all(a < b for a, b in ws)
        ws = quarter_windows(1.0, t0=0.5)
        assert ws[0] == (0.5625, 0.625) and ws[-1] == (0.875, 1.0)
        assert all(a[1] == b[0] for a, b in zip(ws, ws[1:]))

    def test_default_windows_start_after_t0(self):
        params = ModelParams.benchmark(t0=0.5)
        cells = martingale_diagnostic(
            example1_policy(params), params, 2_000, seed=67, n_steps=512
        )
        assert len(cells) == 16
        assert all(c["window"][0] > 0.5 for c in cells)

    def test_default_test_functions_are_bounded(self):
        L = np.array([-1e6, 0.0, 1e6])
        B = np.array([50.0, -50.0, 0.0])
        for _, fn in default_test_functions(bound=10.0):
            assert np.max(np.abs(fn(B, L))) <= 10.0


class TestNuPath:
    def make_chunk(self, params, seed, n_steps=512):
        setup = make_wealth_setup(params, n_steps)
        B = sample_brownian(setup.grid, seed)
        dB = np.diff(B.values)[None, :]
        ctx, u, X, _ = wealth_paths_chunk(setup, dB, chunk_context(setup, dB),
                                          example2_policy(params))
        return setup, B, dB, ctx, u

    def test_starts_at_zero(self):
        setup, B, dB, ctx, u = self.make_chunk(example2_params(), 43)
        assert nu_path(setup, ctx, u, dB).values[0] == 0.0

    def test_optimal_nu_is_minus_btilde(self):
        # for dX = u dt + u dB with a = b = 1: N_{u*} = -Btilde node by node
        params = example2_params()
        setup, B, dB, ctx, u = self.make_chunk(params, 45)
        field = InfoDriftField(params.m, B, horizon=params.T)
        btilde = decompose(B, field)
        nu = nu_path(setup, ctx, u, dB)
        assert np.max(np.abs(nu.values + btilde.values)) < 1e-12

    def test_increments_match_path_differences(self):
        params = example2_params()
        setup, B, dB, ctx, u = self.make_chunk(params, 47)
        ilo, ihi = setup.grid.index_of(0.25), setup.grid.index_of(0.75)
        inc = nu_increments(setup, ctx, u, dB, ilo, ihi)
        nu = nu_path(setup, ctx, u, dB)
        assert inc[0] == pytest.approx(nu.values[ihi] - nu.values[ilo],
                                       abs=1e-13)


class TestSemimartingaleRecovery:
    def test_unit_sigma_round_trip_is_exact(self):
        params = ModelParams.benchmark()
        B = sample_brownian(make_grid(0, 1, 1024), 49)
        R = discounted_diffusion(B, params)
        assert np.array_equal(semimartingale_recovery(R, params).values,
                              B.values)

    def test_power_of_two_sigma_round_trip_is_exact(self):
        params = ModelParams.benchmark(sigma_fn=2.0)
        B = sample_brownian(make_grid(0, 1, 1024), 51)
        R = discounted_diffusion(B, params)
        assert np.array_equal(semimartingale_recovery(R, params).values,
                              B.values)

    def test_smooth_sigma_same_grid_round_trip(self):
        params = ModelParams.benchmark(
            r=0.05, sigma_fn=lambda s: 1.0 + 0.5 * np.sin(s)
        )
        B = sample_brownian(make_grid(0, 1, 1024), 53)
        R = discounted_diffusion(B, params)
        got = semimartingale_recovery(R, params)
        assert np.max(np.abs(got.values - B.values)) < 1e-13

    def test_coarse_recovery_within_derived_constant(self):
        # observe R on a 4x coarser grid; node error <= Lambda e^{L dt} TV dt
        params = ModelParams.benchmark(
            r=0.05, sigma_fn=lambda s: 1.0 + 0.5 * np.sin(s)
        )
        fine = make_grid(0, 1, 4096)
        B = sample_brownian(fine, 55)
        R = discounted_diffusion(B, params)
        coarse = make_grid(0, 1, 1024)
        Rc = type(R)(coarse, R.values[::4], seed=R.seed)
        got = semimartingale_recovery(Rc, params)
        err = np.max(np.abs(got.values - B.values[::4]))
        lam = params.r + 0.5 / 1.0  # r + sup|sigma'| / inf sigma on [0, 1]
        tv = float(np.sum(np.abs(np.diff(B.values))))
        C = lam * math.exp(lam * coarse.dt) * tv
        assert err <= C * coarse.dt

    def test_vanishing_sigma_rejected(self):
        fake = SimpleNamespace(r=0.0, sigma_fn=lambda s: s)
        R = sample_brownian(make_grid(0, 1, 64), 57)
        with pytest.raises(ValueError):
            semimartingale_recovery(R, fake)


class TestDominance:
    def test_optimal_cost_not_beaten(self):
        params = ModelParams.benchmark()
        star = cost_mc(example1_policy(params), params, 10_000, seed=59,
                       n_steps=1024)
        rivals = [
            constant_policy(0.3),
            formula_policy("late", lambda t, alpha, L: np.where(t > 0.5,
                                                                alpha, 0.0)),
        ]
        for pol in rivals:
            est = cost_mc(pol, params, 10_000, seed=59, n_steps=1024)
            assert est.mean >= star.mean - 3 * pooled_se(est, star)
