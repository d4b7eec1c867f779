"""Cost estimation, perturbation calculus, martingale cells, and recovery."""

import math
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from insiderlab.controlled_sde import (
    ControlPolicy,
    NodeSum,
    affine_cost_mean,
    constant_policy,
    cost_sum,
    make_wealth_setup,
    uninformed,
    wealth_paths_chunk,
)
from insiderlab.enlargement import (
    InfoDriftField,
    chunk_context,
    decompose,
    map_reducers,
)
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
    _martingale_chunk,
    cost_chunk,
    cost_mc,
    default_test_functions,
    directional_derivative,
    discounted_diffusion,
    martingale_diagnostic,
    nu_increments,
    perturbation_sweep,
    pooled_se,
    quarter_windows,
    semimartingale_recovery,
    sweep_coefficients,
    sweep_window,
    window_indices,
)
from insiderlab.paths import (
    Affine,
    Sin,
    constant_weight,
    make_grid,
    sample_brownian,
)
from oracles import (
    MOSTLY_FLAT,
    RARE_OVERFLOW,
    RARE_PARAMS,
    draw_block,
    fold_tail,
    nu_path,
    perturbed_policy,
    reference_cost,
)

EX1_TARGET = -math.log(2.0) / 4.0
ONE = constant_weight(1.0)
WINDOW = (0.25, 0.5)


class TestEstimateWithError:
    def test_from_samples(self):
        est = EstimateWithError.from_samples(np.array([0.0, 2.0]))
        assert est.mean == 1.0
        assert est.std_error == pytest.approx(1.0, rel=1e-15)
        assert est.n_samples == 2 and est.n_diverged == 0

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            EstimateWithError.from_samples(np.array([1.0]))

    def test_rejects_negative_se(self):
        with pytest.raises(ValueError):
            EstimateWithError(mean=0.0, std_error=-1.0, n_samples=10)

    def test_pooled_se_is_hypot(self):
        a = EstimateWithError(0.0, 3.0, 10)
        b = EstimateWithError(0.0, 4.0, 10)
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
        # the uninformed policy has gain 0, so the optimal one trades nothing
        params = ModelParams.benchmark(x0=1.0)
        est = cost_mc(uninformed(example1_policy(params)), params, 64, seed=7,
                      n_steps=256)
        assert est.mean == -1.0
        assert est.std_error == 0.0

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_total_divergence_raises(self):
        params = example2_params(x0=5.0)
        explode = ControlPolicy("explode", 0.0, lambda t: np.exp(1e3 * t))
        with pytest.raises(DivergenceError):
            cost_mc(explode, params, 512, seed=9, n_steps=512)

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_rare_divergence_excluded_but_counted(self):
        # a few paths (P ~ 3e-4) get an infinite control and are dropped; no
        # affine policy keeps the other rows' moments finite, so the rows
        # come from the reference kernel, through cost_mc's own engine and
        # estimate
        params = example2_params()
        setup = make_wealth_setup(params, 512)
        ((vals,),) = map_reducers(
            setup, [partial(reference_cost, setup, MOSTLY_FLAT)], 11, 20_000)
        est = EstimateWithError.from_rows(vals)
        assert 0 < est.n_diverged <= 20
        assert math.isfinite(est.mean)

    @pytest.mark.parametrize("r, seed", [(0.0, 69), (0.2, 71)])
    def test_exact_discrete_mean_of_affine_policies(self, r, seed):
        # the cost of every affine policy against its exact mean on a
        # coarse grid, with an excess return and an endowment
        params = ModelParams.benchmark(
            r=r, rtilde=r + 0.5, t0=0.25, x0=0.5, a=2.0, b=1.5,
            sigma_fn=Affine(1.0, 0.5), m=Sin(1.0, 0.5, 3.0))
        setup = make_wealth_setup(params, 64)
        for policy in (example1_policy(params), example2_policy(params),
                       constant_policy(0.3),
                       ControlPolicy("half-optimal", 0.25, 0.25)):
            est = cost_mc(policy, params, 20_000, seed, 64)
            exact = affine_cost_mean(setup, policy)
            assert abs(est.mean - exact) <= 3 * est.std_error, policy.name

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

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            PerturbationSpec((0.5, 0.5))


def _curvature(setup, window):
    """a sum_win w_k, the per-op curvature of ``sweep_coefficients``."""
    ilo, ihi = window
    return setup.a * setup.trapezoid[ilo - setup.i0 : ihi - setup.i0].sum()


def direct_costs(setup, ctx, policy, spec, y, params):
    """Oracle: per-path cost of the perturbed policy from its own pass of
    the reference kernel."""
    pert = perturbed_policy(policy, spec, y, params)
    return reference_cost(setup, pert, ctx)


def reference_cost_mc(policy, params, n_paths, seed, n_steps):
    """``cost_mc`` of any policy with a control matrix, on the reference
    kernel."""
    setup = make_wealth_setup(params, n_steps)
    ((vals,),) = map_reducers(
        setup, [partial(reference_cost, setup, policy)], seed, n_paths)
    return EstimateWithError.from_rows(vals)


@pytest.mark.parametrize("r", [0.0, 0.2])
def test_cost_chunk_is_the_trapezoid_cost_of_the_terminal_wealth(r):
    params = ModelParams.benchmark(r=r, t0=0.25, a=2.0, b=1.5, x0=0.5)
    setup = make_wealth_setup(params, 512)
    dB = draw_block(setup, 7, 0, 64)
    ctx = chunk_context(setup, dB)
    pol = example1_policy(params)
    (vals,) = cost_chunk(cost_sum(setup, pol), ctx)
    _, u, x_T, _ = wealth_paths_chunk(setup, ctx, pol)
    want = np.trapezoid(2.0 * u * u, dx=setup.grid.dt, axis=1) - 1.5 * x_T
    assert np.all(np.isfinite(vals))
    assert np.max(np.abs(vals - want)) <= 1e-13 * np.max(np.abs(want))


def clipped_theta(Bt, L):
    return 20.0 * L  # clipped to CLIP = 10 on most rows


class TestSweepCoefficients:
    """The exact quadratic c0 + c1 y + c2 y^2 against the direct per-y
    reference kernel.

    Tolerance, fixed: per path, |closed form - oracle| <= 1e-12 times the
    chunk's largest |oracle cost| at that y (the cost's own scale; costs near
    zero carry the cancellation error of that scale).
    """

    RTOL = 1e-12

    @pytest.mark.parametrize(
        "r, t0, window, theta0, blind",
        [
            (0.0, 0.0, WINDOW, 1.0, False),
            (0.2, 0.0, WINDOW, 1.0, False),
            (0.2, 0.5, (0.5, 0.75), 1.0, False),
            (0.2, 0.0, WINDOW, clipped_theta, False),
            (0.2, 0.0, WINDOW, -0.7, True),
            (0.2, 0.25, (0.25, 1.0), 1.0, False),
        ],
        ids=["r0", "r0.2", "window-at-t0", "callable-theta", "uninformed",
             "window-to-T"],
    )
    def test_matches_direct_kernel(self, r, t0, window, theta0, blind):
        params = ModelParams.benchmark(r=r, t0=t0)
        setup = make_wealth_setup(params, 512)
        spec = PerturbationSpec(window, theta0=theta0)
        ilo_ihi = window_indices(setup.grid, window, params.t0, params.T)
        dB = draw_block(setup, 61, 0, 256)
        pol = example1_policy(params)
        if blind:
            pol = uninformed(pol)
        ctx = chunk_context(setup, dB)
        cost = cost_sum(setup, pol)
        ((c0, c1, c2),) = sweep_coefficients(
            cost, spec, sweep_window(setup, pol, ilo_ihi),
            _curvature(setup, ilo_ihi), ctx)
        assert np.all(np.isfinite([c0, c1, c2]))
        for y in spec.y_grid:
            (want,) = direct_costs(setup, ctx, pol, spec, y, params)
            assert np.all(np.isfinite(want))
            got = c0 + y * (c1 + y * c2)
            if y == 0.0:  # F(0) is the base policy's cost, bit for bit
                assert np.array_equal(got, cost_chunk(cost, ctx)[0])
            scale = np.max(np.abs(want))
            assert np.max(np.abs(got - want)) <= self.RTOL * scale

    def test_derivative_is_central_difference_of_discrete_cost(self):
        # F is quadratic per path, so (F(h) - F(-h)) / 2h is F'(0) exactly
        params = ModelParams.benchmark(r=0.2)
        spec = PerturbationSpec(WINDOW)
        pol = example1_policy(params)
        h = 0.1
        plus = reference_cost_mc(perturbed_policy(pol, spec, h, params),
                                 params, 512, seed=63, n_steps=512)
        minus = reference_cost_mc(perturbed_policy(pol, spec, -h, params),
                                  params, 512, seed=63, n_steps=512)
        deriv = directional_derivative(pol, params, spec, 0.0, 512, seed=63,
                                       n_steps=512)
        fd = (plus.mean - minus.mean) / (2 * h)
        assert abs(deriv.mean - fd) <= 1e-12

    def test_divergent_rows_match_at_every_y(self):
        # the cost overflows on a few rows; theta0 is small enough to keep
        # F'(0)'s moments finite on the others, whose gain is about 5e152
        params = RARE_PARAMS
        pol = RARE_OVERFLOW
        spec = PerturbationSpec(WINDOW, theta0=1e-150)
        setup = make_wealth_setup(params, 512)
        ilo_ihi = window_indices(setup.grid, WINDOW, params.t0, params.T)
        cost = cost_sum(setup, pol)
        window = sweep_window(setup, pol, ilo_ihi)
        curvature = _curvature(setup, ilo_ihi)

        def bad_rows(ctx):
            (coeffs,) = sweep_coefficients(cost, spec, window, curvature, ctx)
            bad = ~np.all(np.isfinite(coeffs), axis=0)
            for y in spec.y_grid:
                (want,) = direct_costs(setup, ctx, pol, spec, y, params)
                assert np.array_equal(bad, ~np.isfinite(want))
            return (bad,)

        ((bad,),) = map_reducers(setup, [bad_rows], 11, 20_000)
        n_bad = int(bad.sum())
        assert 0 < n_bad <= 20
        est = directional_derivative(pol, params, spec, 0.0, 20_000, seed=11,
                                     n_steps=512)
        assert est.n_diverged == n_bad


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


class TestMartingaleDiagnostic:
    def test_optimal_policy_passes_all_cells(self):
        params = ModelParams.benchmark()
        cells = martingale_diagnostic(
            example1_policy(params), params, 20_000, seed=35, n_steps=1024
        )
        assert len(cells) == 16
        assert all(c["pass"] for c in cells)

    @pytest.mark.parametrize("make_policy", [
        lambda params: constant_policy(0.0),
        lambda params: uninformed(example1_policy(params)),
    ], ids=["zero", "uninformed-example1"])
    def test_short_horizon_uninformed_fails(self, make_policy):
        # T1 barely past T makes the drift huge; ignoring it is visible, and
        # the test functions phi(B_t, L) still see L when the policy does not
        params = ModelParams.benchmark(t1=1.05)
        cells = martingale_diagnostic(
            make_policy(params), params, 4_000, seed=37, n_steps=1680
        )
        ratios = [abs(c["mean"]) / c["std_error"] for c in cells]
        assert not all(c["pass"] for c in cells)
        assert max(ratios) > 10.0

    def test_custom_cells(self):
        params = ModelParams.benchmark()
        cells = martingale_diagnostic(
            example1_policy(params), params, 2_000, seed=39, n_steps=256,
            windows=[(0.5, 0.75)],
        )
        assert [c["test_fn"] for c in cells] == ["one", "clip_L", "clip_B",
                                                 "clip_LB"]
        assert all(c["window"] == (0.5, 0.75) for c in cells)
        assert all(c["n"] == 2_000 for c in cells)

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

    def test_the_chunk_prices_each_window_once_per_block(self, monkeypatch):
        # N_u holds no X: a block prices its window sums and nothing else,
        # not the cost, each once however many test functions read it
        params = ModelParams.benchmark()
        policy = example1_policy(params)
        setup = make_wealth_setup(params, 256)
        dB = draw_block(setup, 41, 0, 64)
        ctx = chunk_context(setup, dB)
        windows = [sweep_window(setup, policy, window_indices(
            setup.grid, w, params.t0, params.T)) for w in quarter_windows(1.0)]
        test_fns = default_test_functions()
        priced, rows = [], NodeSum.rows

        def counting(self, ctx):
            priced.append(self)
            return rows(self, ctx)

        monkeypatch.setattr(NodeSum, "rows", counting)
        (prods,) = _martingale_chunk(windows, test_fns, ctx)
        assert [id(s) for s in priced] == [id(w) for w in windows]
        assert prods.shape == (len(windows) * len(test_fns), len(dB))

    @pytest.mark.parametrize("r", [0.0, 0.2])
    def test_each_cell_is_the_perturbation_derivative_of_its_phi(self, r):
        # one first-order condition, one window sum: the cell of phi is
        # F'(0) of the step perturbation with theta0 = phi, bit for bit
        params = ModelParams.benchmark(b=2.0, r=r)
        policy, window = example1_policy(params), (0.25, 0.5)
        cells = martingale_diagnostic(policy, params, 2_048, seed=5,
                                      n_steps=256, windows=[window])
        phis = dict(default_test_functions())
        for cell in cells[:2]:
            spec = PerturbationSpec(window, theta0=phis[cell["test_fn"]])
            est = perturbation_sweep(policy, params, spec, 2_048, seed=5,
                                     n_steps=256)["derivative_at_zero"]
            assert (cell["mean"], cell["std_error"], cell["n"]) == (
                est.mean, est.std_error, est.n_samples)

    def test_default_test_functions_are_bounded(self):
        L = np.array([-1e6, 0.0, 1e6])
        B = np.array([50.0, -50.0, 0.0])
        for _, fn in default_test_functions():
            assert np.max(np.abs(fn(B, L))) <= 10.0


class TestNuPath:
    def make_chunk(self, params, seed, n_steps=512):
        setup = make_wealth_setup(params, n_steps)
        B = sample_brownian(setup.grid, seed)
        block = fold_tail(setup, np.diff(B.values)[None, :])
        ctx, u, _, _ = wealth_paths_chunk(setup, chunk_context(setup, block),
                                          example2_policy(params))
        return setup, B, ctx, u

    def test_starts_at_zero(self):
        setup, B, ctx, u = self.make_chunk(example2_params(), 43)
        assert nu_path(setup, u, ctx)[0] == 0.0

    def test_optimal_nu_is_minus_btilde(self):
        # for dX = u dt + u dB with a = b = 1: N_{u*} = -Btilde node by node
        params = example2_params()
        setup, B, ctx, u = self.make_chunk(params, 45)
        field = InfoDriftField(params.m, B, horizon=params.T)
        btilde = decompose(B, field)
        nu = nu_path(setup, u, ctx)
        assert np.max(np.abs(nu + btilde.values)) < 1e-12

    def test_increments_match_path_differences(self):
        params = example2_params()
        setup, B, ctx, u = self.make_chunk(params, 47)
        ilo, ihi = setup.grid.index_of(0.25), setup.grid.index_of(0.75)
        window = sweep_window(setup, example2_policy(params), (ilo, ihi))
        inc = nu_increments([window, window], ctx)
        nu = nu_path(setup, u, ctx)
        assert inc.shape == (2, 1) and inc[0, 0] == inc[1, 0]
        assert inc[0, 0] == pytest.approx(nu[ihi] - nu[ilo],
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
        Rc = type(R)(coarse, R.values[::4])
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
            ControlPolicy("late", lambda t: np.where(t > 0.5, 1.0, 0.0)),
        ]
        for pol in rivals:
            est = cost_mc(pol, params, 10_000, seed=59, n_steps=1024)
            assert est.mean >= star.mean - 3 * pooled_se(est, star)
