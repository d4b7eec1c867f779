"""Generator algebra, pointwise HJB checks, and the two example solutions."""

import math

import numpy as np
import pytest

from insiderlab.enlargement import InfoDriftField
from insiderlab.hjb import (
    Example1ValueField,
    ModelParams,
    NonConvexError,
    example1_G,
    example1_control,
    example1_policy,
    example1_value,
    example2_control,
    example2_params,
    example2_value,
    generator_Au,
    hjb_pointwise_infimum,
)
from insiderlab.optimality import pooled_se
from insiderlab.paths import constant_weight, make_grid, sample_brownian

LN2 = math.log(2.0)
EX1_TARGET = -LN2 / 4.0          # -0.17328679513998632
EX2_TARGET = -(LN2 + 1.0) / 4.0  # -0.42328679513998634
ONE = constant_weight(1.0)


class TestModelParams:
    def test_benchmark_values(self):
        p = ModelParams.benchmark()
        assert (p.r, p.a, p.b, p.T, p.t1) == (0.0, 1.0, 1.0, 1.0, 2.0)
        assert p.excess_rate == 0.0
        assert p.sigma_inf == p.sigma_sup == 1.0

    def test_rejects_bad_cost_weights(self):
        with pytest.raises(ValueError):
            ModelParams.benchmark(a=0.0)
        with pytest.raises(ValueError):
            ModelParams.benchmark(b=-1.0)

    def test_rejects_degenerate_horizons(self):
        with pytest.raises(ValueError):
            ModelParams.benchmark(t1=1.0)  # T == T1: drift undefined at T
        with pytest.raises(ValueError):
            ModelParams.benchmark(t0=1.0)

    def test_rejects_vanishing_sigma(self):
        with pytest.raises(ValueError):
            ModelParams.benchmark(sigma_fn=lambda s: s - 0.5)

    def test_grid_requires_T_node(self):
        p = ModelParams.benchmark()
        with pytest.raises(ValueError):
            p.grid(3)  # T = 1 is not a node of [0, 2] / 3


def test_generator_zero_inputs():
    assert generator_Au(0.0, 0.0, 0.0, 1.0, 1.0, 1.0) == 0.0


def test_generator_affine_case():
    # Gt = 0, Gx = 1, Gxx = 0 picks out drift plus information term
    r, x, u, sig, alpha = 0.07, 2.0, 3.0, 0.4, 1.5
    got = generator_Au(0.0, 1.0, 0.0, r * x, u * sig, alpha)
    assert got == pytest.approx(r * x + alpha * u * sig, abs=1e-15)


def test_generator_diffusion_term():
    assert generator_Au(0.0, 0.0, 2.0, 0.0, 3.0, 0.0) == 9.0


class TestPointwiseInfimum:
    def test_hand_quadratic(self):
        # curv = 1*3 + 2 = 5, lin = 0.5*2 = 1, const = 1
        p = ModelParams.benchmark()
        u, val = hjb_pointwise_infimum(
            Gt=1.0, Gx=2.0, Gxx=3.0, alpha=0.5, sigma=1.0, params=p, x=0.0, t=0.0
        )
        assert u == pytest.approx(-0.2, abs=1e-15)
        assert val == pytest.approx(0.9, abs=1e-15)

    def test_zero_slope_minimizer(self):
        p = ModelParams.benchmark()
        u, val = hjb_pointwise_infimum(0.0, 0.0, 0.0, 1.0, 1.0, p, 0.0, 0.0)
        assert u == 0.0 and val == 0.0

    def test_nonconvex_raises(self):
        p = ModelParams.benchmark()
        with pytest.raises(NonConvexError):
            hjb_pointwise_infimum(0.0, 1.0, -2.0, 0.5, 1.0, p, 0.0, 0.0)


class TestExample1Control:
    def test_no_information_no_position(self):
        p = ModelParams.benchmark()
        assert example1_control(0.0, 1.0, 0.3, p) == 0.0

    def test_terminal_unit_case(self):
        p = ModelParams.benchmark()
        assert example1_control(1.0, 1.0, 1.0, p) == 0.5

    def test_discounted_case(self):
        p = ModelParams.benchmark(r=0.05, b=2.0, sigma_fn=0.2)
        got = example1_control(2.0, 0.2, 0.0, p)
        assert got == pytest.approx(0.4 * math.exp(0.05), rel=1e-15)


def residual_field(params, seed, n_steps=512):
    B = sample_brownian(make_grid(0.0, params.t1, n_steps), seed)
    field = InfoDriftField(params.m, B, horizon=params.T)
    return field


class TestResidual:
    def test_residual_and_minimizer_at_probes(self):
        params = ModelParams.benchmark(r=0.07, sigma_fn=lambda s: 1.0 + 0.5 * s)
        rng = np.random.default_rng(31)
        for seed in range(8):
            field = residual_field(params, seed)
            vf = Example1ValueField(params, field, rho0=0.3)
            for _ in range(32):
                i = int(rng.integers(0, field.i_last + 1))
                x = float(rng.normal(scale=2.0))
                t = float(field.path.grid.times[i])
                sig = float(params.sigma_fn(t))
                alpha = field.alpha[i]
                u_min, resid = hjb_pointwise_infimum(
                    vf.Gt(i, x), vf.Gx(i), vf.Gxx(i), alpha, sig, params, x, t
                )
                u_star = example1_control(alpha, sig, t, params)
                assert abs(resid) <= 1e-10
                assert abs(u_min - u_star) <= 1e-12 * max(1.0, abs(u_star))

    def test_residual_independent_of_rho0(self):
        # rho0 shifts G, not its derivatives: residual unchanged
        params = ModelParams.benchmark()
        field = residual_field(params, 3)
        for rho0 in (0.0, 5.0):
            vf = Example1ValueField(params, field, rho0=rho0)
            _, resid = hjb_pointwise_infimum(
                vf.Gt(10, 1.0), vf.Gx(10), vf.Gxx(10), field.alpha[10], 1.0,
                params, 1.0, float(field.path.grid.times[10]),
            )
            assert abs(resid) <= 1e-12


class TestExample1G:
    def test_affine_slope_is_discount_factor(self):
        params = ModelParams.benchmark(r=0.1)
        field = residual_field(params, 4)
        t = 0.5
        slope = example1_G(params, t, 2.0, field) - example1_G(params, t, 1.0, field)
        assert slope == pytest.approx(-params.b * math.exp(-params.r * (t - 1.0)),
                                      rel=1e-14)

    def test_zero_field_kills_running_term(self):
        params = ModelParams.benchmark()
        B = sample_brownian(make_grid(0.0, 2.0, 256), 5)
        field = InfoDriftField.zero(B, horizon=1.0)
        assert example1_G(params, 0.5, 3.0, field) == pytest.approx(-3.0, abs=1e-15)

    def test_rho0_is_a_pure_shift(self):
        params = ModelParams.benchmark()
        field = residual_field(params, 6)
        base = example1_G(params, 0.25, 1.0, field)
        assert example1_G(params, 0.25, 1.0, field, rho0=0.7) == pytest.approx(
            base - 0.7, abs=1e-14
        )

    def test_beyond_horizon_rejected(self):
        params = ModelParams.benchmark()
        field = residual_field(params, 7)
        with pytest.raises(ValueError):
            example1_G(params, 1.5, 0.0, field)


class TestValueFieldCalculus:
    def setup_method(self):
        self.params = ModelParams.benchmark(r=0.3)
        self.field = residual_field(self.params, 8)
        self.vf = Example1ValueField(self.params, self.field, rho0=0.1)
        self.dt = self.field.path.grid.dt

    def test_discount_ode(self):
        # f' + r f = 0: centered finite difference vs averaged slope
        p, vf = self.params, self.vf
        f = np.array([vf.f(i) for i in range(self.field.i_last + 1)])
        fd = np.diff(f) / self.dt
        avg = 0.5 * (f[1:] + f[:-1])
        tol = p.b * p.r**3 * math.exp(p.r * p.T) * self.dt**2
        assert np.max(np.abs(fd + p.r * avg)) <= tol

    def test_running_term_trapezoid_identity(self):
        # g is the trapezoid antiderivative of the integrand by construction
        g = self.vf._g
        w = self.vf._integrand
        fd = np.diff(g) / self.dt
        avg = 0.5 * (w[1:] + w[:-1])
        assert np.max(np.abs(fd - avg)) <= 1e-12 * max(1.0, np.max(np.abs(w)))

    def test_G_time_slope_matches_Gt(self):
        # (G_{i+1} - G_i)/dt vs averaged analytic Gt; only the smooth f x part
        # contributes higher-order error
        x = 1.7
        G = np.array([self.vf.G(i, x) for i in range(self.field.i_last + 1)])
        Gt = np.array([self.vf.Gt(i, x) for i in range(self.field.i_last + 1)])
        fd = np.diff(G) / self.dt
        avg = 0.5 * (Gt[1:] + Gt[:-1])
        assert np.max(np.abs(fd - avg)) <= 1e-7

    def test_affine_in_x(self):
        assert self.vf.Gxx(13) == 0.0
        assert self.vf.Gx(13) == self.vf.f(13)


class TestExample1Value:
    def test_benchmark_hits_log2_over_four(self):
        est = example1_value(ModelParams.benchmark(), 0.0, 0.0, 20_000, seed=7)
        assert abs(est.mean - EX1_TARGET) <= 3 * est.std_error

    def test_rho0_estimates_quarter_log2(self):
        # rho0 = -V(0, 0)
        est = example1_value(ModelParams.benchmark(), 0.0, 0.0, 20_000, seed=11)
        assert abs(-est.mean - LN2 / 4.0) <= 3 * est.std_error

    def test_endowment_enters_linearly(self):
        params = ModelParams.benchmark()
        a = example1_value(params, 0.0, 2.0, 512, seed=13)
        b = example1_value(params, 0.0, 0.0, 512, seed=13)
        assert a.mean - b.mean == pytest.approx(-2.0 * params.b, abs=1e-12)

    def test_uninformed_value_is_deterministic(self):
        params = ModelParams.benchmark(r=0.2)
        est = example1_value(params, 0.0, 1.5, 64, seed=17, informed=False)
        assert est.std_error == 0.0
        assert est.mean == pytest.approx(-1.5 * math.exp(0.2), rel=1e-13)

    def test_terminal_centering(self):
        # G(T, X_T) + b X_T = g_T pathwise, so the terminal condition
        # E[G(T, X_T)] = -b E[X_T] reduces to E[g_T] = 0: two independent
        # estimates of the centering constant must agree
        params = ModelParams.benchmark()
        a = example1_value(params, 0.0, 0.0, 40_000, seed=101)
        b = example1_value(params, 0.0, 0.0, 40_000, seed=202)
        assert abs(a.mean - b.mean) <= 3 * pooled_se(a, b)


class TestExample2:
    def test_control_values(self):
        p = example2_params()
        assert example2_control(0.0, p) == 0.5
        assert example2_control(-1.0, p) == 0.0
        assert example2_control(1.0, example2_params(a=2.0, b=3.0)) == 1.5

    def test_params_shape(self):
        p = example2_params(a=2.0)
        assert p.r == 0.0 and p.rtilde == 1.0 and p.excess_rate == 1.0
        assert p.sigma_inf == 1.0

    def test_benchmark_value(self):
        est = example2_value(example2_params(), 0.0, 0.0, 20_000, seed=19)
        assert abs(est.mean - EX2_TARGET) <= 3 * est.std_error

    def test_rho0_target(self):
        # (1/4) E int (alpha+1)^2 = (ln 2 + 1) / 4
        est = example2_value(example2_params(), 0.0, 0.0, 20_000, seed=23)
        assert abs(-est.mean - (LN2 + 1.0) / 4.0) <= 3 * est.std_error

    def test_uninformed_value_closed_form(self):
        # alpha == 0: V(0, x) = -b x - b^2 T / (4a)
        est = example2_value(example2_params(), 0.0, 1.5, 64, seed=29,
                             informed=False)
        assert est.std_error == 0.0
        assert est.mean == pytest.approx(-1.5 - 0.25, abs=1e-13)

    def test_endowment_enters_linearly(self):
        p = example2_params(b=2.0)
        va = example2_value(p, 0.0, 1.0, 512, seed=31)
        vb = example2_value(p, 0.0, 0.0, 512, seed=31)
        assert va.mean - vb.mean == pytest.approx(-2.0, abs=1e-12)


def test_example1_policy_matches_half_alpha_on_benchmark():
    params = ModelParams.benchmark()
    field = residual_field(params, 37)
    pol = example1_policy(params)
    from insiderlab.controlled_sde import ChunkContext

    ctx = ChunkContext(
        times=field.path.grid.times, dt=field.path.grid.dt, i0=0,
        i_last=field.i_last, L=np.array([field.L]),
        alpha=field.alpha[None, :], B=field.path.values[None, : field.i_last + 1],
    )
    u = pol.matrix_rule(ctx)
    assert np.array_equal(u[0], field.alpha / 2.0)
