"""Information drift, decomposition, and their analytic oracles."""

import math

import numpy as np
import pytest

from insiderlab.controlled_sde import make_wealth_setup
from insiderlab.enlargement import (
    InfoDriftField,
    chunk_context,
    decompose,
    decomposition_stats,
    drift_matrix,
    drift_second_moment,
    drift_setup,
    drift_square_mean,
    map_reducers,
    tail_square_integral,
)
from insiderlab.hjb import ModelParams
from insiderlab.paths import (
    Affine,
    BrownianPath,
    Sin,
    as_weight,
    constant_weight,
    increment_chunk,
    make_grid,
    sample_brownian,
)
from oracles import eval_L, expected_squared_drift_integral

ONE = constant_weight(1.0)


def bench_path(seed=0, n_steps=512):
    return sample_brownian(make_grid(0, 2, n_steps), seed)


class TestInformationDrift:
    def test_alpha_zero_at_origin_equals_L_over_t1(self):
        # m == 1: alpha_0 = (L - 0)/(T1 - 0) = B_{T1}/T1
        p = bench_path(3)
        f = InfoDriftField(ONE, p, horizon=1.0)
        assert f.alpha[0] == pytest.approx(p.values[-1] / 2.0, rel=1e-12)

    def test_zero_path_zero_L_gives_zero_drift(self):
        g = make_grid(0, 2, 64)
        p = BrownianPath(g, np.zeros(65))
        f = InfoDriftField(ONE, p, horizon=1.0)
        assert np.all(f.alpha == 0.0)

    def test_constant_weight_closed_form(self):
        # with m == 1: alpha_i = (L - B_i)/(T1 - t_i)
        p = bench_path(11)
        f = InfoDriftField(ONE, p, horizon=1.0)
        L = eval_L(ONE, p)
        i = p.grid.index_of(0.5)
        expect = (L - p.values[i]) / (2.0 - 0.5)
        assert f.alpha[i] == pytest.approx(expect, rel=1e-9)

    def test_second_moment_at_half(self):
        # E[alpha_{0.5}^2] = 1/(2 - 0.5); sample over 1e5 chunked paths
        g = make_grid(0, 2, 64)
        i = g.index_of(0.5)
        ((samples,),) = map_reducers(
            drift_setup(ONE, g, 1.0),
            [lambda dB, ctx: (ctx.alpha[:, i] ** 2,)], 21, 100_000)
        assert abs(samples.mean() - 1 / 1.5) / (1 / 1.5) < 0.05

    def test_rejects_horizon_at_t1(self):
        p = bench_path(0)
        with pytest.raises(ValueError):
            InfoDriftField(ONE, p, horizon=2.0)

    def test_adaptedness(self):
        # tampering with the path after node i must not move alpha_i when L
        # is held fixed
        p = bench_path(5)
        f = InfoDriftField(ONE, p, horizon=1.0)
        i = 100
        tampered_values = p.values.copy()
        tampered_values[i + 1 :] += 3.0
        tampered = BrownianPath(p.grid, tampered_values)
        f2 = InfoDriftField(ONE, tampered, horizon=1.0, L=f.L)
        assert np.array_equal(f.alpha[: i + 1], f2.alpha[: i + 1])

    def test_drift_finite_on_sampled_paths(self):
        for seed in range(20):
            f = InfoDriftField(ONE, bench_path(seed), horizon=1.0)
            assert np.all(np.isfinite(f.alpha))


class TestDecompose:
    def test_zero_drift_leaves_path_unchanged(self):
        # a weight that vanishes on [0, T] says nothing about B up to T
        p = bench_path(9)
        blind = as_weight(lambda s: np.where(s > 1.0, 1.0, 0.0))
        f = InfoDriftField(blind, p, horizon=1.0)
        assert not f.alpha.any()
        bt = decompose(p, f)
        assert np.array_equal(bt.values, p.values[: f.i_last + 1])

    def test_reconstruction_to_machine_precision(self):
        p = bench_path(13)
        f = InfoDriftField(ONE, p, horizon=1.0)
        bt = decompose(p, f)
        dt = p.grid.dt
        drift_cum = np.concatenate([[0.0], np.cumsum(f.alpha[:-1] * dt)])
        recon = bt.values + drift_cum
        assert np.max(np.abs(recon - p.values[: f.i_last + 1])) < 1e-12

    def test_grid_mismatch_rejected(self):
        p = bench_path(1)
        f = InfoDriftField(ONE, p, horizon=1.0)
        with pytest.raises(ValueError):
            decompose(bench_path(2), f)

    def test_btilde_statistics(self):
        # Var(Btilde_1) near 1 and decorrelation from L: the core evidence
        # that the drift formula is the right one
        g = make_grid(0, 2, 256)
        stats = decomposition_stats(ONE, 1.0, g, 100_000, seed=17)
        assert abs(stats["var_terminal"] - 1.0) < 0.05
        assert abs(stats["corr_with_L"]) <= 3 * stats["corr_se"]
        assert stats["max_reconstruction_error"] < 1e-12
        assert abs(stats["var_L"] - 2.0) / 2.0 < 0.05

    def test_stats_reject_a_weight_with_vanishing_tail(self):
        # m == 0 used to run to NaN statistics
        with pytest.raises(ValueError):
            decomposition_stats(0.0, 1.0, make_grid(0, 2, 64), 100, seed=1)


def _sin_square_integral(m, s, t1):
    """int_s^{T1} (b + a sin(f u))^2 du in closed form."""
    b, a, f = m.base, m.amplitude, m.frequency

    def antiderivative(u):
        return (b * b * u - 2 * a * b * math.cos(f * u) / f
                + a * a * (u / 2 - math.sin(2 * f * u) / (4 * f)))

    return antiderivative(t1) - antiderivative(s)


class TestMomentOracles:
    def test_second_moment_constant_weight(self):
        assert drift_second_moment(ONE, 0.0, 2.0) == pytest.approx(0.5, rel=1e-10)
        assert drift_second_moment(ONE, 1.0, 2.0) == pytest.approx(1.0, rel=1e-10)

    def test_second_moment_affine_weight(self):
        # m(s) = s+1: m(0)^2 / int_0^2 (u+1)^2 du = 1/(26/3) = 3/26
        m = as_weight(lambda s: s + 1.0)
        assert drift_second_moment(m, 0.0, 2.0) == pytest.approx(3.0 / 26.0, rel=1e-9)

    @pytest.mark.parametrize("t1", [1.05, 2.0, 5.0])
    @pytest.mark.parametrize("frequency", [1.0, 10.0, 40.0])
    @pytest.mark.parametrize("at_half", [False, True], ids=["s-0", "s-half"])
    def test_second_moment_sin_weight(self, t1, frequency, at_half):
        s = t1 / 2 if at_half else 0.0
        m = Sin(1.0, 0.5, frequency)
        assert drift_second_moment(m, s, t1) == pytest.approx(
            m(s) ** 2 / _sin_square_integral(m, s, t1), rel=1e-12)

    def test_second_moment_sin_weight_at_high_frequency(self):
        # quad missed this by 4e-3, with an IntegrationWarning
        m = Sin(1.0, 0.5, 200.0)
        assert drift_second_moment(m, 0.0, 5.0) == pytest.approx(
            m(0.0) ** 2 / _sin_square_integral(m, 0.0, 5.0), rel=1e-8)

    @pytest.mark.parametrize("t1", [1.05, 2.0, 5.0])
    def test_second_moment_affine_weight_closed_form(self, t1):
        # int_s^{T1} (a + b u)^2 du = ((a + b T1)^3 - (a + b s)^3) / (3 b)
        m = Affine(0.5, -1.5)
        s = t1 / 2
        denom = (m(t1) ** 3 - m(s) ** 3) / (3 * m.slope)
        assert drift_second_moment(m, s, t1) == pytest.approx(
            m(s) ** 2 / denom, rel=1e-12)

    def test_second_moment_rejects_s_at_t1(self):
        with pytest.raises(ValueError):
            drift_second_moment(ONE, 2.0, 2.0)

    def test_integrated_second_moment_is_log2(self):
        # int_0^1 ds/(2-s) = log 2
        val = expected_squared_drift_integral(ONE, 1.0, 2.0)
        assert val == pytest.approx(math.log(2.0), rel=1e-9)

    def test_monte_carlo_drift_energy_matches_log2(self):
        # trapezoid of alpha^2 along 2e4 paths vs the quadrature oracle
        g = make_grid(0, 2, 512)

        def energy(dB, ctx):
            return (np.trapezoid(ctx.alpha * ctx.alpha, dx=g.dt, axis=1),)

        ((vals,),) = map_reducers(drift_setup(ONE, g, 1.0), [energy], 29,
                                  20_000)
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        target = expected_squared_drift_integral(ONE, 1.0, 2.0)
        assert target == pytest.approx(math.log(2.0), rel=1e-9)
        assert abs(vals.mean() - target) < 3 * se


def test_tail_square_integral_constant():
    g = make_grid(0, 2, 128)
    q = tail_square_integral(ONE.nodes(g.times), g.dt)
    assert q[0] == pytest.approx(2.0, abs=1e-12)
    assert q[-1] == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(q, 2.0 - g.times, atol=1e-12)


def _alpha_squared(dB, ctx):
    return ((ctx.alpha * ctx.alpha).T,)


@pytest.mark.parametrize("m", [Sin(1.0, 0.5, 1.0), Affine(1.0, 1.0)],
                         ids=["sin", "affine"])
def test_drift_square_mean_matches_the_simulated_drift_at_every_node(m):
    # the exact grid moment against per-node Monte Carlo of the drift the
    # engine draws; r and t0 do not enter alpha, and must not matter
    params = ModelParams.benchmark(r=0.2, t0=0.25, sigma_fn=Affine(1.0, 0.5),
                                   m=m)
    setup = make_wealth_setup(params, 32)
    ((sq,),) = map_reducers(setup, [_alpha_squared], 41, 100_000)
    exact = drift_square_mean(setup)
    assert exact.shape == (setup.i_last + 1,)
    se = sq.std(axis=1, ddof=1) / math.sqrt(sq.shape[1])
    assert np.all(np.abs(sq.mean(axis=1) - exact) <= 4 * se)


# The collapsed draw: [0, T) plus one carrier increment per path
# ---------------------------------------------------------------------------

def _L_and_B_T(dB, ctx):
    return ctx.L, ctx.B[:, -1].copy()  # B is the block's workspace


class TestCollapsedDraw:
    """L drawn on ``draw_grid`` against the laws of the full-grid sum
    sum_j m_j dB_j, under a Sin weight on a coarse grid, each estimate
    within 3 SE.  A wrong carrier factor (tail = 1, say) moves Var(L) and
    Corr(L, B_T) by many SE."""

    M = Sin(1.0, 0.5, 3.0)
    N = 200_000

    def samples(self):
        setup = drift_setup(self.M, make_grid(0, 2, 32), 1.0)
        ((L, B_T),) = map_reducers(setup, [_L_and_B_T], 43, self.N)
        return setup, L, B_T

    def test_draw_grid_ends_one_step_after_T(self):
        setup = drift_setup(self.M, make_grid(0, 2, 32), 1.0)
        assert setup.draw_grid == make_grid(0, 2, 32).prefix(17)
        assert setup.tail ** 2 == pytest.approx(
            np.sum(setup.m_nodes[16:-1] ** 2), rel=1e-15)

    def test_variance_of_L_is_the_grid_sum(self):
        setup, L, _ = self.samples()
        dt = setup.grid.dt
        target = float(np.sum(setup.m_nodes[:-1] ** 2) * dt)
        sq = L * L
        assert abs(sq.mean() - target) <= 3 * sq.std(ddof=1) / math.sqrt(self.N)

    def test_covariance_of_L_and_B_T_is_the_grid_sum(self):
        setup, L, B_T = self.samples()
        dt, i_last = setup.grid.dt, setup.i_last
        target = float(np.sum(setup.m_nodes[:i_last]) * dt)
        prod = L * B_T
        assert abs(prod.mean() - target) <= (
            3 * prod.std(ddof=1) / math.sqrt(self.N))
        # the covariance alone does not see the carrier; the correlation does
        rho = target / math.sqrt(np.sum(setup.m_nodes[:-1] ** 2) * dt
                                 * i_last * dt)
        corr = np.corrcoef(L, B_T)[0, 1]
        assert abs(corr - rho) <= 3 * (1 - rho * rho) / math.sqrt(self.N)


def test_a_block_of_another_width_is_rejected():
    # a full-width block would have its column i_last read as the carrier
    setup = drift_setup(Sin(1.0, 0.5, 3.0), make_grid(0, 2, 32), 1.0)
    full = increment_chunk(setup.grid, 3, 0, 4)
    with pytest.raises(ValueError, match="32 increments.*17"):
        chunk_context(setup, full)
    chunk_context(setup, increment_chunk(setup.draw_grid, 3, 0, 4))


@pytest.mark.parametrize("m, unit", [(ONE, True), (Affine(1.0, 0.0), True),
                                     (Sin(1.0, 0.5, 3.0), False)],
                         ids=["one", "flat-affine", "sin"])
def test_the_context_reuses_B_exactly_when_m_is_one(m, unit):
    setup = drift_setup(m, make_grid(0, 2, 64), 1.0)
    assert setup.unit_weight == unit
    dB = increment_chunk(setup.draw_grid, 5, 0, 9)
    ctx = chunk_context(setup, dB)
    # the general path: the running sum of m dB formed from the increments
    alpha, L = drift_matrix(dB, setup)
    assert ctx.alpha.tobytes() == alpha.tobytes()
    assert ctx.L.tobytes() == L.tobytes()
