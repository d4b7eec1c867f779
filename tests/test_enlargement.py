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
    running_sum,
    sample_brownian,
)
from oracles import (
    draw_block,
    eval_L,
    expected_squared_drift_integral,
    fold_tail,
)

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
            [lambda ctx: (ctx.alpha()[:, i] ** 2,)], 21, 100_000)
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

        def energy(ctx):
            alpha = ctx.alpha()
            return (np.trapezoid(alpha * alpha, dx=g.dt, axis=1),)

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


def _alpha_squared(ctx):
    alpha = ctx.alpha()
    return ((alpha * alpha).T,)


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
    exact = exact[setup.i0 :]  # the context's nodes
    se = sq.std(axis=1, ddof=1) / math.sqrt(sq.shape[1])
    assert np.all(np.abs(sq.mean(axis=1) - exact) <= 4 * se)


# The collapsed draw: [0, T) plus one carrier increment per path
# ---------------------------------------------------------------------------

def _L_and_B_T(ctx):
    return ctx.L, ctx.B_at(ctx.i_last)


class TestCollapsedDraw:
    """L drawn with the tail carrier against the laws of the full-grid sum
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
        assert (setup.heads, setup.draw_width) == (0, 17)
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
    with pytest.raises(ValueError, match="32 normals.*17"):
        chunk_context(setup, full)
    chunk_context(setup, draw_block(setup, 3, 0, 4))


@pytest.mark.parametrize("m, unit", [(ONE, True), (Affine(1.0, 0.0), True),
                                     (Sin(1.0, 0.5, 3.0), False)],
                         ids=["one", "flat-affine", "sin"])
def test_the_context_reuses_B_exactly_when_m_is_one(m, unit):
    setup = drift_setup(m, make_grid(0, 2, 64), 1.0)
    assert setup.unit_weight == unit
    dB = draw_block(setup, 5, 0, 9)
    ctx = chunk_context(setup, dB)
    # the general path: the running sum of m dB formed from the increments
    D, L = drift_matrix(dB, setup)
    assert ctx.D.tobytes() == D.tobytes()
    assert ctx.L.tobytes() == (L * math.sqrt(setup.grid.dt)).tobytes()


# The head carrier: B_{t0} and int_0^{t0} m dB from one or two normals
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m, heads", [(ONE, 1), (Sin(1.0, 0.5, 3.0), 2),
                                      (2.0, 2)], ids=["one", "sin", "two"])
def test_the_head_factor_has_the_covariance_of_the_grid_sums(m, heads):
    grid = make_grid(0, 2, 64)
    setup = drift_setup(m, grid, 1.0, t0=0.5)
    assert (setup.heads, setup.draw_width) == (heads, heads + 17)
    dt, head = grid.dt, setup.m_nodes[: setup.i0]
    S_B, S_m, S_mm = setup.i0 * dt, head.sum() * dt, (head * head).sum() * dt
    cov = setup.head @ setup.head.T * dt
    np.testing.assert_allclose(cov, [[S_B, S_m], [S_m, S_mm]], rtol=1e-13)
    if heads == 2:
        # R_{t0} = 2 B_{t0} under m == 2: the second pivot is 0, not NaN
        assert np.isfinite(setup.head).all()
        assert (setup.head[1, 1] == 0.0) == (m == 2.0)
    assert drift_setup(m, grid, 1.0).heads == 0


def _B0_and_L(ctx):
    return ctx.B0, ctx.L


class TestHeadLaw:
    """The head carrier's B_{t0} and L read through the engine under a Sin
    weight at t0 = 0.25, against the exact moments of the grid sums, each
    within 3 SE."""

    M = Sin(1.0, 0.5, 3.0)
    N = 200_000

    def samples(self):
        setup = drift_setup(self.M, make_grid(0, 2, 32), 1.0, t0=0.25)
        assert setup.heads == 2
        ((B0, L),) = map_reducers(setup, [_B0_and_L], 47, self.N)
        return setup, B0, L

    def _within_3se(self, values, target):
        se = values.std(ddof=1) / math.sqrt(self.N)
        assert abs(values.mean() - target) <= 3 * se

    def test_moments_of_B_t0_and_L(self):
        setup, B0, L = self.samples()
        dt, m = setup.grid.dt, setup.m_nodes
        self._within_3se(B0 * B0, setup.i0 * dt)
        self._within_3se(B0 * L, float(np.sum(m[: setup.i0])) * dt)
        self._within_3se(L * L, float(np.sum(m[:-1] ** 2)) * dt)


def test_the_context_of_a_folded_path_reads_its_B_L_and_alpha():
    # a full-grid path folded into a block with a two-normal head: the
    # context gives back the path's B, L and the single-path drift
    m = Sin(1.0, 0.5, 3.0)
    grid = make_grid(0, 2, 64)
    setup = drift_setup(m, grid, 1.0, t0=0.25)
    dB = increment_chunk(grid, 7, 0, 5)
    ctx = chunk_context(setup, fold_tail(setup, dB))
    B = running_sum(dB)
    for k in (setup.i0, setup.i0 + 5, setup.i_last):
        np.testing.assert_allclose(ctx.B_at(k), B[:, k], rtol=0, atol=1e-14)
    L = (setup.m_nodes[:-1] * dB).sum(axis=1)
    np.testing.assert_allclose(ctx.L, L, rtol=0, atol=1e-14)
    for row in range(len(dB)):
        field = InfoDriftField(m, BrownianPath(grid, B[row]), 1.0,
                               L=float(ctx.L[row]))
        np.testing.assert_allclose(ctx.alpha()[row], field.alpha[setup.i0 :],
                                   rtol=1e-13, atol=1e-14)
