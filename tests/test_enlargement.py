"""Information drift, decomposition, and their analytic oracles."""

import math

import numpy as np
import pytest

from insiderlab.enlargement import (
    InfoDriftField,
    decompose,
    decomposition_stats,
    drift_matrix,
    drift_second_moment,
    expected_squared_drift_integral,
    information_drift,
    tail_square_integral,
)
from insiderlab.paths import (
    BrownianPath,
    as_weight,
    constant_weight,
    eval_L,
    make_grid,
    map_chunks,
    sample_brownian,
)

ONE = constant_weight(1.0)


def bench_path(seed=0, n_steps=512):
    return sample_brownian(make_grid(0, 2, n_steps), seed)


class TestInformationDrift:
    def test_alpha_zero_at_origin_equals_L_over_t1(self):
        # m == 1: alpha_0 = (L - 0)/(T1 - 0) = B_{T1}/T1
        p = bench_path(3)
        f = InfoDriftField(ONE, p, horizon=1.0)
        assert information_drift(f, 0) == pytest.approx(p.values[-1] / 2.0, rel=1e-12)

    def test_zero_path_zero_L_gives_zero_drift(self):
        g = make_grid(0, 2, 64)
        p = BrownianPath(g, np.zeros(65), seed=None)
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
        mv = ONE.nodes(g.times)
        q = tail_square_integral(mv, g.dt)
        acc = map_chunks(
            lambda dB: drift_matrix(dB, mv, q, g.index_of(1.0))[0][:, i] ** 2,
            g, 21, 100_000,
        )
        samples = np.concatenate(acc)
        assert abs(samples.mean() - 1 / 1.5) / (1 / 1.5) < 0.05

    def test_rejects_horizon_at_t1(self):
        p = bench_path(0)
        with pytest.raises(ValueError):
            InfoDriftField(ONE, p, horizon=2.0)

    def test_rejects_nodes_past_horizon(self):
        p = bench_path(0)
        f = InfoDriftField(ONE, p, horizon=1.0)
        with pytest.raises(ValueError):
            information_drift(f, f.i_last + 1)

    def test_adaptedness(self):
        # tampering with the path after node i must not move alpha_i when L
        # is held fixed
        p = bench_path(5)
        f = InfoDriftField(ONE, p, horizon=1.0)
        i = 100
        tampered_values = p.values.copy()
        tampered_values[i + 1 :] += 3.0
        tampered = BrownianPath(p.grid, tampered_values, seed=None)
        f2 = InfoDriftField(ONE, tampered, horizon=1.0, L=f.L)
        assert np.array_equal(f.alpha[: i + 1], f2.alpha[: i + 1])

    def test_drift_finite_on_sampled_paths(self):
        for seed in range(20):
            f = InfoDriftField(ONE, bench_path(seed), horizon=1.0)
            assert np.all(np.isfinite(f.alpha))


class TestDecompose:
    def test_zero_drift_leaves_path_unchanged(self):
        p = bench_path(9)
        f = InfoDriftField.zero(p, horizon=1.0)
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


class TestMomentOracles:
    def test_second_moment_constant_weight(self):
        assert drift_second_moment(ONE, 0.0, 2.0) == pytest.approx(0.5, rel=1e-10)
        assert drift_second_moment(ONE, 1.0, 2.0) == pytest.approx(1.0, rel=1e-10)

    def test_second_moment_affine_weight(self):
        # m(s) = s+1: m(0)^2 / int_0^2 (u+1)^2 du = 1/(26/3) = 3/26
        m = as_weight(lambda s: s + 1.0)
        assert drift_second_moment(m, 0.0, 2.0) == pytest.approx(3.0 / 26.0, rel=1e-9)

    def test_second_moment_rejects_s_at_t1(self):
        with pytest.raises(ValueError):
            drift_second_moment(ONE, 2.0, 2.0)

    def test_integrated_second_moment_is_log2(self):
        # int_0^1 ds/(2-s) = log 2
        val = expected_squared_drift_integral(ONE, 1.0, 2.0)
        assert val == pytest.approx(math.log(2.0), rel=1e-9)

    def test_monte_carlo_drift_energy_matches_log2(self):
        # trapezoid of alpha^2 along 2e4 paths vs the quadrature value
        g = make_grid(0, 2, 512)
        iT = g.index_of(1.0)
        mv = ONE.nodes(g.times)
        q = tail_square_integral(mv, g.dt)
        def energy(dB):
            alpha, _ = drift_matrix(dB, mv, q, iT)
            return np.trapezoid(alpha * alpha, dx=g.dt, axis=1)

        vals = np.concatenate(map_chunks(energy, g, 29, 20_000))
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - math.log(2.0)) < 3 * se


def test_tail_square_integral_constant():
    g = make_grid(0, 2, 128)
    q = tail_square_integral(ONE.nodes(g.times), g.dt)
    assert q[0] == pytest.approx(2.0, abs=1e-12)
    assert q[-1] == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(q, 2.0 - g.times, atol=1e-12)
