"""Forward-integral estimates against Ito sums."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from insiderlab.enlargement import (
    InfoDriftField,
    chunk_context,
    drift_matrix,
    drift_setup,
    tail_square_integral,
)
from insiderlab.experiments import _forward_chunk
from insiderlab.forward_integral import (
    Integrand,
    compare_forward_ito,
    forward_estimate,
    ito_left_sum,
)
from insiderlab.hjb import ModelParams
from insiderlab.paths import (
    BrownianPath,
    Sin,
    constant_weight,
    increment_chunk,
    make_grid,
    sample_brownian,
)


def const_integrand(grid, c=1.0, adapted=True):
    return Integrand(grid, np.full(grid.n_nodes, c), adapted=adapted)


def test_zero_integrand_all_eps():
    g = make_grid(0, 1, 64)
    B = sample_brownian(g, 1)
    v = const_integrand(g, 0.0)
    for eps in (g.dt, 4 * g.dt, 16 * g.dt):
        assert forward_estimate(v, B, eps) == 0.0


def test_unit_integrand_at_dt_telescopes():
    g = make_grid(0, 1, 128)
    B = sample_brownian(g, 2)
    est = forward_estimate(const_integrand(g), B, g.dt)
    assert est == pytest.approx(B.values[-1], abs=1e-13)


def test_unit_integrand_coarse_eps_window_bound():
    # forward with eps = k dt equals B_T - mean(B_0..B_{k-1}); the deviation
    # from B_T is bounded by the oscillation over the initial eps-window
    g = make_grid(0, 1, 256)
    B = sample_brownian(g, 3)
    v = const_integrand(g)
    for k in (2, 8, 32):
        dev = abs(forward_estimate(v, B, k * g.dt) - B.values[-1])
        osc = np.max(np.abs(B.values[:k]))
        assert dev <= osc + 1e-12


def test_ito_left_sum_basics():
    g = make_grid(0, 1, 64)
    B = sample_brownian(g, 4)
    assert ito_left_sum(const_integrand(g), B) == pytest.approx(
        B.values[-1], abs=1e-13
    )
    assert ito_left_sum(const_integrand(g, 2.5), B) == pytest.approx(
        2.5 * B.values[-1], abs=1e-12
    )


def test_ito_window_indicator():
    g = make_grid(0, 1, 64)
    B = sample_brownian(g, 5)
    lo, hi = g.index_of(0.25), g.index_of(0.5)
    vals = np.zeros(g.n_nodes)
    vals[lo:hi] = 1.0  # left-point indicator of (0.25, 0.5]
    v = Integrand(g, vals)
    assert ito_left_sum(v, B) == pytest.approx(
        B.values[hi] - B.values[lo], abs=1e-13
    )


def test_adapted_agreement_is_bit_exact():
    # eps = dt reproduces the Ito sum bit for bit, for v = B and v = alpha
    g = make_grid(0, 2, 512)
    B = sample_brownian(g, 6)
    Br = B.restrict(1.0)
    vB = Integrand(Br.grid, Br.values.copy())
    assert forward_estimate(vB, Br, Br.grid.dt) == ito_left_sum(vB, Br)

    f = InfoDriftField(constant_weight(1.0), B, horizon=1.0)
    va = Integrand(Br.grid, f.alpha, adapted=True)
    assert forward_estimate(va, Br, Br.grid.dt) == ito_left_sum(va, Br)


def test_brownian_integrand_ito_formula_oracle():
    # int_0^T B dB = (B_T^2 - T)/2; at n = 2^14 the mean absolute deviation
    # over 1e3 paths stays within the 5*sqrt(dt) discretization band
    g = make_grid(0, 1, 2**14)
    devs = np.empty(1000)
    for s in range(1000):
        B = sample_brownian(g, s)
        v = Integrand(g, B.values.copy())
        target = (B.values[-1] ** 2 - 1.0) / 2.0
        devs[s] = abs(forward_estimate(v, B, g.dt) - target)
    assert devs.mean() < 5.0 * math.sqrt(g.dt)


def test_eps_ladder_median_decreases():
    g = make_grid(0, 1, 2**14)
    ladder = [8 * g.dt, 4 * g.dt, 2 * g.dt, g.dt]
    devs = np.empty((1000, 4))
    for s in range(1000):
        B = sample_brownian(g, 10_000 + s)
        v = Integrand(g, B.values.copy())
        target = (B.values[-1] ** 2 - 1.0) / 2.0
        for j, eps in enumerate(ladder):
            devs[s, j] = abs(forward_estimate(v, B, eps) - target)
    med = np.median(devs, axis=0)
    assert np.all(np.diff(med) < 0.0), f"medians not decreasing: {med}"


def test_path_constant_scaling():
    g = make_grid(0, 1, 256)
    B = sample_brownian(g, 7)
    v = Integrand(g, B.values.copy())
    scaled = Integrand(g, 2.0 * v.values)
    for eps in (g.dt, 4 * g.dt):
        # powers of two scale without rounding, so equality is exact
        assert forward_estimate(scaled, B, eps) == 2.0 * forward_estimate(v, B, eps)
    gen = Integrand(g, 1.7 * v.values)
    assert forward_estimate(gen, B, g.dt) == pytest.approx(
        1.7 * forward_estimate(v, B, g.dt), rel=1e-12
    )


@given(
    a=st.floats(-3, 3, allow_nan=False),
    c=st.floats(-3, 3, allow_nan=False),
    seed=st.integers(0, 500),
)
@settings(max_examples=40, deadline=None)
def test_linearity(a, c, seed):
    g = make_grid(0, 1, 32)
    B = sample_brownian(g, seed)
    rng = np.random.default_rng(seed + 1)
    v = Integrand(g, rng.standard_normal(g.n_nodes))
    w = Integrand(g, rng.standard_normal(g.n_nodes))
    combo = Integrand(g, a * v.values + c * w.values)
    lhs = forward_estimate(combo, B, 2 * g.dt)
    rhs = a * forward_estimate(v, B, 2 * g.dt) + c * forward_estimate(w, B, 2 * g.dt)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


def test_compare_table_and_errors():
    g = make_grid(0, 1, 64)
    B = sample_brownian(g, 8)
    v = Integrand(g, B.values.copy())
    table = compare_forward_ito(v, B, [4 * g.dt, 2 * g.dt, g.dt])
    assert len(table) == 3
    assert table[-1][1] == 0.0  # eps = dt coincides with the Ito sum
    with pytest.raises(ValueError):
        compare_forward_ito(v, B, [])


def test_eps_validation():
    g = make_grid(0, 1, 64)
    B = sample_brownian(g, 9)
    v = const_integrand(g)
    with pytest.raises(ValueError):
        forward_estimate(v, B, 1.5 * g.dt)
    with pytest.raises(ValueError):
        forward_estimate(v, B, 1.0)  # eps must stay below the horizon
    with pytest.raises(ValueError):
        forward_estimate(v, B, 0.0)


def test_grid_mismatch_rejected():
    v = const_integrand(make_grid(0, 1, 64))
    B = sample_brownian(make_grid(0, 1, 128), 0)
    with pytest.raises(ValueError):
        ito_left_sum(v, B)


# ---------------------------------------------------------------------------
# Batched estimators: one call on (rows, n_nodes) equals the per-row calls
# ---------------------------------------------------------------------------

def _sin_chunk(rows=7, n_steps=128, seed=12):
    """A chunk of increments at t0 = 0.5 under a Sin weight, its grid and
    the weight's node values and tail integrals."""
    params = ModelParams.benchmark(t0=0.5, m=Sin(1.0, 0.5, 3.0))
    grid = params.grid(n_steps)
    m_nodes = params.m.nodes(grid.times)
    q = tail_square_integral(m_nodes, grid.dt)
    return params, grid, m_nodes, q, increment_chunk(grid, seed, 0, rows)


def _forward_chunk_rows(grid, T, m_nodes, q, ladder, dB):
    """The per-row loop that ``_forward_chunk`` replaced, kept as its oracle."""
    dt = grid.dt
    i_last = grid.index_of(T)
    alpha, _ = drift_matrix(dB, m_nodes, q, i_last)
    devs = np.empty((dB.shape[0], len(ladder)))
    exact = {"one": True, "brownian": True, "drift": True}
    for i in range(dB.shape[0]):
        values = np.concatenate([[0.0], np.cumsum(dB[i])])
        B = BrownianPath(grid, values).restrict(T)
        target = 0.5 * (B.values[-1] ** 2 - T)
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


def test_batched_estimates_equal_per_row_calls_bit_for_bit():
    params, grid, m_nodes, q, dB = _sin_chunk()
    full = np.zeros((dB.shape[0], grid.n_nodes))
    np.cumsum(dB, axis=1, out=full[:, 1:])
    B = BrownianPath(grid, full).restrict(params.T)
    n = B.grid.n_steps
    alpha, _ = drift_matrix(dB, m_nodes, q, n)
    integrands = {
        "one": Integrand(B.grid, np.ones(n + 1)),  # broadcast against B
        "brownian": Integrand(B.grid, B.values),
        "drift": Integrand(B.grid, alpha, adapted=False),
    }
    for label, v in integrands.items():
        ito = ito_left_sum(v, B)
        assert isinstance(ito, np.ndarray) and ito.shape == (dB.shape[0],)
        for k in (1, 2, n - 1):
            fwd = forward_estimate(v, B, k * B.grid.dt)
            assert isinstance(fwd, np.ndarray) and fwd.shape == (dB.shape[0],)
            for i in range(dB.shape[0]):
                Bi = BrownianPath(B.grid, B.values[i])
                vi = Integrand(B.grid, v.values[i] if v.values.ndim == 2
                               else v.values)
                one_path = forward_estimate(vi, Bi, k * B.grid.dt)
                assert type(one_path) is float
                assert fwd[i] == one_path, (label, k, i)
                left = ito_left_sum(vi, Bi)
                assert type(left) is float
                assert ito[i] == left, (label, i)


def test_batched_shapes_are_validated():
    g = make_grid(0, 1, 16)
    for bad in (np.zeros((2, 3, g.n_nodes)), np.zeros((4, g.n_nodes + 1)),
                np.zeros(g.n_nodes - 1)):
        with pytest.raises(ValueError):
            Integrand(g, bad)
        with pytest.raises(ValueError):
            BrownianPath(g, bad)


@pytest.mark.parametrize("ladder", [[8, 4, 2, 1], [63, 2, 1]])
def test_forward_chunk_matches_the_per_row_loop(ladder):
    params, grid, m_nodes, q, dB = _sin_chunk(rows=9)
    ctx = chunk_context(drift_setup(params.m, grid, params.T), dB)
    devs, exact = _forward_chunk(grid, params.T, ladder, dB, ctx)
    want_devs, want_exact = _forward_chunk_rows(grid, params.T, m_nodes, q,
                                                ladder, dB)
    assert devs.shape == (len(ladder), dB.shape[0])
    assert np.array_equal(devs, want_devs.T)
    assert exact.shape == (3, dB.shape[0]) and exact.dtype == bool
    assert exact.all()
    assert want_exact == {"one": True, "brownian": True, "drift": True}
