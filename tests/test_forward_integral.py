"""Forward-integral estimates against Ito sums."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from insiderlab.enlargement import (
    InfoDriftField,
    chunk_context,
    drift_matrix,
    drift_setup,
)
from insiderlab.experiments import _forward_chunk
from insiderlab.forward_integral import (
    Integrand,
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
from oracles import draw_block, fold_tail


def const_integrand(grid, c=1.0):
    return Integrand(grid, np.full(grid.n_nodes, c))


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
    va = Integrand(Br.grid, f.alpha)
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
    """A chunk of full-grid increments at t0 = 0.5 under a Sin weight, and
    the drift's node data."""
    params = ModelParams.benchmark(t0=0.5, m=Sin(1.0, 0.5, 3.0))
    setup = drift_setup(params.m, params.grid(n_steps), params.T)
    return params, setup, increment_chunk(setup.grid, seed, 0, rows)


def _full_path_drift(setup, dB):
    """alpha of every row's path, with L summed over all of [0, T1]."""
    D, _ = drift_matrix(dB, setup, (setup.m_nodes[:-1] * dB).sum(axis=1))
    return D * setup.drift_scale / math.sqrt(setup.grid.dt)


def _forward_chunk_rows(setup, T, ladder, block):
    """The per-row loop that ``_forward_chunk`` replaced, kept as its
    oracle, on a block of normals from t0 = 0: B and the drift integrand
    in the block's units, the estimate scaled back by dt."""
    grid = setup.grid
    dt = grid.dt
    i_last = grid.index_of(T)
    D, _ = drift_matrix(block, setup)
    devs = np.empty((block.shape[0], len(ladder)))
    exact = {"one": True, "brownian": True, "drift": True}
    for i in range(block.shape[0]):
        values = np.concatenate([[0.0], np.cumsum(block[i, :i_last])])
        B = BrownianPath(grid.prefix(i_last), values)
        target = 0.5 * (dt * B.values[-1] ** 2 - T)
        vB = Integrand(B.grid, B.values)
        for j, k in enumerate(ladder):
            devs[i, j] = abs(dt * forward_estimate(vB, B, eps=k * dt) - target)
        for label, vals in (
            ("one", np.ones(i_last + 1)),
            ("brownian", B.values),
            ("drift", D[i]),
        ):
            v = Integrand(B.grid, vals)
            if forward_estimate(v, B, eps=dt) != ito_left_sum(v, B):
                exact[label] = False
    return devs, exact


def test_batched_estimates_equal_per_row_calls_bit_for_bit():
    params, setup, dB = _sin_chunk()
    grid = setup.grid
    full = np.zeros((dB.shape[0], grid.n_nodes))
    np.cumsum(dB, axis=1, out=full[:, 1:])
    B = BrownianPath(grid, full).restrict(params.T)
    n = B.grid.n_steps
    alpha = _full_path_drift(setup, dB)
    integrands = {
        "one": Integrand(B.grid, np.ones(n + 1)),  # broadcast against B
        "brownian": Integrand(B.grid, B.values),
        "drift": Integrand(B.grid, alpha),
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


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_an_integrand_that_is_not_finite_is_rejected(bad):
    # _forward_chunk skips this check on the engine's B and alpha only
    g = make_grid(0, 1, 16)
    for values in (np.ones(g.n_nodes), np.ones((3, g.n_nodes))):
        values[..., 5] = bad
        with pytest.raises(ValueError, match="finite"):
            Integrand(g, values)


@pytest.mark.parametrize("ladder", [[8, 4, 2, 1], [63, 2, 1]])
def test_forward_chunk_matches_the_per_row_loop(ladder):
    params, setup, dB = _sin_chunk(rows=9)
    block = fold_tail(setup, dB)
    devs, exact = _forward_chunk(setup.grid, params.T, ladder,
                                 chunk_context(setup, block))
    want_devs, want_exact = _forward_chunk_rows(setup, params.T, ladder, block)
    assert devs.shape == (len(ladder), dB.shape[0])
    assert np.array_equal(devs, want_devs.T)
    assert exact.shape == (3, dB.shape[0]) and exact.dtype == bool
    assert exact.all()
    assert want_exact == {"one": True, "brownian": True, "drift": True}


# ---------------------------------------------------------------------------
# The row contraction: one pass per increment matrix, row-wise bit for bit
# ---------------------------------------------------------------------------

def _offset_block(n_steps, start, rows, seed):
    """Paths and a drift-like integrand as views that start at an odd row
    and an odd column of larger arrays, so no row is aligned like a fresh
    one-path array."""
    g = make_grid(0, 1, n_steps)
    rng = np.random.default_rng(seed)
    total = start + rows + 2
    paths = np.zeros((total, n_steps + 2))
    np.cumsum(rng.standard_normal((total, n_steps)) * math.sqrt(g.dt),
              axis=1, out=paths[:, 2:])
    other = rng.standard_normal((total, n_steps + 2))
    B = BrownianPath(g, paths[start:start + rows, 1:])
    integrands = (
        Integrand(g, np.ones(n_steps + 1)),  # broadcast against the block
        Integrand(g, B.values),
        Integrand(g, other[start:start + rows, 1:]),
    )
    return g, B, integrands


# lengths 127, 130 and 8195 are not multiples of 4; 8195 is also longer than
# the rows that einsum contracts in one pass
@pytest.mark.parametrize("n_steps, start, rows",
                         [(127, 3, 5), (130, 1, 9), (8195, 1, 3)])
def test_offset_blocks_equal_one_path_calls_bit_for_bit(n_steps, start, rows):
    g, B, integrands = _offset_block(n_steps, start, rows, seed=n_steps)
    for k in (1, 2, 5):
        batch = [forward_estimate(v, B, k * g.dt) for v in integrands]
        for v, got in zip(integrands, batch):
            assert isinstance(got, np.ndarray) and got.shape == (rows,)
            for i in range(rows):
                vi = v.values if v.values.ndim == 1 else v.values[i]
                for b, w in ((B.values[i], vi), (B.values[i].copy(), vi.copy())):
                    one = forward_estimate(Integrand(g, w), BrownianPath(g, b),
                                           k * g.dt)
                    assert type(one) is float and one == got[i], (k, i)
    ito = [ito_left_sum(v, B) for v in integrands]
    for v, got in zip(integrands, ito):
        for i in range(rows):
            vi = v.values if v.values.ndim == 1 else v.values[i]
            one = ito_left_sum(Integrand(g, vi.copy()),
                               BrownianPath(g, B.values[i].copy()))
            assert type(one) is float and one == got[i], i


@pytest.mark.parametrize("n_steps, start, rows",
                         [(127, 3, 5), (130, 1, 9), (8195, 1, 3)])
def test_tuple_form_equals_single_integrand_calls(n_steps, start, rows):
    g, B, integrands = _offset_block(n_steps, start, rows, seed=n_steps + 1)
    for k in (1, 3):
        together = forward_estimate(integrands, B, k * g.dt)
        assert isinstance(together, tuple) and len(together) == 3
        for v, got in zip(integrands, together):
            assert np.array_equal(got, forward_estimate(v, B, k * g.dt))
    together = ito_left_sum(integrands, B)
    assert isinstance(together, tuple) and len(together) == 3
    for v, got in zip(integrands, together):
        assert np.array_equal(got, ito_left_sum(v, B))
    # one path, one-element tuple: floats, as in the one-integrand call
    Bi = BrownianPath(g, B.values[0])
    (alone,) = ito_left_sum((integrands[0],), Bi)
    assert type(alone) is float and alone == ito_left_sum(integrands[0], Bi)


@pytest.mark.parametrize("n_steps, start, rows",
                         [(127, 3, 5), (130, 1, 9), (8195, 1, 3)])
def test_forward_at_dt_is_the_left_sum_on_offset_blocks(n_steps, start, rows):
    g, B, integrands = _offset_block(n_steps, start, rows, seed=n_steps + 2)
    for v in integrands:
        assert np.array_equal(forward_estimate(v, B, g.dt), ito_left_sum(v, B))
    assert all(np.array_equal(f, i) for f, i in
               zip(forward_estimate(integrands, B, g.dt),
                   ito_left_sum(integrands, B)))


def test_tuple_form_checks_every_grid():
    g = make_grid(0, 1, 64)
    B = sample_brownian(g, 0)
    stranger = const_integrand(make_grid(0, 1, 128))
    with pytest.raises(ValueError):
        forward_estimate((const_integrand(g), stranger), B, g.dt)
    with pytest.raises(ValueError):
        ito_left_sum((const_integrand(g), stranger), B)


def test_forward_chunk_holds_one_increment_matrix_at_a_time():
    # a 63-row block at 4096 steps to T, as map_reducers cuts one (1 MiB)
    params = ModelParams.benchmark()
    setup = drift_setup(params.m, params.grid(8192), params.T)
    assert setup.i_last == 4096
    block = draw_block(setup, 5, 0, 63)
    ctx = chunk_context(setup, block)
    size = ctx.R.nbytes
    tracemalloc.start()
    try:
        _forward_chunk(setup.grid, params.T, [8, 4, 2, 1], ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one (rows, n) increment matrix and small arrays; forming a product
    # temporary next to it, or two increment matrices, would take 2 blocks
    assert peak <= 1.5 * size, peak / size
