"""Grid construction, path sampling, and the functional L."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from insiderlab.enlargement import drift_setup, map_reducers
from insiderlab.paths import (
    BrownianPath,
    as_weight,
    constant_weight,
    make_grid,
    sample_brownian,
)
from oracles import eval_L


def test_make_grid_nodes():
    g = make_grid(0, 1, 4)
    assert np.array_equal(g.times, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_make_grid_single_step():
    g = make_grid(0, 2, 1)
    assert np.array_equal(g.times, [0.0, 2.0])


def test_make_grid_rejects_reversed_interval():
    with pytest.raises(ValueError):
        make_grid(1, 0, 4)


def test_make_grid_rejects_zero_steps():
    with pytest.raises(ValueError):
        make_grid(0, 1, 0)


@given(
    t0=st.floats(-5, 5),
    span=st.floats(1e-3, 10),
    n=st.integers(1, 400),
)
@settings(max_examples=100, deadline=None)
def test_grid_node_invariants(t0, span, n):
    g = make_grid(t0, t0 + span, n)
    assert g.dt > 0
    assert len(g.times) == n + 1
    assert g.times[0] == t0
    assert g.times[-1] == t0 + span
    assert np.all(np.diff(g.times) > 0)
    # every node resolves back to its own index
    for i in (0, n // 2, n):
        assert g.index_of(float(g.times[i])) == i


def test_index_of_rejects_off_node_time():
    g = make_grid(0, 1, 4)
    with pytest.raises(ValueError):
        g.index_of(0.3)
    with pytest.raises(ValueError):
        g.index_of(1.5)


def test_sample_brownian_deterministic():
    g = make_grid(0, 1, 64)
    p1 = sample_brownian(g, 42)
    p2 = sample_brownian(g, 42)
    assert p1.values[0] == 0.0
    assert np.array_equal(p1.values, p2.values)
    assert not np.array_equal(p1.values, sample_brownian(g, 43).values)


def test_sample_brownian_mean_oracle():
    # law of large numbers over 1e5 independent seeds on the single-step grid
    g = make_grid(0, 1, 1)
    vals = np.array([sample_brownian(g, s).values[1] for s in range(100_000)])
    assert abs(vals.mean()) < 3.0 / math.sqrt(100_000)
    # sample variance of B_1 should sit within 5% of t_end = 1
    assert abs(vals.var() - 1.0) < 0.05


def test_terminal_variance_and_L_oracles():
    # one sweep over 1e5 seeds on [0, 2] serves both moment checks:
    # Var(B_2) ~= 2 and, with m == 1, L telescopes to B_2 so Var(L) ~= 2.
    g = make_grid(0, 2, 8)
    one = constant_weight(1.0)
    term = np.empty(100_000)
    Ls = np.empty(100_000)
    for s in range(100_000):
        p = sample_brownian(g, s)
        term[s] = p.values[-1]
        Ls[s] = eval_L(one, p)
    assert abs(term.var() - 2.0) / 2.0 < 0.05
    # telescoping: agreement down to summation roundoff
    assert np.max(np.abs(term - Ls)) < 1e-12
    assert abs(Ls.var() - 2.0) / 2.0 < 0.05


def test_eval_L_zero_weight():
    p = sample_brownian(make_grid(0, 2, 32), 7)
    assert eval_L(constant_weight(0.0), p) == 0.0


def test_eval_L_rejects_short_path():
    p = sample_brownian(make_grid(0, 1, 8), 0)
    with pytest.raises(ValueError):
        eval_L(constant_weight(1.0), p, t1=2.0)


def test_eval_L_refinement_invariance():
    # aggregating fine increments onto a coarser grid leaves the m == 1
    # integral unchanged: both telescope to the same terminal value
    fine = sample_brownian(make_grid(0, 2, 256), 11)
    coarse = BrownianPath(make_grid(0, 2, 32), fine.values[::8])
    one = constant_weight(1.0)
    assert eval_L(one, fine) == pytest.approx(eval_L(one, coarse), abs=1e-13)


def test_L_is_gaussian_ks():
    # L = int_0^2 (s+1) dB ~ Normal(0, int_0^2 (s+1)^2 ds) with variance 26/3
    from scipy import stats

    m = as_weight(lambda s: s + 1.0)
    g = make_grid(0, 2, 64)
    Ls = np.array([eval_L(m, sample_brownian(g, s)) for s in range(10_000)])
    sd = math.sqrt(26.0 / 3.0)
    res = stats.kstest(Ls, "norm", args=(0.0, sd))
    assert res.pvalue > 0.01


def test_restrict_shares_prefix_values():
    p = sample_brownian(make_grid(0, 2, 128), 3)
    q = p.restrict(1.0)
    assert q.grid.n_steps == 64
    assert q.grid.t_end == 1.0
    assert np.array_equal(q.values, p.values[:65])


def _draw_setup(width):
    """A drift setup whose draw grid is [0, 1] in ``width`` steps."""
    return drift_setup(1.0, make_grid(0, 2, 2 * width), 1 - 1 / width)


def test_increment_chunks_are_stream_stable():
    setup = _draw_setup(16)

    def copy(db, ctx):
        return (db.T.copy(),)

    ((full,),) = map_reducers(setup, [copy], 5, 2500)
    # a shorter batch reproduces a row-for-row prefix of the longer one
    ((short,),) = map_reducers(setup, [copy], 5, 1100)
    assert np.array_equal(short, full[:, :1100])
    assert full.shape == (16, 2500)


def test_chunk_sampler_matches_moments():
    ((total,),) = map_reducers(_draw_setup(4), [lambda db, ctx: (db.sum(axis=1),)],
                               9, 50_000)
    assert abs(total.mean()) < 3.0 / math.sqrt(50_000)
    assert abs(total.var() - 1.0) < 0.05
