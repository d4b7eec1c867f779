"""Policies and the batch wealth kernel, against the per-node references."""

import math
from dataclasses import replace

import numpy as np
import pytest

from insiderlab.controlled_sde import (
    ControlPolicy,
    constant_policy,
    cost_sum,
    make_wealth_setup,
    node_sum,
    uninformed,
    wealth_paths_chunk,
)
from insiderlab.enlargement import InfoDriftField, chunk_context, decompose
from insiderlab.hjb import (
    ModelParams,
    example1_control,
    example1_policy,
    example2_control,
    example2_params,
    example2_policy,
)
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
    RulePolicy,
    draw_block,
    fold_tail,
    formula_node_rule,
    policy_node_rule,
    reference_forward,
    reference_cost,
    reference_insider,
    real_increments,
    reference_terms,
    wealth_coefficients,
)

ONE = constant_weight(1.0)

PARAMS = ModelParams(r=0.05, rtilde=0.08, sigma_fn=Affine(1.0, 0.5), a=1.0,
                     b=1.0, T=1.0, t1=2.0, m=1.0)


def _formula(t, alpha, L):
    return example1_control(alpha, PARAMS.sigma_fn(t), t, PARAMS)


def kernel(params, n_steps, policy, seed, rows):
    """One chunk of the wealth kernel: its setup, full-grid increments, L, u
    and x_T; the kernel sees the increments with their tail folded."""
    setup = make_wealth_setup(params, n_steps)
    dB = increment_chunk(setup.grid, seed, 0, rows)
    block = fold_tail(setup, dB)
    ctx, u, x_T, div = wealth_paths_chunk(setup, chunk_context(setup, block),
                                          policy)
    assert x_T.shape == div.shape == (rows,)
    assert not div.any()
    return setup, dB, ctx.L, u, x_T


def row_path(setup, dB, row):
    return BrownianPath(setup.grid, running_sum(dB[row]))


def test_insider_and_forward_routes_match_pathwise():
    # the paper's two state equations have the same solutions: each row of
    # the kernel, driven by dB, is the insider route on that row's
    # decomposed path, dX = (b + sigma alpha) dt + sigma dBtilde
    coeffs = wealth_coefficients(PARAMS)
    policy = example1_policy(PARAMS)
    for t0 in (0.0, 0.25):
        params = replace(PARAMS, x0=0.5, t0=t0)
        setup, dB, L, u, x_T = kernel(params, 128, policy, 3, 5)
        alpha = chunk_context(setup, fold_tail(setup, dB)).alpha()
        for row in range(len(dB)):
            # the chunk's L, not one summed again in another order
            B = row_path(setup, dB, row)
            f = InfoDriftField(ONE, B, horizon=params.T, L=float(L[row]))
            # and the chunk's drift on [t0, T], which the context forms as
            # drift_scale * D, so that the routes share it bit for bit (it
            # agrees with the field's to rounding: test_enlargement's
            # test_the_context_of_a_folded_path_reads_its_B_L_and_alpha)
            f.alpha[setup.i0 :] = alpha[row]
            values, control = reference_insider(
                coeffs, policy_node_rule(policy), f, decompose(B, f), 0.5, t0)
            assert abs(x_T[row] - values[-1]) < 1e-10
            assert np.array_equal(u[row, :-1], control)


ROUTE_POLICIES = {
    "formula": (example1_policy(PARAMS), formula_node_rule(_formula)),
}


@pytest.mark.parametrize("t0", [0.0, 0.25])
@pytest.mark.parametrize("kind", sorted(ROUTE_POLICIES))
def test_single_path_routes_match_the_per_node_reference(kind, t0):
    # each kernel row against the per-node forward route on the raw path,
    # the drift field feeding alpha and L to the rule only
    policy, node_rule = ROUTE_POLICIES[kind]
    coeffs = wealth_coefficients(PARAMS)
    params = replace(PARAMS, x0=0.5, t0=t0)
    for seed in range(3):
        setup, dB, L, u, x_T = kernel(params, 128, policy, seed, 2)
        for row in range(len(dB)):
            B = row_path(setup, dB, row)
            f = InfoDriftField(ONE, B, horizon=params.T, L=float(L[row]))
            values, control = reference_forward(
                coeffs, node_rule, B.restrict(params.T), 0.5, t0, f)
            assert abs(x_T[row] - values[-1]) < 1e-12
            assert np.max(np.abs(u[row, :-1] - control)) < 1e-12


def test_route_terminal_means_agree():
    params = ModelParams.benchmark()
    rule = formula_node_rule(
        lambda t, alpha, L: example1_control(alpha, params.sigma_fn(t), t, params))
    setup, dB, _, _, fwd_T = kernel(params, 128, example1_policy(params), 4, 300)
    ins_T = np.empty(300)
    for row in range(300):
        B = row_path(setup, dB, row)
        f = InfoDriftField(ONE, B, horizon=1.0)
        ins_T[row] = reference_insider(wealth_coefficients(params), rule, f,
                                       decompose(B, f), 0.0)[0][-1]
    se = math.hypot(fwd_T.std(ddof=1), ins_T.std(ddof=1)) / math.sqrt(300)
    assert abs(fwd_T.mean() - ins_T.mean()) <= 3 * se


def test_zero_drift_field_routes_agree_bitwise():
    # a weight that vanishes on [0, T] carries no information about the
    # path up to T: alpha == 0 there, Btilde == B, and the insider route
    # is the forward route bit for bit
    blind = as_weight(lambda s: np.where(s > 1.0, 1.0, 0.0))
    B = sample_brownian(make_grid(0, 2, 128), 4)
    f = InfoDriftField(blind, B, horizon=1.0)
    assert not f.alpha.any()
    coeffs = wealth_coefficients(PARAMS)
    rule = formula_node_rule(lambda t, alpha, L: 0.8)
    fwd = reference_forward(coeffs, rule, B.restrict(1.0), x0=1.0)
    ins = reference_insider(coeffs, rule, f, decompose(B, f), x0=1.0)
    assert np.array_equal(fwd[0], ins[0])


def test_frozen_dynamics_hold_state():
    *_, x_T = kernel(ModelParams.benchmark(x0=1.25), 128, constant_policy(0.0),
                     0, 8)
    assert np.all(x_T == 1.25)


def test_initial_condition_exact():
    # x0 enters X_T as x0 (1 + r dt)^N, N the steps from t0 to T, on top of
    # the gains of the same paths started at 0
    for t0 in (0.0, 0.25):
        params = ModelParams.benchmark(r=0.1, sigma_fn=0.2, x0=-3.5, t0=t0)
        setup, *_, x_T = kernel(params, 128, constant_policy(0.3), 1, 8)
        *_, from_0 = kernel(replace(params, x0=0.0), 128, constant_policy(0.3),
                            1, 8)
        n = setup.i_last - setup.i0
        endowment = -3.5 * (1.0 + 0.1 * setup.grid.dt) ** n
        assert setup.endowment == pytest.approx(endowment, rel=1e-15)
        assert np.max(np.abs(x_T - from_0 - endowment)) <= 1e-14


def test_deterministic_growth_oracle():
    # u == 0 wealth: X = x0 prod(1 + r dt), within r^2 T dt of x0 e^{rT}
    r = 0.5
    setup, *_, x_T = kernel(ModelParams.benchmark(r=r, x0=1.0), 512,
                            constant_policy(0.0), 2, 8)
    target = math.exp(r)
    assert np.all(np.abs(x_T - target) / target <= r * r * 1.0 * setup.grid.dt)


def test_overflowing_growth_keeps_zero_gains_at_zero():
    # (1 + r dt)^N is inf at r = 1e300: a zero gain still adds 0, not
    # 0 * inf = NaN, so a u == 0 path from x0 = 0 stays at 0, as the Euler
    # recursion keeps it; from x0 = 1 it diverges, as the recursion does
    setup, *_, x_T = kernel(ModelParams.benchmark(r=1e300), 64,
                            constant_policy(0.0), 5, 4)
    assert np.isinf(setup.growth[0]) and np.all(x_T == 0.0)
    setup = make_wealth_setup(ModelParams.benchmark(r=1e300, x0=1.0), 64)
    dB = draw_block(setup, 5, 0, 4)
    *_, div = wealth_paths_chunk(setup, chunk_context(setup, dB),
                                 constant_policy(0.0))
    assert div.all()


def test_unit_control_telescoping():
    # dX = u dt + u dB with u == 1: X_T = x0 + T + B_T on the nose
    setup, dB, *_, x_T = kernel(example2_params(x0=0.5), 256,
                                constant_policy(1.0), 3, 8)
    B_T = dB[:, : setup.i_last].sum(axis=1)
    assert np.max(np.abs(x_T - (0.5 + 1.0 + B_T))) <= 1e-12


@pytest.mark.parametrize("r", [0.0, 0.2])
def test_terminal_wealth_of_a_row_does_not_depend_on_the_other_rows(r):
    # each row alone, and in blocks at offsets that are not multiples of 4,
    # gives the bits of the whole chunk
    params = ModelParams.benchmark(r=r, x0=0.5, sigma_fn=Affine(1.0, 0.5))
    setup = make_wealth_setup(params, 256)
    policy = example1_policy(params)
    dB = draw_block(setup, 6, 0, 13)

    def x_T(rows):
        return wealth_paths_chunk(setup, chunk_context(setup, rows), policy)[2]

    whole = x_T(dB)
    for lo, hi in [(row, row + 1) for row in range(13)] + [(1, 6), (3, 13)]:
        assert x_T(dB[lo:hi]).tobytes() == whole[lo:hi].tobytes()


def test_policy_moment_condition_proxy():
    # E int |u*|^k ds finite for k in {2, 4, 8} on the benchmark
    params = ModelParams.benchmark()
    setup = make_wealth_setup(params, 512)
    pol = example1_policy(params)

    moments = {2: [], 4: [], 8: []}
    for c, rows in ((0, 1024), (1, 976)):
        dB = draw_block(setup, 10, c, rows)
        ctx, u, _, div = wealth_paths_chunk(setup, chunk_context(setup, dB),
                                            pol)
        for k in moments:
            moments[k].append(
                np.trapezoid(np.abs(u) ** k, dx=setup.grid.dt, axis=1)
            )
    for k, blocks in moments.items():
        est = float(np.concatenate(blocks).mean())
        assert math.isfinite(est)
        assert est < 10.0


def test_matrix_kernel_matches_single_path_loop():
    # one-row chunk of the kernel against the per-node forward route
    params = example2_params()
    setup = make_wealth_setup(params, 256)
    pol = example2_policy(params)
    B = sample_brownian(setup.grid, 12)
    dB = fold_tail(setup, np.diff(B.values)[None, :])
    ctx, u, x_T, div = wealth_paths_chunk(setup, chunk_context(setup, dB), pol)

    f = InfoDriftField(ONE, B, horizon=params.T)
    rule = formula_node_rule(lambda t, alpha, L: example2_control(alpha, params))
    values, control = reference_forward(
        wealth_coefficients(params), rule, B.restrict(params.T), x0=0.0,
        drift_field=f,
    )
    assert x_T.shape == (1,)
    assert abs(x_T[0] - values[-1]) < 1e-12
    assert np.max(np.abs(u[0, :-1] - control)) < 1e-12


def test_a_control_matrix_of_the_wrong_shape_raises():
    setup = make_wealth_setup(ModelParams.benchmark(), 64)
    dB = draw_block(setup, 3, 0, 4)
    short = RulePolicy("short", lambda ctx: np.zeros((4, 3)))
    with pytest.raises(ValueError, match=r"shape \(4, 3\), need \(4, 33\)"):
        wealth_paths_chunk(setup, chunk_context(setup, dB), short)


# ---------------------------------------------------------------------------
# The contraction kernel against the reference that forms u
# ---------------------------------------------------------------------------

_POLICIES = {
    "example1": example1_policy,
    "example2": example2_policy,
    "uninformed": lambda params: uninformed(example2_policy(params)),
    "constant": lambda params: constant_policy(-0.4),
    "tilted": lambda params: ControlPolicy("tilted", Affine(0.5, -0.3),
                                           Sin(0.2, 0.3, 2.0)),
}


@pytest.mark.parametrize("name", sorted(_POLICIES))
@pytest.mark.parametrize("t0", [0.0, 0.25])
@pytest.mark.parametrize("r", [0.0, 0.2])
def test_price_chunk_matches_the_reference_kernel_row_by_row(r, t0, name):
    # the cost sum's rows against the reference's run - b X_T, with an
    # endowment, an excess return, a Sin m and an affine sigma.  Each row's
    # error is bounded by 1e-13 of its own scale: the sum of the absolute
    # values of the terms that the two forms add up
    params = ModelParams(r=r, rtilde=r + 0.5, sigma_fn=Affine(1.0, 0.5),
                         a=2.0, b=1.5, T=1.0, t1=2.0, m=Sin(1.0, 0.5, 3.0),
                         x0=0.5, t0=t0)
    policy = _POLICIES[name](params)
    setup = make_wealth_setup(params, 512)
    dB = draw_block(setup, 8, 0, 200)
    ctx = chunk_context(setup, dB)
    cost = cost_sum(setup, policy).rows(ctx)
    (want,) = reference_cost(setup, policy, ctx)
    i0, iL = setup.i0, setup.i_last
    t = setup.grid.times[i0 : iL + 1]
    size = (np.abs(policy.gain.nodes(t) * ctx.alpha())
            + np.abs(policy.offset.nodes(t)))
    run_scale = (size * size) @ (setup.a * setup.trapezoid)
    noise = (np.abs(setup.sigma_nodes[i0:iL] * real_increments(ctx))
             + abs(setup.excess) * setup.grid.dt)
    x_scale = abs(setup.endowment) + (size[:, :-1] * noise) @ setup.growth[1:]
    assert np.all(np.isfinite(want)) and np.all(np.isfinite(cost))
    assert np.all(np.abs(cost - want)
                  <= 1e-13 * (run_scale + setup.b_weight * x_scale))


@pytest.mark.parametrize("term", ["uu", "u", "u_dB", "dB"])
@pytest.mark.parametrize("t0", [0.0, 0.25])
@pytest.mark.parametrize("r", [0.0, 0.2])
def test_each_node_sum_weight_matches_its_direct_sum(r, t0, term):
    # one weight alone, on a window inside [t0, T), against the sum of its
    # definition over the control matrix; each row's error is bounded by
    # 1e-13 of the sum of the absolute values of the expanded terms
    params = ModelParams(r=r, rtilde=r + 0.5, sigma_fn=Affine(1.0, 0.5),
                         a=2.0, b=1.5, T=1.0, t1=2.0, m=Sin(1.0, 0.5, 3.0),
                         x0=0.5, t0=t0)
    policy = _POLICIES["tilted"](params)
    setup = make_wealth_setup(params, 512)
    ctx = chunk_context(setup, draw_block(setup, 9, 0, 200))
    lo, hi = setup.i0 + 3, setup.i_last - 5
    cols = slice(lo - setup.i0, hi - setup.i0)
    t = setup.grid.times[lo:hi]
    weight = Sin(0.5, 1.0, 5.0)(t)
    u = policy.control(ctx)[:, cols]
    noise = real_increments(ctx)[:, cols]
    size = (np.abs(policy.gain.nodes(t) * ctx.alpha()[:, cols])
            + np.abs(policy.offset.nodes(t)))
    factor, bound = {"uu": (u * u, size * size), "u": (u, size),
                     "u_dB": (u * noise, size * np.abs(noise)),
                     "dB": (noise, np.abs(noise))}[term]
    got = node_sum(setup, policy, lo, hi, const=0.25,
                   **{term: weight}).rows(ctx)
    want = 0.25 + np.sum(weight * factor, axis=1)
    scale = 0.25 + np.sum(np.abs(weight) * bound, axis=1)
    assert np.all(np.abs(got - want) <= 1e-13 * scale)


def test_a_zero_gain_next_to_an_overflowed_factor_weighs_0_not_nan():
    setup = make_wealth_setup(ModelParams.benchmark(t0=0.25), 64)
    lo, hi = setup.i0, setup.i_last
    # the gain is 0 at the window's first node only, the offset everywhere
    ramp = ControlPolicy("ramp", Affine(-setup.grid.times[lo], 1.0), 0.0)
    inf = np.full(hi - lo, np.inf)
    s = node_sum(setup, ramp, lo, hi, uu=inf, u=inf, u_dB=inf)
    for weight in (s.square, s.linear, s.cross):
        assert weight[0] == 0.0 and np.all(np.isposinf(weight[1:]))
    assert s.noise is None and s.const == 0.0


@pytest.mark.parametrize("name", ["constant", "uninformed", "example1"])
@pytest.mark.parametrize("x0", [0.0, 1.0])
def test_overflowing_growth_diverges_on_the_rows_of_the_reference(x0, name):
    # (1 + r dt)^N and e^{-r(t - T)} are inf at r = 1e300: a zero weight
    # still adds 0, so u == 0 from x0 = 0 keeps the cost at 0, and the rows
    # whose cost is not finite are those whose X_T the reference loses
    params = ModelParams.benchmark(r=1e300, x0=x0, rtilde=2e300)
    policy = {"constant": constant_policy(0.0),
              "uninformed": uninformed(example2_policy(example2_params())),
              "example1": example1_policy(params)}[name]
    setup = make_wealth_setup(params, 64)
    dB = draw_block(setup, 5, 0, 16)
    ctx = chunk_context(setup, dB)
    cost = cost_sum(setup, policy).rows(ctx)
    div = ~np.isfinite(cost)
    *_, want_div = reference_terms(setup, policy, ctx)
    (want,) = reference_cost(setup, policy, ctx)
    assert np.array_equal(div, want_div)
    assert np.array_equal(cost[~div], want[~div])
    if name == "constant":
        assert div.all() == bool(x0) and np.all(cost[~div] == 0.0)
