"""Simulation routes, exit times, policies, and the batch wealth kernel."""

import math
from typing import NamedTuple

import numpy as np
import pytest

from insiderlab.controlled_sde import (
    CoefficientSpec,
    ControlPolicy,
    Domain,
    SimulationDiverged,
    constant_policy,
    feedback_policy,
    first_exit,
    formula_policy,
    make_wealth_setup,
    simulate_forward,
    simulate_insider,
    wealth_coefficients,
    wealth_paths_chunk,
    StatePath,
)
from insiderlab.enlargement import InfoDriftField, chunk_context, decompose
from insiderlab.hjb import (
    ModelParams,
    _example1_formula,
    example1_policy,
    example2_params,
)
from insiderlab.paths import Affine, constant_weight, make_grid, sample_brownian

ONE = constant_weight(1.0)


# ---------------------------------------------------------------------------
# The per-node loop that the single-path routes ran before ``_euler_rows``,
# kept as their reference: a scalar state, and a node rule u(i, x, info)
# that sees the time, alpha and L of one node.
# ---------------------------------------------------------------------------

class StepInfo(NamedTuple):
    t: float
    L: float
    alpha: float


def formula_node_rule(fn):
    return lambda i, x, info: float(fn(info.t, info.alpha, info.L))


def feedback_node_rule(fn):
    return lambda i, x, info: float(fn(info.t, x, info.alpha, info.L))


def reference_loop(coeffs, node_rule, times, dt, increments, drift_extra, x0,
                   info_of):
    n = len(increments)
    values = np.empty(n + 1)
    control = np.empty(n)
    values[0] = x0
    x = x0
    for i in range(n):
        info = info_of(i)
        u = node_rule(i, x, info)
        s = coeffs.sigma(times[i], x, u)
        x = x + (coeffs.b(times[i], x, u) + s * drift_extra[i]) * dt + s * increments[i]
        if not math.isfinite(x):
            raise SimulationDiverged(f"state non-finite at node {i + 1}", index=i + 1)
        control[i] = u
        values[i + 1] = x
    return values, control


def reference_forward(coeffs, node_rule, B, x0, t0=0.0, drift_field=None):
    i0 = B.grid.index_of(t0)
    times = B.grid.times
    n = B.grid.n_steps - i0

    def info_of(i):
        j = i0 + i
        if drift_field is None:
            return StepInfo(times[j], 0.0, 0.0)
        return StepInfo(times[j], drift_field.L, float(drift_field.alpha[j]))

    return reference_loop(coeffs, node_rule, times[i0:], B.grid.dt,
                          np.diff(B.values)[i0:], np.zeros(n), x0, info_of)


def reference_insider(coeffs, node_rule, drift_field, btilde, x0, t0=0.0):
    i0 = btilde.grid.index_of(t0)
    times = btilde.grid.times
    n = btilde.grid.n_steps - i0

    def info_of(i):
        j = i0 + i
        return StepInfo(times[j], drift_field.L, float(drift_field.alpha[j]))

    return reference_loop(coeffs, node_rule, times[i0:], btilde.grid.dt,
                          np.diff(btilde.values)[i0:],
                          drift_field.alpha[i0 : i0 + n], x0, info_of)


PARAMS = ModelParams(r=0.05, rtilde=0.08, sigma_fn=Affine(1.0, 0.5), a=1.0,
                     b=1.0, T=1.0, t1=2.0, m=1.0)


def _feedback(t, x, alpha, L):
    return 0.3 * x + 0.1 * alpha - 0.05 * L


def _formula(t, alpha, L):
    return _example1_formula(PARAMS, t, alpha, L)


ROUTE_POLICIES = {
    "formula": (formula_policy("example1", _formula), formula_node_rule(_formula)),
    "feedback": (feedback_policy("prop", _feedback), feedback_node_rule(_feedback)),
}


@pytest.mark.parametrize("t0", [0.0, 0.25])
@pytest.mark.parametrize("kind", sorted(ROUTE_POLICIES))
def test_single_path_routes_match_the_per_node_reference(kind, t0):
    policy, node_rule = ROUTE_POLICIES[kind]
    coeffs = wealth_coefficients(PARAMS)
    for seed in range(3):
        B = sample_brownian(make_grid(0, 2, 128), seed)
        f = InfoDriftField(ONE, B, horizon=1.0)
        fwd = simulate_forward(coeffs, policy, B.restrict(1.0), 0.5, t0, f)
        want = reference_forward(coeffs, node_rule, B.restrict(1.0), 0.5, t0, f)
        assert np.array_equal(fwd.values, want[0])
        assert np.array_equal(fwd.control, want[1])
        ins = simulate_insider(coeffs, policy, f, decompose(B, f), 0.5, t0)
        want = reference_insider(coeffs, node_rule, f, decompose(B, f), 0.5, t0)
        assert np.array_equal(ins.values, want[0])
        assert np.array_equal(ins.control, want[1])
        assert fwd.grid == ins.grid and fwd.grid.t_start == t0


@pytest.mark.filterwarnings("ignore:overflow")
def test_divergence_index_matches_the_per_node_reference():
    coeffs = CoefficientSpec(lambda t, x, u: x**3, lambda t, x, u: 0.0,
                             growth_c=1e9)
    B = sample_brownian(make_grid(0, 1, 50), 5)
    with pytest.raises(SimulationDiverged) as want:
        reference_forward(coeffs, lambda i, x, info: 0.0, B, 10.0)
    with pytest.raises(SimulationDiverged) as got:
        simulate_forward(coeffs, constant_policy(0.0), B, x0=10.0)
    assert got.value.index == want.value.index


@pytest.mark.parametrize("rules", [{}, {"matrix_rule": len, "bulk_rule": len}],
                         ids=["none", "both"])
def test_control_policy_needs_exactly_one_rule(rules):
    with pytest.raises(ValueError, match="exactly one"):
        ControlPolicy("p", **rules)


def frozen_coeffs():
    return CoefficientSpec(b=lambda t, x, u: 0.0, sigma=lambda t, x, u: 0.0,
                           growth_c=1.0)


def test_frozen_dynamics_hold_state():
    B = sample_brownian(make_grid(0, 1, 64), 0)
    path = simulate_forward(frozen_coeffs(), constant_policy(0.0), B, x0=1.25)
    assert np.all(path.values == 1.25)


def test_initial_condition_exact():
    B = sample_brownian(make_grid(0, 1, 64), 1)
    coeffs = CoefficientSpec(lambda t, x, u: 0.1 * x, lambda t, x, u: 0.2,
                             growth_c=1.0)
    path = simulate_forward(coeffs, constant_policy(0.0), B, x0=-3.5)
    assert path.values[0] == -3.5


def test_deterministic_growth_oracle():
    # u == 0 wealth: X = x0 prod(1 + r dt), within r^2 T dt of x0 e^{rT}
    r, n = 0.5, 256
    B = sample_brownian(make_grid(0, 1, n), 2)
    coeffs = CoefficientSpec(lambda t, x, u: r * x, lambda t, x, u: 0.0 * u,
                             growth_c=1.0)
    path = simulate_forward(coeffs, constant_policy(0.0), B, x0=1.0)
    target = math.exp(r)
    assert abs(path.values[-1] - target) / target <= r * r * 1.0 * B.grid.dt


def test_unit_control_telescoping():
    # dX = u dt + u dB with u == 1: X_T = x0 + T + B_T on the nose
    B = sample_brownian(make_grid(0, 1, 128), 3)
    coeffs = CoefficientSpec(lambda t, x, u: u, lambda t, x, u: u, growth_c=2.0)
    path = simulate_forward(coeffs, constant_policy(1.0), B, x0=0.5)
    assert path.values[-1] == pytest.approx(0.5 + 1.0 + B.values[-1], abs=1e-12)


def test_zero_drift_field_routes_agree_bitwise():
    B = sample_brownian(make_grid(0, 2, 128), 4)
    f = InfoDriftField.zero(B, horizon=1.0)
    bt = decompose(B, f)
    coeffs = CoefficientSpec(lambda t, x, u: 0.05 * x, lambda t, x, u: 0.3 * u,
                             growth_c=1.0)
    pol = constant_policy(0.8)
    fwd = simulate_forward(coeffs, pol, B.restrict(1.0), x0=1.0, drift_field=f)
    ins = simulate_insider(coeffs, pol, f, bt, x0=1.0)
    assert np.array_equal(fwd.values, ins.values)


@pytest.mark.parametrize("kind", sorted(ROUTE_POLICIES))
def test_drift_field_ending_before_the_path_is_rejected(kind):
    # used to die in numpy broadcasting (formula) or with an IndexError
    # (feedback) instead of naming the horizon
    policy, _ = ROUTE_POLICIES[kind]
    coeffs = wealth_coefficients(PARAMS)
    B = sample_brownian(make_grid(0, 2, 64), 1)
    short = InfoDriftField(ONE, B, horizon=0.5)
    with pytest.raises(ValueError, match="horizon T=0.5"):
        simulate_forward(coeffs, policy, B.restrict(1.0), x0=0.0,
                         drift_field=short)
    btilde = decompose(B, InfoDriftField(ONE, B, horizon=1.0))
    with pytest.raises(ValueError, match="horizon T=0.5"):
        simulate_insider(coeffs, policy, short, btilde, x0=0.0)


def test_insider_and_forward_routes_match_pathwise():
    # same discrete process written against B or Btilde: agreement to roundoff
    params = ModelParams.benchmark()
    pol = example1_policy(params)
    coeffs = wealth_coefficients(params)
    for seed in range(5):
        B = sample_brownian(make_grid(0, 2, 256), seed)
        f = InfoDriftField(ONE, B, horizon=1.0)
        bt = decompose(B, f)
        fwd = simulate_forward(coeffs, pol, B.restrict(1.0), x0=0.0, drift_field=f)
        ins = simulate_insider(coeffs, pol, f, bt, x0=0.0)
        assert np.max(np.abs(fwd.values - ins.values)) < 1e-10


def test_route_terminal_means_agree():
    params = ModelParams.benchmark()
    pol = example1_policy(params)
    coeffs = wealth_coefficients(params)
    fwd_T = np.empty(300)
    ins_T = np.empty(300)
    for seed in range(300):
        B = sample_brownian(make_grid(0, 2, 128), seed)
        f = InfoDriftField(ONE, B, horizon=1.0)
        fwd_T[seed] = simulate_forward(
            coeffs, pol, B.restrict(1.0), 0.0, drift_field=f
        ).values[-1]
        ins_T[seed] = simulate_insider(
            coeffs, pol, f, decompose(B, f), 0.0
        ).values[-1]
    se = math.hypot(fwd_T.std(ddof=1), ins_T.std(ddof=1)) / math.sqrt(300)
    assert abs(fwd_T.mean() - ins_T.mean()) <= 3 * se


@pytest.mark.filterwarnings("ignore:overflow")
def test_divergence_reports_first_bad_index():
    # cubic drift blows up; the error carries where
    B = sample_brownian(make_grid(0, 1, 50), 5)
    coeffs = CoefficientSpec(lambda t, x, u: x**3, lambda t, x, u: 0.0,
                             growth_c=1e9)
    with pytest.raises(SimulationDiverged) as err:
        simulate_forward(coeffs, constant_policy(0.0), B, x0=10.0)
    assert err.value.index >= 1


class TestFirstExit:
    def grid_path(self, values):
        n = len(values) - 1
        return StatePath(make_grid(0, 1, n), np.asarray(values, dtype=float),
                         np.zeros(n))

    def test_whole_line_never_exits(self):
        p = self.grid_path(np.linspace(0, 5, 9))
        assert first_exit(p, Domain()) == 1.0
        assert p.exit_index is None

    def test_interior_constant(self):
        p = self.grid_path(np.zeros(9))
        assert first_exit(p, Domain(-1.0, 1.0)) == 1.0

    def test_deterministic_crossing(self):
        # X_i = i/8 exits (-inf, 0.5) at the node where it touches 0.5
        p = self.grid_path(np.arange(9) / 8.0)
        tau = first_exit(p, Domain(hi=0.5))
        assert tau == 0.5
        assert p.exit_index == 4

    def test_exit_at_start_when_outside(self):
        p = self.grid_path(np.full(9, 3.0))
        assert first_exit(p, Domain(-1.0, 1.0)) == 0.0
        assert p.exit_index == 0


def test_growth_check_passes_for_wealth():
    params = ModelParams.benchmark()
    wealth_coefficients(params).check_growth(np.random.default_rng(0))


def test_growth_check_catches_superlinear():
    coeffs = CoefficientSpec(lambda t, x, u: x * x, lambda t, x, u: 0.0,
                             growth_c=1.0)
    with pytest.raises(ValueError):
        coeffs.check_growth(np.random.default_rng(0))


def test_policy_moment_condition_proxy():
    # E int |u*|^k ds finite for k in {2, 4, 8} on the benchmark
    params = ModelParams.benchmark()
    setup = make_wealth_setup(params, 512)
    pol = example1_policy(params)
    from insiderlab.paths import increment_chunk

    moments = {2: [], 4: [], 8: []}
    for c, rows in ((0, 1024), (1, 976)):
        dB = increment_chunk(setup.grid, 10, c, rows)
        ctx, u, X, div = wealth_paths_chunk(setup, dB, chunk_context(setup, dB),
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
    # one-row chunk of the state-free kernel against simulate_forward's
    # Euler loop
    params = example2_params()
    setup = make_wealth_setup(params, 256)
    from insiderlab.hjb import example2_policy

    pol = example2_policy(params)
    B = sample_brownian(setup.grid, 12)
    dB = np.diff(B.values)[None, :]
    ctx, u, X, div = wealth_paths_chunk(setup, dB, chunk_context(setup, dB), pol)

    f = InfoDriftField(ONE, B, horizon=params.T)
    single = simulate_forward(
        wealth_coefficients(params), pol, B.restrict(params.T), x0=0.0,
        drift_field=f,
    )
    assert np.max(np.abs(X[0] - single.values)) < 1e-12
    assert np.max(np.abs(u[0, :-1] - single.control)) < 1e-12


def test_feedback_policy_bulk_matches_node_rule():
    # the kernel's feedback branch runs _euler_rows over a chunk; each row
    # must be the per-node reference on that row's path
    setup = make_wealth_setup(PARAMS, 128)
    policy, node_rule = ROUTE_POLICIES["feedback"]
    paths = [sample_brownian(setup.grid, seed) for seed in range(13, 17)]
    dB = np.stack([np.diff(B.values) for B in paths])
    ctx, u, X, div = wealth_paths_chunk(setup, dB, chunk_context(setup, dB),
                                        policy)
    assert not div.any()
    for row, B in enumerate(paths):
        f = InfoDriftField(ONE, B, horizon=PARAMS.T)
        want = reference_forward(wealth_coefficients(PARAMS), node_rule,
                                 B.restrict(PARAMS.T), 0.0, drift_field=f)
        assert np.array_equal(X[row], want[0])
        assert np.array_equal(u[row, :-1], want[1])


def test_domain_validation():
    with pytest.raises(ValueError):
        Domain(2.0, -1.0)
