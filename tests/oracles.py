"""Single-path oracles of what ``insiderlab`` computes in bulk.

Each function here is the direct form of a batch estimator or kernel: one
path, one node at a time, or one closed-form integral.  The tests compare
the library against them; the library itself never calls them.
"""

import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy import integrate

from insiderlab.controlled_sde import ControlPolicy, wealth_paths_chunk
from insiderlab.enlargement import drift_second_moment
from insiderlab.hjb import example2_params
from insiderlab.optimality import window_indices
from insiderlab.paths import TimeGrid, as_weight, chunk_rng, running_sum


# ---------------------------------------------------------------------------
# The two state equations, node by node on one path
# ---------------------------------------------------------------------------

class StepInfo(NamedTuple):
    t: float
    L: float
    alpha: float


def formula_node_rule(fn):
    """A node rule u = fn(t, alpha, L)."""
    return lambda info: float(fn(info.t, info.alpha, info.L))


def policy_node_rule(policy):
    """The node form of a ``ControlPolicy``: u = gain(t) alpha + offset(t)."""
    return lambda info: policy.gain(info.t) * info.alpha + policy.offset(info.t)


def wealth_coefficients(params):
    """(b, sigma) of dX = [r X + (rtilde - r) u] dt + sigma(t) u dB, each
    called as (t, x, u)."""
    r, excess, sig = params.r, params.excess_rate, params.sigma_fn
    return (lambda t, x, u: r * x + excess * u,
            lambda t, x, u: sig(t) * u)


def reference_loop(coeffs, node_rule, times, dt, increments, drift_extra, x0,
                   info_of):
    """X_{i+1} = X_i + (b + sigma extra_i) dt + sigma dW_i with a scalar
    state; returns the node values and the control of each step."""
    b, sigma = coeffs
    n = len(increments)
    values = np.empty(n + 1)
    control = np.empty(n)
    values[0] = x = x0
    for i in range(n):
        u = node_rule(info_of(i))
        s = sigma(times[i], x, u)
        x = x + (b(times[i], x, u) + s * drift_extra[i]) * dt + s * increments[i]
        control[i] = u
        values[i + 1] = x
    return values, control


def reference_forward(coeffs, node_rule, B, x0, t0=0.0, drift_field=None):
    """dX = b dt + sigma dB on B's grid from t0, driven by the raw increments
    of B; the drift field, when given, only feeds alpha and L to the rule."""
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
    """dX = (b + sigma alpha) dt + sigma dBtilde on the decomposed path."""
    i0 = btilde.grid.index_of(t0)
    times = btilde.grid.times
    n = btilde.grid.n_steps - i0

    def info_of(i):
        j = i0 + i
        return StepInfo(times[j], drift_field.L, float(drift_field.alpha[j]))

    return reference_loop(coeffs, node_rule, times[i0:], btilde.grid.dt,
                          np.diff(btilde.values)[i0:],
                          drift_field.alpha[i0 : i0 + n], x0, info_of)


# ---------------------------------------------------------------------------
# Oracles of the estimators
# ---------------------------------------------------------------------------

def eval_L(m, path, t1=None):
    """Left-point Ito sum  L = sum_i m(t_i) (B_{i+1} - B_i)  over one path;
    a path ending before ``t1`` is rejected."""
    horizon = path.grid.t_end
    if t1 is not None and horizon < t1 * (1.0 - 1e-9):
        raise ValueError(f"path ends at {horizon}, before the horizon T1={t1}")
    mv = as_weight(m).nodes(path.grid.times)
    return float(np.sum(mv[:-1] * np.diff(path.values)))


def draw_block(setup, seed, chunk, rows):
    """The (rows, ``setup.draw_width``) standard normals that
    ``map_reducers`` draws for chunk ``chunk``, in one call: the block that
    ``chunk_context`` takes."""
    return chunk_rng(seed, chunk).standard_normal((rows, setup.draw_width))


def fold_tail(setup, dB):
    """The block that ``chunk_context`` takes for full-grid increments
    ``dB`` (paths on the last-but-one axis), in units of sqrt(dt): the head
    normals that ``setup.head`` turns back into the path's B_{t0} and
    sum_{j<i0} m_j dB_j, the increments on [t0, T) as they are, then the
    carrier that ``setup.tail`` turns back into the path's own
    sum_{j>=i_last} m_j dB_j."""
    i0, i_last, m = setup.i0, setup.i_last, setup.m_nodes
    z = dB / math.sqrt(setup.grid.dt)
    carrier = (m[i_last:-1] * z[..., i_last:]).sum(axis=-1) / setup.tail
    head = []
    if setup.heads:
        head.append(z[..., :i0].sum(axis=-1) / setup.head[0, 0])
    if setup.heads == 2:
        r = (m[:i0] * z[..., :i0]).sum(axis=-1)
        head.append((r - setup.head[1, 0] * head[0]) / setup.head[1, 1])
    return np.concatenate([np.stack(head, axis=-1) if head else z[..., :0],
                           z[..., i0:i_last], carrier[..., None]], axis=-1)


def expected_squared_drift_integral(m, T, t1):
    """int_0^T E[alpha_s^2] ds by quadrature; log 2 on the m == 1, T = 1,
    T1 = 2 benchmark."""
    return integrate.quad(lambda s: drift_second_moment(m, s, t1), 0.0, T)[0]


def generator_Au(Gt, Gx, Gxx, b_val, sigma_val, alpha):
    """A^u G = Gt + sigma^2 Gxx / 2 + (b + alpha sigma) Gx at one point."""
    return Gt + 0.5 * sigma_val * sigma_val * Gxx + (b_val + alpha * sigma_val) * Gx


def nu_path(setup, u, ctx, row=0):
    """N_u at every node of [t0, T] for one row of a block, N_u(t0) = 0:
    left-point sums of [2 a u - w_k excess] dt - w_k sigma dB, with
    w_k = b (1 + r dt)^(i_last - 1 - k), the discrete -G_x."""
    i0, iL = setup.i0, setup.i_last
    w = setup.b_weight * setup.growth[1:]
    steps = (
        (2.0 * setup.a * u[row, : iL - i0] - w * setup.excess) * setup.grid.dt
        - w * setup.sigma_nodes[i0:iL] * real_increments(ctx)[row]
    )
    return running_sum(steps)


# ---------------------------------------------------------------------------
# Policies that are not affine in alpha
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RulePolicy:
    """A stand-in for ``ControlPolicy`` with any rule: ``control(ctx)``
    returns ``rule(ctx)`` as the block's control matrix.  The library's
    policies are affine in alpha; the tests use this one for controls that
    are not."""

    name: str
    rule: Callable

    def control(self, ctx):
        return self.rule(ctx)


def reference_terms(setup, policy, ctx):
    """(u, run, x_T, diverged) of one block from the reference kernel
    ``wealth_paths_chunk``, for any policy with a ``control(ctx)`` matrix:
    the control matrix, the trapezoid running cost sum a w u^2 per row,
    X_T and the rows whose X_T is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        _, u, x_T, diverged = wealth_paths_chunk(setup, ctx, policy)
        run = np.einsum("ij,ij,j->i", u, u, setup.a * setup.trapezoid)
    return u, run, x_T, diverged


def reference_cost(setup, policy, ctx):
    """Per-path cost run - b X_T of ``reference_terms``, as a 1-tuple: the
    direct form of ``optimality.cost_chunk``, and a reducer for
    ``map_reducers``."""
    _, run, x_T, _ = reference_terms(setup, policy, ctx)
    with np.errstate(over="ignore", invalid="ignore"):
        return (run - setup.b_weight * x_T,)


def real_increments(ctx):
    """The (rows, N) increments on [t0, T) of a block's context, in real
    units."""
    return math.sqrt(ctx.dt) * ctx.Z[:, :-1]


def _mostly_flat(ctx):
    u = np.where(ctx.L > 4.8, np.inf, 0.5)[:, None]
    return np.broadcast_to(u, (len(ctx.L), ctx.i_last - ctx.i0 + 1))


# u = 0.5, but inf on the rows with L > 4.8 (P ~ 3e-4): those few rows
# diverge while the rest keep finite moments, which no affine policy does
MOSTLY_FLAT = RulePolicy("mostly-flat", _mostly_flat)

# An affine policy whose cost overflows on a few rows.  On the m == 1,
# T = 1, T1 = 2 grid, S = sum_k w_k alpha_k^2 (trapezoid weights w) exceeds 8
# on about 3.5e-4 of the paths; with the gain sqrt(max / (8 a)) the running
# cost a g^2 S overflows exactly there.  At a = 100, u^2 stays far below the
# float range at every node, so squaring u first, as ``reference_terms``
# does, overflows on the same rows.  The other rows' costs reach max / 8 and
# their moments overflow, so only per-row checks take this policy.
RARE_PARAMS = example2_params(a=100.0)
RARE_OVERFLOW = ControlPolicy("rare-overflow",
                              math.sqrt(sys.float_info.max / (8 * 100.0)))


def perturbed_policy(base, spec, y, params):
    """u + y * chi_window * theta0 as a policy of its own, theta0 frozen at
    the window-start node: the control whose cost ``sweep_coefficients``
    reads off ``base``'s weights and one window sum."""

    def rule(ctx):
        grid = TimeGrid(ctx.times[0], ctx.times[-1], len(ctx.times) - 1)
        ilo, ihi = window_indices(grid, spec.window, params.t0, params.T)
        out = base.control(ctx).copy()
        out[:, ilo - ctx.i0 : ihi - ctx.i0] += y * spec.theta_values(ctx, ilo)[:, None]
        return out

    return RulePolicy(f"{base.name}+{y:g}*step", rule)
