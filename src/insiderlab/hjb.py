"""Generator, HJB infimum, and the closed-form example solutions.

The candidate value fields G(t, x) are checked against the generator

    A^u G = dG/dt + (1/2) sigma(t,x,u)^2 d2G/dx2 + (b(t,x,u) + alpha sigma) dG/dx

and the pointwise HJB condition inf_u { A^u G + a u^2 } = 0.  Two closed
forms are shipped:

* the discounted-wealth example  dX = r X dt + u sigma dB  with
  G = -x b e^{-r(t-T)} + (b^2/4a) int_0^t sigma^2 alpha^2 e^{-2r(s-T)} ds - rho0
  and optimal control u* = alpha sigma b e^{-r(t-T)} / (2a);

* the drifted example  dX = u dt + u dB  with u* = b (alpha + 1) / (2a),
  whose value function V = -b x - (b^2/4a) E int_t^T (alpha+1)^2 ds is
  derived from its G (it is not displayed in closed form anywhere, so all
  its targets are treated as derived).

Both examples are instances of the wealth dynamics
dX = [r X + (rtilde - r) u] dt + sigma u dB: the first with rtilde = r, the
second with r = 0, rtilde = 1, sigma = 1.

The values need no simulation: E[alpha^2] is known exactly on the grid
(``enlargement.drift_square_mean``), so each value is a trapezoid sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .controlled_sde import ControlPolicy
from .enlargement import InfoDriftField, drift_setup, drift_square_mean
from .optimality import DivergenceError
from .paths import TimeGrid, WeightFunction, as_weight, running_sum

__all__ = [
    "ModelParams",
    "NonConvexError",
    "example1_control",
    "example1_policy",
    "example1_value",
    "Example1ValueField",
    "example2_control",
    "example2_policy",
    "example2_value",
    "hjb_pointwise_infimum",
]


class NonConvexError(ValueError):
    """The quadratic in u is not strictly convex; no interior minimizer."""


@dataclass(frozen=True, eq=False)
class ModelParams:
    """Coefficients of the wealth/HJB examples on [t0, T] with horizon T1 > T.

    ``sigma_fn`` and ``m`` accept constants or callables of time; both are
    coerced to WeightFunction.  ``rtilde`` defaults to r (no excess return).
    Validation enforces a, b > 0, t0 < T < T1 and a diffusion bounded away
    from zero on [0, T].
    """

    r: float
    sigma_fn: WeightFunction
    a: float
    b: float
    T: float
    t1: float
    m: WeightFunction
    x0: float = 0.0
    t0: float = 0.0
    rtilde: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "sigma_fn", as_weight(self.sigma_fn))
        object.__setattr__(self, "m", as_weight(self.m))
        if not (self.a > 0 and self.b > 0):
            raise ValueError(f"need a, b > 0, got a={self.a}, b={self.b}")
        if not (0.0 <= self.t0 < self.T < self.t1):
            raise ValueError(
                f"need 0 <= t0 < T < T1, got t0={self.t0}, T={self.T}, "
                f"T1={self.t1}"
            )
        probes = np.abs(self.sigma_fn.nodes(np.linspace(0.0, self.T, 257)))
        if float(probes.min()) <= 0.0:
            raise ValueError("sigma must stay away from 0 on [0, T]")
        if not np.all(np.isfinite(probes)):
            raise ValueError("sigma must be bounded on [0, T]")

    @property
    def excess_rate(self) -> float:
        return 0.0 if self.rtilde is None else self.rtilde - self.r

    def grid(self, n_steps: int) -> TimeGrid:
        g = TimeGrid(0.0, self.t1, int(n_steps))
        i_T = g.index_of(self.T)  # T and t0 must be nodes, and distinct ones
        if g.index_of(self.t0) >= i_T:
            raise ValueError(f"t0={self.t0} and T={self.T} fall on one node "
                             f"of the {n_steps}-step grid")
        return g

    @classmethod
    def benchmark(cls, **overrides) -> "ModelParams":
        """m == 1, T = 1, T1 = 2, r = 0, sigma == 1, a = b = 1, x0 = 0."""
        defaults = dict(
            r=0.0, sigma_fn=1.0, a=1.0, b=1.0, T=1.0, t1=2.0, m=1.0,
            x0=0.0, t0=0.0,
        )
        defaults.update(overrides)
        return cls(**defaults)


def hjb_pointwise_infimum(
    Gt: float,
    Gx: float,
    Gxx: float,
    alpha: float,
    sigma: float,
    params: ModelParams,
    x: float,
) -> tuple[float, float]:
    """Minimize u -> A^u G + a u^2 over the wealth dynamics at one point.

    The expression is the quadratic
        [Gt + r x Gx] + [(excess + alpha sigma) Gx] u + [a + sigma^2 Gxx / 2] u^2
    and requires sigma^2 Gxx + 2a > 0 (second-derivative criterion); the
    minimizer is u_min = -(excess + alpha sigma) Gx / (sigma^2 Gxx + 2a).
    A curvature that overflows raises DivergenceError.

    Returns (u_min, minimized value); the value is the HJB residual when G
    solves the equation.
    """
    curv = sigma * sigma * Gxx + 2.0 * params.a
    if not math.isfinite(curv):
        raise DivergenceError(1, 1, f"sigma^2 Gxx + 2a = {curv:g} is not finite")
    if not curv > 0.0:
        raise NonConvexError(
            f"sigma^2 Gxx + 2a = {curv:.3g} <= 0: quadratic not strictly convex"
        )
    lin = (params.excess_rate + alpha * sigma) * Gx
    const = Gt + params.r * x * Gx
    u_min = -lin / curv
    value = const + lin * u_min + 0.5 * curv * u_min * u_min
    return u_min, value


# ---------------------------------------------------------------------------
# Example: discounted wealth, dX = r X dt + u sigma dB
# ---------------------------------------------------------------------------

def _discount(params: ModelParams, t: float) -> float:
    """e^{-r(t-T)}; one that overflows raises DivergenceError."""
    try:
        return math.exp(-params.r * (t - params.T))
    except OverflowError:
        raise DivergenceError(1, 1, f"e^(-r(t-T)) overflowed at r = "
                              f"{params.r:g}, t = {t:g}") from None


def example1_control(alpha: float, sigma: float, t: float, params: ModelParams):
    """u* = alpha sigma b e^{-r(t-T)} / (2a); arrays broadcast."""
    return alpha * sigma * params.b * np.exp(-params.r * (t - params.T)) / (2 * params.a)


def _example1_gain(params: ModelParams, t):
    return example1_control(1.0, params.sigma_fn.nodes(t), t, params)


def example1_policy(params: ModelParams) -> ControlPolicy:
    """u* as a policy: gain ``example1_control`` at alpha = 1, offset 0."""
    return ControlPolicy("example1-optimal", partial(_example1_gain, params))


def _example1_weight(params: ModelParams, times: np.ndarray) -> np.ndarray:
    """(b^2/4a) sigma^2 e^{-2r(s-T)}: the value integrand per unit alpha^2."""
    sig = params.sigma_fn.nodes(times)
    w = np.exp(-2.0 * params.r * (times - params.T)) * sig * sig
    return (params.b * params.b / (4.0 * params.a)) * w


def _grid_value(params: ModelParams, t: float, x: float, n_steps: int,
                det: float, weight: Callable, shift: float) -> float:
    """-(det + int_t^T weight(s) (E[alpha_s^2] + shift) ds) on the grid.

    The integral is the trapezoid sum over the nodes of [t, T], with the
    exact E[alpha_i^2] of ``drift_square_mean``: the mean of the per-path
    trapezoid sums of the drift the simulations draw.  A value that is not
    finite raises DivergenceError.
    """
    setup = drift_setup(params.m, params.grid(n_steps), params.T, t)
    if not setup.i0 < setup.i_last:
        raise ValueError(f"need t < T, got t={t}")
    times = setup.grid.times[setup.i0 : setup.i_last + 1]
    with np.errstate(over="ignore", invalid="ignore"):
        moment = drift_square_mean(setup)[setup.i0 :]
        integral = np.trapezoid(weight(times) * (moment + shift),
                                dx=setup.grid.dt)
        value = -(det + float(integral))
    if not math.isfinite(value):
        raise DivergenceError(1, 1, f"V({t:g}, {x:g}) = {value:g}: the value "
                              f"overflowed; refused")
    return value


def example1_value(params: ModelParams, t: float, x: float,
                   n_steps: int = 2048) -> float:
    """V(t, x) = -x b e^{-r(t-T)} - (b^2/4a) E int_t^T sigma^2 alpha^2 e^{-2r(s-T)} ds.

    Exact on the grid of ``n_steps`` steps (see ``_grid_value``).  At
    t = 0, x = 0 it is -rho0, the centering constant of
    ``Example1ValueField``.
    """
    det = x * params.b * _discount(params, t)
    return _grid_value(params, t, x, n_steps, det,
                       partial(_example1_weight, params), 0.0)


class Example1ValueField:
    """G and its partial derivatives along one drift field's path, at node i.

    G(i, x) = f(t_i) x + g_i with f(t) = -b e^{-r(t-T)}; g accumulates the
    running integrand by the trapezoid rule along the field's own path and
    subtracts rho0 (the centering constant E[g_T] = -V(0, 0), which
    ``example1_value`` gives exactly on the grid).
    Gt is analytic: f'(t) x + g'(t) with f' = r b e^{-r(t-T)} and
    g'(t) the running integrand, so residual checks carry no
    finite-difference error.  Gxx vanishes because G is affine in x.
    """

    def __init__(self, params: ModelParams, field: InfoDriftField, rho0: float = 0.0):
        self.params = params
        grid = field.path.grid
        self._times = grid.times[: field.i_last + 1]
        self._integrand = (_example1_weight(params, self._times)
                           * field.alpha * field.alpha)
        trapezoids = 0.5 * (self._integrand[:-1] + self._integrand[1:])
        cum = running_sum(trapezoids) * grid.dt
        self._g = cum - rho0

    def f(self, i: int) -> float:
        return -self.params.b * _discount(self.params, self._times[i])

    def G(self, i: int, x: float) -> float:
        return self.f(i) * x + self._g[i]

    def Gt(self, i: int, x: float) -> float:
        fprime = self.params.r * self.params.b * _discount(self.params, self._times[i])
        return fprime * x + self._integrand[i]

    def Gx(self, i: int) -> float:
        return self.f(i)

    def Gxx(self, i: int) -> float:
        return 0.0


# ---------------------------------------------------------------------------
# Example: drifted wealth, dX = u dt + u dB
# ---------------------------------------------------------------------------

def example2_control(alpha, params: ModelParams):
    """u* = b (alpha + 1) / (2a); arrays broadcast."""
    return params.b * (alpha + 1.0) / (2.0 * params.a)


def example2_policy(params: ModelParams) -> ControlPolicy:
    """u* as a policy: gain and offset both ``example2_control`` at alpha = 0."""
    c = example2_control(0.0, params)
    return ControlPolicy("example2-optimal", c, c)


def example2_params(a: float = 1.0, b: float = 1.0, T: float = 1.0,
                    t1: float = 2.0, m=1.0, x0: float = 0.0) -> ModelParams:
    """dX = u dt + u dB as wealth dynamics: r = 0, rtilde = 1, sigma = 1."""
    return ModelParams(
        r=0.0, sigma_fn=1.0, a=a, b=b, T=T, t1=t1, m=m, x0=x0, rtilde=1.0
    )


def example2_value(params: ModelParams, t: float, x: float,
                   n_steps: int = 2048) -> float:
    """V(t, x) = -b x - (b^2/4a) E int_t^T (alpha + 1)^2 ds (derived form).

    E[alpha] = 0, so the integrand's mean is (b^2/4a) (E[alpha^2] + 1);
    exact on the grid of ``n_steps`` steps.  At t = 0, x = 0 it is -rho0.
    """
    c = params.b * params.b / (4.0 * params.a)
    return _grid_value(params, t, x, n_steps, params.b * x,
                       lambda times: c, 1.0)
