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

The value integrals are reducers over each chunk's shared ``chunk_context``;
``example_estimates`` takes an example's value and costs from one draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
import numpy as np

from .controlled_sde import ControlPolicy, formula_policy, make_wealth_setup
from .enlargement import InfoDriftField, map_reducers, without_drift
from .optimality import EstimateWithError, cost_chunk
from .paths import TimeGrid, WeightFunction, as_weight, running_sum

__all__ = [
    "ModelParams",
    "NonConvexError",
    "generator_Au",
    "example1_control",
    "example1_policy",
    "example1_G",
    "example1_value",
    "Example1ValueField",
    "example2_control",
    "example2_policy",
    "example2_value",
    "example_estimates",
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
        object.__setattr__(self, "sigma_inf", float(probes.min()))
        object.__setattr__(self, "sigma_sup", float(probes.max()))

    @property
    def excess_rate(self) -> float:
        return 0.0 if self.rtilde is None else self.rtilde - self.r

    def grid(self, n_steps: int) -> TimeGrid:
        g = TimeGrid(0.0, self.t1, int(n_steps))
        g.index_of(self.T)  # T must be a node
        g.index_of(self.t0)
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


def generator_Au(
    Gt: float, Gx: float, Gxx: float, b_val: float, sigma_val: float, alpha: float
) -> float:
    """A^u G for given derivative values and coefficients at (t, x, u)."""
    return Gt + 0.5 * sigma_val * sigma_val * Gxx + (b_val + alpha * sigma_val) * Gx


def hjb_pointwise_infimum(
    Gt: float,
    Gx: float,
    Gxx: float,
    alpha: float,
    sigma: float,
    params: ModelParams,
    x: float,
    t: float,
) -> tuple[float, float]:
    """Minimize u -> A^u G + a u^2 over the wealth dynamics at one point.

    The expression is the quadratic
        [Gt + r x Gx] + [(excess + alpha sigma) Gx] u + [a + sigma^2 Gxx / 2] u^2
    and requires sigma^2 Gxx + 2a > 0 (second-derivative criterion); the
    minimizer is u_min = -(excess + alpha sigma) Gx / (sigma^2 Gxx + 2a).

    Returns (u_min, minimized value); the value is the HJB residual when G
    solves the equation.
    """
    curv = sigma * sigma * Gxx + 2.0 * params.a
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

def example1_control(alpha: float, sigma: float, t: float, params: ModelParams):
    """u* = alpha sigma b e^{-r(t-T)} / (2a); arrays broadcast."""
    return alpha * sigma * params.b * np.exp(-params.r * (t - params.T)) / (2 * params.a)


def _example1_formula(params: ModelParams, t, alpha, L):
    sig = params.sigma_fn.nodes(np.asarray(t, dtype=float))
    return example1_control(alpha, sig, t, params)


def example1_policy(params: ModelParams) -> ControlPolicy:
    return formula_policy("example1-optimal", partial(_example1_formula, params))


def _example1_integrand(params: ModelParams, times: np.ndarray,
                        alpha: np.ndarray) -> np.ndarray:
    """(b^2/4a) sigma^2 alpha^2 e^{-2r(s-T)} at the given nodes."""
    sig = params.sigma_fn.nodes(times)
    w = np.exp(-2.0 * params.r * (times - params.T)) * sig * sig
    return (params.b**2 / (4.0 * params.a)) * w * alpha * alpha


def example1_G(
    params: ModelParams,
    t: float,
    x: float,
    field: InfoDriftField,
    rho0: float = 0.0,
) -> float:
    """G(t, x) = f(t) x + g_t with f(t) = -b e^{-r(t-T)} and trapezoid g,
    as ``Example1ValueField`` computes it at the node of t.

    g_t accumulates the running integrand along the field's own path and
    subtracts rho0 (the centering constant E[g_T], estimated separately).
    """
    i = field.path.grid.index_of(t)
    if i > field.i_last:
        raise ValueError(f"t={t} beyond the decision horizon {field.horizon}")
    return float(Example1ValueField(params, field, rho0).G(i, x))


def _integral_chunk(i_from, integrand_fn, dB, ctx):
    with np.errstate(over="ignore", invalid="ignore"):
        block = integrand_fn(ctx.times[i_from : ctx.i_last + 1],
                             ctx.alpha[:, i_from:])
        vals = np.trapezoid(block, dx=ctx.dt, axis=1)
    return vals, ~np.isfinite(vals)


def example_estimates(example: int, params: ModelParams, t: float, x: float,
                      n_paths: int, seed: int, n_steps: int = 2048,
                      informed: bool = True, pool=None,
                      costs: bool = False) -> list[EstimateWithError]:
    """Estimates of example 1 or 2, all from one draw of the paths.

    Returns [V(t, x)], by trapezoid quadrature of the example's integrand
    per path.  With ``costs`` it appends the cost J(t0, x0; u*) of the
    optimal policy and, for example 2, the cost of u* without information.
    Each equals its own ``example{1,2}_value`` or ``cost_mc`` bit for bit.
    """
    setup = make_wealth_setup(params, n_steps, informed=informed)
    i_from = setup.grid.index_of(t)
    if not i_from < setup.i_last:
        raise ValueError(f"need t < T, got t={t}")
    if example == 1:
        integrand, policy = partial(_example1_integrand, params), example1_policy
        det = x * params.b * math.exp(-params.r * (t - params.T))
    else:
        c = params.b**2 / (4.0 * params.a)
        integrand, policy = partial(_example2_integrand, c), example2_policy
        det = params.b * x
    reducers = [partial(_integral_chunk, i_from, integrand)]
    if costs:
        cost = partial(cost_chunk, setup, policy=policy(params))
        reducers.append(cost)
        if example == 2:
            reducers.append(partial(without_drift, cost))
    out = [EstimateWithError.from_rows(vals, bad, seed)
           for vals, bad in map_reducers(setup, reducers, seed, n_paths, pool)]
    out[0] = replace(out[0], mean=-(det + out[0].mean))
    return out


def example1_value(
    params: ModelParams,
    t: float,
    x: float,
    n_paths: int,
    seed: int,
    n_steps: int = 2048,
    informed: bool = True,
    pool=None,
) -> EstimateWithError:
    """V(t, x) = -x b e^{-r(t-T)} - (b^2/4a) E int_t^T sigma^2 alpha^2 e^{-2r(s-T)} ds.

    The x-term is deterministic; the standard error comes entirely from the
    Monte Carlo integral.  With ``informed=False`` the integral vanishes and
    V reduces to the discounted-endowment term.  At t = 0, x = 0 it is
    -rho0, the centering constant of ``example1_G``.
    """
    return example_estimates(1, params, t, x, n_paths, seed, n_steps, informed,
                             pool)[0]


class Example1ValueField:
    """G and its partial derivatives along one drift field's path.

    Gt is analytic: f'(t) x + g'(t) with f' = r b e^{-r(t-T)} and
    g'(t) the running integrand, so residual checks carry no
    finite-difference error.  Gxx vanishes because G is affine in x.
    """

    def __init__(self, params: ModelParams, field: InfoDriftField, rho0: float = 0.0):
        self.params = params
        self.field = field
        self.rho0 = rho0
        grid = field.path.grid
        self._times = grid.times[: field.i_last + 1]
        self._integrand = _example1_integrand(params, self._times, field.alpha)
        trapezoids = 0.5 * (self._integrand[:-1] + self._integrand[1:])
        cum = running_sum(trapezoids) * grid.dt
        self._g = cum - rho0

    def f(self, i: int) -> float:
        return -self.params.b * math.exp(-self.params.r * (self._times[i] - self.params.T))

    def G(self, i: int, x: float) -> float:
        return self.f(i) * x + self._g[i]

    def Gt(self, i: int, x: float) -> float:
        fprime = self.params.r * self.params.b * math.exp(
            -self.params.r * (self._times[i] - self.params.T)
        )
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


def _example2_formula(params: ModelParams, t, alpha, L):
    return example2_control(alpha, params)


def example2_policy(params: ModelParams) -> ControlPolicy:
    return formula_policy("example2-optimal", partial(_example2_formula, params))


def example2_params(a: float = 1.0, b: float = 1.0, T: float = 1.0,
                    t1: float = 2.0, m=1.0, x0: float = 0.0) -> ModelParams:
    """dX = u dt + u dB as wealth dynamics: r = 0, rtilde = 1, sigma = 1."""
    return ModelParams(
        r=0.0, sigma_fn=1.0, a=a, b=b, T=T, t1=t1, m=m, x0=x0, rtilde=1.0
    )


def _example2_integrand(c: float, times: np.ndarray,
                        alpha: np.ndarray) -> np.ndarray:
    return c * (alpha + 1.0) ** 2


def example2_value(
    params: ModelParams,
    t: float,
    x: float,
    n_paths: int,
    seed: int,
    n_steps: int = 2048,
    informed: bool = True,
    pool=None,
) -> EstimateWithError:
    """V(t, x) = -b x - (b^2/4a) E int_t^T (alpha + 1)^2 ds (derived form).

    ``informed=False`` drops the drift: the integral collapses to the
    deterministic (b^2/4a)(T - t).  At t = 0, x = 0 it is -rho0.
    """
    return example_estimates(2, params, t, x, n_paths, seed, n_steps, informed,
                             pool)[0]
