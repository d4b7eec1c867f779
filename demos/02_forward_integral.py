"""The forward integral: stochastic integration without adaptedness.

The insider's positions depend on information from the future of the
filtration, so Ito integrals are not defined for them.  The forward
integral replaces the Ito limit with an eps-averaged one that exists for
anticipating integrands, and collapses to the plain left Riemann sum when
eps equals one grid step.  This script shows both faces: exact agreement
with the Ito sum at eps = dt, and the eps ladder converging for v = B.
"""

import numpy as np

from insiderlab import (
    InfoDriftField,
    Integrand,
    constant_weight,
    forward_estimate,
    ito_left_sum,
    make_grid,
    sample_brownian,
)


def left_sum_agreement() -> None:
    grid = make_grid(0.0, 2.0, 4096)
    B2 = sample_brownian(grid, seed=11)
    field = InfoDriftField(constant_weight(1.0), B2, horizon=1.0)
    B = B2.restrict(1.0)

    candidates = {
        "v = 1": Integrand(B.grid, np.ones(B.grid.n_steps + 1)),
        "v = B": Integrand(B.grid, B.values),
        "v = alpha (anticipating)": Integrand(B.grid, field.alpha),
    }
    print("forward(eps=dt) vs the Ito left sum:")
    for name, v in candidates.items():
        fwd = forward_estimate(v, B, eps=B.grid.dt)
        ito = ito_left_sum(v, B)
        print(f"  {name:<26} forward {fwd:+.10f}   ito {ito:+.10f}"
              f"   identical: {fwd == ito}")


def eps_ladder() -> None:
    # int_0^T B dB has the closed form (B_T^2 - T)/2; watch the eps-averaged
    # estimate tighten as eps shrinks toward one grid step
    grid = make_grid(0.0, 1.0, 4096)
    dt = grid.dt
    devs = {k: [] for k in (8, 4, 2, 1)}
    for seed in range(400):
        B = sample_brownian(grid, seed)
        target = 0.5 * (B.values[-1] ** 2 - 1.0)
        v = Integrand(grid, B.values)
        for k in devs:
            devs[k].append(abs(forward_estimate(v, B, eps=k * dt) - target))
    print("\nmedian |deviation| of forward(v=B) from (B_T^2 - T)/2,"
          " 400 paths:")
    for k, d in devs.items():
        print(f"  eps = {k} dt: {np.median(d):.3e}")


if __name__ == "__main__":
    left_sum_agreement()
    eps_ladder()
