"""How much is inside information worth?  Both worked examples, priced.

Each example has a closed-form optimal control and a value with an analytic
benchmark.  The script simulates the optimal policy, compares the Monte
Carlo cost with the paper's value function V(t0, x0), computed exactly on
the simulation grid, and with the analytic target, and then strips the information away to show the price gap it
explains.
"""

import math

from insiderlab import (
    ModelParams,
    cost_mc,
    example1_policy,
    example1_value,
    example2_params,
    example2_policy,
    example2_value,
    uninformed,
)

N_PATHS = 20_000
N_STEPS = 2048


def example_one() -> None:
    # dX = u sigma dB on the benchmark: the insider trades alpha against a
    # quadratic effort cost and earns -ln2/4
    params = ModelParams.benchmark()
    est = cost_mc(example1_policy(params), params, N_PATHS, seed=3,
                  n_steps=N_STEPS)
    value = example1_value(params, params.t0, params.x0, N_STEPS)
    target = -math.log(2.0) / 4.0
    print("example 1 (pure diffusion wealth):")
    print(f"  simulated cost  {est.mean:+.5f} +- {est.std_error:.5f}")
    print(f"  value V(t0, x0) {value:+.5f}   (exact on the grid)")
    print(f"  analytic target {target:+.5f}")
    print(f"  gap in SE units {abs(est.mean - target) / est.std_error:.2f}")


def example_two() -> None:
    # dX = u dt + u dB: the asset also carries excess drift, so even an
    # uninformed agent trades; information adds the alpha tilt.  The agent
    # without the signal plays uninformed(u*): the same policy with gain 0
    params = example2_params()
    est = cost_mc(example2_policy(params), params, N_PATHS, seed=5,
                  n_steps=N_STEPS)
    value = example2_value(params, params.t0, params.x0, N_STEPS)
    target = -(math.log(2.0) + 1.0) / 4.0
    print("\nexample 2 (drifted wealth):")
    print(f"  simulated cost  {est.mean:+.5f} +- {est.std_error:.5f}")
    print(f"  value V(t0, x0) {value:+.5f}   (exact on the grid)")
    print(f"  analytic target {target:+.5f}")

    blind = cost_mc(uninformed(example2_policy(params)), params, N_PATHS,
                    seed=7, n_steps=N_STEPS)
    print(f"  without the signal the same policy freezes at u = b/2a = 0.5:")
    print(f"  uninformed cost {blind.mean:+.5f} +- {blind.std_error:.5f}"
          f"   (analytic -0.25)")
    print(f"  information premium ~ {blind.mean - est.mean:+.5f}"
          f"   (analytic ln2/4 = {math.log(2.0) / 4.0:.5f})")


if __name__ == "__main__":
    example_one()
    example_two()
