"""insiderlab: Monte Carlo laboratory for optimal control with inside information.

The package simulates wealth dynamics driven by a Brownian motion whose
filtration is initially enlarged by a Gaussian functional L, evaluates the
closed-form HJB solutions of the two worked examples, and certifies their
optimality numerically through forward-integral, perturbation, and
martingale diagnostics.
"""

from .controlled_sde import (
    CoefficientSpec,
    ControlPolicy,
    Domain,
    SimulationDiverged,
    StatePath,
    constant_policy,
    feedback_policy,
    first_exit,
    formula_policy,
    make_wealth_setup,
    simulate_forward,
    simulate_insider,
    wealth_coefficients,
)
from .enlargement import (
    InfoDriftField,
    decompose,
    decomposition_stats,
    drift_second_moment,
    information_drift,
)
from .forward_integral import (
    Integrand,
    compare_forward_ito,
    forward_estimate,
    ito_left_sum,
)
from .hjb import (
    Example1ValueField,
    ModelParams,
    NonConvexError,
    example1_G,
    example1_control,
    example1_policy,
    example1_value,
    example2_control,
    example2_params,
    example2_policy,
    example2_value,
    generator_Au,
    hjb_pointwise_infimum,
)
from .optimality import (
    DivergenceError,
    EstimateWithError,
    PerturbationSpec,
    cost_mc,
    directional_derivative,
    discounted_diffusion,
    martingale_diagnostic,
    perturbation_sweep,
    pooled_se,
    semimartingale_recovery,
)
from .paths import (
    BrownianPath,
    TimeGrid,
    WeightFunction,
    as_weight,
    constant_weight,
    eval_L,
    make_grid,
    sample_brownian,
)

__version__ = "0.1.0"

__all__ = [
    "BrownianPath",
    "CoefficientSpec",
    "ControlPolicy",
    "DivergenceError",
    "Domain",
    "EstimateWithError",
    "Example1ValueField",
    "InfoDriftField",
    "Integrand",
    "ModelParams",
    "NonConvexError",
    "PerturbationSpec",
    "SimulationDiverged",
    "StatePath",
    "TimeGrid",
    "WeightFunction",
    "as_weight",
    "compare_forward_ito",
    "constant_policy",
    "constant_weight",
    "cost_mc",
    "decompose",
    "decomposition_stats",
    "directional_derivative",
    "discounted_diffusion",
    "drift_second_moment",
    "eval_L",
    "example1_G",
    "example1_control",
    "example1_policy",
    "example1_value",
    "example2_control",
    "example2_params",
    "example2_policy",
    "example2_value",
    "feedback_policy",
    "first_exit",
    "formula_policy",
    "forward_estimate",
    "generator_Au",
    "hjb_pointwise_infimum",
    "information_drift",
    "ito_left_sum",
    "make_grid",
    "make_wealth_setup",
    "martingale_diagnostic",
    "perturbation_sweep",
    "pooled_se",
    "sample_brownian",
    "semimartingale_recovery",
    "simulate_forward",
    "simulate_insider",
    "wealth_coefficients",
    "__version__",
]
