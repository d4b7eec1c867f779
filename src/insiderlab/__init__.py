"""insiderlab: Monte Carlo laboratory for optimal control with inside information.

The package simulates wealth dynamics driven by a Brownian motion whose
filtration is initially enlarged by a Gaussian functional L, evaluates the
closed-form HJB solutions of the two worked examples, and certifies their
optimality numerically through forward-integral, perturbation, and
martingale diagnostics.
"""

from .controlled_sde import (
    ControlPolicy,
    constant_policy,
    make_wealth_setup,
    uninformed,
)
from .enlargement import (
    InfoDriftField,
    decompose,
    decomposition_stats,
    drift_second_moment,
)
from .forward_integral import (
    Integrand,
    forward_estimate,
    ito_left_sum,
)
from .hjb import (
    Example1ValueField,
    ModelParams,
    NonConvexError,
    example1_control,
    example1_policy,
    example1_value,
    example2_control,
    example2_params,
    example2_policy,
    example2_value,
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
    make_grid,
    sample_brownian,
)

__version__ = "0.1.0"

__all__ = [
    "BrownianPath",
    "ControlPolicy",
    "DivergenceError",
    "EstimateWithError",
    "Example1ValueField",
    "InfoDriftField",
    "Integrand",
    "ModelParams",
    "NonConvexError",
    "PerturbationSpec",
    "TimeGrid",
    "WeightFunction",
    "as_weight",
    "constant_policy",
    "constant_weight",
    "cost_mc",
    "decompose",
    "decomposition_stats",
    "directional_derivative",
    "discounted_diffusion",
    "drift_second_moment",
    "example1_control",
    "example1_policy",
    "example1_value",
    "example2_control",
    "example2_params",
    "example2_policy",
    "example2_value",
    "forward_estimate",
    "hjb_pointwise_infimum",
    "ito_left_sum",
    "make_grid",
    "make_wealth_setup",
    "martingale_diagnostic",
    "perturbation_sweep",
    "pooled_se",
    "sample_brownian",
    "semimartingale_recovery",
    "uninformed",
    "__version__",
]
