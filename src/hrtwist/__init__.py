"""Hazard-rate-twisting importance sampling for tail probabilities of sums
of independent heavy-tailed random variables."""

from .distributions import (
    DB_SCALE,
    Distribution,
    Lognormal,
    LognormalParams,
    Weibull,
    WeibullParams,
    db_to_linear,
    distribution_from_dict,
    linear_to_db,
)
from .errors import (
    DomainError,
    OracleConvergenceError,
    ParameterError,
    UndefinedMetricError,
    UnsupportedFamilyError,
)
from .estimators import (
    ConfidenceConfig,
    EstimateResult,
    efficiency_indicator,
    is_estimate,
    naive_mc,
    optimality_ratio,
    relative_error_is,
    relative_error_naive,
)
from .oracles import (
    QuadratureConfig,
    exact_tail_single,
    grid_oracle_pprime,
    tail_convolution_2,
    theta_sensitivity_sweep,
)
from .solver import (
    MinmaxSolution,
    SumProblem,
    second_moment_bound,
    solve_pprime,
    theta_star,
)
from .streams import RandomStream
from .twisting import TwistedDistribution, twist, weibull_twist_equivalent

__version__ = "0.1.0"
