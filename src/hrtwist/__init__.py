"""Hazard-rate-twisting importance sampling for tail probabilities of sums
of independent heavy-tailed random variables."""

from .distributions import (
    DB_SCALE,
    Distribution,
    Lognormal,
    Weibull,
    db_to_linear,
    distribution_from_dict,
    linear_to_db,
)
from .errors import OracleConvergenceError, ParameterError
from .estimators import (
    EstimateResult,
    efficiency_indicator,
    is_estimate,
    naive_mc,
    relative_error_is,
    relative_error_naive,
    theta_sensitivity_sweep,
)
from .oracles import exact_tail_single, tail_convolution_2
from .solver import (
    MinmaxSolution,
    SumProblem,
    second_moment_bound,
    solve_pprime,
    theta_star,
)
from .streams import RandomStream
from .twisting import TwistedDistribution

__version__ = "0.1.0"
