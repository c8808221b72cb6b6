"""Hazard-rate-twisting importance sampling for tail probabilities of sums
of independent heavy-tailed random variables."""

from .distributions import (
    DB_SCALE,
    Distribution,
    Lognormal,
    Weibull,
    db_to_linear,
)
from .errors import OracleConvergenceError, ParameterError
from .estimators import EstimateResult, is_estimate, is_estimates, naive_mc
from .oracles import tail_convolution_2
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
