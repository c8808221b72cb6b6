"""Independent brute-force references for validating the estimators.

Nothing here shares code paths with the sampling estimators: tails come
from closed-form survival functions or from tanh-sinh quadrature of the
two-component convolution in log space, and the constrained minimization
is checked against exhaustive grid search.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import tanhsinh
from scipy.special import logsumexp

from .distributions import Distribution
from .errors import OracleConvergenceError, ParameterError
from .estimators import is_estimate
from .solver import MinmaxSolution, SumProblem, second_moment_bound, solve_pprime

# tanh-sinh stopping rule, relative: well inside the 1e-10 the oracle
# promises, since the rule bounds its error estimate, not the error
_LOG_RTOL = math.log(1e-13)


@dataclass(frozen=True)
class QuadratureConfig:
    # None means 1e-10 relative to the computed value
    absolute_tolerance: float | None = None

    def __post_init__(self):
        if self.absolute_tolerance is not None and self.absolute_tolerance <= 0.0:
            raise ParameterError("tolerance must be positive")


def exact_tail_single(dist: Distribution, gamma: float) -> float:
    """Closed-form exceedance probability for one component."""
    return float(dist.survival(gamma))


def tail_convolution_2(dist1: Distribution, dist2: Distribution, gamma: float,
                       cfg: QuadratureConfig = QuadratureConfig()) -> float:
    """P(X1 + X2 > gamma) by tanh-sinh quadrature of the convolution.

    Split at gamma / 2: either both components exceed it, or one lies
    below it and the other makes up the rest:

        S1(g/2) S2(g/2) + int_0^{g/2} f1(x) S2(g - x) dx
                        + int_0^{g/2} f2(y) S1(g - y) dy.

    Both integrals run in one vectorised tanh-sinh call on log integrands,
    so a density spike at 0 sits on an endpoint and thresholds far in the
    joint tail (values hundreds of decades below 1) lose no precision.
    """
    if gamma <= 0.0:
        raise ParameterError("gamma must be positive")
    half = 0.5 * gamma

    def log_integrand(x, first):
        # an abscissa can round onto the endpoint 0, whose value tanhsinh
        # ignores but still asks for
        x, first = np.broadcast_arrays(np.maximum(x, np.finfo(float).tiny), first)
        out = np.empty(x.shape)
        a, b = x[first], x[~first]
        out[first] = dist1.log_pdf(a) + dist2.log_survival(gamma - a)
        out[~first] = dist2.log_pdf(b) + dist1.log_survival(gamma - b)
        return out

    res = tanhsinh(log_integrand, 0.0, half, args=(np.array([True, False]),),
                   log=True, rtol=_LOG_RTOL)
    if np.any(res.status != 0):
        raise OracleConvergenceError(
            f"convolution quadrature did not converge (status "
            f"{res.status.tolist()}) at gamma={gamma}")
    corner = float(dist1.log_survival(half) + dist2.log_survival(half))
    log_result = float(logsumexp(np.append(res.integral, corner)))
    log_err = float(logsumexp(res.error))
    tol = cfg.absolute_tolerance
    log_tol = math.log(1e-10) + log_result if tol is None else math.log(tol)
    if log_err > log_tol:
        raise OracleConvergenceError(
            f"convolution quadrature error {math.exp(log_err):.3e} exceeds "
            f"tolerance {math.exp(log_tol):.3e} at gamma={gamma}")
    return math.exp(log_result)


def grid_oracle_pprime(problem: SumProblem,
                       grid_points_per_dim: int) -> tuple[np.ndarray, float]:
    """Exhaustive simplex-grid minimization of the summed hazards, N <= 3."""
    n = problem.n
    gamma = problem.gamma
    if n > 3:
        raise ParameterError("grid oracle supports N <= 3 only")
    g = int(grid_points_per_dim)
    if g < 2:
        raise ParameterError("need at least 2 grid points per dimension")

    if n == 1:
        x = np.array([gamma])
        return x, float(problem.hazard_sum(x)[0])

    axis = np.linspace(0.0, gamma, g)
    if n == 2:
        pts = np.column_stack([axis, gamma - axis])
    else:
        x1, x2 = np.meshgrid(axis, axis, indexing="ij")
        x1, x2 = x1.ravel(), x2.ravel()
        x3 = gamma - x1 - x2
        keep = x3 >= -1e-12 * gamma
        pts = np.column_stack([x1[keep], x2[keep], np.maximum(x3[keep], 0.0)])
    objs = problem.hazard_sum(pts)
    best = int(np.argmin(objs))
    return pts[best], float(objs[best])


@dataclass(frozen=True)
class SweepRow:
    theta: float
    second_moment_empirical: float
    second_moment_bound: float
    std_error: float


def theta_sensitivity_sweep(problem: SumProblem, theta_grid, sample_count: int,
                            seed: int) -> tuple[list[SweepRow], MinmaxSolution]:
    """Empirical second moment vs the analytic bound across twisting amounts.

    The solved minmax theta* is inserted into the grid if absent.  Run i
    of the sweep uses substream i of the base seed, so the whole table is
    reproducible from (config, seed) alone.
    """
    solution = solve_pprime(problem)
    grid = sorted(set(float(t) for t in theta_grid) | {solution.theta_star})
    for t in grid:
        if not (0.0 <= t < 1.0):
            raise ParameterError(f"theta grid value {t} outside [0, 1)")
    rows = []
    for idx, theta in enumerate(grid):
        res = is_estimate(problem, theta, sample_count, seed, stream_id=idx)
        m2 = res.second_moment_weight
        sweep_se = math.sqrt(
            max(res.fourth_moment_weight - m2 * m2, 0.0) / sample_count)
        rows.append(SweepRow(
            theta=theta,
            second_moment_empirical=m2,
            second_moment_bound=float(
                second_moment_bound(theta, solution.objective, problem.n)),
            std_error=sweep_se,
        ))
    return rows, solution
