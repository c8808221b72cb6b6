"""Naive Monte Carlo and hazard-twisting importance-sampling estimators.

Both estimators share one sampling core: component i of sample j uses
word j*N + i of the run's uniform stream, and samples are generated by
exact inversion of the (possibly twisted) CDF.  A sum above gamma needs
a component above gamma / N, so a sample whose components all lie below
gamma / N, read off their survival values before inversion, is counted
as a miss and never inverted.  With theta = 0 the weighted estimator
degenerates to naive MC exactly, weight identically 1 on exceedances.

Accumulation is chunked with a fixed chunk size so results are
bit-identical regardless of how many workers process the chunks.
"""
from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError, UndefinedMetricError
from .solver import SumProblem
from .streams import RandomStream

CHUNK_SIZE = 1 << 15  # fixed; never derived from the worker count

NAIVE = "naive"
HAZARD_TWIST_IS = "hazard_twist_is"


@dataclass(frozen=True)
class ConfidenceConfig:
    confidence_constant: float = 1.96

    def __post_init__(self):
        if not self.confidence_constant > 0.0:
            raise ParameterError("confidence constant must be positive")


@dataclass(frozen=True)
class EstimateResult:
    """Output of one estimation run.

    `mean_weight` etc. describe the weighted exceedance indicator: for
    the naive method the weight is the indicator itself.  The two hit
    extremes (`max_log_weight_hit`, `min_hazard_sum_hit`) support the
    per-sample worst-case-weight certificate.
    """

    method: str
    alpha_hat: float
    sample_count: int
    hit_frequency: int
    mean_weight: float
    second_moment_weight: float
    fourth_moment_weight: float
    variance_weight: float
    std_error: float
    relative_error: float
    seed: int
    stream_id: int
    theta_used: float
    max_log_weight_hit: float
    min_hazard_sum_hit: float
    duration_seconds: float

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def _chunk_stats(problem: SumProblem, theta: float, cut: list,
                 stream: RandomStream, start: int, stop: int):
    n = problem.n
    u = stream.uniforms_at(start * n, (stop - start) * n).reshape(-1, n)
    log_sf = np.log1p(-u) / (1.0 - theta)
    # column by column: far cheaper than (log_sf < cut).any(axis=1)
    keep = log_sf[:, 0] < cut[0]
    for i in range(1, n):
        keep |= log_sf[:, i] < cut[i]
    log_sf = log_sf[keep]
    x = np.empty_like(log_sf)
    hazard_sum = np.zeros(log_sf.shape[0])
    for i, comp in enumerate(problem.components):
        x[:, i] = comp.quantile_from_log_sf(log_sf[:, i])
        hazard_sum -= log_sf[:, i]  # cumulative hazard of the base law at x[:, i]
    hits = x.sum(axis=1) > problem.gamma
    n_hits = int(np.count_nonzero(hits))
    if n_hits == 0:
        return 0.0, 0.0, 0.0, 0, -np.inf, np.inf
    if theta == 0.0:
        # naive limit: weight is exactly 1 on hits
        sum_w = float(n_hits)
        sum_w2 = float(n_hits)
        sum_w4 = float(n_hits)
        max_log_w = 0.0
    else:
        log_w = -n * math.log1p(-theta) - theta * hazard_sum[hits]
        w = np.exp(log_w)
        sum_w = float(np.sum(w))
        sum_w2 = float(np.sum(w * w))
        sum_w4 = float(np.sum((w * w) ** 2))
        max_log_w = float(np.max(log_w))
    return sum_w, sum_w2, sum_w4, n_hits, max_log_w, float(np.min(hazard_sum[hits]))


def _run(problem: SumProblem, theta: float, sample_count: int, seed: int,
         stream_id: int, method: str, confidence: ConfidenceConfig,
         workers: int) -> EstimateResult:
    if sample_count < 1:
        raise ParameterError("sample_count must be >= 1")
    if not (0.0 <= theta < 1.0):
        raise DomainError(f"theta must lie in [0, 1), got {theta}")
    t0 = time.perf_counter()
    stream = RandomStream(seed, stream_id)
    # a sum above gamma has a component above gamma / N, so a row whose
    # log_sf all lie at or above these cuts is a miss; the 1e-9 margin
    # dwarfs the rounding of the inversion, which keeps the cut exact
    edge = problem.gamma * (1.0 - 1e-9) / problem.n
    cut = [float(c.log_survival(edge)) for c in problem.components]
    bounds = list(range(0, sample_count, CHUNK_SIZE)) + [sample_count]
    jobs = list(zip(bounds[:-1], bounds[1:]))

    def work(job):
        return _chunk_stats(problem, theta, cut, stream, *job)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(work, jobs))
    else:
        results = [work(j) for j in jobs]

    # merge in chunk order; fsum keeps the merge associative in practice
    sum_w = math.fsum(r[0] for r in results)
    sum_w2 = math.fsum(r[1] for r in results)
    sum_w4 = math.fsum(r[2] for r in results)
    hits = sum(r[3] for r in results)
    max_log_w = max(r[4] for r in results)
    min_hs = min(r[5] for r in results)

    m = sample_count
    mean_w = sum_w / m
    second = sum_w2 / m
    fourth = sum_w4 / m
    variance = (m / (m - 1.0)) * (second - mean_w * mean_w) if m >= 2 else 0.0
    variance = max(variance, 0.0)
    std_error = math.sqrt(variance / m)
    c = confidence.confidence_constant
    rel_err = c * std_error / mean_w if mean_w > 0.0 else math.inf
    return EstimateResult(
        method=method,
        alpha_hat=mean_w,
        sample_count=m,
        hit_frequency=hits,
        mean_weight=mean_w,
        second_moment_weight=second,
        fourth_moment_weight=fourth,
        variance_weight=variance,
        std_error=std_error,
        relative_error=rel_err,
        seed=seed,
        stream_id=stream_id,
        theta_used=theta,
        max_log_weight_hit=max_log_w,
        min_hazard_sum_hit=min_hs,
        duration_seconds=time.perf_counter() - t0,
    )


def naive_mc(problem: SumProblem, sample_count: int, seed: int,
             stream_id: int = 0,
             confidence: ConfidenceConfig = ConfidenceConfig(),
             workers: int = 1) -> EstimateResult:
    """Plain Monte Carlo exceedance frequency under the base laws."""
    return _run(problem, 0.0, sample_count, seed, stream_id, NAIVE,
                confidence, workers)


def is_estimate(problem: SumProblem, theta: float, sample_count: int, seed: int,
                stream_id: int = 0,
                confidence: ConfidenceConfig = ConfidenceConfig(),
                workers: int = 1) -> EstimateResult:
    """Importance-sampling estimate under the theta-twisted laws.

    Each exceedance carries the likelihood weight
    (1-theta)^(-N) exp(-theta * sum of cumulative hazards), accumulated
    in log space.
    """
    return _run(problem, theta, sample_count, seed, stream_id,
                HAZARD_TWIST_IS, confidence, workers)


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def relative_error_naive(alpha_hat: float, sample_count_naive: int,
                         confidence: ConfidenceConfig = ConfidenceConfig()) -> float:
    """CLT relative error a naive run of that size would achieve.

    Feeding the IS point estimate in place of the (noisier) naive one
    gives the sharper Bernoulli-variance figure.
    """
    if not (0.0 < alpha_hat < 1.0):
        raise UndefinedMetricError(
            f"relative error undefined for alpha_hat={alpha_hat}")
    c = confidence.confidence_constant
    return c * math.sqrt(alpha_hat * (1.0 - alpha_hat)) / (
        math.sqrt(sample_count_naive) * alpha_hat)


def relative_error_is(result: EstimateResult,
                      confidence: ConfidenceConfig = ConfidenceConfig()) -> float:
    if result.alpha_hat <= 0.0 or result.sample_count < 2:
        raise UndefinedMetricError("relative error needs alpha_hat > 0 and M >= 2")
    c = confidence.confidence_constant
    return c * math.sqrt(result.variance_weight) / (
        math.sqrt(result.sample_count) * result.alpha_hat)


def efficiency_indicator(alpha_hat: float, variance_weight: float) -> float:
    """Naive-to-IS sample-count ratio at equal relative error."""
    if variance_weight < 0.0:
        raise UndefinedMetricError("variance must be nonnegative")
    if variance_weight == 0.0:
        return math.inf
    return alpha_hat * (1.0 - alpha_hat) / variance_weight


def optimality_ratio(second_moment_weight: float, alpha_hat: float) -> float:
    """log second moment over log probability; approaches 2 when optimal."""
    if not (0.0 < alpha_hat < 1.0) or second_moment_weight <= 0.0:
        raise UndefinedMetricError("optimality ratio undefined for these inputs")
    return math.log(second_moment_weight) / math.log(alpha_hat)
