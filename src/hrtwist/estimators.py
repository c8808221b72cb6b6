"""Naive Monte Carlo and hazard-twisting importance-sampling estimators.

Both estimators share one sampling core: component i of sample j uses
word j*N + i of the run's Philox stream, and samples are generated by
exact inversion of the (possibly twisted) CDF.  Only rows with a word at
or past its component's survival cut (`_word_cuts`) are converted to
uniforms and inverted; the rest are misses.
With theta = 0 the weighted estimator degenerates to naive MC exactly,
weight identically 1 on exceedances.

Accumulation is chunked with a fixed chunk size so results are
bit-identical regardless of how many workers process the chunks.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .solver import MinmaxSolution, SumProblem, second_moment_bound, solve_pprime
from .streams import RandomStream, least_word, uniforms_from_words

CHUNK_SIZE = 1 << 15  # fixed; never derived from the worker count


@dataclass(frozen=True)
class EstimateResult:
    """Output of one estimation run.

    `alpha_hat` and the moments describe the weighted exceedance
    indicator: for naive MC (theta 0) the weight is the indicator itself.
    The two hit extremes (`max_log_weight_hit`, `min_hazard_sum_hit`)
    support the per-sample worst-case-weight certificate.
    """

    alpha_hat: float
    sample_count: int
    hit_frequency: int
    second_moment_weight: float
    fourth_moment_weight: float
    variance_weight: float
    std_error: float
    theta_used: float
    max_log_weight_hit: float
    min_hazard_sum_hit: float


def _chunk_stats(problem: SumProblem, theta: float, cut: list,
                 stream: RandomStream, start: int, stop: int):
    """Hit moments of samples [start, stop), keeping rows past the word cut.

    `cut` is `_word_cuts(problem, theta)`.  A row's sum is added up column
    by column, left to right.  numpy's row sum adds fewer than 8 terms in
    that order too, so for N <= 7 every hit is the one a full inversion
    finds; from N = 8 on numpy sums pairwise, and a sum within rounding of
    gamma could in principle fall the other way.
    """
    n = problem.n
    raw = stream.words_at(start * n, (stop - start) * n).reshape(-1, n)
    # column by column: far cheaper than a 2-D compare and any(axis=1)
    (i, w), *rest = cut
    keep = raw[:, i] >= w
    for i, w in rest:
        keep |= raw[:, i] >= w
    raw = np.compress(keep, raw, axis=0)
    total = np.zeros(raw.shape[0])
    hazard_sum = np.zeros(raw.shape[0])
    for i, comp in enumerate(problem.components):
        log_sf = np.log1p(-uniforms_from_words(raw[:, i])) / (1.0 - theta)
        total += comp.quantile_from_log_sf(log_sf)
        hazard_sum -= log_sf  # cumulative hazard of the base law at x_i
    hits = total > problem.gamma
    n_hits = int(np.count_nonzero(hits))
    if n_hits == 0:
        return 0.0, 0.0, 0.0, 0, -np.inf, np.inf
    # at theta = 0 every weight is exactly 1 (log weight +0.0)
    log_w = -n * math.log1p(-theta) - theta * hazard_sum[hits]
    w = np.exp(log_w)
    return (float(np.sum(w)), float(np.sum(w * w)), float(np.sum((w * w) ** 2)),
            n_hits, float(np.max(log_w)), float(np.min(hazard_sum[hits])))


def _word_cuts(problem: SumProblem, theta: float) -> list:
    """(i, least kept word) for each component i that can pass the survival cut.

    A sum above gamma has a component above edge = gamma (1 - 1e-9) / N,
    and component i passes the edge iff its uniform exceeds 1 - s_i, s_i =
    S_i(edge)^(1 - theta).  The least kept word is the least whose uniform
    is at least 1 - (1 + 1e-12) s_i - 2^-53; that slack dwarfs the rounding
    of the core's log1p(-u) / (1 - theta), so every row that can hit is
    kept, and the extra rows lie under the edge and miss.  Components whose
    largest word fails the core's float test are left out.
    """
    edge = problem.gamma * (1.0 - 1e-9) / problem.n
    cut = np.array([c.log_survival(edge) for c in problem.components])
    # numpy's log1p, as in the core (math.log1p can differ in the last bit)
    top = uniforms_from_words(np.full(cut.shape, 2 ** 64 - 1, dtype=np.uint64))
    reachable = np.log1p(-top) / (1.0 - theta) < cut
    least = least_word(
        1.0 - (1.0 + 1e-12) * np.exp((1.0 - theta) * cut) - 2.0 ** -53)
    return [(i, w) for i, w in enumerate(least) if reachable[i]]


def _run(problem: SumProblem, theta: float, sample_count: int, seed: int,
         stream_id: int, workers: int) -> EstimateResult:
    if sample_count < 1:
        raise ParameterError("sample_count must be >= 1")
    if not (0.0 <= theta < 1.0):
        raise ParameterError(f"theta must lie in [0, 1), got {theta}")
    stream = RandomStream(seed, stream_id)
    cut = _word_cuts(problem, theta)
    # no word can reach the cut: every row is a miss, so draw none
    bounds = list(range(0, sample_count, CHUNK_SIZE)) if cut else []
    bounds.append(sample_count)
    jobs = list(zip(bounds[:-1], bounds[1:]))

    def work(job):
        return _chunk_stats(problem, theta, cut, stream, *job)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(work, jobs))
    else:
        results = [work(j) for j in jobs]

    # merge in chunk order; fsum keeps the merge associative in practice
    sum_w, sum_w2, sum_w4 = (math.fsum(r[k] for r in results) for k in range(3))
    hits = sum(r[3] for r in results)
    max_log_w = max((r[4] for r in results), default=-math.inf)
    min_hs = min((r[5] for r in results), default=math.inf)

    m = sample_count
    mean_w, second, fourth = sum_w / m, sum_w2 / m, sum_w4 / m
    variance = max((m / (m - 1.0)) * (second - mean_w * mean_w), 0.0) if m >= 2 else 0.0
    return EstimateResult(
        alpha_hat=mean_w,
        sample_count=m,
        hit_frequency=hits,
        second_moment_weight=second,
        fourth_moment_weight=fourth,
        variance_weight=variance,
        std_error=math.sqrt(variance / m),
        theta_used=theta,
        max_log_weight_hit=max_log_w,
        min_hazard_sum_hit=min_hs,
    )


def naive_mc(problem: SumProblem, sample_count: int, seed: int,
             stream_id: int = 0, workers: int = 1) -> EstimateResult:
    """Plain Monte Carlo exceedance frequency under the base laws."""
    return _run(problem, 0.0, sample_count, seed, stream_id, workers)


def is_estimate(problem: SumProblem, theta: float, sample_count: int, seed: int,
                stream_id: int = 0, workers: int = 1) -> EstimateResult:
    """Importance-sampling estimate under the theta-twisted laws.

    Each exceedance carries the likelihood weight
    (1-theta)^(-N) exp(-theta * sum of cumulative hazards), accumulated
    in log space.
    """
    return _run(problem, theta, sample_count, seed, stream_id, workers)


def theta_sensitivity_sweep(problem: SumProblem, theta_grid, sample_count: int,
                            seed: int, workers: int = 1
                            ) -> tuple[list[tuple], MinmaxSolution]:
    """Empirical second moment vs the analytic bound across twisting amounts.

    Each row is (theta, empirical second moment, analytic bound, SE of the
    empirical second moment), the columns of the CLI table.  The solved
    minmax theta* is inserted into the grid if absent.  Run i of the sweep
    uses substream i of the base seed, so the whole table is reproducible
    from (config, seed) alone, whatever the worker count.
    """
    solution = solve_pprime(problem)
    grid = sorted(set(float(t) for t in theta_grid) | {solution.theta_star})
    for t in grid:
        if not (0.0 <= t < 1.0):
            raise ParameterError(f"theta grid value {t} outside [0, 1)")
    rows = []
    for idx, theta in enumerate(grid):
        res = is_estimate(problem, theta, sample_count, seed, stream_id=idx,
                          workers=workers)
        m2 = res.second_moment_weight
        sweep_se = math.sqrt(
            max(res.fourth_moment_weight - m2 * m2, 0.0) / sample_count)
        bound = float(second_moment_bound(theta, solution.objective, problem.n))
        rows.append((theta, m2, bound, sweep_se))
    return rows, solution


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def relative_error_naive(alpha_hat: float, sample_count_naive: int,
                         confidence_constant: float = 1.96) -> float:
    """CLT relative error a naive run of that size would achieve.

    Feeding the IS point estimate in place of the (noisier) naive one
    gives the sharper Bernoulli-variance figure.
    """
    if not (0.0 < alpha_hat < 1.0):
        raise ParameterError(
            f"relative error undefined for alpha_hat={alpha_hat}")
    return confidence_constant * math.sqrt(alpha_hat * (1.0 - alpha_hat)) / (
        math.sqrt(sample_count_naive) * alpha_hat)


def relative_error_is(result: EstimateResult,
                      confidence_constant: float = 1.96) -> float:
    if result.alpha_hat <= 0.0 or result.sample_count < 2:
        raise ParameterError("relative error needs alpha_hat > 0 and M >= 2")
    return confidence_constant * math.sqrt(result.variance_weight) / (
        math.sqrt(result.sample_count) * result.alpha_hat)


def efficiency_indicator(alpha_hat: float, variance_weight: float) -> float:
    """Naive-to-IS sample-count ratio at equal relative error."""
    if variance_weight < 0.0:
        raise ParameterError("variance must be nonnegative")
    if variance_weight == 0.0:
        return math.inf
    return alpha_hat * (1.0 - alpha_hat) / variance_weight
