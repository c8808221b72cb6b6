"""Naive Monte Carlo and hazard-twisting importance-sampling estimators.

Both estimators share one sampling core: component i of sample j uses
word j*N + i of the run's Philox stream, and samples are generated by
exact inversion of the (possibly twisted) CDF.  Only rows with a word at
or past its component's survival cut (`_word_cuts`) are kept; the rest
are misses.

A hit needs the quantiles only to compare their sum with gamma, and the
weight needs only the hazard sum, which takes no quantile.  So a sum with
a lognormal law brackets every kept row from a per-run table of each
law's quantiles, and only rows near gamma are inverted exactly; a sum of
Weibull laws alone gets no table and inverts every kept row.
`_quantile_tables` makes that choice, and `_chunk_stats` says why.

Each pass over a chunk's rows earns its keep.  A chunk whose largest word
lies below every cut word returns after one contiguous max, before any
column is compared: at deep thresholds most naive-MC chunks are such.
Rows are selected with `ndarray.compress`, several times faster in numpy
than indexing by a boolean mask.  A column's log survival is formed once,
in one buffer, and feeds both its quantile and the hazard sum.  Log
weights at or below -760 are not exponentiated: exp is exactly 0.0 there,
and numpy's exp takes a slow path on every input that underflows.

With theta = 0 the weighted estimator degenerates to naive MC exactly,
weight identically 1 on exceedances.

Samples are drawn in chunks of CHUNK_SIZE rows and merged in chunk order,
so results are bit-identical for any worker count.  A run starts at most
min(workers, its chunks, MAX_COMPONENTS // N) threads, one chunk each, so up
to N = MAX_COMPONENTS the words it draws at once stay within 256 MiB.
"""
from __future__ import annotations

import functools
import math
import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .solver import SumProblem
from .streams import RandomStream, least_word, uniforms_from_words

CHUNK_SIZE = 1 << 15  # rows; fixed, never derived from the worker count
# the most components a config may have; a chunk draws CHUNK_SIZE * N words,
# and a run holds at most MAX_COMPONENTS // N chunks (one at this N) at once
MAX_COMPONENTS = 1024
MAX_WORKERS = 64  # the most threads a run may be asked for
# the moments and extremes of a chunk without hits
_NO_HITS = (0.0, 0.0, 0.0, 0, -math.inf, math.inf)
# exp is exactly 0.0 below -745.14; the margin keeps well clear of it
_EXP_FLOOR = -760.0


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


def _log_sf(words: np.ndarray, theta: float) -> np.ndarray:
    """Twisted log survival of words: log1p(-u) / (1 - theta), u their
    uniforms, formed in the uniforms' buffer."""
    log_sf = uniforms_from_words(words)
    np.negative(log_sf, out=log_sf)
    np.log1p(log_sf, out=log_sf)
    log_sf /= 1.0 - theta
    return log_sf


def _weights(log_w: np.ndarray) -> np.ndarray:
    """exp of a non-empty array, bit for bit, without exponentiating the
    log weights at or below _EXP_FLOOR."""
    if log_w.min() > _EXP_FLOOR:
        return np.exp(log_w)
    return np.exp(log_w, out=np.zeros_like(log_w), where=log_w > _EXP_FLOOR)


def _chunk_stats(problem: SumProblem, theta: float, cut: tuple,
                 stream: RandomStream, start: int, stop: int):
    """Hit moments of samples [start, stop), keeping rows past the word cut.

    `cut` is (`_word_cuts(problem, theta)`, shift, tables), the last two
    from `_quantile_tables`.  One contiguous max over the drawn block comes
    first: a chunk whose largest word lies below every cut word keeps no
    row and returns before any column is compared.  That is most naive-MC
    chunks of a deep threshold, whose cut words lie near 2^64.  A chunk
    that keeps no row after the compares returns too.

    A sum with a lognormal law has a table for each distinct law, Weibull
    laws included: its quantile at the 2^B + 1 edges of 2^B buckets over
    the word's top B bits (`_bucket_bits`).  Each kept row's sum is
    bracketed first: every column adds the values at its bucket's two
    edges (bucket word >> shift) to lo and hi.  lo > gamma (1 + 1e-9) is a
    sure hit and hi <= gamma (1 - 1e-9) a sure miss; only the rows in
    between are inverted: 0.10-0.15 % of the kept rows of a lognormal pair
    at theta* and M = 10^6 (10-46 dB).  The margins dwarf the rounding of
    an N-term sum and any float step against the quantile's monotony, so
    the hits are those of exact inversion.  The hazard sums are then taken
    on the hits alone, column by column, so each weight keeps its bits.

    A sum of Weibull laws alone has no table: their quantile is one power,
    about as cheap as a bucket's shift, two gathers and two adds, and
    tabling the Weibull(0.5, 1) pair made its runs slower end to end.  So
    there every kept row is inverted, and each column's log survival,
    formed once, feeds both its quantile and the hazard sum.

    Rows are selected with `ndarray.compress`, not a boolean mask: with
    numpy 2.4 on a 2-core Xeon, 14,000 rows take about 100 us by mask and
    25 us by compress.  Log weights at or below -760 are not exponentiated
    (`_weights`): exp is exactly 0.0 below -745.14 anyway, and numpy's exp
    takes a slow path on each input that underflows, about 20 ns a value
    against 1 ns, so a deep threshold's chunk would pay it on most hits.

    An exact sum is added up column by column, left to right.  numpy's row
    sum adds fewer than 8 terms in that order too, so for N <= 7 every hit
    is the one a full inversion finds; from N = 8 on numpy sums pairwise,
    and a sum within rounding of gamma could in principle fall the other
    way.
    """
    n = problem.n
    cuts, shift, tables = cut
    raw = stream.words_at(start * n, (stop - start) * n).reshape(-1, n)
    columns = {}  # the columns of each cut word, identical laws sharing one
    for i, w in cuts:
        columns.setdefault(w, []).append(i)
    if raw.max() < min(columns):
        return _NO_HITS
    keep = np.zeros(raw.shape[0], dtype=bool)
    # column by column, far cheaper than a 2-D compare and any(axis=1); a
    # cut word is compared once, with its columns' max, since numpy takes
    # the max of two strided columns faster than it compares one
    for w, cols in columns.items():
        keep |= functools.reduce(np.maximum, (raw[:, i] for i in cols)) >= w
    # a copy of the kept rows while the block is alive would double the
    # chunk's memory, so a block whose rows are all kept is used as it is
    if not keep.all():
        raw = raw.compress(keep, axis=0)
    if raw.shape[0] == 0:
        return _NO_HITS
    gamma = problem.gamma
    if tables:
        lo = np.zeros(raw.shape[0])
        hi = np.zeros(raw.shape[0])
        for i, comp in enumerate(problem.components):
            table = tables[comp]
            # np.take on intp indexes: far cheaper than indexing by uint64
            bucket = (raw[:, i] >> shift).astype(np.intp)
            lo += np.take(table[:-1], bucket)
            hi += np.take(table[1:], bucket)
        hits = lo > gamma * (1.0 + 1e-9)
        near = np.flatnonzero(~hits & (hi > gamma * (1.0 - 1e-9)))
        total = np.zeros(near.size)
        for i, comp in enumerate(problem.components):
            total += comp.quantile_from_log_sf(_log_sf(raw[near, i], theta))
        hits[near] = total > gamma
        if not hits.all():
            raw = raw.compress(hits, axis=0)
        hazard_sum = np.zeros(raw.shape[0])
        for i in range(n):
            hazard_sum -= _log_sf(raw[:, i], theta)
    else:
        total = np.zeros(raw.shape[0])
        hazard_sum = np.zeros(raw.shape[0])
        for i, comp in enumerate(problem.components):
            log_sf = _log_sf(raw[:, i], theta)
            total += comp.quantile_from_log_sf(log_sf)
            hazard_sum -= log_sf  # cumulative hazard of the base law at x_i
        hazard_sum = hazard_sum.compress(total > gamma)
    n_hits = hazard_sum.size
    if n_hits == 0:
        return _NO_HITS
    # at theta = 0 every weight is exactly 1 (log weight +0.0)
    log_w = -n * math.log1p(-theta) - theta * hazard_sum
    w = _weights(log_w)
    w2 = w * w
    return (float(np.sum(w)), float(np.sum(w2)), float(np.sum(w2 * w2)),
            n_hits, float(np.max(log_w)), float(np.min(hazard_sum)))


def _bucket_bits(sample_count: int) -> int:
    """Top word bits B a quantile table buckets on: floor(log2 M) - 6, in [4, 12].

    A law's 2^B + 1 table values are then at most M / 64 + 1 from M = 1024
    on, and the cap keeps a table within 33 KiB.
    """
    return min(max(sample_count.bit_length() - 7, 4), 12)


def _quantile_tables(problem: SumProblem, theta: float, sample_count: int):
    """(shift, tables): the one rule for which columns the core brackets.

    A sum with at least one lognormal law tables every distinct law, Weibull
    laws included: its quantiles at the 2^B + 1 bucket edges, the least word
    of each bucket (word >> shift) and the greatest word, 2^64 - 1.  Bucket
    b lies between values b and b + 1.  A sum of Weibull laws alone gets no
    table and evaluates no edge value; `_chunk_stats` says why.

    The values come from the core's own expression.  That expression is
    not monotone to the last bit, so the lognormal values bracket the
    quantile of every word in the bucket only to a few ulps; the core's
    1e-9 margins are what make its hits exact.
    """
    bits = _bucket_bits(sample_count)
    shift = np.uint64(64 - bits)
    laws = dict.fromkeys(problem.components)
    if not any(law.family == "lognormal" for law in laws):
        return shift, {}
    edges = np.append(np.arange(1 << bits, dtype=np.uint64) << shift,
                      np.uint64(2 ** 64 - 1))
    log_sf = _log_sf(edges, theta)
    return shift, {law: law.quantile_from_log_sf(log_sf) for law in laws}


def _word_cuts(problem: SumProblem, theta: float) -> list:
    """(i, least kept word) for each component i that can pass the survival cut.

    A sum above gamma has a component above edge = gamma (1 - 1e-9) / N,
    and component i passes the edge iff its uniform exceeds 1 - s_i, s_i =
    S_i(edge)^(1 - theta).  The least kept word is the least whose uniform
    is at least 1 - (1 + 1e-12) s_i - 2^-53; that slack dwarfs the rounding
    of the core's `_log_sf`, so every row that can hit is kept, and the
    extra rows lie under the edge and miss.  Components whose largest word
    fails the core's float test are left out.
    """
    edge = problem.gamma * (1.0 - 1e-9) / problem.n
    cut = np.array([c.log_survival(edge) for c in problem.components])
    reachable = _log_sf(np.full(cut.shape, 2 ** 64 - 1, dtype=np.uint64), theta) < cut
    least = least_word(
        1.0 - (1.0 + 1e-12) * np.exp((1.0 - theta) * cut) - 2.0 ** -53)
    return [(i, w) for i, w in enumerate(least) if reachable[i]]


def _run(problem: SumProblem, theta: float, sample_count: int, seed: int,
         stream_id: int, workers: int) -> EstimateResult:
    try:
        sample_count, workers = operator.index(sample_count), operator.index(workers)
    except TypeError:
        raise ParameterError(
            f"sample_count and workers must be integers, got {sample_count!r} "
            f"and {workers!r}") from None
    if sample_count < 1:
        raise ParameterError("sample_count must be >= 1")
    if not 1 <= workers <= MAX_WORKERS:
        raise ParameterError(f"workers must lie in [1, {MAX_WORKERS}], got {workers}")
    if not (0.0 <= theta < 1.0):
        raise ParameterError(f"theta must lie in [0, 1), got {theta}")
    stream = RandomStream(seed, stream_id)
    cuts = _word_cuts(problem, theta)
    # with no cut no word can reach gamma: every row is a miss, so draw none
    starts = range(0, sample_count if cuts else 0, CHUNK_SIZE)
    stops = [min(start + CHUNK_SIZE, sample_count) for start in starts]
    cut = (cuts, *_quantile_tables(problem, theta, sample_count)) if cuts else None
    chunk = functools.partial(_chunk_stats, problem, theta, cut, stream)
    threads = min(workers, len(starts), max(1, MAX_COMPONENTS // problem.n))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(chunk, starts, stops))
    else:
        results = list(map(chunk, starts, stops))

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
    (1-theta)^(-N) exp(-theta * sum of cumulative hazards).  The core forms
    log w, but it sums w, w^2 and w^4 in linear space, so w^2 underflows to
    0 in deep tails well before alpha_hat does.
    """
    return _run(problem, theta, sample_count, seed, stream_id, workers)
