"""Naive Monte Carlo and hazard-twisting importance-sampling estimators.

Both estimators share one sampling core: component i of sample j uses
word j*N + i of the run's Philox stream, and samples are generated by
exact inversion of the (possibly twisted) CDF.  Only rows with a word at
or past its component's survival cut (`_run_constants`) are kept; the rest
are misses.

A hit needs the quantiles only to compare their sum with gamma, and the
weight needs only the hazard sum, which takes no quantile.  So one column
loop forms each log survival once on every kept row, for the hazard sum,
and inverts it only on the open rows: those that a per-run table of each
law's quantiles leaves near gamma, on a sum with a lognormal law, and
every kept row of a sum of Weibull laws alone, which gets no table.
`_quantile_tables` makes that choice; `_pass_stats` says why, and why
each of its steps over a pass's rows earns its keep.

With theta = 0 the weighted estimator degenerates to naive MC exactly,
weight identically 1 on exceedances.

Every weight is `solver.log_weight` of a hazard sum.  A chunk's weights
are summed shifted by its top t, the log weight of its least hazard sum,
which is its largest log weight (`_weight_sums`): s_k = sum of
exp(k (log w - t)) for k = 1, 2 and 4, the scaled log-sum-exp.  The run
merges them against its own top T, the log weight of its least hazard sum,
and forms each linear output as exp(T) or exp(2T) times a value built from
the merged sums (`_run`), so the standard error underflows only about
where alpha_hat does, not where w^2 and w^4 do, far sooner.

A chunk is the largest power of two of consecutive rows whose N words a
row fit within MAX_WORDS, at most CHUNK_SIZE: 2^16 rows up to N = 512 and
2^15 above it (`_chunk_rows`).  It depends on N alone, never on the
worker count, and it is both the unit of work and the unit of the merge:
one call of `_pass_stats`, a pass, draws, compares and compresses,
brackets, takes its one column loop and weighs one chunk, and returns its
sums.  The run merges them in chunk order, so results are bit-identical
for any worker count.  Every numpy call releases and retakes the GIL, and
a pass on a lognormal pair takes about 70 of them, so the chunk is as
large as the word bound lets it be.  A run uses min(workers, its chunks,
MAX_WORDS // (rows N)) threads, one chunk each at a time, so the words it
draws at once stay within MAX_WORDS, 256 MiB, up to N = MAX_COMPONENTS.

Every run takes its passes through `_map_on_threads`, at any thread
count: the caller and T - 1 helper threads that the call starts and
joins, so a run of one thread starts none and no thread outlives a run.
Each thread takes the next pass from one shared iterator until none is
left.  The caller takes passes rather than wait on them: over 78
thresholds of a lognormal pair, IS and naive at M = 10^6 on two threads,
that took a median 2.71 s against 2.98 s for T threads and a waiting
caller.  The iterator is shared, not split up front with thread k taking
passes k, k + T, and so on: in a later measurement on the same ladder
that split took a median 2.72 s against 2.10 s, slower in 12 of 12 rounds
(runs interleaved in one process, shared 2-core Xeon).
"""
from __future__ import annotations

import functools
import math
import operator
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .solver import SumProblem, log_weight
from .streams import RandomStream, least_word, uniforms_from_words

CHUNK_SIZE = 1 << 16  # the most rows of a chunk; never derived from the worker count
MAX_WORDS = 1 << 25  # the most drawn words a run holds at once: 256 MiB
MAX_COMPONENTS = 1024  # the most components a config may have
MAX_WORKERS = 64  # the most threads a run may be asked for
# the moments and least hazard sum of a chunk without hits
_NO_HITS = (0.0, 0.0, 0.0, 0, math.inf)
# a shifted log weight below this is raised to it: e^(4 F) is still normal
_SHIFT_FLOOR = -170.0
# log 2^-53: below it log(1 - e^x) = -e^x, and its logs, to double precision
_LOG_EPS = -53.0 * math.log(2.0)


@dataclass(frozen=True)
class EstimateResult:
    """Output of one estimation run.

    `alpha_hat` and the moments describe the weighted exceedance
    indicator: for naive MC (theta 0) the weight is the indicator itself.
    `std_error` is the standard error of `alpha_hat`, and
    `second_moment_std_error` that of `second_moment_weight`.  Each
    underflows only about where the value it describes does;
    `log_alpha_hat` is finite wherever the run has a hit, also where
    `alpha_hat` underflows.
    `min_hazard_sum_hit`, the least hazard sum of a hit (inf without
    one), supports the per-sample worst-case-weight certificate: the
    largest hit weight is its `solver.log_weight`.
    """

    alpha_hat: float
    log_alpha_hat: float
    sample_count: int
    hit_frequency: int
    second_moment_weight: float
    std_error: float
    second_moment_std_error: float
    theta_used: float
    min_hazard_sum_hit: float


def _log_sf(words: np.ndarray, theta: float) -> np.ndarray:
    """Twisted log survival of words: log1p(-u) / (1 - theta), u their
    uniforms, formed in the uniforms' buffer."""
    log_sf = uniforms_from_words(words)
    np.negative(log_sf, out=log_sf)
    np.log1p(log_sf, out=log_sf)
    log_sf /= 1.0 - theta
    return log_sf


def _pass_stats(problem: SumProblem, theta: float, cut: tuple,
                stream: RandomStream, start: int, stop: int) -> tuple:
    """Hit moments of the chunk of samples [start, stop), in one pass:
    (s_1, s_2, s_4, hit count, min hazard sum), s_k the sum of w^k / e^(k t)
    with t the log weight of the min hazard sum (`_weight_sums`), or _NO_HITS.

    One flow for every sum: draw the chunk, keep the rows that pass the
    cut words of `cut` (`_run_constants`, with the shift and tables of
    `_quantile_tables`), bracket them where the sum has tables, take one
    loop over the columns, then weigh the hits.  A pass that keeps no row
    returns before it takes a log or a quantile.

    A sum with a lognormal law has a table for each distinct law, Weibull
    laws included: its quantile at the 2^B + 1 edges of 2^B buckets over
    the word's top B bits (`_bucket_bits`).  Each kept row's sum is
    bracketed first: every column adds the values at its bucket's two
    edges (bucket word >> shift) to lo and hi.  lo > gamma (1 + 1e-9) is a
    sure hit and hi <= gamma (1 - 1e-9) a sure miss; only the rows in
    between are left open: 0.10-0.15 % of the kept rows of a lognormal
    pair at theta* and M = 10^6 (10-46 dB).  The margins dwarf the
    rounding of an N-term sum and any float step against the quantile's
    monotony, so the hits are those of exact inversion.

    A sum of Weibull laws alone has no table: their quantile is one power,
    about as cheap as a bucket's shift, two gathers and two adds, and
    tabling the Weibull(0.5, 1) pair made its runs slower end to end.  So
    there every kept row is open, a slice that copies nothing.

    The column loop forms each column's log survival once on every kept
    row, subtracts it into the hazard sum and adds its quantile to the
    exact sum of the open rows; an open row hits iff that sum passes gamma.
    The hazard sums are then compressed to the hits, so a table decides
    only which rows are inverted exactly.  The log survivals of sure
    misses, about a quarter of the kept rows of a lognormal pair at
    theta*, are dropped, but no hit's words are copied and no log survival
    is formed twice.

    Rows are selected with `ndarray.compress`, not a boolean mask: 14,000
    rows take about 25 us by compress, 100 us by mask (numpy 2.4, 2-core Xeon).

    An exact sum is added up column by column, left to right.  numpy's row
    sum adds fewer than 8 terms in that order too, so for N <= 7 every hit
    is the one a full inversion finds; from N = 8 on numpy sums pairwise,
    and a sum within rounding of gamma could in principle fall the other
    way.
    """
    n = problem.n
    columns, shift, tables = cut
    raw = stream.words_at(start * n, (stop - start) * n).reshape(-1, n)
    keep = np.zeros(raw.shape[0], dtype=bool)
    # column by column, far cheaper than a 2-D compare and any(axis=1); a
    # cut word is compared once, with its columns' max, since numpy takes
    # the max of two strided columns faster than it compares one
    for w, cols in columns.items():
        keep |= functools.reduce(np.maximum, (raw[:, i] for i in cols)) >= w
    # a copy of the kept rows while the block is alive would double the
    # pass's memory, so a block whose rows are all kept is used as it is
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
        open_rows = np.flatnonzero(~hits & (hi > gamma * (1.0 - 1e-9)))
        total = np.zeros(open_rows.size)
    else:
        hits, open_rows = np.zeros(raw.shape[0], dtype=bool), slice(None)
        total = np.zeros(raw.shape[0])
    hazard_sum = np.zeros(raw.shape[0])
    for i, comp in enumerate(problem.components):
        log_sf = _log_sf(raw[:, i], theta)
        hazard_sum -= log_sf  # cumulative hazard of the base law at x_i
        total += comp.quantile_from_log_sf(log_sf[open_rows])
    hits[open_rows] = total > gamma
    hazard_sum = hazard_sum.compress(hits)
    if hazard_sum.size == 0:
        return _NO_HITS
    min_hs = float(hazard_sum.min())
    sums = _weight_sums(log_weight(theta, hazard_sum, n), log_weight(theta, min_hs, n))
    return (*sums, hazard_sum.size, min_hs)


def _weight_sums(log_w: np.ndarray, t: float) -> tuple:
    """(s_1, s_2, s_4) of a chunk's log weights shifted by their top t =
    max log w: s_k = sum of exp(k (log w - t)).

    Works in place on log_w: each temporary a pass keeps alive costs page
    faults.  No exp or product here has a subnormal result, which numpy
    takes about 147 ns for against about 1 ns for a normal one: where a
    chunk has a shifted log weight below F = _SHIFT_FLOOR, every such one
    is raised to F.  The stand-ins e^F add under 2^16 e^-170, about 1e-69,
    to an s_1 of at least 1, and e^(4 F) is normal.
    """
    log_w -= t
    if log_w.min() < _SHIFT_FLOOR:
        np.maximum(log_w, _SHIFT_FLOOR, out=log_w)
    w = np.exp(log_w, out=log_w)
    sums = [float(w.sum())]
    for _ in range(2):
        w *= w
        sums.append(float(w.sum()))
    return tuple(sums)


def _chunk_rows(n: int) -> int:
    """Rows of each chunk of an N-component sum: the largest power of two
    whose N words a row fit within MAX_WORDS, at most CHUNK_SIZE."""
    return min(CHUNK_SIZE, 1 << (MAX_WORDS // n).bit_length() - 1)


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
    table and evaluates no edge value; `_pass_stats` says why.

    The values come from the core's own expression.  That expression is
    not monotone to the last bit, so the lognormal values bracket the
    quantile of every word in the bucket only to a few ulps; the core's
    1e-9 margins are what make its hits exact.
    """
    bits = _bucket_bits(sample_count)
    shift = np.uint64(64 - bits)
    laws = problem.laws
    if not any(law.family == "lognormal" for law in laws):
        return shift, {}
    edges = np.append(np.arange(1 << bits, dtype=np.uint64) << shift,
                      np.uint64(2 ** 64 - 1))
    log_sf = _log_sf(edges, theta)
    return shift, {law: law.quantile_from_log_sf(log_sf) for law in laws}


def _run_constants(problem: SumProblem, theta: float, sample_count: int):
    """What every pass of a run shares: (cut word -> its columns, shift,
    tables), or None when no word can reach gamma.

    A sum above gamma has a component above edge = gamma (1 - 1e-9) / N,
    and component i passes the edge iff its uniform exceeds 1 - s_i, s_i =
    S_i(edge)^(1 - theta).  Its cut word is the least whose uniform is at
    least 1 - (1 + 1e-12) s_i - 2^-53; that slack dwarfs the rounding of
    the core's `_log_sf`, so every row that can hit is kept, and the extra
    rows lie under the edge and miss.  A law whose largest word fails the
    core's float test gets no cut word.  S_i(edge) is evaluated once per
    distinct law, and columns that share a cut word, identical laws' at
    least, are compared once on their elementwise max.
    """
    laws = problem.laws
    edge = problem.gamma * (1.0 - 1e-9) / problem.n
    cut = np.array([law.log_survival(edge) for law in laws])
    reachable = _log_sf(np.full(cut.shape, 2 ** 64 - 1, dtype=np.uint64), theta) < cut
    least = least_word(
        1.0 - (1.0 + 1e-12) * np.exp((1.0 - theta) * cut) - 2.0 ** -53)
    columns = {}
    for idx, w, ok in zip(laws.values(), least, reachable):
        if ok:
            columns.setdefault(w, []).extend(idx)
    if not columns:
        return None
    return (columns, *_quantile_tables(problem, theta, sample_count))


def _map_on_threads(fn, starts, stops, threads: int) -> list:
    """fn over starts and stops, in order, on `threads` threads: the caller
    and threads - 1 helper threads started for this call and joined before
    it returns or raises, so one thread starts none.

    Every thread takes the next pass from one shared iterator until none is
    left.  Once a pass fails, every thread stops after its current pass,
    and the caller raises the first failure.
    """
    jobs, lock = iter(enumerate(zip(starts, stops))), threading.Lock()
    out, failures = [None] * len(starts), []

    def work():
        while True:
            with lock:
                k, job = (None, None) if failures else next(jobs, (None, None))
            if job is None:
                return
            try:
                out[k] = fn(*job)
            except BaseException as exc:
                failures.append(exc)

    helpers = [threading.Thread(target=work) for _ in range(threads - 1)]
    for helper in helpers:
        helper.start()
    work()
    for helper in helpers:
        helper.join()
    if failures:
        raise failures[0]
    return out


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
    cut = _run_constants(problem, theta, sample_count)
    rows = _chunk_rows(problem.n)
    # with no cut no word can reach gamma: every row is a miss, so draw none
    starts = range(0, sample_count if cut else 0, rows)
    stops = [min(start + rows, sample_count) for start in starts]
    threads = min(workers, len(starts), MAX_WORDS // (rows * problem.n))
    chunks = _map_on_threads(functools.partial(_pass_stats, problem, theta, cut, stream),
                             starts, stops, threads)
    results = [chunk for chunk in chunks if chunk[3]]

    hits = sum(r[3] for r in results)
    min_hs = min((r[4] for r in results), default=math.inf)
    # each chunk's top is the log weight of its least hazard sum, and the
    # run's top the largest of them: that of min_hs, or -inf without hits
    tops = [log_weight(theta, r[4], problem.n) for r in results]
    top = max(tops, default=-math.inf)
    # merge in chunk order, each chunk's sums of w^k scaled to the run's top;
    # fsum keeps the merge associative in practice
    sum_w, sum_w2, sum_w4 = (
        math.fsum(math.exp(k * (t - top)) * r[i] for r, t in zip(results, tops))
        for i, k in enumerate((1, 2, 4)))

    m = sample_count
    mean_w, second, fourth = sum_w / m, sum_w2 / m, sum_w4 / m
    variance = max((m / (m - 1.0)) * (second - mean_w * mean_w), 0.0) if m >= 2 else 0.0
    # every linear output is exp(top) or exp(2 top), one rounding of an exact
    # float, times a value of order 1: never exp of a rounded log
    with np.errstate(over="ignore"):  # past the float range a weight is inf
        scale, scale2 = np.exp([top, 2.0 * top]).tolist()
    return EstimateResult(
        alpha_hat=scale * mean_w,
        log_alpha_hat=top + math.log(mean_w) if hits else -math.inf,
        sample_count=m,
        hit_frequency=hits,
        second_moment_weight=scale2 * second,
        std_error=scale * math.sqrt(variance / m),
        second_moment_std_error=scale2 * math.sqrt(max(fourth - second * second, 0.0) / m),
        theta_used=theta,
        min_hazard_sum_hit=min_hs,
    )


def log_big_jump(problem: SumProblem, theta: float) -> float:
    """log P(max_i X_i > gamma) under the theta-twisted laws: log p_lo, p_lo
    = 1 - prod_i (1 - q_i), q_i = S_i(gamma)^(1 - theta).

    Every {X_i > gamma} lies in {S > gamma}, so IS at theta hits with at
    least this probability.  One log survival per distinct law.  cloglog(p)
    = log(-log(1 - p)) turns the product into a sum, cloglog(p_lo) = log sum
    of exp(cloglog(q_i)), which is taken as a log-sum-exp; below 2^-53 both
    cloglog and its inverse are the identity on log p to double precision,
    so a q_i that underflows keeps its log.
    """
    terms = [math.log(len(cols))
             + _cloglog((1.0 - theta) * float(law.log_survival(problem.gamma)))
             for law, cols in problem.laws.items()]
    g = float(np.logaddexp.reduce(terms))
    return g if g < _LOG_EPS else _log1mexp(-math.exp(min(g, 709.0)))


def _cloglog(x: float) -> float:
    """log(-log(1 - e^x)) for x <= 0."""
    return x if x < _LOG_EPS else math.log(-_log1mexp(x))


def _log1mexp(x: float) -> float:
    """log(1 - e^x) for x <= 0, by expm1 near 0 and log1p below -log 2."""
    if x == 0.0:
        return -math.inf
    return math.log(-math.expm1(x)) if x > -math.log(2.0) else math.log1p(-math.exp(x))


def naive_mc(problem: SumProblem, sample_count: int, seed: int,
             stream_id: int = 0, workers: int = 1) -> EstimateResult:
    """Plain Monte Carlo exceedance frequency under the base laws."""
    return _run(problem, 0.0, sample_count, seed, stream_id, workers)


def is_estimate(problem: SumProblem, theta: float, sample_count: int, seed: int,
                stream_id: int = 0, workers: int = 1) -> EstimateResult:
    """Importance-sampling estimate under the theta-twisted laws.

    Each exceedance carries the likelihood weight
    (1-theta)^(-N) exp(-theta * sum of cumulative hazards).  The core sums
    w, w^2 and w^4 shifted by their largest log weight, so `std_error`
    underflows only about where alpha_hat does, though w^2 underflows far
    sooner; `log_alpha_hat` stays finite where alpha_hat underflows.
    """
    return _run(problem, theta, sample_count, seed, stream_id, workers)
