"""Naive Monte Carlo and hazard-twisting importance-sampling estimators.

Both estimators share one sampling core: component i of sample j uses
word j*N + i of the run's Philox stream, and samples are generated by
exact inversion of the (possibly twisted) CDF.  Only rows with a word at
or past its component's survival cut (`_run_constants`) are kept; the rest
are misses.

A hit needs the quantiles only to compare their sum with gamma, and the
weight needs only the hazard sum, which takes no quantile.  So a sum with
a lognormal law brackets every kept row from a per-run table of each
law's quantiles, and only rows near gamma are inverted exactly; a sum of
Weibull laws alone gets no table and inverts every kept row.
`_quantile_tables` makes that choice; `_pass_stats` says why, and why
each of its steps over a pass's rows earns its keep.

With theta = 0 the weighted estimator degenerates to naive MC exactly,
weight identically 1 on exceedances.

A chunk's weights are summed shifted by its top t, the largest log weight
of its hits (`_weight_sums`): s_k = sum of exp(k (log w - t)) for k = 1, 2
and 4, the scaled log-sum-exp.  The run merges them against its own top T
and forms each linear output as exp(T) or exp(2T) times a value built from
the merged sums (`_run`), so the standard error underflows only about
where alpha_hat does, not where w^2 and w^4 do, far sooner.

A chunk is CHUNK_SIZE consecutive rows, fixed and never derived from the
worker count: it is the unit of the merge.  Each chunk has its own sums,
and the run merges them in chunk order, so results are bit-identical for
any worker count.  A pass is one call of `_pass_stats`: one draw, one
compare and compress, and one inversion, hazard and weight step over a
block of consecutive chunks, with each chunk's sums taken on its own slice.
Every numpy call releases and retakes the GIL, and a chunk takes about 80
of them, so threads hand the GIL over once a call: a pass of two chunks
halves those hand-offs, and on one thread it halves the calls.
The pass rule, at any thread count: a run uses at most min(workers, its
chunks, MAX_COMPONENTS // N) threads, and its passes hold two chunks while
each thread has more than two chunks to run and twice its threads stay
within MAX_COMPONENTS // N, one chunk otherwise.  So up to N =
MAX_COMPONENTS the words it draws at once stay within MAX_COMPONENTS *
CHUNK_SIZE, 256 MiB.

A run of one thread runs its passes in the caller's thread.  A run of T
threads runs them in the caller's thread and T - 1 threads of the process's
one worker pool (`_map_on_pool`), built by the first such run and kept, so
no run starts or joins a thread of its own; each thread takes the next pass
until none is left.  The caller takes passes rather than wait on them: on
a lognormal pair at M = 10^6 and two threads, that made a run 5-9 % faster
than a fresh pool per run, against 1-4 % for a kept pool of T threads
(IS and naive runs interleaved in one process, shared 2-core Xeon).
The pool has the size the last run asked for, and a run asking for another
replaces it once the work queued on it is done.  Its idle threads exit at
interpreter shutdown.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
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
# a shifted log weight below this is raised to it: e^(4 F) is still normal
_SHIFT_FLOOR = -170.0
# a pass that expects fewer kept rows than this first tests its largest word
_SCAN_BELOW = 1.0
# log 2^-53: below it log(1 - e^x) = -e^x, and its logs, to double precision
_LOG_EPS = -53.0 * math.log(2.0)
# the process's worker pool, (pid, its thread count, executor), and the lock
# every run takes to replace it or queue its work on it
_pool = None
_pool_lock = threading.Lock()
if hasattr(os, "register_at_fork"):  # a forked child gets the lock free
    os.register_at_fork(before=_pool_lock.acquire,
                        after_in_parent=_pool_lock.release,
                        after_in_child=_pool_lock.release)


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
    The two hit extremes (`max_log_weight_hit`, `min_hazard_sum_hit`)
    support the per-sample worst-case-weight certificate.
    """

    alpha_hat: float
    log_alpha_hat: float
    sample_count: int
    hit_frequency: int
    second_moment_weight: float
    std_error: float
    second_moment_std_error: float
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


def _pass_stats(problem: SumProblem, theta: float, cut: tuple,
                stream: RandomStream, start: int, stop: int, scan: bool = True) -> list:
    """Hit moments of each chunk of samples [start, stop), in one pass.

    The pass draws the block once, compares and compresses it once, and
    brackets, inverts, sums hazards and weighs its rows once; only the
    final sums are taken per chunk.  Chunks start at `start` and every
    CHUNK_SIZE rows after it.  A chunk's kept rows and then its hits are a
    contiguous slice of the pass's, and `count_nonzero` of the keep and hit
    masks over its rows gives each slice's length.  So each chunk's tuple
    (s_1, s_2, s_4, hit count, max log w t, min hazard sum), s_k the sum of
    w^k / e^(k t) (`_weight_sums`), is the one a pass over that chunk alone
    returns, bit for bit.

    `cut` is `_run_constants`: each cut word with its columns, and the
    shift and tables of `_quantile_tables`.  With `scan`, one contiguous
    max over the drawn block comes first: a pass whose largest word lies
    below every cut word keeps no row and returns before any column is
    compared.  That is most naive-MC passes of a deep threshold, whose cut
    words lie near 2^64.  The max costs about 11 us a chunk, a fifth of the
    compares it can spare, so `_run` asks for it only where a pass expects
    fewer than _SCAN_BELOW kept rows (`_expected_kept`) and so keeps none
    with probability above 1/e; an IS pass keeps rows and never takes it.
    A pass that keeps no row after the compares returns too.

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
    25 us by compress.

    An exact sum is added up column by column, left to right.  numpy's row
    sum adds fewer than 8 terms in that order too, so for N <= 7 every hit
    is the one a full inversion finds; from N = 8 on numpy sums pairwise,
    and a sum within rounding of gamma could in principle fall the other
    way.
    """
    n = problem.n
    columns, shift, tables = cut
    # each chunk's rows; then, as rows are selected, its slice of them
    bounds = [*range(0, stop - start, CHUNK_SIZE), stop - start]
    empty = [_NO_HITS] * (len(bounds) - 1)
    raw = stream.words_at(start * n, (stop - start) * n).reshape(-1, n)
    if scan and raw.max() < min(columns):
        return empty
    keep = np.zeros(raw.shape[0], dtype=bool)
    # column by column, far cheaper than a 2-D compare and any(axis=1); a
    # cut word is compared once, with its columns' max, since numpy takes
    # the max of two strided columns faster than it compares one
    for w, cols in columns.items():
        keep |= functools.reduce(np.maximum, (raw[:, i] for i in cols)) >= w
    bounds = _slice_bounds(keep, bounds)
    # a copy of the kept rows while the block is alive would double the
    # pass's memory, so a block whose rows are all kept is used as it is
    if bounds[-1] < raw.shape[0]:
        raw = raw.compress(keep, axis=0)
    if raw.shape[0] == 0:
        return empty
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
        bounds = _slice_bounds(hits, bounds)
        if bounds[-1] < raw.shape[0]:
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
        hits = total > gamma
        bounds = _slice_bounds(hits, bounds)
        hazard_sum = hazard_sum.compress(hits)
    if hazard_sum.size == 0:
        return empty
    # at theta = 0 every weight is exactly 1 (log weight +0.0)
    log_w = -n * math.log1p(-theta) - theta * hazard_sum
    return [(*sums, b - a, t, float(np.min(hazard_sum[a:b]))) if b > a else _NO_HITS
            for (a, b), (t, *sums) in zip(itertools.pairwise(bounds),
                                          _weight_sums(log_w, bounds))]


def _weight_sums(log_w: np.ndarray, bounds: list) -> list:
    """(t, s_1, s_2, s_4) of each chunk's slice of log_w between `bounds`:
    its top t = max log w and s_k = sum of exp(k (log w - t)).

    Works in place on log_w: each temporary a pass keeps alive costs page
    faults.  No exp or product here has a subnormal result, which numpy
    takes about 147 ns for against about 1 ns for a normal one: where a
    pass has a shifted log weight below F = _SHIFT_FLOOR, every such one is
    raised to F.  The stand-ins e^F add under 2^16 e^-170, about 1e-69, to
    an s_1 of at least 1, and e^(4 F) is normal.
    """
    chunks = list(itertools.pairwise(bounds))
    top = [float(log_w[a:b].max()) if b > a else -math.inf for a, b in chunks]
    for (a, b), t in zip(chunks, top):
        log_w[a:b] -= t
    if log_w.min() < _SHIFT_FLOOR:
        np.maximum(log_w, _SHIFT_FLOOR, out=log_w)
    w = np.exp(log_w, out=log_w)
    sums = [_slice_sums(w, chunks)]
    for _ in range(2):
        w *= w
        sums.append(_slice_sums(w, chunks))
    return list(zip(top, *sums))


def _slice_sums(w: np.ndarray, chunks: list) -> list:
    return [float(np.sum(w[a:b])) for a, b in chunks]


def _slice_bounds(mask: np.ndarray, bounds: list) -> list:
    """Where each slice of `mask` between `bounds` starts and stops among
    its true entries: the bounds of each chunk's rows once `mask`'s rows
    are selected."""
    ends = [int(np.count_nonzero(mask[a:b])) for a, b in itertools.pairwise(bounds)]
    return [0, *itertools.accumulate(ends)]


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


def _expected_kept(columns: dict, rows: int) -> float:
    """A bound on the kept rows of `rows` rows: a column passes its cut word
    w with probability (2^64 - w) / 2^64, and a row is kept if any does."""
    return rows * sum(len(cols) * (2 ** 64 - int(w)) for w, cols in columns.items()) / 2 ** 64


def _map_on_pool(fn, starts, stops, threads: int) -> list:
    """fn over starts and stops, in order, on `threads` threads: the caller
    and the process's pool of threads - 1.

    Each thread takes the next pass until none is left, and a thread whose
    pass fails takes the rest away, so the others stop after their current
    one; the caller waits for the pool's before it returns or raises.  A
    pool of another count is shut down, its queued work run and its threads
    joined, before its successor starts a thread, so no more pool threads
    are alive than a run has asked for.  A pool built in another process,
    the parent of a forked child, has no threads here and is dropped.
    """
    global _pool
    jobs, lock, out = iter(enumerate(zip(starts, stops))), threading.Lock(), [None] * len(starts)

    def work():
        try:
            while True:
                with lock:
                    k, job = next(jobs, (None, None))
                if job is None:
                    return
                out[k] = fn(*job)
        except BaseException:
            with lock:
                for _ in jobs:
                    pass
            raise

    with _pool_lock:
        pid = os.getpid()
        if _pool is None or _pool[:2] != (pid, threads - 1):
            if _pool is not None and _pool[0] == pid:
                _pool[2].shutdown()
            _pool = (pid, threads - 1, ThreadPoolExecutor(max_workers=threads - 1))
        helpers = [_pool[2].submit(work) for _ in range(threads - 1)]
    try:
        work()
    finally:
        for f in helpers:
            f.cancel()  # a helper not yet started has no pass left to take
        wait(helpers)
    for f in helpers:
        if not f.cancelled():
            f.result()
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
    # with no cut no word can reach gamma: every row is a miss, so draw none
    chunks = -(-sample_count // CHUNK_SIZE) if cut else 0
    in_flight = max(1, MAX_COMPONENTS // problem.n)  # chunks a run may hold
    threads = min(workers, chunks, in_flight)
    size = CHUNK_SIZE  # or two chunks, by the module docstring's pass rule
    if 2 * threads < chunks and 2 * threads <= in_flight:
        size *= 2
    starts = range(0, sample_count if cut else 0, size)
    stops = [min(start + size, sample_count) for start in starts]
    pass_stats = functools.partial(
        _pass_stats, problem, theta, cut, stream,
        scan=bool(cut) and _expected_kept(cut[0], size) < _SCAN_BELOW)
    if threads > 1:
        passes = _map_on_pool(pass_stats, starts, stops, threads)
    else:
        passes = list(map(pass_stats, starts, stops))
    results = [chunk for stats in passes for chunk in stats if chunk[3]]

    hits = sum(r[3] for r in results)
    top = max((r[4] for r in results), default=-math.inf)
    min_hs = min((r[5] for r in results), default=math.inf)
    # merge in chunk order, each chunk's sums of w^k scaled to the run's top;
    # fsum keeps the merge associative in practice
    sum_w, sum_w2, sum_w4 = (math.fsum(math.exp(k * (r[4] - top)) * r[i] for r in results)
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
        max_log_weight_hit=top,
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
