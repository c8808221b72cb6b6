"""Naive Monte Carlo and hazard-twisting importance-sampling estimators.

Every estimator is a run of one sampling core at one or more theta
(`is_estimates`; `is_estimate` and `naive_mc`, theta 0, are runs at one):
component i of sample j uses word j*N + i of the run's Philox stream, and
its sample at theta is the base quantile at the twisted log survival
log(1 - u) / (1 - theta), so one draw serves every theta.  A run's one
set-up, `_run_constants`, gives each distinct law of `SumProblem.laws` a
survival cut word per theta, and each column its law's table.  Only rows
with a word at or past its law's cut are kept; the rest are misses.

A hit needs the quantiles only to compare their sum with gamma, and the
weight needs only the hazard sum.  So one column loop forms each log
survival once on every kept row and inverts it only on the rows that a
table of its law's quantiles over H = -log survival, one for every theta,
leaves near gamma (`_law_table`, `_pass_stats`).  With theta = 0 every
weight is 1: naive MC exactly.

A chunk's weights, `solver.log_weight` of hazard sums, are summed shifted
by its largest log weight (`_weight_sums`), and `_merge` merges a run's
chunk records at one theta, `_Chunk`, against the run's largest, so the
standard error underflows only about where alpha_hat does, not where w^2
and w^4 do, far sooner.

A chunk is the largest power of two of consecutive rows whose N words a
row fit within MAX_WORDS, at most CHUNK_SIZE: 2^16 rows up to N = 512 and
2^15 above it (`_chunk_rows`).  It depends on N alone, never on the
worker count, and it is both the unit of work and the unit of the merge:
one call of `_pass_stats`, a pass, draws one chunk once for every theta
of its run and returns one record per theta.  `_merge` takes them in
chunk order, so results are bit-identical for any worker count.  Every
numpy call releases and retakes the GIL, and a pass on a lognormal pair
takes about 70 of them a theta, so the chunk is as large as the word
bound lets it be.  A run uses min(workers, its chunks, MAX_WORDS // (rows
N)) threads, one chunk each at a time, so the words it draws at once stay
within MAX_WORDS, 256 MiB, up to N = MAX_COMPONENTS.

Every run takes its passes through `_map_on_threads`, at any thread
count, so no thread outlives a run.  The caller takes passes rather than
wait on them, which measured faster than T threads and a waiting caller.
The threads share one iterator of passes, not a split up front with
thread k taking passes k, k + T, and so on: a shared iterator balances
passes of unequal cost, and the split measured slower in every round.
"""
from __future__ import annotations

import functools
import math
import operator
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ParameterError
from .solver import SumProblem, log_weight
from .streams import RandomStream, least_word, uniforms_from_words

CHUNK_SIZE = 1 << 16  # the most rows of a chunk; never derived from the worker count
MAX_WORDS = 1 << 25  # the most drawn words a run holds at once: 256 MiB
MAX_COMPONENTS = 1024  # the most components a config may have
MAX_WORKERS = 64  # the most threads a run may be asked for
# a shifted log weight below this is raised to it: e^(4 F) is still normal
_SHIFT_FLOOR = -170.0
# log 2^-53: below it log(1 - e^x) = -e^x, and its logs, to double precision
_LOG_EPS = -53.0 * math.log(2.0)
_TABLE_BITS = 7  # mantissa bits of H a table bucket takes: 2^7 buckets a binade
_TABLE_BINADES = (-20, 36)  # a table spans H in [2^-20, 2^36): 56 KiB at 7 bits


@dataclass(frozen=True)
class EstimateResult:
    """Output of one estimation run.

    `alpha_hat` and the moments describe the weighted exceedance
    indicator: for naive MC (theta 0) the weight is the indicator itself.
    `std_error` is the standard error of `alpha_hat`, and
    `second_moment_std_error` that of `second_moment_weight`.  Each
    underflows only about where the value it describes does.  Each of the
    four has its natural log beside it, formed from the run's sums and not
    from the float: `log_alpha_hat` and `log_second_moment` are finite
    wherever the run has a hit, also where their values underflow, and
    each standard error's log is -inf only where its variance term is 0.
    `min_hazard_sum_hit`, the least hazard sum of a hit (inf without
    one), supports the per-sample worst-case-weight certificate: the
    largest hit weight is its `solver.log_weight`.
    """

    alpha_hat: float
    log_alpha_hat: float
    sample_count: int
    hit_frequency: int
    second_moment_weight: float
    log_second_moment: float
    std_error: float
    log_std_error: float
    second_moment_std_error: float
    log_second_moment_std_error: float
    theta_used: float
    min_hazard_sum_hit: float


class _Chunk(NamedTuple):
    """A pass's record of its chunk: s_k the sum of w^k / e^(k t) over its
    hits, t the log weight of min_hazard_sum, the least hazard sum of a hit."""

    s1: float
    s2: float
    s4: float
    hits: int
    min_hazard_sum: float


_NO_HITS = _Chunk(0.0, 0.0, 0.0, 0, math.inf)  # a chunk without hits


def _log_sf(words: np.ndarray, theta: float) -> np.ndarray:
    """Twisted log survival of words: log1p(-u) / (1 - theta), u their
    uniforms, formed in the uniforms' buffer."""
    log_sf = uniforms_from_words(words)
    np.negative(log_sf, out=log_sf)
    np.log1p(log_sf, out=log_sf)
    log_sf /= 1.0 - theta
    return log_sf


def _keep(raw: np.ndarray, cut: dict) -> np.ndarray:
    """The rows of raw with a word at or past its column's cut word, by
    `ndarray.compress`: a boolean mask measured about four times slower."""
    keep = np.zeros(raw.shape[0], dtype=bool)
    # law by law, far cheaper than a 2-D compare and any(axis=1); a law's
    # cut word is compared once, with its columns' max, since numpy takes
    # the max of two strided columns faster than it compares one
    for cols, w in cut.items():
        keep |= functools.reduce(np.maximum, (raw[:, i] for i in cols)) >= w
    # a copy of the kept rows while the block is alive would double the
    # pass's memory, so a block whose rows are all kept is used as it is
    return raw if keep.all() else raw.compress(keep, axis=0)


def _pass_stats(problem: SumProblem, thetas: tuple, cuts: list, wide: dict,
                tables: list, stream: RandomStream, start: int, stop: int) -> list:
    """Hit moments of the chunk of samples [start, stop), in one pass: per
    theta its `_Chunk` (`_weight_sums`), or _NO_HITS.

    One flow for every sum, on the run's `_run_constants`: draw the chunk
    once, keep the rows that pass the wide cut, then per theta those that
    pass its own cut words, unless they are the wide ones: the rows of a
    pass at it alone in order, so every sum keeps its bits.  Take one loop
    over the columns, bracketing the sum where it has tables, and weigh the
    hits; a theta without a cut or kept rows takes no log or quantile.

    A sum with a lognormal law brackets every column, Weibull laws
    included: each adds the two edge values of its bucket of H = -log_sf
    (`_buckets`) in its law's `_law_table` to lo and hi.  lo > gamma (1 +
    1e-9) is a sure hit and hi <= gamma (1 - 1e-9) a sure miss; only the
    rows in between are left open: under 2 % of the kept rows of the
    lognormal pair and triple at theta* and at theta 0 (10-49 dB).  The
    margins dwarf the rounding of an N-term sum and any float step against
    the quantile's monotony, so the hits are those of exact inversion.

    A sum of Weibull laws alone has no table: their quantile is one power,
    about as cheap as a bucket's shift, two gathers and two adds, and
    tabling the Weibull(0.5, 1) pair made its runs slower end to end.  So
    there the column loop inverts every kept row.

    The column loop forms each column's log survival once on every kept
    row and subtracts it into the hazard sum.  After it, the open rows'
    words are gathered once and only their log survivals formed again, for
    the exact sum; an open row hits iff that sum passes gamma.  The hazard
    sums are then compressed to the hits, so a table decides only which
    rows are inverted exactly.

    An exact sum is added up column by column, left to right.  numpy's row
    sum adds fewer than 8 terms in that order too, so for N <= 7 every hit
    is the one a full inversion finds; from N = 8 on numpy sums pairwise,
    and a sum within rounding of gamma could in principle fall the other
    way.
    """
    n = problem.n
    # the drawn block is released here, unless every row passes
    raw = _keep(stream.words_at(start * n, (stop - start) * n).reshape(-1, n), wide)
    return [_NO_HITS if cut is None else _theta_stats(
        problem, theta, tables, raw if cut == wide else _keep(raw, cut))
        for theta, cut in zip(thetas, cuts)]


def _theta_stats(problem: SumProblem, theta: float, tables: list,
                 raw: np.ndarray) -> _Chunk:
    """The `_Chunk` at theta of the kept rows raw of a pass (`_pass_stats`)."""
    if raw.shape[0] == 0:
        return _NO_HITS
    n, gamma = problem.n, problem.gamma
    hazard_sum, lo = np.zeros((2, raw.shape[0]))  # without tables, lo is exact
    hi = np.zeros(raw.shape[0]) if tables else None
    for i, comp in enumerate(problem.components):
        log_sf = _log_sf(raw[:, i], theta)
        hazard_sum -= log_sf  # cumulative hazard of the base law at x_i
        if tables:
            bucket = _buckets(log_sf)  # in log_sf's buffer
            lo += np.take(tables[i][:-1], bucket, mode="clip")
            hi += np.take(tables[i][1:], bucket, mode="clip")
        else:
            lo += comp.quantile_from_log_sf(log_sf)
    hits = lo > gamma * (1.0 + 1e-9 if tables else 1.0)  # sure hits, or all hits
    if tables:
        open_rows = np.flatnonzero(~hits & (hi > gamma * (1.0 - 1e-9)))
        words, total = raw[open_rows], np.zeros(open_rows.size)
        for i, comp in enumerate(problem.components):
            total += comp.quantile_from_log_sf(_log_sf(words[:, i], theta))
        hits[open_rows] = total > gamma
    hazard_sum = hazard_sum.compress(hits)
    if hazard_sum.size == 0:
        return _NO_HITS
    min_hs = float(hazard_sum.min())
    sums = _weight_sums(log_weight(theta, hazard_sum, n), log_weight(theta, min_hs, n))
    return _Chunk(*sums, hazard_sum.size, min_hs)


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


def _buckets(log_sf: np.ndarray) -> np.ndarray:
    """Bucket of each H = -log_sf in a `_law_table`, before the clip to its
    ends, formed in log_sf's buffer: H's biased exponent and top _TABLE_BITS
    mantissa bits, less the first edge's.  A kept log_sf is negative and
    finite, so its int64 bits are H's, in value order, less 2^63."""
    bucket = log_sf.view(np.int64)
    bucket >>= 52 - _TABLE_BITS  # 2^63 is now 2048 << _TABLE_BITS
    bucket += (2048 - 1023 - _TABLE_BINADES[0]) << _TABLE_BITS
    return bucket


@functools.lru_cache(maxsize=MAX_COMPONENTS)
def _law_table(law) -> np.ndarray:
    """law's quantile at the edges of the `_buckets` of H: bucket b lies
    between values b and b + 1, the first from H = 0 (value 0) and the last
    to inf (value inf).  It depends on neither theta, M nor gamma, so it is
    built once a process, in the thread of the first run that needs it.
    The values come from the core's own expression, which is not monotone
    to the last bit: they bracket the quantile of every H in a bucket only
    to a few ulps, and the core's 1e-9 margins make its hits exact.
    """
    low, high = _TABLE_BINADES
    k = np.arange(((high - low) << _TABLE_BITS) + 1, dtype=np.int64)
    h = ((k + ((1023 + low) << _TABLE_BITS)) << (52 - _TABLE_BITS)).view(np.float64)
    table = law.quantile_from_log_sf(-h)
    table[0], table[-1] = 0.0, math.inf
    table.flags.writeable = False  # shared by every run
    return table


def _run_constants(problem: SumProblem, thetas: tuple):
    """What every pass of a run shares: (cuts, wide, tables).  cuts holds
    per theta a dict (a law's columns -> its cut word), keyed as
    `SumProblem.laws`, or None where no word can reach gamma; wide each
    law's least word over those cuts, which a row any cut keeps passes, or
    None; tables each column's `_law_table` for a sum with a lognormal law,
    and none for a Weibull-only sum (`_pass_stats` says why).

    A sum above gamma has a component above edge = gamma (1 - 1e-9) / N,
    and component i passes the edge iff its uniform exceeds 1 - s_i, s_i =
    S_i(edge)^(1 - theta).  Its cut word is the least whose uniform is at
    least 1 - (1 + 1e-12) s_i - 2^-53; that slack dwarfs the rounding of
    the core's `_log_sf`, so every row that can hit is kept, and the extra
    rows lie under the edge and miss.  A law whose largest word fails the
    core's float test gets no cut word.  S_i(edge) depends on no theta, so
    it is evaluated once per distinct law and run.
    """
    laws = problem.laws
    edge = problem.gamma * (1.0 - 1e-9) / problem.n
    log_s = np.array([law.log_survival(edge) for law in laws])
    cuts, wide = [], {}
    for theta in thetas:
        reachable = _log_sf(np.full(log_s.shape, 2 ** 64 - 1, dtype=np.uint64), theta) < log_s
        least = least_word(
            1.0 - (1.0 + 1e-12) * np.exp((1.0 - theta) * log_s) - 2.0 ** -53)
        cut = {tuple(cols): w for cols, w, ok in zip(laws.values(), least, reachable) if ok}
        for cols, w in cut.items():
            wide[cols] = min(w, wide.get(cols, w))
        cuts.append(cut or None)
    if not wide:
        return cuts, None, []
    tabled = any(law.family == "lognormal" for law in laws)
    return cuts, wide, [_law_table(comp) for comp in problem.components if tabled]


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


def _run(problem: SumProblem, thetas: tuple, sample_count: int, seed: int,
         stream_id: int, workers: int) -> list:
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
    for theta in thetas:
        if not (0.0 <= theta < 1.0):
            raise ParameterError(f"theta must lie in [0, 1), got {theta}")
    stream = RandomStream(seed, stream_id)
    cuts, wide, tables = _run_constants(problem, thetas)
    rows = _chunk_rows(problem.n)
    # with no cut no word can reach gamma: every row is a miss, so draw none
    starts = range(0, sample_count if wide else 0, rows)
    stops = [min(start + rows, sample_count) for start in starts]
    threads = min(workers, len(starts), MAX_WORDS // (rows * problem.n))
    chunks = _map_on_threads(functools.partial(
        _pass_stats, problem, thetas, cuts, wide, tables, stream), starts, stops, threads)
    return [_merge([c[k] for c in chunks], theta, sample_count, problem.n)
            for k, theta in enumerate(thetas)]


def _merge(chunks, theta: float, sample_count: int, n: int) -> EstimateResult:
    """The result of a run of sample_count samples of an n-term sum at
    theta, from its chunks' records in chunk order."""
    chunks = [c for c in chunks if c.hits]
    hits = sum(c.hits for c in chunks)
    min_hs = min((c.min_hazard_sum for c in chunks), default=math.inf)
    # each chunk's top is the log weight of its least hazard sum, and the
    # run's top the largest of them: that of min_hs, or -inf without hits
    tops = [log_weight(theta, c.min_hazard_sum, n) for c in chunks]
    top = max(tops, default=-math.inf)
    # merge in chunk order, each chunk's sums of w^k scaled to the run's top;
    # fsum keeps the merge associative in practice
    sum_w, sum_w2, sum_w4 = (
        math.fsum(math.exp(k * (t - top)) * getattr(c, s) for c, t in zip(chunks, tops))
        for k, s in ((1, "s1"), (2, "s2"), (4, "s4")))

    m = sample_count
    mean_w, second, fourth = sum_w / m, sum_w2 / m, sum_w4 / m
    variance = max((m / (m - 1.0)) * (second - mean_w * mean_w), 0.0) if m >= 2 else 0.0
    var_se, var_se2 = variance / m, max(fourth - second * second, 0.0) / m
    # every linear output is exp(top) or exp(2 top), one rounding of an exact
    # float, times a value of order 1: never exp of a rounded log
    with np.errstate(over="ignore"):  # past the float range a weight is inf
        scale, scale2 = np.exp([top, 2.0 * top]).tolist()
    return EstimateResult(
        alpha_hat=scale * mean_w,
        log_alpha_hat=top + _log(mean_w),
        sample_count=m,
        hit_frequency=hits,
        second_moment_weight=scale2 * second,
        log_second_moment=2.0 * top + _log(second),
        std_error=scale * math.sqrt(var_se),
        log_std_error=top + 0.5 * _log(var_se),
        second_moment_std_error=scale2 * math.sqrt(var_se2),
        log_second_moment_std_error=2.0 * top + 0.5 * _log(var_se2),
        theta_used=theta,
        min_hazard_sum_hit=min_hs,
    )


def _log(x: float) -> float:
    """log x for x >= 0, -inf at 0."""
    return math.log(x) if x > 0.0 else -math.inf


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
    """Plain Monte Carlo exceedance frequency: the core's one pass at theta 0."""
    return _run(problem, (0.0,), sample_count, seed, stream_id, workers)[0]


def is_estimate(problem: SumProblem, theta: float, sample_count: int, seed: int,
                stream_id: int = 0, workers: int = 1) -> EstimateResult:
    """Importance-sampling estimate under the theta-twisted laws, in one pass.

    Each exceedance carries the likelihood weight
    (1-theta)^(-N) exp(-theta * sum of cumulative hazards).  The core sums
    w, w^2 and w^4 shifted by their largest log weight, so `std_error`
    underflows only about where alpha_hat does, though w^2 underflows far
    sooner; `log_alpha_hat` stays finite where alpha_hat underflows.
    """
    return _run(problem, (theta,), sample_count, seed, stream_id, workers)[0]


def is_estimates(problem: SumProblem, thetas, sample_count: int, seed: int,
                 stream_id: int = 0, workers: int = 1) -> list:
    """[`is_estimate` at theta for theta in thetas], in one pass that draws
    each chunk once for every theta."""
    return _run(problem, tuple(thetas), sample_count, seed, stream_id, workers)
